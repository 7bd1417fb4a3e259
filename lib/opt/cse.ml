module Mir = Masc_mir.Mir
module Vid_map = Rewrite.Vid_map

(* Available expressions are keyed by the rvalue itself, hashed and
   compared by [Key]: the constructor, the operator, the operand vids
   and the constant bits. A variable is its vid (the verifier rejects
   two records of one vid), so a lookup never hashes or compares a
   variable's name or type; a constant is its bits, so [Cf 0.0] and
   [Cf (-0.0)] are different keys (merging them would turn [z * 0.0]
   into [z * -0.0]) and two NaNs with the same bits are one key.
   Store-to-load forwarding matches the stored index the same way.

   Per-run cost: the available table ([Avail]), two [Rewrite.Vid_map]s
   for the last store per array and one for the substitutions, all
   built once per run and cleared at segment boundaries. A run that changes nothing takes about 40% of the time
   per instruction it took with polymorphic [Hashtbl]s keyed by whole
   rvalues, on compile-large's optimized MIR (EXPERIMENTS.md, "CSE and
   copy-prop on vid-keyed tables"). *)
module Key = struct
  type t = Mir.rvalue

  let bits = Int64.bits_of_float

  let equal_const (a : Mir.const) (b : Mir.const) =
    match (a, b) with
    | Mir.Cf x, Mir.Cf y -> Int64.equal (bits x) (bits y)
    | Mir.Ci x, Mir.Ci y -> Int.equal x y
    | Mir.Cb x, Mir.Cb y -> Bool.equal x y
    | Mir.Cc x, Mir.Cc y ->
      Int64.equal (bits x.Complex.re) (bits y.Complex.re)
      && Int64.equal (bits x.Complex.im) (bits y.Complex.im)
    | (Mir.Cf _ | Mir.Ci _ | Mir.Cb _ | Mir.Cc _), _ -> false

  let equal_operand (a : Mir.operand) (b : Mir.operand) =
    match (a, b) with
    | Mir.Ovar x, Mir.Ovar y -> Int.equal x.Mir.vid y.Mir.vid
    | Mir.Oconst x, Mir.Oconst y -> equal_const x y
    | (Mir.Ovar _ | Mir.Oconst _), _ -> false

  let rec equal_operands a b =
    match (a, b) with
    | [], [] -> true
    | x :: a', y :: b' -> equal_operand x y && equal_operands a' b'
    | _, _ -> false

  (* Operators are constant constructors, so [==] compares them
     exactly. *)
  let equal (a : t) (b : t) =
    match (a, b) with
    | Mir.Rbin (o, a1, a2), Mir.Rbin (p, b1, b2) ->
      o == p && equal_operand a1 b1 && equal_operand a2 b2
    | Mir.Runop (o, x), Mir.Runop (p, y) -> o == p && equal_operand x y
    | Mir.Rmath (n, xs), Mir.Rmath (m, ys)
    | Mir.Rintrin (n, xs), Mir.Rintrin (m, ys) ->
      String.equal n m && equal_operands xs ys
    | Mir.Rcomplex (x1, x2), Mir.Rcomplex (y1, y2) ->
      equal_operand x1 y1 && equal_operand x2 y2
    | Mir.Rload (x, i), Mir.Rload (y, j) ->
      Int.equal x.Mir.vid y.Mir.vid && equal_operand i j
    | Mir.Rmove x, Mir.Rmove y -> equal_operand x y
    | Mir.Rvload (x, i, l), Mir.Rvload (y, j, m) ->
      Int.equal x.Mir.vid y.Mir.vid && equal_operand i j && Int.equal l m
    | Mir.Rvbroadcast (x, l), Mir.Rvbroadcast (y, m) ->
      Int.equal l m && equal_operand x y
    | Mir.Rvreduce (r, x), Mir.Rvreduce (s, y) -> r == s && equal_operand x y
    | ( ( Mir.Rbin _ | Mir.Runop _ | Mir.Rmath _ | Mir.Rcomplex _ | Mir.Rload _
        | Mir.Rmove _ | Mir.Rvload _ | Mir.Rvbroadcast _ | Mir.Rvreduce _
        | Mir.Rintrin _ ),
        _ ) ->
      false

  let mix h x = (h * 31) + x

  (* Both halves of the bits, so constants whose low mantissa bits are
     zero (most literals) still spread. *)
  let hash_float f =
    let b = bits f in
    Int64.to_int (Int64.logxor b (Int64.shift_right_logical b 32))

  let hash_const = function
    | Mir.Cf x -> hash_float x
    | Mir.Ci i -> mix 1 i
    | Mir.Cb b -> if b then 3 else 2
    | Mir.Cc z -> mix (hash_float z.Complex.re) (hash_float z.Complex.im)

  let hash_operand = function
    | Mir.Ovar v -> v.Mir.vid
    | Mir.Oconst c -> mix 17 (hash_const c)

  let rec hash_operands h = function
    | [] -> h
    | x :: tl -> hash_operands (mix h (hash_operand x)) tl

  let binop_code : Mir.binop -> int = function
    | Mir.Badd -> 0 | Mir.Bsub -> 1 | Mir.Bmul -> 2 | Mir.Bdiv -> 3
    | Mir.Bmod -> 4 | Mir.Bidiv -> 5 | Mir.Bpow -> 6 | Mir.Bmin -> 7
    | Mir.Bmax -> 8 | Mir.Blt -> 9 | Mir.Ble -> 10 | Mir.Bgt -> 11
    | Mir.Bge -> 12 | Mir.Beq -> 13 | Mir.Bne -> 14 | Mir.Band -> 15
    | Mir.Bor -> 16

  let unop_code : Mir.unop -> int = function
    | Mir.Uneg -> 0 | Mir.Unot -> 1 | Mir.Uabs -> 2 | Mir.Ure -> 3
    | Mir.Uim -> 4 | Mir.Uconj -> 5

  let vreduce_code : Mir.vreduce -> int = function
    | Mir.Vsum -> 0 | Mir.Vprod -> 1 | Mir.Vmin -> 2 | Mir.Vmax -> 3

  let hash (rv : t) =
    let h =
      match rv with
      | Mir.Rbin (o, a, b) ->
        mix (mix (mix 1 (binop_code o)) (hash_operand a)) (hash_operand b)
      | Mir.Runop (o, a) -> mix (mix 2 (unop_code o)) (hash_operand a)
      | Mir.Rmath (n, args) -> hash_operands (mix 3 (String.length n)) args
      | Mir.Rcomplex (a, b) -> mix (mix 4 (hash_operand a)) (hash_operand b)
      | Mir.Rload (arr, i) -> mix (mix 5 arr.Mir.vid) (hash_operand i)
      | Mir.Rmove a -> mix 6 (hash_operand a)
      | Mir.Rvload (arr, i, l) ->
        mix (mix (mix 7 arr.Mir.vid) (hash_operand i)) l
      | Mir.Rvbroadcast (a, l) -> mix (mix 8 (hash_operand a)) l
      | Mir.Rvreduce (r, a) -> mix (mix 9 (vreduce_code r)) (hash_operand a)
      | Mir.Rintrin (n, args) -> hash_operands (mix 10 (String.length n)) args
    in
    h land max_int
end

(* The available expressions of a segment: a chained hash table over
   entry arrays. Adding an entry allocates nothing once the arrays have
   grown to the run's largest segment, a lookup hashes once, [clear]
   resets only the buckets its entries used, and a kill scan is a loop
   over the entries. A removed entry stays in its chain, holding
   [gone], until the next [clear].

   [mentioned] holds every variable id occurring in an entry since the
   last [clear]: holders, operands and load bases. Entries are removed
   without un-marking, so it is a superset, which is all
   [remove_mentioning] needs: a vid outside it cannot make any entry
   stale. Most defs target a fresh temporary nothing mentions yet, so
   most kills stop at one byte read. [has_loads] says a load may be
   available, so a store scans for loads only then. *)
module Avail = struct
  type t = {
    mutable rvs : Mir.rvalue array;
    mutable holders : Mir.var array;
    mutable hashes : int array;
    mutable next : int array;  (* the entry after it in its bucket, or -1 *)
    mutable heads : int array;  (* a bucket's first entry, or -1 *)
    mutable n : int;  (* entries since the last [clear] *)
    mentioned : Rewrite.Vid_set.t;
    mutable has_loads : bool;
  }

  let gone = { Mir.vname = ""; vid = -1; vty = Mir.Tscalar Mir.int_sty }

  let create n_vids =
    { rvs = [||]; holders = [||]; hashes = [||]; next = [||];
      heads = Array.make 16 (-1); n = 0;
      mentioned = Rewrite.Vid_set.create n_vids; has_loads = false }

  let live t e = Array.unsafe_get t.holders e != gone

  let rec find_from t rv h e =
    if e < 0 then -1
    else if t.hashes.(e) = h && live t e && Key.equal t.rvs.(e) rv then e
    else find_from t rv h t.next.(e)

  (* The live entry of [rv], whose hash is [h], or -1. *)
  let find t rv h = find_from t rv h t.heads.(h land (Array.length t.heads - 1))

  let link t e =
    let b = t.hashes.(e) land (Array.length t.heads - 1) in
    t.next.(e) <- t.heads.(b);
    t.heads.(b) <- e

  let grow t =
    let cap = max 16 (2 * t.n) in
    let extend a fill =
      let a' = Array.make cap fill in
      Array.blit a 0 a' 0 t.n;
      a'
    in
    t.rvs <- extend t.rvs (Mir.Rmove (Mir.Oconst (Mir.Ci 0)));
    t.holders <- extend t.holders gone;
    t.hashes <- extend t.hashes 0;
    t.next <- extend t.next (-1);
    if cap > Array.length t.heads then begin
      t.heads <- Array.make cap (-1);
      for e = 0 to t.n - 1 do link t e done
    end

  let add t rv h v =
    if t.n = Array.length t.rvs then grow t;
    let e = t.n in
    t.rvs.(e) <- rv;
    t.holders.(e) <- v;
    t.hashes.(e) <- h;
    link t e;
    t.n <- e + 1

  (* The variable holding [rv], whose hash is [h], or [gone]. *)
  let holder t rv h =
    match find t rv h with -1 -> gone | e -> t.holders.(e)

  let replace t rv h (v : Mir.var) =
    (match find t rv h with -1 -> add t rv h v | e -> t.holders.(e) <- v);
    Rewrite.Vid_set.add t.mentioned v.Mir.vid;
    Rewrite.Vid_set.add_reads t.mentioned rv;
    match rv with
    | Mir.Rload _ | Mir.Rvload _ -> t.has_loads <- true
    | _ -> ()

  (* Removes every entry [vid] holds or its rvalue reads. *)
  let remove_mentioning t vid =
    if Rewrite.Vid_set.mem t.mentioned vid then
      for e = 0 to t.n - 1 do
        if
          live t e
          && (t.holders.(e).Mir.vid = vid || Rewrite.reads_var vid t.rvs.(e))
        then t.holders.(e) <- gone
      done

  let remove_loads t =
    if t.has_loads then begin
      for e = 0 to t.n - 1 do
        match t.rvs.(e) with
        | Mir.Rload _ | Mir.Rvload _ -> t.holders.(e) <- gone
        | _ -> ()
      done;
      t.has_loads <- false
    end

  let clear t =
    let mask = Array.length t.heads - 1 in
    for e = 0 to t.n - 1 do
      t.heads.(t.hashes.(e) land mask) <- -1
    done;
    t.n <- 0;
    Rewrite.Vid_set.clear t.mentioned;
    t.has_loads <- false
end

let run (func : Mir.func) : Mir.func =
  (* available: rvalue -> variable holding its value; subst: variables
     replaced by an earlier equivalent, applied to later operands so
     chained expressions keep matching. One set of tables per run,
     reset at each block ([map_blocks] visits blocks sequentially and
     the tables are reset at every in-block segment boundary anyway). *)
  let available = Avail.create func.Mir.next_vid in
  (* last store per array, its index and its value: enables
     store-to-load forwarding. A kill may unbind one half; forwarding
     needs both. *)
  let stored_idx = Vid_map.create func.Mir.next_vid in
  let stored_val = Vid_map.create func.Mir.next_vid in
  let subst_map = Vid_map.create func.Mir.next_vid in
  let clear_tables () =
    Avail.clear available;
    Vid_map.clear stored_idx;
    Vid_map.clear stored_val;
    Vid_map.clear subst_map
  in
  let subst (op : Mir.operand) =
    match op with
    | Mir.Ovar v when Vid_map.mem subst_map v.Mir.vid ->
      Vid_map.get subst_map v.Mir.vid
    | Mir.Ovar _ | Mir.Oconst _ -> op
  in
  let cacheable = function
    | Mir.Rbin _ | Mir.Runop _ | Mir.Rmath _ | Mir.Rcomplex _
    | Mir.Rload _ | Mir.Rvload _ | Mir.Rvbroadcast _ | Mir.Rvreduce _ ->
      true
    | Mir.Rmove _ | Mir.Rintrin _ -> false
  in
  let kill vid =
    Avail.remove_mentioning available vid;
    Vid_map.remove_reading stored_idx vid;
    Vid_map.remove_reading stored_val vid;
    Vid_map.remove subst_map vid;
    Vid_map.remove_reading subst_map vid
  in
  (* The last store to [arr] wrote [idx]: the value it stored. *)
  let forward (arr : Mir.var) idx rv =
    let a = arr.Mir.vid in
    if
      Vid_map.mem stored_idx a && Vid_map.mem stored_val a
      && Key.equal_operand (Vid_map.get stored_idx a) idx
    then Mir.Rmove (Vid_map.get stored_val a)
    else rv
  in
  let rewrite (instr : Mir.instr) =
    match instr.Mir.idesc with
    | Mir.Idef (v, rv) -> (
      let rv' = Rewrite.map_operands subst rv in
      let rv' =
        match rv' with Mir.Rload (arr, idx) -> forward arr idx rv' | _ -> rv'
      in
      (* The holder of [rv'] is looked up before [v] is killed: in
         [v = v + 1] after [t = v + 1], [v] becomes [t]. *)
      let h = if cacheable rv' then Key.hash rv' else 0 in
      let prior =
        if cacheable rv' then Avail.holder available rv' h else Avail.gone
      in
      kill v.Mir.vid;
      if
        prior != Avail.gone && prior.Mir.vid <> v.Mir.vid
        && Mir.equal_ty prior.Mir.vty v.Mir.vty
      then begin
        Vid_map.set subst_map v.Mir.vid (Mir.Ovar prior);
        Mir.redesc instr (Mir.Idef (v, Mir.Rmove (Mir.Ovar prior)))
      end
      else begin
        if cacheable rv' then Avail.replace available rv' h v;
        if rv' == rv then instr else Mir.redesc instr (Mir.Idef (v, rv'))
      end)
    | Mir.Istore (arr, idx, x) ->
      Avail.remove_loads available;
      let idx' = subst idx and x' = subst x in
      Vid_map.set stored_idx arr.Mir.vid idx';
      Vid_map.set stored_val arr.Mir.vid x';
      if idx' == idx && x' == x then instr
      else Mir.redesc instr (Mir.Istore (arr, idx', x'))
    | Mir.Ivstore (arr, base, x, l) ->
      Avail.remove_loads available;
      Vid_map.remove stored_idx arr.Mir.vid;
      Vid_map.remove stored_val arr.Mir.vid;
      let base' = subst base and x' = subst x in
      if base' == base && x' == x then instr
      else Mir.redesc instr (Mir.Ivstore (arr, base', x', l))
    | Mir.Iif _ | Mir.Iloop _ | Mir.Iwhile _ ->
      clear_tables ();
      instr
    | Mir.Iprint (fmt, ops) ->
      let ops' = Rewrite.smap subst ops in
      if ops' == ops then instr else Mir.redesc instr (Mir.Iprint (fmt, ops'))
    | Mir.Ibreak | Mir.Icontinue | Mir.Ireturn | Mir.Icomment _ -> instr
  in
  let process (block : Mir.block) : Mir.block =
    clear_tables ();
    Rewrite.smap rewrite block
  in
  Rewrite.map_blocks process func
