module Mir = Masc_mir.Mir

(* Sharing-preserving list map: returns the original list (physical
   equality) when [f] returns every element unchanged. All pass
   traversals are built on it so an untouched subtree is shared, never
   re-allocated — which is what makes the pipeline's did-this-pass-
   change-anything check a single pointer comparison on the root. It
   recurses on itself: a local [go] closing over [f] would be a closure
   per call. [f] sees the elements in order, which stateful callbacks
   rely on. *)
let rec smap f l =
  match l with
  | [] -> l
  | x :: tl ->
    let x' = f x in
    let tl' = smap f tl in
    if x' == x && tl' == tl then l else x' :: tl'

(* [map_block_instr], [map_block] and [map_instrs] pass [f] down as an
   argument: a partial application [smap (map_block_instr f)] would
   allocate a closure per block visited. *)
let rec map_block_instr f (i : Mir.instr) : Mir.instr =
  match i.Mir.idesc with
  | Mir.Iif (c, t, e) ->
    let t' = map_block f t in
    let e' = map_block f e in
    if t' == t && e' == e then i else Mir.redesc i (Mir.Iif (c, t', e'))
  | Mir.Iloop l ->
    let body' = map_block f l.Mir.body in
    if body' == l.Mir.body then i
    else Mir.redesc i (Mir.Iloop { l with Mir.body = body' })
  | Mir.Iwhile { cond_block; cond; body } ->
    let cond_block' = map_block f cond_block in
    let body' = map_block f body in
    if cond_block' == cond_block && body' == body then i
    else Mir.redesc i (Mir.Iwhile { cond_block = cond_block'; cond; body = body' })
  | Mir.Idef _ | Mir.Istore _ | Mir.Ivstore _ | Mir.Ibreak | Mir.Icontinue
  | Mir.Ireturn | Mir.Iprint _ | Mir.Icomment _ ->
    i

and map_instrs f (b : Mir.block) : Mir.block =
  match b with
  | [] -> b
  | i :: tl ->
    let i' = map_block_instr f i in
    let tl' = map_instrs f tl in
    if i' == i && tl' == tl then b else i' :: tl'

and map_block f (b : Mir.block) : Mir.block = f (map_instrs f b)

let map_blocks f (func : Mir.func) : Mir.func =
  let body' = map_block f func.Mir.body in
  if body' == func.Mir.body then func else { func with Mir.body = body' }

let rewrite_rvalue f instr =
  match instr.Mir.idesc with
  | Mir.Idef (v, rv) ->
    let rv' = f rv in
    if rv' == rv then instr else Mir.redesc instr (Mir.Idef (v, rv'))
  | _ -> instr

(* The callback is built once per call; [smap] itself allocates
   nothing per block. *)
let map_rvalues f (func : Mir.func) : Mir.func =
  map_blocks (smap (rewrite_rvalue f)) func

(* Sharing-preserving operand substitution inside one rvalue. Base
   arrays of loads/stores are [var]s, not operands, so — like every
   pass's hand-rolled substitution used to — this only rewrites value
   operands (indices, addends, arguments). *)
let map_operands f (rv : Mir.rvalue) : Mir.rvalue =
  match rv with
  | Mir.Rbin (op, a, b) ->
    let a' = f a and b' = f b in
    if a' == a && b' == b then rv else Mir.Rbin (op, a', b')
  | Mir.Runop (op, a) ->
    let a' = f a in
    if a' == a then rv else Mir.Runop (op, a')
  | Mir.Rmath (n, args) ->
    let args' = smap f args in
    if args' == args then rv else Mir.Rmath (n, args')
  | Mir.Rcomplex (a, b) ->
    let a' = f a and b' = f b in
    if a' == a && b' == b then rv else Mir.Rcomplex (a', b')
  | Mir.Rload (arr, idx) ->
    let idx' = f idx in
    if idx' == idx then rv else Mir.Rload (arr, idx')
  | Mir.Rmove a ->
    let a' = f a in
    if a' == a then rv else Mir.Rmove a'
  | Mir.Rvload (arr, base, l) ->
    let base' = f base in
    if base' == base then rv else Mir.Rvload (arr, base', l)
  | Mir.Rvbroadcast (a, l) ->
    let a' = f a in
    if a' == a then rv else Mir.Rvbroadcast (a', l)
  | Mir.Rvreduce (r, a) ->
    let a' = f a in
    if a' == a then rv else Mir.Rvreduce (r, a')
  | Mir.Rintrin (n, args) ->
    let args' = smap f args in
    if args' == args then rv else Mir.Rintrin (n, args')

let rec iter_block g (b : Mir.block) =
  match b with
  | [] -> ()
  | i :: tl ->
    (match i.Mir.idesc with
    | Mir.Iif (_, t, e) ->
      iter_block g t;
      iter_block g e
    | Mir.Iloop l -> iter_block g l.Mir.body
    | Mir.Iwhile { cond_block; body; _ } ->
      iter_block g cond_block;
      iter_block g body
    | Mir.Idef _ | Mir.Istore _ | Mir.Ivstore _ | Mir.Ibreak | Mir.Icontinue
    | Mir.Ireturn | Mir.Iprint _ | Mir.Icomment _ ->
      ());
    g i;
    iter_block g tl

let iter_instrs g (func : Mir.func) = iter_block g func.Mir.body

(* Direct per-constructor checks, no callback and no boxing: CSE's
   [kill] asks this of every available entry that may mention a
   redefined variable. *)
let reads_op vid = function
  | Mir.Ovar v -> v.Mir.vid = vid
  | Mir.Oconst _ -> false

let rec reads_any vid = function
  | [] -> false
  | a :: tl -> reads_op vid a || reads_any vid tl

let reads_var vid (rv : Mir.rvalue) =
  match rv with
  | Mir.Rbin (_, a, b) | Mir.Rcomplex (a, b) -> reads_op vid a || reads_op vid b
  | Mir.Runop (_, a) | Mir.Rmove a | Mir.Rvbroadcast (a, _) | Mir.Rvreduce (_, a)
    ->
    reads_op vid a
  | Mir.Rmath (_, args) | Mir.Rintrin (_, args) -> reads_any vid args
  | Mir.Rload (arr, idx) -> arr.Mir.vid = vid || reads_op vid idx
  | Mir.Rvload (arr, base, _) -> arr.Mir.vid = vid || reads_op vid base

module Vid_set = struct
  (* Membership is [stamp.[vid] = epoch], one byte per id, so [clear]
     is an increment (and a refill once every 255 clears), and neither
     [add] nor [mem] allocates once the bytes cover the function's ids
     (they are dense from 0, see [Mir.Builder]). *)
  type t = { mutable stamp : Bytes.t; mutable epoch : int }

  let create n = { stamp = Bytes.make (max n 1) '\000'; epoch = 1 }

  let add s vid =
    let n = Bytes.length s.stamp in
    if vid >= n then begin
      let grown = Bytes.make (max (vid + 1) (2 * n)) '\000' in
      Bytes.blit s.stamp 0 grown 0 n;
      s.stamp <- grown
    end;
    Bytes.set s.stamp vid (Char.chr s.epoch)

  let add_operand s = function
    | Mir.Ovar v -> add s v.Mir.vid
    | Mir.Oconst _ -> ()

  let rec add_operands s = function
    | [] -> ()
    | a :: tl ->
      add_operand s a;
      add_operands s tl

  let add_reads s (rv : Mir.rvalue) =
    match rv with
    | Mir.Rbin (_, a, b) | Mir.Rcomplex (a, b) ->
      add_operand s a;
      add_operand s b
    | Mir.Runop (_, a) | Mir.Rmove a | Mir.Rvbroadcast (a, _)
    | Mir.Rvreduce (_, a) ->
      add_operand s a
    | Mir.Rmath (_, args) | Mir.Rintrin (_, args) ->
      add_operands s args
    | Mir.Rload (arr, idx) ->
      add s arr.Mir.vid;
      add_operand s idx
    | Mir.Rvload (arr, base, _) ->
      add s arr.Mir.vid;
      add_operand s base

  let mem s vid =
    vid < Bytes.length s.stamp && Char.code (Bytes.get s.stamp vid) = s.epoch

  let mem_operand s = function
    | Mir.Ovar v -> mem s v.Mir.vid
    | Mir.Oconst _ -> false

  let rec mem_any s = function
    | [] -> false
    | a :: tl -> mem_operand s a || mem_any s tl

  let reads_any s (rv : Mir.rvalue) =
    match rv with
    | Mir.Rbin (_, a, b) | Mir.Rcomplex (a, b) ->
      mem_operand s a || mem_operand s b
    | Mir.Runop (_, a) | Mir.Rmove a | Mir.Rvbroadcast (a, _)
    | Mir.Rvreduce (_, a) ->
      mem_operand s a
    | Mir.Rmath (_, args) | Mir.Rintrin (_, args) -> mem_any s args
    | Mir.Rload (arr, idx) -> mem s arr.Mir.vid || mem_operand s idx
    | Mir.Rvload (arr, base, _) -> mem s arr.Mir.vid || mem_operand s base

  (* The epoch is never 0, so a zero byte is out of every epoch. *)
  let remove s vid =
    if vid < Bytes.length s.stamp then Bytes.set s.stamp vid '\000'

  let clear s =
    if s.epoch < 255 then s.epoch <- s.epoch + 1
    else begin
      Bytes.fill s.stamp 0 (Bytes.length s.stamp) '\000';
      s.epoch <- 1
    end
end

module Vid_map = struct
  (* A sparse set with an operand per member. Entry [i < n] binds
     [keys.(i)] to [vals.(i)]; [slots] holds, four bytes per id, the
     entry an id was last given, and an id is bound when that entry is
     below [n] and names it back. So [clear] is [n <- 0], a lookup is a
     byte read and two array reads, and [remove_reading] scans the [n]
     entries. [reads] holds every variable an operand bound since the
     last clear reads (removals do not un-mark it), so
     [remove_reading] of any other id is one byte read. [slots] is
     allocated on the first [set], and the entry arrays grow with the
     bindings, so a run that never binds allocates only [reads]. *)
  type t = {
    mutable slots : Bytes.t;
    mutable keys : int array;
    mutable vals : Mir.operand array;
    mutable n : int;
    reads : Vid_set.t;
    size : int;
  }

  let create n =
    { slots = Bytes.empty; keys = [||]; vals = [||]; n = 0;
      reads = Vid_set.create n; size = max n 1 }

  (* [vid]'s entry, or -1. *)
  let entry m vid =
    if 4 * vid >= Bytes.length m.slots then -1
    else
      let e = Int32.to_int (Bytes.get_int32_ne m.slots (4 * vid)) in
      if e < m.n && Array.unsafe_get m.keys e = vid then e else -1

  let mem m vid = entry m vid >= 0
  let get m vid = m.vals.(entry m vid)

  let set m vid op =
    Vid_set.add_operand m.reads op;
    match entry m vid with
    | -1 ->
      let nb = Bytes.length m.slots in
      if 4 * vid >= nb then begin
        let len = max (4 * (vid + 1)) (max (4 * m.size) (2 * nb)) in
        let grown = Bytes.make len '\000' in
        Bytes.blit m.slots 0 grown 0 nb;
        m.slots <- grown
      end;
      let e = m.n in
      if e = Array.length m.keys then begin
        let cap = max 8 (2 * e) in
        let keys = Array.make cap 0 and vals = Array.make cap op in
        Array.blit m.keys 0 keys 0 e;
        Array.blit m.vals 0 vals 0 e;
        m.keys <- keys;
        m.vals <- vals
      end;
      m.keys.(e) <- vid;
      m.vals.(e) <- op;
      Bytes.set_int32_ne m.slots (4 * vid) (Int32.of_int e);
      m.n <- e + 1
    | e -> m.vals.(e) <- op

  (* The last entry moves into [e]. *)
  let remove_entry m e =
    let last = m.n - 1 in
    if e < last then begin
      let k = m.keys.(last) in
      m.keys.(e) <- k;
      m.vals.(e) <- m.vals.(last);
      Bytes.set_int32_ne m.slots (4 * k) (Int32.of_int e)
    end;
    m.n <- last

  let remove m vid =
    match entry m vid with -1 -> () | e -> remove_entry m e

  let remove_reading m vid =
    if Vid_set.mem m.reads vid then begin
      let e = ref 0 in
      while !e < m.n do
        match Array.unsafe_get m.vals !e with
        | Mir.Ovar v when v.Mir.vid = vid -> remove_entry m !e
        | Mir.Ovar _ | Mir.Oconst _ -> incr e
      done
    end

  let clear m =
    m.n <- 0;
    Vid_set.clear m.reads
end

module Vid_counts = struct
  (* Four bytes per id, dense from 0 like [Vid_set]: half an int array.
     A block of more than 256 words is allocated directly in the major
     heap, which minor-word counts do not show, so the table is kept as
     small as its counts allow. A count is one operand occurrence in one
     function, so 2^31 of them would take a program of tens of
     gigabytes. *)
  type t = { mutable counts : Bytes.t }

  let create n = { counts = Bytes.make (4 * max n 1) '\000' }

  let get c vid =
    if 4 * vid < Bytes.length c.counts then
      Int32.to_int (Bytes.get_int32_ne c.counts (4 * vid))
    else 0

  let add c vid d =
    let i = 4 * vid in
    let n = Bytes.length c.counts in
    if i >= n then begin
      let grown = Bytes.make (max (i + 4) (2 * n)) '\000' in
      Bytes.blit c.counts 0 grown 0 n;
      c.counts <- grown
    end;
    Bytes.set_int32_ne c.counts i
      (Int32.add (Bytes.get_int32_ne c.counts i) (Int32.of_int d))

  let add_operand c d = function
    | Mir.Ovar v -> add c v.Mir.vid d
    | Mir.Oconst _ -> ()

  let rec add_operands c d = function
    | [] -> ()
    | a :: tl ->
      add_operand c d a;
      add_operands c d tl

  let add_reads c d (rv : Mir.rvalue) =
    match rv with
    | Mir.Rbin (_, a, b) | Mir.Rcomplex (a, b) ->
      add_operand c d a;
      add_operand c d b
    | Mir.Runop (_, a) | Mir.Rmove a | Mir.Rvbroadcast (a, _)
    | Mir.Rvreduce (_, a) ->
      add_operand c d a
    | Mir.Rmath (_, args) | Mir.Rintrin (_, args) -> add_operands c d args
    | Mir.Rload (arr, idx) ->
      add c arr.Mir.vid d;
      add_operand c d idx
    | Mir.Rvload (arr, base, _) ->
      add c arr.Mir.vid d;
      add_operand c d base

  let rec add_block_uses c d (b : Mir.block) =
    match b with
    | [] -> ()
    | i :: tl ->
      (match i.Mir.idesc with
      | Mir.Idef (_, rv) -> add_reads c d rv
      | Mir.Istore (arr, idx, v) | Mir.Ivstore (arr, idx, v, _) ->
        add c arr.Mir.vid d;
        add_operand c d idx;
        add_operand c d v
      | Mir.Iif (cond, t, e) ->
        add_operand c d cond;
        add_block_uses c d t;
        add_block_uses c d e
      | Mir.Iloop l ->
        add_operand c d l.Mir.lo;
        add_operand c d l.Mir.step;
        add_operand c d l.Mir.hi;
        add_block_uses c d l.Mir.body
      | Mir.Iwhile { cond_block; cond; body } ->
        add_block_uses c d cond_block;
        add_operand c d cond;
        add_block_uses c d body
      | Mir.Iprint (_, ops) -> add_operands c d ops
      | Mir.Ibreak | Mir.Icontinue | Mir.Ireturn | Mir.Icomment _ -> ());
      add_block_uses c d tl
end

let use_counts (func : Mir.func) : Vid_counts.t =
  let c = Vid_counts.create func.Mir.next_vid in
  Vid_counts.add_block_uses c 1 func.Mir.body;
  List.iter (fun (r : Mir.var) -> Vid_counts.add c r.Mir.vid 1) func.Mir.rets;
  c

let pure = function
  | Mir.Rbin _ | Mir.Runop _ | Mir.Rmath _ | Mir.Rcomplex _ | Mir.Rmove _
  | Mir.Rvbroadcast _ | Mir.Rvreduce _ ->
    true
  | Mir.Rload _ | Mir.Rvload _ | Mir.Rintrin _ -> false
