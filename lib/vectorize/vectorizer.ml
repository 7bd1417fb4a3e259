(* The SIMD loop vectorizer (see vectorizer.mli for the idioms and the
   legality rules).

   A run allocates for the code it emits, not per analyzed loop or per
   unchanged block. The scratch a loop analysis needs (the body's def
   table and data defs, the vector map, the broadcast cache and the
   body's use counts) lives in [ctx], is built once per [run] and is
   cleared per loop, and [process_block] rebuilds only the blocks that
   hold a vectorized loop. The scratch is per run rather than module
   level because compiles run concurrently on several domains (the
   batch service and [--jobs]). *)

module Mir = Masc_mir.Mir
module Affine = Masc_mir.Affine
module Isa = Masc_asip.Isa
module MT = Masc_sema.Mtype
module Diag = Masc_frontend.Diag
module Loc = Masc_frontend.Loc
module Vid_counts = Masc_opt.Rewrite.Vid_counts
module Vid_set = Masc_opt.Rewrite.Vid_set

type stats = { map_loops : int; reduction_loops : int; run_time_trips : int }

exception Bail

type ctx = {
  isa : Isa.t;
  width : int;
  sink : Diag.sink;
  fname : string;
  mutable next_id : int;
  mutable maps : int;
  mutable reds : int;
  mutable dyns : int;
  mutable missing : Isa.kind option;
      (* first intrinsic lookup that failed while analyzing the current
         loop: the idiom was recognized but the ISA cannot express it *)
  mutable cur_loc : Loc.span;
      (* span of the loop being vectorized: every synthesized
         instruction inherits it so profiles attribute vector code to
         the original loop's source line *)
  func_uses : Vid_counts.t;  (* whole-function use counts *)
  (* Per-loop scratch, built once per [run] and cleared per loop: *)
  body_uses : Vid_counts.t;
      (* all zero, except while one loop body's uses are added to it *)
  defs : (int, Mir.rvalue) Hashtbl.t;  (* the analyzed body's defs *)
  data_defs : Vid_set.t;  (* its real-double defs *)
  vmap : (int, Mir.operand) Hashtbl.t;  (* data def -> its vector operand *)
  bcast : (Mir.operand, Mir.operand) Hashtbl.t;  (* invariant -> its splat *)
  mutable out : Mir.instr list;  (* the transformed body, reversed *)
}

let vat ctx d = Mir.at ctx.cur_loc d

let fresh ctx hint ty =
  let v = { Mir.vname = hint; vid = ctx.next_id; vty = ty } in
  ctx.next_id <- ctx.next_id + 1;
  v

let vec_sty lanes = Mir.Tscalar { Mir.base = MT.Double; cplx = MT.Real; lanes }

let is_index_var (v : Mir.var) =
  match v.Mir.vty with
  | Mir.Tscalar { Mir.base = MT.Int | MT.Bool; cplx = MT.Real; lanes = 1 } ->
    true
  | _ -> false

let is_data_var (v : Mir.var) =
  match v.Mir.vty with
  | Mir.Tscalar { Mir.base = MT.Double; cplx = MT.Real; lanes = 1 } -> true
  | _ -> false

(* A vector register loads from and stores to real-double arrays only:
   a complex array joined from a complex and a real binding stays
   scalar. *)
let is_double_array (v : Mir.var) =
  match v.Mir.vty with
  | Mir.Tarray ({ Mir.base = MT.Double; cplx = MT.Real; _ }, _) -> true
  | _ -> false

let simd_kind_of_binop = function
  | Mir.Badd -> Some Isa.Ksimd_add
  | Mir.Bsub -> Some Isa.Ksimd_sub
  | Mir.Bmul -> Some Isa.Ksimd_mul
  | Mir.Bdiv -> Some Isa.Ksimd_div
  | Mir.Bmin -> Some Isa.Ksimd_min
  | Mir.Bmax -> Some Isa.Ksimd_max
  | Mir.Bmod | Mir.Bidiv | Mir.Bpow | Mir.Blt | Mir.Ble | Mir.Bgt | Mir.Bge
  | Mir.Beq | Mir.Bne | Mir.Band | Mir.Bor ->
    None

let instr_for ctx kind =
  match Isa.find ctx.isa kind with
  | Some d when d.Isa.lanes = ctx.width -> d
  | Some _ | None ->
    if ctx.missing = None then ctx.missing <- Some kind;
    raise Bail

(* Scalar per-element cost of the operation a missing SIMD instruction
   would have covered — the basis for the degradation note's cycle
   delta. *)
let scalar_cost_of_kind (c : Isa.costs) = function
  | Isa.Ksimd_div -> c.Isa.fdiv
  | Isa.Kload -> c.Isa.load
  | Isa.Kstore -> c.Isa.store
  | Isa.Ksimd_add | Isa.Ksimd_sub | Isa.Ksimd_mul | Isa.Ksimd_min
  | Isa.Ksimd_max | Isa.Kmac | Isa.Kbroadcast | Isa.Kreduce_add
  | Isa.Kreduce_min | Isa.Kreduce_max | Isa.Kcmul | Isa.Kcmac | Isa.Kcadd ->
    c.Isa.alu

(* Degradation-ladder note: the loop matched a vectorizable idiom but
   the target lacks the instruction, so the scalar loop nest ships.
   The cycle delta assumes a unit-latency custom instruction would have
   replaced [width] scalar operations per chunk. *)
let note_missing ctx kind =
  let delta =
    (ctx.width * scalar_cost_of_kind ctx.isa.Isa.costs kind) - 1
  in
  Diag.report ctx.sink Diag.Severity.Note Diag.Vectorize Loc.dummy
    "%s: loop kept scalar: target '%s' lacks %s at %d lanes (~%d extra \
     cycle(s) per %d elements)"
    ctx.fname ctx.isa.Isa.tname (Isa.kind_to_string kind) ctx.width delta
    ctx.width

(* ---------- loop analysis ---------- *)

(* [note_defs ctx b false] fills [ctx.defs] and [ctx.data_defs] from the
   loop body [b] and returns whether it stores. A body qualifies with
   straight-line code only and one def per variable, each an index or
   a real-double data variable. *)
let rec note_defs ctx (b : Mir.block) stores =
  match b with
  | [] -> stores
  | i :: tl -> (
    match i.Mir.idesc with
    | Mir.Icomment _ -> note_defs ctx tl stores
    | Mir.Idef (v, rv) ->
      if Hashtbl.mem ctx.defs v.Mir.vid then raise Bail;
      Hashtbl.replace ctx.defs v.Mir.vid rv;
      if is_data_var v then Vid_set.add ctx.data_defs v.Mir.vid
      else if not (is_index_var v) then raise Bail;
      note_defs ctx tl stores
    | Mir.Istore _ -> note_defs ctx tl true
    | Mir.Ivstore _ | Mir.Iif _ | Mir.Iloop _ | Mir.Iwhile _ | Mir.Ibreak
    | Mir.Icontinue | Mir.Ireturn | Mir.Iprint _ ->
      raise Bail)

let rec stores_to vid (b : Mir.block) =
  match b with
  | [] -> 0
  | { Mir.idesc = Mir.Istore (arr, _, _); _ } :: tl when arr.Mir.vid = vid ->
    1 + stores_to vid tl
  | _ :: tl -> stores_to vid tl

let rec stores_at vid idx (b : Mir.block) =
  match b with
  | [] -> false
  | { Mir.idesc = Mir.Istore (arr, sidx, _); _ } :: tl ->
    (arr.Mir.vid = vid && sidx = idx) || stores_at vid idx tl
  | _ :: tl -> stores_at vid idx tl

(* Stored arrays: at most one store per array. A stored array may be
   loaded only at exactly the store's index (the read-modify-write
   [c(i) = c(i) + ...] idiom, which is lane-safe); any other overlap
   could carry a dependence across iterations. With CSE the two index
   computations share one variable, so operand equality suffices. *)
let rec stores_legal body (b : Mir.block) =
  match b with
  | [] -> true
  | i :: tl ->
    (match i.Mir.idesc with
    | Mir.Istore (arr, _, _) -> stores_to arr.Mir.vid body = 1
    | Mir.Idef (_, Mir.Rload (arr, idx)) ->
      stores_to arr.Mir.vid body = 0 || stores_at arr.Mir.vid idx body
    | _ -> true)
    && stores_legal body tl

(* Analyzes the body of [l] into [ctx.defs] and [ctx.data_defs],
   raising [Bail] when it cannot be vectorized; returns whether it
   stores. *)
let analyze_body ctx (l : Mir.loop) : bool =
  Hashtbl.clear ctx.defs;
  Vid_set.clear ctx.data_defs;
  let stores = note_defs ctx l.Mir.body false in
  if not (stores_legal l.Mir.body l.Mir.body) then raise Bail;
  stores

(* While [ctx.body_uses] holds a loop body's uses: [vid] is also read
   outside that body. *)
let used_outside ctx vid =
  Vid_counts.get ctx.func_uses vid > Vid_counts.get ctx.body_uses vid

let rec def_escapes ctx except (b : Mir.block) =
  match b with
  | [] -> false
  | { Mir.idesc = Mir.Idef (v, _); _ } :: tl ->
    (v.Mir.vid <> except && used_outside ctx v.Mir.vid)
    || def_escapes ctx except tl
  | _ :: tl -> def_escapes ctx except tl

(* The defs of [l]'s body other than [acc] are not observed after the
   loop, and [acc], when it is a variable id (not -1), is. A data def
   becomes a vector lane; an index def stays scalar in the vector body,
   so after the main loop it holds the last strip's first index, which
   is wrong when the epilogue runs no iteration (a [for] variable read
   after its loop is such a def). *)
let defs_stay_local ctx (l : Mir.loop) ~acc =
  Vid_counts.add_block_uses ctx.body_uses 1 l.Mir.body;
  let ok =
    (acc < 0 || used_outside ctx acc) && not (def_escapes ctx acc l.Mir.body)
  in
  Vid_counts.add_block_uses ctx.body_uses (-1) l.Mir.body;
  ok

(* Emission of the strip-mined structure shared by map and reduction
   loops: returns (prologue defs, main-loop hi operand, epilogue lo
   operand). *)
let emit_strip_mine ctx (l : Mir.loop) :
    Mir.instr list * Mir.operand * Mir.operand =
  let w = ctx.width in
  match (l.Mir.lo, l.Mir.hi) with
  | Mir.Oconst (Mir.Ci lo), Mir.Oconst (Mir.Ci hi) ->
    let n = hi - lo + 1 in
    let chunks = if n > 0 then n / w else 0 in
    let vlen = chunks * w in
    ( [],
      Mir.Oconst (Mir.Ci (lo + vlen - 1)),
      Mir.Oconst (Mir.Ci (lo + vlen)) )
  | lo, hi ->
    let int_ty = Mir.Tscalar Mir.int_sty in
    let defi hint rv =
      let v = fresh ctx hint int_ty in
      (vat ctx (Mir.Idef (v, rv)), Mir.Ovar v)
    in
    let i1, n = defi "vn" (Mir.Rbin (Mir.Bsub, hi, lo)) in
    (* n here is hi - lo; trip count is n + 1 *)
    let i2, n1 = defi "vn1" (Mir.Rbin (Mir.Badd, n, Mir.Oconst (Mir.Ci 1))) in
    let i3, chunks =
      defi "vch" (Mir.Rbin (Mir.Bidiv, n1, Mir.Oconst (Mir.Ci w)))
    in
    (* An empty loop (n1 <= 0) must not push the epilogue start below
       [lo]. *)
    let i3b, chunks =
      defi "vchc" (Mir.Rbin (Mir.Bmax, chunks, Mir.Oconst (Mir.Ci 0)))
    in
    let i4, vlen =
      defi "vlen" (Mir.Rbin (Mir.Bmul, chunks, Mir.Oconst (Mir.Ci w)))
    in
    let i5, main_hi_plus1 = defi "vmh1" (Mir.Rbin (Mir.Badd, lo, vlen)) in
    let i6, main_hi =
      defi "vmh" (Mir.Rbin (Mir.Bsub, main_hi_plus1, Mir.Oconst (Mir.Ci 1)))
    in
    ([ i1; i2; i3; i3b; i4; i5; i6 ], main_hi, main_hi_plus1)

let emit ctx i = ctx.out <- i :: ctx.out

let broadcast ctx (op : Mir.operand) =
  match Hashtbl.find ctx.bcast op with
  | o -> o
  | exception Not_found ->
    let _ = instr_for ctx Isa.Kbroadcast in
    let v = fresh ctx "bc" (vec_sty ctx.width) in
    emit ctx (vat ctx (Mir.Idef (v, Mir.Rvbroadcast (op, ctx.width))));
    let o = Mir.Ovar v in
    Hashtbl.replace ctx.bcast op o;
    o

(* The vector operand standing for a scalar data operand of [l]'s body. *)
let data_operand ctx (l : Mir.loop) (op : Mir.operand) : Mir.operand =
  match op with
  | Mir.Ovar v when Hashtbl.mem ctx.vmap v.Mir.vid ->
    Hashtbl.find ctx.vmap v.Mir.vid
  | Mir.Ovar v when Hashtbl.mem ctx.defs v.Mir.vid ->
    (* Body-defined but not yet mapped: use before def (loop-carried)
       or a lane-varying index feeding the data path. *)
    raise Bail
  | Mir.Ovar v when v.Mir.vid = l.Mir.ivar.Mir.vid ->
    (* The induction variable itself varies per lane; without an iota
       instruction this cannot be broadcast. *)
    raise Bail
  | Mir.Ovar v when is_data_var v || is_index_var v ->
    (* Defined outside the loop: invariant, splat it. *)
    broadcast ctx op
  | Mir.Ovar _ -> raise Bail
  | Mir.Oconst (Mir.Cf _ | Mir.Ci _) -> broadcast ctx op
  | Mir.Oconst _ -> raise Bail

(* [acc] is the reduction accumulator (if any) with its vector
   counterpart. *)
let transform_instr ctx (l : Mir.loop)
    (acc : (Mir.var * Mir.var * Mir.binop) option) (i : Mir.instr) =
  let w = ctx.width in
  match i.Mir.idesc with
  | Mir.Icomment _ -> emit ctx i
  | Mir.Idef (v, rv) when is_index_var v ->
    (* Index computation stays scalar; it must not read data vars. *)
    if Vid_set.reads_any ctx.data_defs rv then raise Bail;
    emit ctx i
  | Mir.Idef (v, rv) -> (
    match acc with
    | Some (acc_var, vacc, op) when v.Mir.vid = acc_var.Mir.vid ->
      (* accumulator update: vacc = vop(vacc, x) *)
      let x =
        match rv with
        | Mir.Rbin (op', p, q) when op' = op -> (
          match (p, q) with
          | Mir.Ovar pv, x when pv.Mir.vid = acc_var.Mir.vid -> x
          | x, Mir.Ovar qv when qv.Mir.vid = acc_var.Mir.vid -> x
          | _ -> raise Bail)
        | _ -> raise Bail
      in
      let kind =
        match op with
        | Mir.Badd -> Isa.Ksimd_add
        | Mir.Bmin -> Isa.Ksimd_min
        | Mir.Bmax -> Isa.Ksimd_max
        | _ -> raise Bail
      in
      let d = instr_for ctx kind in
      let vx = data_operand ctx l x in
      emit ctx
        (vat ctx
           (Mir.Idef (vacc, Mir.Rintrin (d.Isa.iname, [ Mir.Ovar vacc; vx ]))))
    | _ -> (
      match rv with
      | Mir.Rload (arr, idx) -> (
        match Affine.analyze ~ivar:l.Mir.ivar ~defs:ctx.defs idx with
        | Some aff when aff.Affine.coeff = 1 && is_double_array arr ->
          let _ = instr_for ctx Isa.Kload in
          let nv = fresh ctx "v" (vec_sty w) in
          emit ctx (vat ctx (Mir.Idef (nv, Mir.Rvload (arr, idx, w))));
          Hashtbl.replace ctx.vmap v.Mir.vid (Mir.Ovar nv)
        | Some aff when aff.Affine.coeff = 0 ->
          let sv = fresh ctx "s" (Mir.Tscalar Mir.double_sty) in
          emit ctx (vat ctx (Mir.Idef (sv, rv)));
          Hashtbl.replace ctx.vmap v.Mir.vid (broadcast ctx (Mir.Ovar sv))
        | Some _ | None -> raise Bail)
      | Mir.Rmove op -> Hashtbl.replace ctx.vmap v.Mir.vid (data_operand ctx l op)
      | Mir.Rbin (op, p, q) -> (
        match simd_kind_of_binop op with
        | Some kind ->
          let d = instr_for ctx kind in
          let vp = data_operand ctx l p in
          let vq = data_operand ctx l q in
          let nv = fresh ctx "v" (vec_sty w) in
          emit ctx
            (vat ctx (Mir.Idef (nv, Mir.Rintrin (d.Isa.iname, [ vp; vq ]))));
          Hashtbl.replace ctx.vmap v.Mir.vid (Mir.Ovar nv)
        | None -> raise Bail)
      | Mir.Runop (Mir.Uneg, p) ->
        let d = instr_for ctx Isa.Ksimd_sub in
        let zero = broadcast ctx (Mir.Oconst (Mir.Cf 0.0)) in
        let vp = data_operand ctx l p in
        let nv = fresh ctx "v" (vec_sty w) in
        emit ctx
          (vat ctx (Mir.Idef (nv, Mir.Rintrin (d.Isa.iname, [ zero; vp ]))));
        Hashtbl.replace ctx.vmap v.Mir.vid (Mir.Ovar nv)
      | Mir.Runop _ | Mir.Rmath _ | Mir.Rcomplex _ | Mir.Rvload _
      | Mir.Rvbroadcast _ | Mir.Rvreduce _ | Mir.Rintrin _ ->
        raise Bail))
  | Mir.Istore (arr, idx, x) -> (
    match Affine.analyze ~ivar:l.Mir.ivar ~defs:ctx.defs idx with
    | Some aff when aff.Affine.coeff = 1 && is_double_array arr ->
      let _ = instr_for ctx Isa.Kstore in
      let vx = data_operand ctx l x in
      emit ctx (vat ctx (Mir.Ivstore (arr, idx, vx, w)))
    | Some _ | None -> raise Bail)
  | Mir.Ivstore _ | Mir.Iif _ | Mir.Iloop _ | Mir.Iwhile _ | Mir.Ibreak
  | Mir.Icontinue | Mir.Ireturn | Mir.Iprint _ ->
    raise Bail

let rec transform_instrs ctx l acc (b : Mir.block) =
  match b with
  | [] -> ()
  | i :: tl ->
    transform_instr ctx l acc i;
    transform_instrs ctx l acc tl

(* Transform the analyzed body of [l] into vector form. *)
let transform_body ctx (l : Mir.loop) ~acc : Mir.block =
  Hashtbl.clear ctx.vmap;
  Hashtbl.clear ctx.bcast;
  ctx.out <- [];
  transform_instrs ctx l acc l.Mir.body;
  List.rev ctx.out

let rec fuse_pairs ctx mac_name mul_name add_name (b : Mir.block) =
  match b with
  | { Mir.idesc = Mir.Idef (t, Mir.Rintrin (m, [ a; b ])); _ }
    :: ({ Mir.idesc =
            Mir.Idef (acc, Mir.Rintrin (ad, [ Mir.Ovar accu; Mir.Ovar t' ]));
          _ } as i2)
    :: rest
    when String.equal m mul_name
         && String.equal ad add_name
         && t'.Mir.vid = t.Mir.vid
         && accu.Mir.vid = acc.Mir.vid
         && Vid_counts.get ctx.body_uses t.Mir.vid = 1 ->
    Mir.redesc i2
      (Mir.Idef (acc, Mir.Rintrin (mac_name, [ Mir.Ovar accu; a; b ])))
    :: fuse_pairs ctx mac_name mul_name add_name rest
  | i :: rest -> i :: fuse_pairs ctx mac_name mul_name add_name rest
  | [] -> []

(* Fuse vmul feeding the vacc vadd into the MAC instruction when the ISA
   has one: [t = vmul a b; vacc = vadd vacc t] -> [vacc = vmac vacc a b]. *)
let fuse_mac ctx (block : Mir.block) : Mir.block =
  match Isa.find ctx.isa Isa.Kmac with
  | None -> block
  | Some mac ->
    let mul_name =
      match Isa.find ctx.isa Isa.Ksimd_mul with
      | Some d -> d.Isa.iname
      | None -> ""
    in
    let add_name =
      match Isa.find ctx.isa Isa.Ksimd_add with
      | Some d -> d.Isa.iname
      | None -> ""
    in
    Vid_counts.add_block_uses ctx.body_uses 1 block;
    let fused = fuse_pairs ctx mac.Isa.iname mul_name add_name block in
    Vid_counts.add_block_uses ctx.body_uses (-1) block;
    fused

(* A vectorized loop without constant bounds got the run-time
   strip-mine prologue of [emit_strip_mine]. *)
let count_run_time_trips ctx (l : Mir.loop) =
  match (l.Mir.lo, l.Mir.hi) with
  | Mir.Oconst (Mir.Ci _), Mir.Oconst (Mir.Ci _) -> ()
  | _ -> ctx.dyns <- ctx.dyns + 1

(* The replacement of [l] as a map loop, or [] when it is not one. *)
let try_map_loop ctx (l : Mir.loop) : Mir.instr list =
  match
    if not (analyze_body ctx l) then raise Bail;
    (* Body defs must not be observed after the loop. *)
    if not (defs_stay_local ctx l ~acc:(-1)) then raise Bail;
    let body' = transform_body ctx l ~acc:None in
    let pre, main_hi, epi_lo = emit_strip_mine ctx l in
    let main =
      vat ctx
        (Mir.Iloop
           { l with
             Mir.step = Mir.Oconst (Mir.Ci ctx.width);
             hi = main_hi;
             body = body' })
    in
    let epilogue = vat ctx (Mir.Iloop { l with Mir.lo = epi_lo }) in
    pre @ [ main; epilogue ]
  with
  | instrs ->
    ctx.maps <- ctx.maps + 1;
    count_run_time_trips ctx l;
    instrs
  | exception Bail -> []

let self_ref (v : Mir.var) = function
  | Mir.Ovar u -> u.Mir.vid = v.Mir.vid
  | Mir.Oconst _ -> false

(* The body's unique self-referential [+]/[min]/[max] def: the
   accumulator and its operator. *)
let rec find_acc found (b : Mir.block) =
  match b with
  | [] -> ( match found with Some x -> x | None -> raise Bail)
  | { Mir.idesc =
        Mir.Idef (v, Mir.Rbin (((Mir.Badd | Mir.Bmin | Mir.Bmax) as op), p, q));
      _ }
    :: tl
    when self_ref v p || self_ref v q ->
    if Option.is_some found then raise Bail;
    find_acc (Some (v, op)) tl
  | _ :: tl -> find_acc found tl

(* The replacement of [l] as a reduction loop, or [] when it is not
   one. *)
let try_reduction_loop ctx (l : Mir.loop) : Mir.instr list =
  match
    if analyze_body ctx l then raise Bail;
    let acc_var, op = find_acc None l.Mir.body in
    if not (Vid_set.mem ctx.data_defs acc_var.Mir.vid) then raise Bail;
    (* The accumulator is read after the loop; the other defs are
       loop-local. *)
    if not (defs_stay_local ctx l ~acc:acc_var.Mir.vid) then raise Bail;
    let red_kind, vred =
      match op with
      | Mir.Badd -> (Isa.Kreduce_add, Mir.Vsum)
      | Mir.Bmin -> (Isa.Kreduce_min, Mir.Vmin)
      | Mir.Bmax -> (Isa.Kreduce_max, Mir.Vmax)
      | _ -> raise Bail
    in
    let _ = instr_for ctx red_kind in
    let vacc = fresh ctx "vacc" (vec_sty ctx.width) in
    let body' = transform_body ctx l ~acc:(Some (acc_var, vacc, op)) in
    let body' = fuse_mac ctx body' in
    let pre, main_hi, epi_lo = emit_strip_mine ctx l in
    let init =
      match op with
      | Mir.Badd -> Mir.Rvbroadcast (Mir.Oconst (Mir.Cf 0.0), ctx.width)
      | _ -> Mir.Rvbroadcast (Mir.Ovar acc_var, ctx.width)
    in
    let red_var = fresh ctx "red" (Mir.Tscalar Mir.double_sty) in
    let main =
      vat ctx
        (Mir.Iloop
           { l with
             Mir.step = Mir.Oconst (Mir.Ci ctx.width);
             hi = main_hi;
             body = body' })
    in
    let combine =
      vat ctx
        (Mir.Idef (acc_var, Mir.Rbin (op, Mir.Ovar acc_var, Mir.Ovar red_var)))
    in
    let epilogue = vat ctx (Mir.Iloop { l with Mir.lo = epi_lo }) in
    pre
    @ [ vat ctx (Mir.Idef (vacc, init)); main;
        vat ctx (Mir.Idef (red_var, Mir.Rvreduce (vred, Mir.Ovar vacc)));
        combine; epilogue ]
  with
  | instrs ->
    ctx.reds <- ctx.reds + 1;
    count_run_time_trips ctx l;
    instrs
  | exception Bail -> []

let vectorizable_header (l : Mir.loop) =
  l.Mir.step = Mir.Oconst (Mir.Ci 1)
  &&
  match l.Mir.ivar.Mir.vty with
  | Mir.Tscalar { Mir.base = MT.Int; cplx = MT.Real; lanes = 1 } -> true
  | _ -> false

(* The instructions replacing loop [l], or [] to keep it. *)
let vectorize_loop ctx (l : Mir.loop) : Mir.instr list =
  if not (vectorizable_header l) then []
  else begin
    ctx.missing <- None;
    match try_map_loop ctx l with
    | [] -> (
      match try_reduction_loop ctx l with
      | [] ->
        (match ctx.missing with
        | Some kind -> note_missing ctx kind
        | None -> ());
        []
      | instrs -> instrs)
    | instrs -> instrs
  end

(* [b] with its head replaced by [i'] and its tail by [tl'], or [b]
   itself when both are unchanged. *)
let relink (b : Mir.block) i' tl' =
  match b with
  | i :: tl when i == i' && tl == tl' -> b
  | _ -> i' :: tl'

(* Rebuilds only the blocks holding a vectorized loop, in the manner of
   [Rewrite.smap]. The order of the recursive calls fixes the order in
   which fresh variables are numbered, and so their names in the C:
   inner loops before their own loop, the else branch before the then
   branch, a while body before its condition block, and each
   instruction before the ones after it. *)
let rec process_block ctx (b : Mir.block) : Mir.block =
  match b with
  | [] -> b
  | i :: tl -> (
    match i.Mir.idesc with
    | Mir.Iloop l -> (
      let body = process_block ctx l.Mir.body in
      let l' = if body == l.Mir.body then l else { l with Mir.body } in
      ctx.cur_loc <- i.Mir.iloc;
      match vectorize_loop ctx l' with
      | [] ->
        let i' = if l' == l then i else Mir.redesc i (Mir.Iloop l') in
        relink b i' (process_block ctx tl)
      | instrs -> instrs @ process_block ctx tl)
    | Mir.Iif (c, t, e) ->
      let e' = process_block ctx e in
      let t' = process_block ctx t in
      let i' =
        if t' == t && e' == e then i else Mir.redesc i (Mir.Iif (c, t', e'))
      in
      relink b i' (process_block ctx tl)
    | Mir.Iwhile { cond_block; cond; body } ->
      let body' = process_block ctx body in
      let cond_block' = process_block ctx cond_block in
      let i' =
        if body' == body && cond_block' == cond_block then i
        else
          Mir.redesc i
            (Mir.Iwhile { cond_block = cond_block'; cond; body = body' })
      in
      relink b i' (process_block ctx tl)
    | Mir.Idef _ | Mir.Istore _ | Mir.Ivstore _ | Mir.Ibreak
    | Mir.Icontinue | Mir.Ireturn | Mir.Iprint _ | Mir.Icomment _ ->
      relink b i (process_block ctx tl))

let run ?(sink = Diag.Raise) (isa : Isa.t) (func : Mir.func) :
    Mir.func * stats =
  if isa.Isa.vector_width < 2 then
    (func, { map_loops = 0; reduction_loops = 0; run_time_trips = 0 })
  else begin
    let next_id = func.Mir.next_vid in
    let ctx =
      { isa; width = isa.Isa.vector_width; sink; fname = func.Mir.name;
        next_id; maps = 0; reds = 0; dyns = 0;
        missing = None; cur_loc = Loc.dummy;
        func_uses = Masc_opt.Rewrite.use_counts func;
        body_uses = Vid_counts.create next_id;
        defs = Hashtbl.create 16; data_defs = Vid_set.create next_id;
        vmap = Hashtbl.create 16; bcast = Hashtbl.create 8; out = [] }
    in
    let body = process_block ctx func.Mir.body in
    let func =
      if body == func.Mir.body then func
      else { func with Mir.body; next_vid = ctx.next_id }
    in
    ( func,
      { map_loops = ctx.maps; reduction_loops = ctx.reds;
        run_time_trips = ctx.dyns } )
  end
