module Mir = Masc_mir.Mir
module Affine = Masc_mir.Affine
module Isa = Masc_asip.Isa
module MT = Masc_sema.Mtype
module Diag = Masc_frontend.Diag
module Loc = Masc_frontend.Loc

type stats = { map_loops : int; reduction_loops : int; run_time_trips : int }

exception Bail

type ctx = {
  isa : Isa.t;
  width : int;
  sink : Diag.sink;
  fname : string;
  mutable next_id : int;
  mutable new_vars : Mir.var list;
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
  func_uses : Masc_opt.Rewrite.Vid_counts.t;  (* whole-function use counts *)
}

let vat ctx d = Mir.at ctx.cur_loc d

let fresh ctx hint ty =
  let v = { Mir.vname = hint; vid = ctx.next_id; vty = ty } in
  ctx.next_id <- ctx.next_id + 1;
  ctx.new_vars <- v :: ctx.new_vars;
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

(* Uses of variables within a block (including nested). *)
let block_uses (b : Mir.block) : (int, int) Hashtbl.t =
  let tbl = Hashtbl.create 32 in
  let bump = function
    | Mir.Ovar v ->
      Hashtbl.replace tbl v.Mir.vid
        (1 + (try Hashtbl.find tbl v.Mir.vid with Not_found -> 0))
    | Mir.Oconst _ -> ()
  in
  let rec go b =
    List.iter
      (fun (i : Mir.instr) ->
        match i.Mir.idesc with
        | Mir.Idef (_, rv) -> Masc_opt.Rewrite.iter_operands bump rv
        | Mir.Istore (arr, idx, v) ->
          bump (Mir.Ovar arr);
          bump idx;
          bump v
        | Mir.Ivstore (arr, base, v, _) ->
          bump (Mir.Ovar arr);
          bump base;
          bump v
        | Mir.Iif (c, t, e) ->
          bump c;
          go t;
          go e
        | Mir.Iloop l ->
          bump l.Mir.lo;
          bump l.Mir.step;
          bump l.Mir.hi;
          go l.Mir.body
        | Mir.Iwhile { cond_block; cond; body } ->
          go cond_block;
          bump cond;
          go body
        | Mir.Iprint (_, ops) -> List.iter bump ops
        | Mir.Ibreak | Mir.Icontinue | Mir.Ireturn | Mir.Icomment _ -> ())
      b
  in
  go b;
  tbl

(* [body_uses] is the candidate loop body's own use-count table, built
   once per loop analysis — callers query it for every data variable, so
   rebuilding it per query would scan the body quadratically. *)
let used_outside ctx body_uses vid =
  let inside = try Hashtbl.find body_uses vid with Not_found -> 0 in
  let total = Masc_opt.Rewrite.Vid_counts.get ctx.func_uses vid in
  total > inside

(* ---------- loop analysis ---------- *)

type analysis = {
  defs : (int, Mir.rvalue) Hashtbl.t;  (* unique defs in body *)
  data_ids : (int, unit) Hashtbl.t;
  index_ids : (int, unit) Hashtbl.t;
  stores : (Mir.var * Mir.operand * Mir.operand) list;
}

let analyze_body (l : Mir.loop) : analysis =
  let defs = Hashtbl.create 16 in
  let data_ids = Hashtbl.create 16 in
  let index_ids = Hashtbl.create 16 in
  let stores = ref [] in
  List.iter
    (fun (i : Mir.instr) ->
      match i.Mir.idesc with
      | Mir.Icomment _ -> ()
      | Mir.Idef (v, rv) ->
        if Hashtbl.mem defs v.Mir.vid then raise Bail;
        Hashtbl.replace defs v.Mir.vid rv;
        if is_index_var v then Hashtbl.replace index_ids v.Mir.vid ()
        else if is_data_var v then Hashtbl.replace data_ids v.Mir.vid ()
        else raise Bail
      | Mir.Istore (arr, idx, x) -> stores := (arr, idx, x) :: !stores
      | Mir.Ivstore _ | Mir.Iif _ | Mir.Iloop _ | Mir.Iwhile _ | Mir.Ibreak
      | Mir.Icontinue | Mir.Ireturn | Mir.Iprint _ ->
        raise Bail)
    l.Mir.body;
  (* Stored arrays: at most one store per array. A stored array may be
     loaded only at exactly the store's index (the read-modify-write
     [c(i) = c(i) + ...] idiom, which is lane-safe); any other overlap
     could carry a dependence across iterations. With CSE the two index
     computations share one variable, so operand equality suffices. *)
  let stored = List.map (fun (a, _, _) -> a.Mir.vid) !stores in
  let module IS = Set.Make (Int) in
  if IS.cardinal (IS.of_list stored) <> List.length stored then raise Bail;
  Hashtbl.iter
    (fun _ rv ->
      match rv with
      | Mir.Rload (arr, load_idx) when List.mem arr.Mir.vid stored ->
        let same_slot =
          List.exists
            (fun (sarr, sidx, _) ->
              sarr.Mir.vid = arr.Mir.vid && sidx = load_idx)
            !stores
        in
        if not same_slot then raise Bail
      | _ -> ())
    defs;
  { defs; data_ids; index_ids; stores = List.rev !stores }

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

(* Transform the body instructions into vector form. [acc] is the
   reduction accumulator (if any) with its vector counterpart. *)
let transform_body ctx (l : Mir.loop) (a : analysis)
    ~(acc : (Mir.var * Mir.var * Mir.binop) option) : Mir.block =
  let w = ctx.width in
  let out = ref [] in
  let emit i = out := i :: !out in
  let vmap : (int, Mir.operand) Hashtbl.t = Hashtbl.create 16 in
  let bcast_cache : (Mir.operand, Mir.operand) Hashtbl.t = Hashtbl.create 8 in
  let broadcast (op : Mir.operand) =
    match Hashtbl.find_opt bcast_cache op with
    | Some v -> v
    | None ->
      let _ = instr_for ctx Isa.Kbroadcast in
      let v = fresh ctx "bc" (vec_sty w) in
      emit (vat ctx (Mir.Idef (v, Mir.Rvbroadcast (op, w))));
      let o = Mir.Ovar v in
      Hashtbl.replace bcast_cache op o;
      o
  in
  let data_operand (op : Mir.operand) : Mir.operand =
    match op with
    | Mir.Ovar v when Hashtbl.mem vmap v.Mir.vid ->
      Hashtbl.find vmap v.Mir.vid
    | Mir.Ovar v when Hashtbl.mem a.defs v.Mir.vid ->
      (* Body-defined but not yet mapped: use before def (loop-carried)
         or a lane-varying index feeding the data path. *)
      raise Bail
    | Mir.Ovar v when v.Mir.vid = l.Mir.ivar.Mir.vid ->
      (* The induction variable itself varies per lane; without an iota
         instruction this cannot be broadcast. *)
      raise Bail
    | Mir.Ovar v when is_data_var v || is_index_var v ->
      (* Defined outside the loop: invariant, splat it. *)
      broadcast op
    | Mir.Ovar _ -> raise Bail
    | Mir.Oconst (Mir.Cf _ | Mir.Ci _) -> broadcast op
    | Mir.Oconst _ -> raise Bail
  in
  let index_operand_ok (op : Mir.operand) =
    match op with
    | Mir.Ovar v -> not (Hashtbl.mem a.data_ids v.Mir.vid)
    | Mir.Oconst _ -> true
  in
  List.iter
    (fun (i : Mir.instr) ->
      match i.Mir.idesc with
      | Mir.Icomment _ -> emit i
      | Mir.Idef (v, rv) when Hashtbl.mem a.index_ids v.Mir.vid ->
        (* Index computation stays scalar; it must not read data vars. *)
        if not (Masc_opt.Rewrite.forall_operands index_operand_ok rv) then
          raise Bail;
        emit i
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
          let vx = data_operand x in
          emit
            (vat ctx
               (Mir.Idef (vacc, Mir.Rintrin (d.Isa.iname, [ Mir.Ovar vacc; vx ]))))
        | _ -> (
          match rv with
          | Mir.Rload (arr, idx) -> (
            match Affine.analyze ~ivar:l.Mir.ivar ~defs:a.defs idx with
            | Some aff when aff.Affine.coeff = 1 && is_double_array arr ->
              let _ = instr_for ctx Isa.Kload in
              let nv = fresh ctx "v" (vec_sty w) in
              emit (vat ctx (Mir.Idef (nv, Mir.Rvload (arr, idx, w))));
              Hashtbl.replace vmap v.Mir.vid (Mir.Ovar nv)
            | Some aff when aff.Affine.coeff = 0 ->
              let sv = fresh ctx "s" (Mir.Tscalar Mir.double_sty) in
              emit (vat ctx (Mir.Idef (sv, rv)));
              Hashtbl.replace vmap v.Mir.vid (broadcast (Mir.Ovar sv))
            | Some _ | None -> raise Bail)
          | Mir.Rmove op -> Hashtbl.replace vmap v.Mir.vid (data_operand op)
          | Mir.Rbin (op, p, q) -> (
            match simd_kind_of_binop op with
            | Some kind ->
              let d = instr_for ctx kind in
              let vp = data_operand p in
              let vq = data_operand q in
              let nv = fresh ctx "v" (vec_sty w) in
              emit (vat ctx (Mir.Idef (nv, Mir.Rintrin (d.Isa.iname, [ vp; vq ]))));
              Hashtbl.replace vmap v.Mir.vid (Mir.Ovar nv)
            | None -> raise Bail)
          | Mir.Runop (Mir.Uneg, p) ->
            let d = instr_for ctx Isa.Ksimd_sub in
            let zero = broadcast (Mir.Oconst (Mir.Cf 0.0)) in
            let vp = data_operand p in
            let nv = fresh ctx "v" (vec_sty w) in
            emit (vat ctx (Mir.Idef (nv, Mir.Rintrin (d.Isa.iname, [ zero; vp ]))));
            Hashtbl.replace vmap v.Mir.vid (Mir.Ovar nv)
          | Mir.Runop _ | Mir.Rmath _ | Mir.Rcomplex _ | Mir.Rvload _
          | Mir.Rvbroadcast _ | Mir.Rvreduce _ | Mir.Rintrin _ ->
            raise Bail))
      | Mir.Istore (arr, idx, x) -> (
        match Affine.analyze ~ivar:l.Mir.ivar ~defs:a.defs idx with
        | Some aff when aff.Affine.coeff = 1 && is_double_array arr ->
          let _ = instr_for ctx Isa.Kstore in
          let vx = data_operand x in
          emit (vat ctx (Mir.Ivstore (arr, idx, vx, w)))
        | Some _ | None -> raise Bail)
      | Mir.Ivstore _ | Mir.Iif _ | Mir.Iloop _ | Mir.Iwhile _ | Mir.Ibreak
      | Mir.Icontinue | Mir.Ireturn | Mir.Iprint _ ->
        raise Bail)
    l.Mir.body;
  List.rev !out

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
    let uses = block_uses block in
    let rec go = function
      | { Mir.idesc = Mir.Idef (t, Mir.Rintrin (m, [ a; b ])); _ }
        :: ({ Mir.idesc =
                Mir.Idef (acc, Mir.Rintrin (ad, [ Mir.Ovar accu; Mir.Ovar t' ]));
              _ } as i2)
        :: rest
        when String.equal m mul_name
             && String.equal ad add_name
             && t'.Mir.vid = t.Mir.vid
             && accu.Mir.vid = acc.Mir.vid
             && (try Hashtbl.find uses t.Mir.vid = 1 with Not_found -> false) ->
        Mir.redesc i2
          (Mir.Idef (acc, Mir.Rintrin (mac.Isa.iname, [ Mir.Ovar accu; a; b ])))
        :: go rest
      | i :: rest -> i :: go rest
      | [] -> []
    in
    go block

(* A vectorized loop without constant bounds got the run-time
   strip-mine prologue of [emit_strip_mine]. *)
let count_run_time_trips ctx (l : Mir.loop) =
  match (l.Mir.lo, l.Mir.hi) with
  | Mir.Oconst (Mir.Ci _), Mir.Oconst (Mir.Ci _) -> ()
  | _ -> ctx.dyns <- ctx.dyns + 1

let try_map_loop ctx (l : Mir.loop) : Mir.instr list option =
  match
    let a = analyze_body l in
    if a.stores = [] then raise Bail;
    (* Data defs must not be observed after the loop. *)
    let body_uses = block_uses l.Mir.body in
    Hashtbl.iter
      (fun vid () -> if used_outside ctx body_uses vid then raise Bail)
      a.data_ids;
    let body' = transform_body ctx l a ~acc:None in
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
    Some instrs
  | exception Bail -> None

let try_reduction_loop ctx (l : Mir.loop) : Mir.instr list option =
  match
    let a = analyze_body l in
    if a.stores <> [] then raise Bail;
    (* Find the unique self-referential accumulator definition. *)
    let accs =
      Hashtbl.fold
        (fun vid rv acc ->
          match rv with
          | Mir.Rbin (((Mir.Badd | Mir.Bmin | Mir.Bmax) as op), p, q) ->
            let self o =
              match o with
              | Mir.Ovar v -> v.Mir.vid = vid
              | Mir.Oconst _ -> false
            in
            if self p || self q then (vid, op) :: acc else acc
          | _ -> acc)
        a.defs []
    in
    let acc_vid, op = match accs with [ x ] -> x | _ -> raise Bail in
    if not (Hashtbl.mem a.data_ids acc_vid) then raise Bail;
    let body_uses = block_uses l.Mir.body in
    if not (used_outside ctx body_uses acc_vid) then raise Bail;
    (* Locate the accumulator variable record. *)
    let acc_var =
      let found = ref None in
      List.iter
        (fun (i : Mir.instr) ->
          match i.Mir.idesc with
          | Mir.Idef (v, _) when v.Mir.vid = acc_vid -> found := Some v
          | _ -> ())
        l.Mir.body;
      match !found with Some v -> v | None -> raise Bail
    in
    (* Other data defs must be loop-local. *)
    Hashtbl.iter
      (fun vid () ->
        if vid <> acc_vid && used_outside ctx body_uses vid then raise Bail)
      a.data_ids;
    let red_kind, vred =
      match op with
      | Mir.Badd -> (Isa.Kreduce_add, Mir.Vsum)
      | Mir.Bmin -> (Isa.Kreduce_min, Mir.Vmin)
      | Mir.Bmax -> (Isa.Kreduce_max, Mir.Vmax)
      | _ -> raise Bail
    in
    let _ = instr_for ctx red_kind in
    let vacc = fresh ctx "vacc" (vec_sty ctx.width) in
    (* Remove the accumulator from defs so that loads of it broadcast...
       it cannot be loaded (it is scalar); data_operand of acc inside
       body would hit vmap only via the special case. *)
    let body' = transform_body ctx l a ~acc:(Some (acc_var, vacc, op)) in
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
    Some instrs
  | exception Bail -> None

let vectorizable_header (l : Mir.loop) =
  l.Mir.step = Mir.Oconst (Mir.Ci 1)
  &&
  match l.Mir.ivar.Mir.vty with
  | Mir.Tscalar { Mir.base = MT.Int; cplx = MT.Real; lanes = 1 } -> true
  | _ -> false

let rec process_block ctx (b : Mir.block) : Mir.block =
  List.concat_map
    (fun (i : Mir.instr) ->
      match i.Mir.idesc with
      | Mir.Iloop l ->
        let l = { l with Mir.body = process_block ctx l.Mir.body } in
        ctx.cur_loc <- i.Mir.iloc;
        if vectorizable_header l then begin
          ctx.missing <- None;
          match try_map_loop ctx l with
          | Some instrs -> instrs
          | None -> (
            match try_reduction_loop ctx l with
            | Some instrs -> instrs
            | None ->
              (match ctx.missing with
              | Some kind -> note_missing ctx kind
              | None -> ());
              [ Mir.redesc i (Mir.Iloop l) ])
        end
        else [ Mir.redesc i (Mir.Iloop l) ]
      | Mir.Iif (c, t, e) ->
        [ Mir.redesc i (Mir.Iif (c, process_block ctx t, process_block ctx e)) ]
      | Mir.Iwhile { cond_block; cond; body } ->
        [ Mir.redesc i
            (Mir.Iwhile
               { cond_block = process_block ctx cond_block;
                 cond;
                 body = process_block ctx body }) ]
      | Mir.Idef _ | Mir.Istore _ | Mir.Ivstore _ | Mir.Ibreak
      | Mir.Icontinue | Mir.Ireturn | Mir.Iprint _ | Mir.Icomment _ ->
        [ i ])
    b

let run ?(sink = Diag.Raise) (isa : Isa.t) (func : Mir.func) :
    Mir.func * stats =
  if isa.Isa.vector_width < 2 then
    (func, { map_loops = 0; reduction_loops = 0; run_time_trips = 0 })
  else begin
    let max_id =
      List.fold_left (fun m (v : Mir.var) -> max m v.Mir.vid) 0 func.Mir.vars
    in
    let ctx =
      { isa; width = isa.Isa.vector_width; sink; fname = func.Mir.name;
        next_id = max_id + 1; new_vars = []; maps = 0; reds = 0; dyns = 0;
        missing = None; cur_loc = Loc.dummy;
        func_uses = Masc_opt.Rewrite.use_counts func }
    in
    let body = process_block ctx func.Mir.body in
    ( { func with Mir.body; vars = func.Mir.vars @ List.rev ctx.new_vars },
      { map_loops = ctx.maps; reduction_loops = ctx.reds;
        run_time_trips = ctx.dyns } )
  end
