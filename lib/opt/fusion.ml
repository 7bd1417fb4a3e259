module Mir = Masc_mir.Mir
module Affine = Masc_mir.Affine

exception No_fuse

(* Straight-line body: defs table (unique defs only), loads, stores,
   plus all scalar variables read. *)
type summary = {
  defs : (int, Mir.rvalue) Hashtbl.t;
  loads : (Mir.var * Mir.operand) list;
  stores : (Mir.var * Mir.operand) list;
  scalar_reads : (int, unit) Hashtbl.t;
  has_complex : bool;
      (* fusing a complex body into a real one would block the
         vectorizer, which bails on mixed classes *)
}

let summarize_exn (body : Mir.block) : summary =
  let defs = Hashtbl.create 16 in
  let loads = ref [] in
  let stores = ref [] in
  let scalar_reads = Hashtbl.create 16 in
  let has_complex = ref false in
  let note_complex (v : Mir.var) =
    if (Mir.elem_ty v).Mir.cplx = Masc_sema.Mtype.Complex then
      has_complex := true
  in
  let read (op : Mir.operand) =
    match op with
    | Mir.Ovar v when not (Mir.is_array v) ->
      Hashtbl.replace scalar_reads v.Mir.vid ()
    | _ -> ()
  in
  List.iter
    (fun (i : Mir.instr) ->
      match i.Mir.idesc with
      | Mir.Icomment _ -> ()
      | Mir.Idef (v, rv) ->
        if Hashtbl.mem defs v.Mir.vid then raise No_fuse;
        note_complex v;
        Hashtbl.replace defs v.Mir.vid rv;
        Rewrite.iter_operands read rv;
        (match rv with
        | Mir.Rload (arr, idx) -> loads := (arr, idx) :: !loads
        | _ -> ())
      | Mir.Istore (arr, idx, x) ->
        note_complex arr;
        read idx;
        read x;
        stores := (arr, idx) :: !stores
      | Mir.Ivstore _ | Mir.Iif _ | Mir.Iloop _ | Mir.Iwhile _ | Mir.Ibreak
      | Mir.Icontinue | Mir.Ireturn | Mir.Iprint _ ->
        raise No_fuse)
    body;
  { defs; loads = !loads; stores = !stores; scalar_reads;
    has_complex = !has_complex }

(* [None]: the body is not straight-line or defines a variable twice,
   so the loop fuses with neither neighbour. *)
let summarize body =
  match summarize_exn body with s -> Some s | exception No_fuse -> None

let int_ivar (v : Mir.var) =
  match v.Mir.vty with
  | Mir.Tscalar { Mir.base = Masc_sema.Mtype.Int; cplx = Masc_sema.Mtype.Real; lanes = 1 } ->
    true
  | _ -> false

(* Affine forms must agree after mapping both induction variables to the
   same symbol; [terms] hold loop-invariant operands comparable
   structurally. *)
let same_affine (a : Affine.t) (b : Affine.t) =
  a.Affine.coeff = b.Affine.coeff
  && a.Affine.const = b.Affine.const
  && List.sort compare a.Affine.terms = List.sort compare b.Affine.terms

(* Substitute the second loop's induction variable by the first's. *)
let rename_ivar ~from_v ~to_v (body : Mir.block) : Mir.block =
  let sub (op : Mir.operand) =
    match op with
    | Mir.Ovar v when v.Mir.vid = from_v.Mir.vid -> Mir.Ovar to_v
    | _ -> op
  in
  let sub_rv rv =
    match (rv : Mir.rvalue) with
    | Mir.Rbin (op, a, b) -> Mir.Rbin (op, sub a, sub b)
    | Mir.Runop (op, a) -> Mir.Runop (op, sub a)
    | Mir.Rmath (n, args) -> Mir.Rmath (n, List.map sub args)
    | Mir.Rcomplex (a, b) -> Mir.Rcomplex (sub a, sub b)
    | Mir.Rload (arr, idx) -> Mir.Rload (arr, sub idx)
    | Mir.Rmove a -> Mir.Rmove (sub a)
    | Mir.Rvload (arr, base, l) -> Mir.Rvload (arr, sub base, l)
    | Mir.Rvbroadcast (a, l) -> Mir.Rvbroadcast (sub a, l)
    | Mir.Rvreduce (r, a) -> Mir.Rvreduce (r, sub a)
    | Mir.Rintrin (n, args) -> Mir.Rintrin (n, List.map sub args)
  in
  List.map
    (fun (i : Mir.instr) ->
      match i.Mir.idesc with
      | Mir.Idef (v, rv) -> Mir.redesc i (Mir.Idef (v, sub_rv rv))
      | Mir.Istore (arr, idx, x) -> Mir.redesc i (Mir.Istore (arr, sub idx, sub x))
      | _ -> i)
    body

(* [s1]/[s2] are the loops' body summaries, forced only once the cheap
   header checks pass. *)
let try_fuse (l1 : Mir.loop) s1 (l2 : Mir.loop) s2 : Mir.loop option =
  match
    if not (int_ivar l1.Mir.ivar && int_ivar l2.Mir.ivar) then raise No_fuse;
    if l1.Mir.lo <> l2.Mir.lo || l1.Mir.step <> l2.Mir.step
       || l1.Mir.hi <> l2.Mir.hi
    then raise No_fuse;
    if l1.Mir.step <> Mir.Oconst (Mir.Ci 1) then raise No_fuse;
    let force s =
      match Lazy.force s with Some s -> s | None -> raise No_fuse
    in
    let s1 = force s1 in
    let s2 = force s2 in
    if s1.has_complex <> s2.has_complex then raise No_fuse;
    (* The loops' scalars must be independent: loop 2 must not read a
       scalar defined by loop 1 (its value would change from "after all
       iterations" to "this iteration"), and vice versa. The second
       induction variable is renamed, so exempt it. *)
    Hashtbl.iter
      (fun vid _ ->
        if Hashtbl.mem s2.scalar_reads vid then raise No_fuse)
      s1.defs;
    Hashtbl.iter
      (fun vid _ ->
        if Hashtbl.mem s1.scalar_reads vid && vid <> l2.Mir.ivar.Mir.vid then
          raise No_fuse)
      s2.defs;
    (* Loop 2 must not store arrays loop 1 touches. *)
    let touches1 arr_vid =
      List.exists (fun ((a : Mir.var), _) -> a.Mir.vid = arr_vid) s1.loads
      || List.exists (fun ((a : Mir.var), _) -> a.Mir.vid = arr_vid) s1.stores
    in
    List.iter
      (fun ((a : Mir.var), _) -> if touches1 a.Mir.vid then raise No_fuse)
      s2.stores;
    (* Arrays stored by loop 1 and loaded by loop 2: single store at an
       affine index, and every loop-2 load at the same affine index. *)
    let stored1 = List.map (fun ((a : Mir.var), idx) -> (a.Mir.vid, idx)) s1.stores in
    List.iter
      (fun ((arr : Mir.var), idx2) ->
        match List.assoc_opt arr.Mir.vid stored1 with
        | None -> ()
        | Some idx1 ->
          if
            List.length
              (List.filter (fun (vid, _) -> vid = arr.Mir.vid) stored1)
            <> 1
          then raise No_fuse;
          let a1 = Affine.analyze ~ivar:l1.Mir.ivar ~defs:s1.defs idx1 in
          let a2 = Affine.analyze ~ivar:l2.Mir.ivar ~defs:s2.defs idx2 in
          (match (a1, a2) with
          | Some a1, Some a2 when same_affine a1 a2 && a1.Affine.coeff = 1 ->
            ()
          | _ -> raise No_fuse))
      s2.loads;
    let body2 = rename_ivar ~from_v:l2.Mir.ivar ~to_v:l1.Mir.ivar l2.Mir.body in
    { l1 with Mir.body = l1.Mir.body @ body2 }
  with
  | fused -> Some fused
  | exception No_fuse -> None

let run (func : Mir.func) : Mir.func =
  let summary_of (l : Mir.loop) = lazy (summarize l.Mir.body) in
  let not_a_loop = Lazy.from_val None in
  let head_summary (bl : Mir.block) =
    match bl with
    | { Mir.idesc = Mir.Iloop l; _ } :: _ -> summary_of l
    | _ -> not_a_loop
  in
  (* [go bl s]: [s] is the summary of [bl]'s head when that is a loop.
     A rejected pair hands loop 2's summary on as the next pair's loop
     1, so each loop is summarized at most once per run. *)
  let process (block : Mir.block) : Mir.block =
    let rec go (l : Mir.block) s1 : Mir.block =
      match l with
      | ({ Mir.idesc = Mir.Iloop l1; _ } as i1)
        :: ({ Mir.idesc = Mir.Iloop l2; _ } :: rest as tl) -> (
        let s2 = summary_of l2 in
        (* The fused loop keeps the first loop's source span. *)
        match try_fuse l1 s1 l2 s2 with
        | Some fused ->
          go (Mir.redesc i1 (Mir.Iloop fused) :: rest) (summary_of fused)
        | None ->
          let tl' = go tl s2 in
          if tl' == tl then l else i1 :: tl')
      | i :: rest ->
        let rest' = go rest (head_summary rest) in
        if rest' == rest then l else i :: rest'
      | [] -> l
    in
    go block (head_summary block)
  in
  Rewrite.map_blocks process func
