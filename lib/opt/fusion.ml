module Mir = Masc_mir.Mir
module Affine = Masc_mir.Affine

exception No_fuse

(* Straight-line body: defs table (unique defs only), loads, stores,
   plus all scalar variables read. A chain of fused loops grows one
   summary: [extend] adds the next body to it exactly as summarizing
   the concatenated bodies would. *)
type summary = {
  defs : (int, Mir.rvalue) Hashtbl.t;
  mutable loads : (Mir.var * Mir.operand) list;
  mutable stores : (Mir.var * Mir.operand) list;
  scalar_reads : (int, unit) Hashtbl.t;
}

(* What an allocation-free scan can tell about a body before any
   summary is built. Fusing a complex body into a real one would block
   the vectorizer, which bails on mixed classes, so only bodies of one
   class fuse. *)
type body_class = Real | Complex | Not_straight

let is_complex (v : Mir.var) =
  (Mir.elem_ty v).Mir.cplx = Masc_sema.Mtype.Complex

let rec classify cls (b : Mir.block) =
  match b with
  | [] -> cls
  | i :: tl -> (
    match i.Mir.idesc with
    | Mir.Icomment _ -> classify cls tl
    | Mir.Idef (v, _) | Mir.Istore (v, _, _) ->
      classify (if is_complex v then Complex else cls) tl
    | Mir.Ivstore _ | Mir.Iif _ | Mir.Iloop _ | Mir.Iwhile _ | Mir.Ibreak
    | Mir.Icontinue | Mir.Ireturn | Mir.Iprint _ ->
      Not_straight)

let read_var s (v : Mir.var) =
  if not (Mir.is_array v) then Hashtbl.replace s.scalar_reads v.Mir.vid ()

let read s = function Mir.Ovar v -> read_var s v | Mir.Oconst _ -> ()

let rec read_all s = function
  | [] -> ()
  | a :: tl ->
    read s a;
    read_all s tl

let read_rvalue s (rv : Mir.rvalue) =
  match rv with
  | Mir.Rbin (_, a, b) | Mir.Rcomplex (a, b) ->
    read s a;
    read s b
  | Mir.Runop (_, a) | Mir.Rmove a | Mir.Rvbroadcast (a, _)
  | Mir.Rvreduce (_, a) ->
    read s a
  | Mir.Rmath (_, args) | Mir.Rintrin (_, args) -> read_all s args
  | Mir.Rload (arr, idx) | Mir.Rvload (arr, idx, _) ->
    read_var s arr;
    read s idx

(* Raises [No_fuse] on a second def of a variable or a non-straight-line
   instruction, leaving [s] partly extended. *)
let rec extend s (body : Mir.block) =
  match body with
  | [] -> ()
  | i :: tl ->
    (match i.Mir.idesc with
    | Mir.Icomment _ -> ()
    | Mir.Idef (v, rv) ->
      if Hashtbl.mem s.defs v.Mir.vid then raise No_fuse;
      Hashtbl.replace s.defs v.Mir.vid rv;
      read_rvalue s rv;
      (match rv with
      | Mir.Rload (arr, idx) -> s.loads <- (arr, idx) :: s.loads
      | _ -> ())
    | Mir.Istore (arr, idx, x) ->
      read s idx;
      read s x;
      s.stores <- (arr, idx) :: s.stores
    | Mir.Ivstore _ | Mir.Iif _ | Mir.Iloop _ | Mir.Iwhile _ | Mir.Ibreak
    | Mir.Icontinue | Mir.Ireturn | Mir.Iprint _ ->
      raise No_fuse);
    extend s tl

(* [None]: the body is not straight-line or defines a variable twice,
   so the loop fuses with neither neighbour. *)
let summarize body =
  let s =
    { defs = Hashtbl.create 16; loads = []; stores = [];
      scalar_reads = Hashtbl.create 16 }
  in
  match extend s body with () -> Some s | exception No_fuse -> None

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

(* The cheap half of legality, decided before any summary is built:
   on compile-large's programs nearly every rejected pair differs in
   bounds or in body class. *)
let headers_match (l1 : Mir.loop) (l2 : Mir.loop) =
  int_ivar l1.Mir.ivar && int_ivar l2.Mir.ivar
  && l1.Mir.lo = l2.Mir.lo && l1.Mir.step = l2.Mir.step
  && l1.Mir.hi = l2.Mir.hi
  && l1.Mir.step = Mir.Oconst (Mir.Ci 1)

(* The index of the only store to [vid] in [stores], [None] when there
   is none; raises [No_fuse] when there are several. A scan, not a copy
   of the chain's store list per fused loop. *)
let rec only_store vid found = function
  | [] -> found
  | ((a : Mir.var), idx) :: tl ->
    if a.Mir.vid <> vid then only_store vid found tl
    else if Option.is_some found then raise No_fuse
    else only_store vid (Some idx) tl

(* The rest of legality, on the summaries of two straight-line bodies
   of one class whose headers match. [l1] is the head of a chain and
   [s1] the summary of everything fused into it so far. *)
let legal (l1 : Mir.loop) s1 (l2 : Mir.loop) s2 =
  match
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
    List.iter
      (fun ((arr : Mir.var), idx2) ->
        match only_store arr.Mir.vid None s1.stores with
        | None -> ()
        | Some idx1 ->
          let a1 = Affine.analyze ~ivar:l1.Mir.ivar ~defs:s1.defs idx1 in
          let a2 = Affine.analyze ~ivar:l2.Mir.ivar ~defs:s2.defs idx2 in
          (match (a1, a2) with
          | Some a1, Some a2 when same_affine a1 a2 && a1.Affine.coeff = 1 ->
            ()
          | _ -> raise No_fuse))
      s2.loads
  with
  | () -> true
  | exception No_fuse -> false

(* The summary of the loop at the head of the block being walked: not
   built yet, built, or known not to exist (the body is not
   straight-line or defines a variable twice). *)
type head = Unsummarized | Summary of summary | Unfusable

let force (l : Mir.loop) = function
  | Unsummarized -> summarize l.Mir.body
  | Summary s -> Some s
  | Unfusable -> None

(* [go bl h]: [h] is the summary state of [bl]'s head when that is a
   loop. A rejected pair hands loop 2's summary on as the head of the
   next pair, so each loop is summarized at most once per run.

   [chain whole i1 l1 cls h bodies bl] fuses a run of loops into [l1],
   the head of [whole]: [cls] is [l1]'s body class, [h] the summary
   state of everything fused so far, [bodies] the renamed bodies fused
   into it (latest first) and [bl] what follows. The summary grows with
   each body and the fused body is concatenated once, when the chain
   ends, so a chain of [n] loops is neither re-summarized nor copied
   [n] times. *)
let rec go (bl : Mir.block) h : Mir.block =
  match bl with
  | ({ Mir.idesc = Mir.Iloop l1; _ } as i1)
    :: ({ Mir.idesc = Mir.Iloop _; _ } :: _ as tl) ->
    chain bl i1 l1 (classify Real l1.Mir.body) h [] tl
  | i :: rest ->
    let rest' = go rest Unsummarized in
    if rest' == rest then bl else i :: rest'
  | [] -> bl

and chain whole i1 l1 cls h bodies (bl : Mir.block) =
  match bl with
  | { Mir.idesc = Mir.Iloop l2; _ } :: rest
    when cls <> Not_straight && headers_match l1 l2
         && classify Real l2.Mir.body = cls -> (
    match force l1 h with
    | None -> finish whole i1 l1 bodies (go bl Unsummarized)
    | Some s1 -> (
      match summarize l2.Mir.body with
      | None -> finish whole i1 l1 bodies (go bl Unfusable)
      | Some s2 when legal l1 s1 l2 s2 ->
        let body2 =
          rename_ivar ~from_v:l2.Mir.ivar ~to_v:l1.Mir.ivar l2.Mir.body
        in
        let h =
          match extend s1 body2 with
          | () -> Summary s1
          | exception No_fuse -> Unfusable
        in
        chain whole i1 l1 cls h (body2 :: bodies) rest
      | Some s2 -> finish whole i1 l1 bodies (go bl (Summary s2))))
  | _ -> finish whole i1 l1 bodies (go bl Unsummarized)

(* The fused loop keeps the first loop's source span. *)
and finish whole i1 l1 bodies rest' =
  match (bodies, whole) with
  | [], _ :: tl -> if rest' == tl then whole else i1 :: rest'
  | _ ->
    let body = List.concat (l1.Mir.body :: List.rev bodies) in
    Mir.redesc i1 (Mir.Iloop { l1 with Mir.body = body }) :: rest'

let process (block : Mir.block) : Mir.block = go block Unsummarized

let run (func : Mir.func) : Mir.func = Rewrite.map_blocks process func
