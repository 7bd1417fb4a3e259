type scalar_ty = {
  base : Masc_sema.Mtype.base;
  cplx : Masc_sema.Mtype.cplx;
  lanes : int;
}

type ty = Tscalar of scalar_ty | Tarray of scalar_ty * int
type var = { vname : string; vid : int; vty : ty }
type const = Cf of float | Ci of int | Cb of bool | Cc of Complex.t
type operand = Ovar of var | Oconst of const

type binop =
  | Badd
  | Bsub
  | Bmul
  | Bdiv
  | Bmod
  | Bidiv  (* integer division, used by index arithmetic *)
  | Bpow
  | Bmin
  | Bmax
  | Blt
  | Ble
  | Bgt
  | Bge
  | Beq
  | Bne
  | Band
  | Bor

type unop = Uneg | Unot | Uabs | Ure | Uim | Uconj
type vreduce = Vsum | Vprod | Vmin | Vmax

type rvalue =
  | Rbin of binop * operand * operand
  | Runop of unop * operand
  | Rmath of string * operand list
  | Rcomplex of operand * operand
  | Rload of var * operand
  | Rmove of operand
  | Rvload of var * operand * int
  | Rvbroadcast of operand * int
  | Rvreduce of vreduce * operand
  | Rintrin of string * operand list

(* Every instruction carries the source span of the MATLAB construct it
   was lowered from ([Loc.dummy] for synthetic glue). The span rides
   through every pass untouched — rewrites that replace [idesc] keep the
   original [iloc] — so the simulator profiler can attribute cycles back
   to source lines after arbitrary optimization. *)
type instr = { idesc : instr_desc; iloc : Masc_frontend.Loc.span }

and instr_desc =
  | Idef of var * rvalue
  | Istore of var * operand * operand
  | Ivstore of var * operand * operand * int
  | Iif of operand * block * block
  | Iloop of loop
  | Iwhile of { cond_block : block; cond : operand; body : block }
  | Ibreak
  | Icontinue
  | Ireturn
  | Iprint of string option * operand list
  | Icomment of string

and loop = { ivar : var; lo : operand; step : operand; hi : operand; body : block }
and block = instr list

let at loc d = { idesc = d; iloc = loc }
let instr d = { idesc = d; iloc = Masc_frontend.Loc.dummy }

(* Sharing-preserving re-description: passes go through [redesc] so an
   unchanged [idesc] keeps the original [instr] block physically equal
   (the fixpoint manager detects change by [==]). *)
let redesc i d = if d == i.idesc then i else { i with idesc = d }

(* Source line an instruction's cycles are attributed to; 0 = synthetic. *)
let line_of i =
  if Masc_frontend.Loc.is_dummy i.iloc then 0
  else i.iloc.Masc_frontend.Loc.start_pos.Masc_frontend.Loc.line

type func = {
  name : string;
  params : var list;
  rets : var list;
  body : block;
  next_vid : int;
}

let scalar_of_mtype (t : Masc_sema.Mtype.t) =
  { base = t.Masc_sema.Mtype.base; cplx = t.Masc_sema.Mtype.cplx; lanes = 1 }

let ty_of_mtype (t : Masc_sema.Mtype.t) =
  if Masc_sema.Mtype.is_scalar t then Tscalar (scalar_of_mtype t)
  else Tarray (scalar_of_mtype t, Masc_sema.Mtype.numel t)

let int_sty = { base = Masc_sema.Mtype.Int; cplx = Masc_sema.Mtype.Real; lanes = 1 }

let double_sty =
  { base = Masc_sema.Mtype.Double; cplx = Masc_sema.Mtype.Real; lanes = 1 }

let bool_sty =
  { base = Masc_sema.Mtype.Bool; cplx = Masc_sema.Mtype.Real; lanes = 1 }

let complex_sty =
  { base = Masc_sema.Mtype.Double; cplx = Masc_sema.Mtype.Complex; lanes = 1 }

let operand_ty = function
  | Ovar v -> v.vty
  | Oconst (Cf _) -> Tscalar double_sty
  | Oconst (Ci _) -> Tscalar int_sty
  | Oconst (Cb _) -> Tscalar bool_sty
  | Oconst (Cc _) -> Tscalar complex_sty

let var_of_operand = function Ovar v -> Some v | Oconst _ -> None

let equal_sty a b =
  a.base == b.base && a.cplx == b.cplx && Int.equal a.lanes b.lanes

let equal_ty a b =
  match (a, b) with
  | Tscalar s, Tscalar t -> equal_sty s t
  | Tarray (s, n), Tarray (t, m) -> Int.equal n m && equal_sty s t
  | (Tscalar _ | Tarray _), _ -> false

let is_array v = match v.vty with Tarray _ -> true | Tscalar _ -> false
let elem_ty v = match v.vty with Tarray (s, _) | Tscalar s -> s

let operand_sty = function
  | Ovar v -> elem_ty v
  | Oconst (Cf _) -> double_sty
  | Oconst (Ci _) -> int_sty
  | Oconst (Cb _) -> bool_sty
  | Oconst (Cc _) -> complex_sty

(* Every variable [f] mentions, in mention order (params, rets, then
   the body's defs and operands), folded through [g]. [g] and the
   accumulator are passed down as arguments, so a walk allocates nothing
   when [g] is closed. *)
let fold_operand g acc = function Ovar v -> g acc v | Oconst _ -> acc

let rec fold_operands g acc = function
  | [] -> acc
  | op :: tl -> fold_operands g (fold_operand g acc op) tl

let fold_rvalue g acc = function
  | Rbin (_, a, b) | Rcomplex (a, b) -> fold_operand g (fold_operand g acc a) b
  | Runop (_, a) | Rmove a | Rvbroadcast (a, _) | Rvreduce (_, a) ->
    fold_operand g acc a
  | Rmath (_, args) | Rintrin (_, args) -> fold_operands g acc args
  | Rload (arr, idx) | Rvload (arr, idx, _) -> fold_operand g (g acc arr) idx

let rec fold_block g acc = function
  | [] -> acc
  | i :: tl -> fold_block g (fold_instr g acc i) tl

and fold_instr g acc i =
  match i.idesc with
  | Idef (v, rv) -> fold_rvalue g (g acc v) rv
  | Istore (arr, idx, x) | Ivstore (arr, idx, x, _) ->
    fold_operand g (fold_operand g (g acc arr) idx) x
  | Iif (c, t, e) -> fold_block g (fold_block g (fold_operand g acc c) t) e
  | Iloop l ->
    let acc = fold_operand g (g acc l.ivar) l.lo in
    fold_block g (fold_operand g (fold_operand g acc l.step) l.hi) l.body
  | Iwhile { cond_block; cond; body } ->
    fold_block g (fold_operand g (fold_block g acc cond_block) cond) body
  | Iprint (_, ops) -> fold_operands g acc ops
  | Ibreak | Icontinue | Ireturn | Icomment _ -> acc

let fold_mentions g acc f =
  fold_block g (List.fold_left g (List.fold_left g acc f.params) f.rets) f.body

let max_vid f =
  fold_mentions (fun m v -> if v.vid > m then v.vid else m) (-1) f

(* The first record met per vid, in a vid-indexed array: one block of
   [max_vid f + 1] words, which the major heap takes directly once it is
   over 256 words. *)
let unlisted = { vname = ""; vid = -1; vty = Tscalar int_sty }

let iter_vars ?conflict g f =
  let first = Array.make (max_vid f + 1) unlisted in
  let note first v =
    let v0 = first.(v.vid) in
    if v0 == unlisted then first.(v.vid) <- v
    else if v0 != v && v0 <> v then
      (match conflict with Some c -> c v0 v | None -> ());
    first
  in
  Array.iter (fun v -> if v != unlisted then g v) (fold_mentions note first f)

module Builder = struct
  type t = {
    fname : string;
    mutable next_id : int;
    mutable stack : instr list list;  (* stack of reversed blocks *)
    mutable cur_loc : Masc_frontend.Loc.span;
  }

  let create fname =
    { fname; next_id = 0; stack = [ [] ];
      cur_loc = Masc_frontend.Loc.dummy }

  let fresh_var b ?(hint = "t") ty =
    let v = { vname = hint; vid = b.next_id; vty = ty } in
    b.next_id <- b.next_id + 1;
    v

  (* Emission sites stay loc-free: [set_loc] is called once per source
     statement and every instruction emitted while lowering it inherits
     that span (including glue like bounds defs and inline-call copies). *)
  let set_loc b loc = b.cur_loc <- loc
  let current_loc b = b.cur_loc

  let emit b d =
    let i = { idesc = d; iloc = b.cur_loc } in
    match b.stack with
    | top :: rest -> b.stack <- (i :: top) :: rest
    | [] -> assert false

  let nested_with b f =
    b.stack <- [] :: b.stack;
    let value = f () in
    match b.stack with
    | top :: rest ->
      b.stack <- rest;
      (List.rev top, value)
    | [] -> assert false

  let nested b f = fst (nested_with b f)

  let finish b ~params ~rets =
    let body =
      match b.stack with
      | [ top ] -> List.rev top
      | _ -> invalid_arg "Builder.finish: unbalanced nesting"
    in
    { name = b.fname; params; rets; body; next_vid = b.next_id }
end
