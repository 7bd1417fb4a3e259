module Mir = Masc_mir.Mir
module V = Masc_vm.Value

let scalar_of_const = function
  | Mir.Cf f -> V.Sf f
  | Mir.Ci i -> V.Si i
  | Mir.Cb b -> V.Sb b
  | Mir.Cc z -> V.Sc z

let const_of_scalar = function
  | V.Sf f -> Mir.Cf f
  | V.Si i -> Mir.Ci i
  | V.Sb b -> Mir.Cb b
  | V.Sc z -> Mir.Cc z

(* [x + c] folds to [x] only when [c] is a zero that is the identity
   for [x]. An int or bool [x] has no signed zero, so any zero will do.
   A double or complex [x] may be -0.0, and -0 + 0 = +0: only adding
   -0.0 leaves a real [x] unchanged, and nothing does for a complex one,
   whose imaginary part the real [c] adds +0.0 to. *)
let add_identity c x =
  match c with
  | Mir.Oconst (Mir.Ci 0 | Mir.Cf 0.0) -> (
    let s = Mir.operand_sty x in
    match (s.Mir.base, s.Mir.cplx) with
    | (Masc_sema.Mtype.Int | Masc_sema.Mtype.Bool), _ -> true
    | _, Masc_sema.Mtype.Real -> (
      match c with Mir.Oconst (Mir.Cf f) -> Float.sign_bit f | _ -> false)
    | _, Masc_sema.Mtype.Complex -> false)
  | _ -> false

(* [x - c] folds to [x] when [c] is int 0 or +0.0; [x - (-0.0)] is
   [x + 0]. *)
let sub_identity = function
  | Mir.Oconst (Mir.Ci 0) -> true
  | Mir.Oconst (Mir.Cf f) -> f = 0.0 && not (Float.sign_bit f)
  | _ -> false

let is_one = function
  | Mir.Oconst (Mir.Ci 1) -> true
  | Mir.Oconst (Mir.Cf 1.0) -> true
  | _ -> false

let fold_rvalue (rv : Mir.rvalue) : Mir.rvalue =
  match rv with
  | Mir.Rbin (op, Mir.Oconst a, Mir.Oconst b) -> (
    match V.binop op (scalar_of_const a) (scalar_of_const b) with
    | s -> Mir.Rmove (Mir.Oconst (const_of_scalar s))
    | exception Invalid_argument _ -> rv)
  | Mir.Rbin (Mir.Badd, a, b) when add_identity a b -> Mir.Rmove b
  | Mir.Rbin (Mir.Badd, a, b) when add_identity b a -> Mir.Rmove a
  | Mir.Rbin (Mir.Bsub, a, b) when sub_identity b -> Mir.Rmove a
  | Mir.Rbin (Mir.Bmul, a, b) when is_one a -> Mir.Rmove b
  | Mir.Rbin ((Mir.Bmul | Mir.Bdiv), a, b) when is_one b -> Mir.Rmove a
  (* x^2 -> x*x: a square costs one multiply, not a pow call. *)
  | Mir.Rbin (Mir.Bpow, a, (Mir.Oconst (Mir.Ci 2) | Mir.Oconst (Mir.Cf 2.0)))
    ->
    Mir.Rbin (Mir.Bmul, a, a)
  | Mir.Rbin (Mir.Bpow, a, (Mir.Oconst (Mir.Ci 1) | Mir.Oconst (Mir.Cf 1.0)))
    ->
    Mir.Rmove a
  | Mir.Runop (op, Mir.Oconst a) -> (
    match V.unop op (scalar_of_const a) with
    | s -> Mir.Rmove (Mir.Oconst (const_of_scalar s))
    | exception Invalid_argument _ -> rv)
  | Mir.Rmath (name, [ Mir.Oconst a ]) -> (
    match V.math name [ scalar_of_const a ] with
    | s -> Mir.Rmove (Mir.Oconst (const_of_scalar s))
    | exception Invalid_argument _ -> rv)
  | Mir.Rmath (name, [ Mir.Oconst a; Mir.Oconst b ]) -> (
    match V.math name [ scalar_of_const a; scalar_of_const b ] with
    | s -> Mir.Rmove (Mir.Oconst (const_of_scalar s))
    | exception Invalid_argument _ -> rv)
  | Mir.Rcomplex (Mir.Oconst a, Mir.Oconst b) ->
    Mir.Rmove
      (Mir.Oconst
         (Mir.Cc
            { Complex.re = V.to_float (scalar_of_const a);
              im = V.to_float (scalar_of_const b) }))
  | _ -> rv

let run func = Rewrite.map_rvalues fold_rvalue func
