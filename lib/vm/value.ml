module Mir = Masc_mir.Mir
module MT = Masc_sema.Mtype

type scalar = Sf of float | Si of int | Sb of bool | Sc of Complex.t

let to_float = function
  | Sf f -> f
  | Si i -> float_of_int i
  | Sb b -> if b then 1.0 else 0.0
  | Sc z ->
    if z.Complex.im = 0.0 then z.Complex.re
    else invalid_arg "Value.to_float: complex with non-zero imaginary part"

let to_int = function
  | Si i -> i
  | Sf f -> int_of_float (Float.round f)
  | Sb b -> if b then 1 else 0
  | Sc _ -> invalid_arg "Value.to_int: complex"

let to_bool = function
  | Sb b -> b
  | Si i -> i <> 0
  | Sf f -> f <> 0.0
  | Sc z -> Complex.norm z <> 0.0

let to_complex = function
  | Sc z -> z
  | s -> { Complex.re = to_float s; im = 0.0 }

let coerce (sty : Mir.scalar_ty) (s : scalar) =
  match (sty.Mir.cplx, sty.Mir.base) with
  | MT.Complex, _ -> Sc (to_complex s)
  | MT.Real, MT.Double -> Sf (to_float s)
  | MT.Real, MT.Int -> (
    match s with
    | Si _ -> s
    (* MATLAB round-half-away-from-zero, same as [to_int]. *)
    | Sf f -> Si (int_of_float (Float.round f))
    | Sb b -> Si (if b then 1 else 0)
    | Sc _ -> invalid_arg "Value.coerce: complex into int")
  | MT.Real, MT.Bool -> Sb (to_bool s)
  | MT.Real, MT.Err -> invalid_arg "Value.coerce: poison type reached the VM"

let is_complex = function Sc _ -> true | Sf _ | Si _ | Sb _ -> false
let is_int_like = function Si _ | Sb _ -> true | Sf _ | Sc _ -> false

let binop (op : Mir.binop) a b =
  let fop f = Sf (f (to_float a) (to_float b)) in
  let iop f = Si (f (to_int a) (to_int b)) in
  (* IEEE comparisons, as in C: false against a NaN, except [<>]. *)
  let cmp (f : float -> float -> bool) = Sb (f (to_float a) (to_float b)) in
  if is_complex a || is_complex b then
    let za = to_complex a and zb = to_complex b in
    match op with
    | Mir.Badd -> Sc (Complex.add za zb)
    | Mir.Bsub -> Sc (Complex.sub za zb)
    | Mir.Bmul -> Sc (Complex.mul za zb)
    | Mir.Bdiv -> Sc (Complex.div za zb)
    | Mir.Bpow -> Sc (Complex.pow za zb)
    | Mir.Beq -> Sb (za = zb)
    | Mir.Bne -> Sb (za <> zb)
    | Mir.Bmin | Mir.Bmax | Mir.Blt | Mir.Ble | Mir.Bgt | Mir.Bge | Mir.Band
    | Mir.Bor | Mir.Bmod | Mir.Bidiv ->
      invalid_arg "Value.binop: operation undefined on complex values"
  else
    match op with
    | Mir.Badd -> if is_int_like a && is_int_like b then iop ( + ) else fop ( +. )
    | Mir.Bsub -> if is_int_like a && is_int_like b then iop ( - ) else fop ( -. )
    | Mir.Bmul -> if is_int_like a && is_int_like b then iop ( * ) else fop ( *. )
    | Mir.Bdiv -> fop ( /. )
    | Mir.Bidiv ->
      let x = to_int a and y = to_int b in
      if y = 0 then invalid_arg "Value.binop: integer division by zero"
      else Si (x / y)
    | Mir.Bmod ->
      if is_int_like a && is_int_like b then begin
        let y = to_int b in
        if y = 0 then Si (to_int a) else iop (fun x y -> ((x mod y) + y) mod y)
      end
      else fop (fun x y -> if y = 0.0 then x else Float.rem x y)
    | Mir.Bpow -> fop ( ** )
    | Mir.Bmin -> if is_int_like a && is_int_like b then iop min else fop min
    | Mir.Bmax -> if is_int_like a && is_int_like b then iop max else fop max
    | Mir.Blt -> cmp ( < )
    | Mir.Ble -> cmp ( <= )
    | Mir.Bgt -> cmp ( > )
    | Mir.Bge -> cmp ( >= )
    | Mir.Beq -> cmp ( = )
    | Mir.Bne -> cmp ( <> )
    | Mir.Band -> Sb (to_bool a && to_bool b)
    | Mir.Bor -> Sb (to_bool a || to_bool b)

let unop (op : Mir.unop) a =
  match op with
  | Mir.Uneg -> (
    match a with
    | Si i -> Si (-i)
    | Sf f -> Sf (-.f)
    | Sb b -> Si (if b then -1 else 0)
    | Sc z -> Sc (Complex.neg z))
  | Mir.Unot -> Sb (not (to_bool a))
  | Mir.Uabs -> (
    match a with
    | Si i -> Si (abs i)
    | Sf f -> Sf (Float.abs f)
    | Sb b -> Si (if b then 1 else 0)
    | Sc z -> Sf (Complex.norm z))
  | Mir.Ure -> Sf (to_complex a).Complex.re
  | Mir.Uim -> Sf (to_complex a).Complex.im
  | Mir.Uconj -> (
    match a with Sc z -> Sc (Complex.conj z) | Sf _ | Si _ | Sb _ -> a)

let math name (args : scalar list) =
  match args with
  | [ (Sc z) ] -> (
    match name with
    | "exp" -> Sc (Complex.exp z)
    | "sqrt" -> Sc (Complex.sqrt z)
    | "log" -> Sc (Complex.log z)
    | "cos" ->
      (* cos z = (e^{iz} + e^{-iz}) / 2 *)
      let iz = Complex.mul Complex.i z in
      Sc
        (Complex.div
           (Complex.add (Complex.exp iz) (Complex.exp (Complex.neg iz)))
           { Complex.re = 2.0; im = 0.0 })
    | "sin" ->
      let iz = Complex.mul Complex.i z in
      Sc
        (Complex.div
           (Complex.sub (Complex.exp iz) (Complex.exp (Complex.neg iz)))
           { Complex.re = 0.0; im = 2.0 })
    | _ -> invalid_arg (Printf.sprintf "Value.math: %s on complex" name))
  | [ a ] -> (
    match Masc_sema.Builtins.float_fn name with
    | Some fn -> Sf (fn (to_float a))
    | None -> invalid_arg (Printf.sprintf "Value.math: unknown function %s" name))
  | [ a; b ] -> (
    match Masc_sema.Builtins.float_fn2 name with
    | Some fn -> Sf (fn (to_float a) (to_float b))
    | None -> invalid_arg (Printf.sprintf "Value.math: unknown function %s" name))
  | _ -> invalid_arg "Value.math: bad arity"

let close ?(tol = 1e-9) a b =
  let za = to_complex a and zb = to_complex b in
  let d = Complex.norm (Complex.sub za zb) in
  let scale = Float.max 1.0 (Float.max (Complex.norm za) (Complex.norm zb)) in
  d <= tol *. scale

let pp_scalar ppf = function
  | Sf f -> Format.fprintf ppf "%g" f
  | Si i -> Format.fprintf ppf "%d" i
  | Sb b -> Format.fprintf ppf "%b" b
  | Sc z -> Format.fprintf ppf "%g%+gi" z.Complex.re z.Complex.im
