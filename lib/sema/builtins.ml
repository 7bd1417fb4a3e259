open Masc_frontend

type reduction = Rsum | Rprod | Rmax | Rmin | Rmean

type t =
  | Unary_math of string
  | Abs
  | Binary_math of string
  | Min_max of [ `Min | `Max ]
  | Reduction of reduction
  | Dot
  | Zeros
  | Ones
  | Eye
  | Length
  | Numel
  | Size
  | Real_part
  | Imag_part
  | Conj
  | Angle
  | Complex_make
  | Pi
  | Linspace
  | Norm
  | Cumsum
  | Flip of [ `LR | `UD ]
  | Repmat
  | Any
  | All
  | Var_std of [ `Var | `Std ]
  | Sort
  | Disp
  | Fprintf

let table =
  [ ("sin", Unary_math "sin"); ("cos", Unary_math "cos");
    ("tan", Unary_math "tan"); ("asin", Unary_math "asin");
    ("acos", Unary_math "acos"); ("atan", Unary_math "atan");
    ("sinh", Unary_math "sinh"); ("cosh", Unary_math "cosh");
    ("tanh", Unary_math "tanh"); ("exp", Unary_math "exp");
    ("log", Unary_math "log"); ("log2", Unary_math "log2");
    ("log10", Unary_math "log10"); ("sqrt", Unary_math "sqrt");
    ("floor", Unary_math "floor"); ("ceil", Unary_math "ceil");
    ("round", Unary_math "round"); ("fix", Unary_math "trunc");
    ("sign", Unary_math "sign"); ("abs", Abs);
    ("atan2", Binary_math "atan2"); ("hypot", Binary_math "hypot");
    ("mod", Binary_math "mod"); ("rem", Binary_math "rem");
    ("power", Binary_math "pow"); ("min", Min_max `Min);
    ("max", Min_max `Max); ("sum", Reduction Rsum);
    ("prod", Reduction Rprod); ("mean", Reduction Rmean); ("dot", Dot);
    ("zeros", Zeros); ("ones", Ones); ("eye", Eye); ("length", Length);
    ("numel", Numel); ("size", Size); ("real", Real_part);
    ("imag", Imag_part); ("conj", Conj); ("angle", Angle);
    ("complex", Complex_make); ("pi", Pi); ("linspace", Linspace);
    ("norm", Norm); ("cumsum", Cumsum); ("fliplr", Flip `LR);
    ("flipud", Flip `UD); ("repmat", Repmat); ("any", Any); ("all", All);
    ("var", Var_std `Var); ("std", Var_std `Std); ("sort", Sort);
    ("disp", Disp); ("fprintf", Fprintf) ]

let lookup name = List.assoc_opt name table

let float_fn = function
  | "sin" -> Some sin
  | "cos" -> Some cos
  | "tan" -> Some tan
  | "asin" -> Some asin
  | "acos" -> Some acos
  | "atan" -> Some atan
  | "sinh" -> Some sinh
  | "cosh" -> Some cosh
  | "tanh" -> Some tanh
  | "exp" -> Some exp
  | "log" -> Some log
  | "log2" -> Some (fun x -> log x /. log 2.0)
  | "log10" -> Some log10
  | "sqrt" -> Some sqrt
  | "floor" -> Some floor
  | "ceil" -> Some ceil
  | "round" -> Some Float.round
  | "trunc" -> Some Float.trunc
  | "sign" -> Some (fun x -> if x > 0.0 then 1.0 else if x < 0.0 then -1.0 else 0.0)
  | _ -> None

let float_fn2 = function
  | "atan2" -> Some atan2
  | "hypot" -> Some Float.hypot
  | "mod" ->
    (* MATLAB mod: result has the sign of the divisor; mod(x, 0) = x. *)
    Some
      (fun x y ->
        if y = 0.0 then x
        else
          let r = Float.rem x y in
          if r = 0.0 || (r > 0.0) = (y > 0.0) then r else r +. y)
  | "rem" -> Some Float.rem
  | "pow" -> Some ( ** )
  | _ -> None

let err span fmt = Diag.error Sema span fmt

let arity span name expected got =
  if expected <> got then
    err span "%s expects %d argument(s) but received %d" name expected got

let elementwise_unary span name ?(result_base = Mtype.Double)
    ?(keep_complex = true) (args : Info.t list) =
  match args with
  | [ a ] ->
    let cplx = if keep_complex then a.Info.ty.Mtype.cplx else Mtype.Real in
    [ Info.of_ty
        { a.Info.ty with Mtype.base = result_base; cplx } ]
  | _ ->
    arity span name 1 (List.length args);
    assert false

let require_const span what (info : Info.t) =
  match Info.int_const info with
  | Some n -> n
  | None ->
    err span
      "%s must be a compile-time constant (static-shape subset); add a \
       constant size or derive it from an input's length" what

let ctor_shape span name args =
  match args with
  | [ n ] ->
    let n = require_const span (name ^ " size") n in
    (n, n)
  | [ r; c ] ->
    (require_const span (name ^ " rows") r, require_const span (name ^ " cols") c)
  | _ -> err span "%s expects 1 or 2 arguments" name

let reduce_shape (ty : Mtype.t) =
  (* MATLAB reduces along the first non-singleton dimension: vectors
     collapse to a scalar, matrices reduce column-wise to a row vector. *)
  if Mtype.is_vector ty then (1, 1) else (1, ty.Mtype.cols)

let infer b span (args : Info.t list) : Info.t list =
  let ty_of (i : Info.t) = i.Info.ty in
  match b with
  | Unary_math name -> (
    match (args, float_fn name) with
    | [ { Info.ty; const = Some c } ], Some fn
      when Mtype.is_scalar ty && ty.Mtype.cplx = Mtype.Real ->
      let v = fn (Option.get (Info.float_const (List.nth args 0))) in
      ignore c;
      [ Info.cfloat v ]
    | _ -> elementwise_unary span name args)
  | Abs -> (
    match args with
    | [ a ] ->
      (* abs of complex is real; abs of int stays int. *)
      let ty = ty_of a in
      let base =
        match ty.Mtype.base with
        | Mtype.Bool -> Mtype.Int
        | (Mtype.Int | Mtype.Double | Mtype.Err) as base -> base
      in
      [ Info.of_ty { ty with Mtype.base; cplx = Mtype.Real } ]
    | _ ->
      arity span "abs" 1 (List.length args);
      assert false)
  | Binary_math name -> (
    match args with
    | [ a; b ] -> (
      match Mtype.broadcast (ty_of a) (ty_of b) with
      | Some (rows, cols) ->
        [ Info.of_ty (Mtype.matrix Mtype.Double rows cols) ]
      | None ->
        err span "%s: operand shapes %s and %s do not match" name
          (Mtype.to_string (ty_of a))
          (Mtype.to_string (ty_of b)))
    | _ ->
      arity span name 2 (List.length args);
      assert false)
  | Min_max _ -> (
    match args with
    | [ a ] ->
      let rows, cols = reduce_shape (ty_of a) in
      [ Info.of_ty (Mtype.with_shape (ty_of a) rows cols) ]
    | [ a; b ] -> (
      match Mtype.broadcast (ty_of a) (ty_of b) with
      | Some (rows, cols) ->
        let base = Mtype.promote_base (ty_of a).Mtype.base (ty_of b).Mtype.base in
        [ Info.of_ty (Mtype.matrix base rows cols) ]
      | None -> err span "min/max: operand shapes do not match")
    | _ -> err span "min/max expect 1 or 2 arguments")
  | Reduction r -> (
    match args with
    | [ a ] ->
      let ty = ty_of a in
      let rows, cols = reduce_shape ty in
      let base =
        match r with
        | Rmean -> Mtype.Double
        | Rsum | Rprod | Rmax | Rmin -> (
          match ty.Mtype.base with
          | Mtype.Bool -> Mtype.Int
          | (Mtype.Int | Mtype.Double | Mtype.Err) as base -> base)
      in
      [ Info.of_ty { ty with Mtype.base; rows; cols } ]
    | _ ->
      arity span "reduction" 1 (List.length args);
      assert false)
  | Dot -> (
    match args with
    | [ a; b ] ->
      let ta = ty_of a and tb = ty_of b in
      if not (Mtype.is_vector ta && Mtype.is_vector tb) then
        err span "dot expects vector arguments";
      if Mtype.numel ta <> Mtype.numel tb then
        err span "dot: vectors have different lengths (%d vs %d)"
          (Mtype.numel ta) (Mtype.numel tb);
      let cplx = Mtype.promote_cplx ta.Mtype.cplx tb.Mtype.cplx in
      [ Info.of_ty (Mtype.scalar ~cplx Mtype.Double) ]
    | _ ->
      arity span "dot" 2 (List.length args);
      assert false)
  | Zeros | Ones ->
    let name = match b with Zeros -> "zeros" | _ -> "ones" in
    let rows, cols = ctor_shape span name args in
    [ Info.of_ty (Mtype.matrix Mtype.Double rows cols) ]
  | Eye -> (
    match args with
    | [ n ] ->
      let n = require_const span "eye size" n in
      [ Info.of_ty (Mtype.matrix Mtype.Double n n) ]
    | _ ->
      arity span "eye" 1 (List.length args);
      assert false)
  | Length -> (
    match args with
    | [ a ] ->
      let ty = ty_of a in
      [ Info.cint (max ty.Mtype.rows ty.Mtype.cols) ]
    | _ ->
      arity span "length" 1 (List.length args);
      assert false)
  | Numel -> (
    match args with
    | [ a ] -> [ Info.cint (Mtype.numel (ty_of a)) ]
    | _ ->
      arity span "numel" 1 (List.length args);
      assert false)
  | Size -> (
    match args with
    | [ a ] ->
      (* As an expression, size(x) is the 1x2 vector [rows cols]; in a
         multi-assignment [r, c] = size(x) the two results are used. *)
      [ Info.cint (ty_of a).Mtype.rows; Info.cint (ty_of a).Mtype.cols ]
    | [ a; d ] -> (
      match require_const span "size dimension" d with
      | 1 -> [ Info.cint (ty_of a).Mtype.rows ]
      | 2 -> [ Info.cint (ty_of a).Mtype.cols ]
      | d -> err span "size: dimension %d out of range" d)
    | _ -> err span "size expects 1 or 2 arguments")
  | Real_part | Imag_part | Angle -> (
    match args with
    | [ a ] -> [ Info.of_ty { (ty_of a) with Mtype.cplx = Mtype.Real; base = Mtype.Double } ]
    | _ ->
      arity span "real/imag/angle" 1 (List.length args);
      assert false)
  | Conj -> (
    match args with
    | [ a ] -> [ a ]
    | _ ->
      arity span "conj" 1 (List.length args);
      assert false)
  | Complex_make -> (
    match args with
    | [ a; b ] -> (
      match Mtype.broadcast (ty_of a) (ty_of b) with
      | Some (rows, cols) ->
        [ Info.of_ty (Mtype.matrix ~cplx:Mtype.Complex Mtype.Double rows cols) ]
      | None -> err span "complex: operand shapes do not match")
    | _ ->
      arity span "complex" 2 (List.length args);
      assert false)
  | Pi ->
    arity span "pi" 0 (List.length args);
    [ Info.cfloat Float.pi ]
  | Linspace -> (
    match args with
    | [ _; _; n ] ->
      let n = require_const span "linspace count" n in
      [ Info.of_ty (Mtype.row_vector Mtype.Double n) ]
    | _ -> err span "linspace expects 3 arguments (lo, hi, count)")
  | Norm -> (
    match args with
    | [ a ] ->
      if not (Mtype.is_vector (ty_of a)) then
        err span "norm expects a vector argument";
      [ Info.of_ty Mtype.double ]
    | _ ->
      arity span "norm" 1 (List.length args);
      assert false)
  | Cumsum -> (
    match args with
    | [ a ] ->
      if not (Mtype.is_vector (ty_of a)) then
        err span "cumsum is supported on vectors only";
      let base =
        match (ty_of a).Mtype.base with
        | Mtype.Bool -> Mtype.Int
        | (Mtype.Int | Mtype.Double | Mtype.Err) as base -> base
      in
      [ Info.of_ty { (ty_of a) with Mtype.base } ]
    | _ ->
      arity span "cumsum" 1 (List.length args);
      assert false)
  | Flip _ -> (
    match args with
    | [ a ] -> [ Info.of_ty (ty_of a) ]
    | _ ->
      arity span "fliplr/flipud" 1 (List.length args);
      assert false)
  | Repmat -> (
    match args with
    | [ a; r; c ] ->
      let rf = require_const span "repmat rows factor" r in
      let cf = require_const span "repmat cols factor" c in
      let ty = ty_of a in
      [ Info.of_ty
          (Mtype.with_shape ty (ty.Mtype.rows * rf) (ty.Mtype.cols * cf)) ]
    | _ -> err span "repmat expects 3 arguments (x, rows, cols)")
  | Any | All -> (
    match args with
    | [ a ] ->
      if not (Mtype.is_vector (ty_of a)) then
        err span "any/all are supported on vectors only";
      [ Info.of_ty Mtype.bool_ ]
    | _ ->
      arity span "any/all" 1 (List.length args);
      assert false)
  | Var_std _ -> (
    match args with
    | [ a ] ->
      if not (Mtype.is_vector (ty_of a)) then
        err span "var/std are supported on vectors only";
      if Mtype.numel (ty_of a) < 2 then
        err span "var/std require at least two elements";
      [ Info.of_ty Mtype.double ]
    | _ ->
      arity span "var/std" 1 (List.length args);
      assert false)
  | Sort -> (
    match args with
    | [ a ] ->
      if not (Mtype.is_vector (ty_of a)) then
        err span "sort is supported on vectors only";
      if (ty_of a).Mtype.cplx = Mtype.Complex then
        err span "sort of complex values is not supported";
      [ Info.of_ty (ty_of a) ]
    | _ ->
      arity span "sort" 1 (List.length args);
      assert false)
  | Disp ->
    arity span "disp" 1 (List.length args);
    []
  | Fprintf ->
    if args = [] then err span "fprintf expects at least a format string";
    []
