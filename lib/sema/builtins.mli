(** The MATLAB builtin functions understood by the compiler.

    Each builtin has a {!t} describing its semantic class; the class
    drives both type inference (here) and lowering to MIR. *)

type reduction = Rsum | Rprod | Rmax | Rmin | Rmean

type t =
  | Unary_math of string
      (** element-wise scalar math ([sin], [exp], ...); payload is the C
          math-library name *)
  | Abs
  | Binary_math of string  (** element-wise two-argument math: [atan2], [hypot], [mod], [rem] *)
  | Min_max of [ `Min | `Max ]
      (** [min]/[max]: reduction with one argument, element-wise with two *)
  | Reduction of reduction
  | Dot  (** [dot(x, y)] inner product *)
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
  | Complex_make  (** [complex(re, im)] *)
  | Pi
  | Linspace
  | Norm  (** [norm(v)]: Euclidean norm of a vector *)
  | Cumsum
  | Flip of [ `LR | `UD ]  (** [fliplr]/[flipud] *)
  | Repmat  (** [repmat(x, r, c)] with constant factors *)
  | Any
  | All
  | Var_std of [ `Var | `Std ]  (** sample variance / standard deviation *)
  | Sort  (** ascending sort of a vector *)
  | Disp
  | Fprintf

val lookup : string -> t option

(** [infer b span args] computes the result abstract values.
    Multi-result builtins (only [size] with one output used in
    [Multi_assign]) return several. Raises {!Diag.Error} on arity or type
    errors. *)
val infer : t -> Masc_frontend.Loc.span -> Info.t list -> Info.t list

(** [float_fn name] is the OCaml evaluation function for a
    [Unary_math]/[Binary_math] payload; used by constant folding and the
    simulator. *)
val float_fn : string -> (float -> float) option

val float_fn2 : string -> (float -> float -> float) option
