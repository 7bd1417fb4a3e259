(** Static types of the MATLAB subset.

    The compiler implements the static-shape discipline of
    MATLAB-to-C flows (cf. MATLAB Coder's [-args] entry-point
    specification): every array has compile-time-known dimensions,
    derived from the entry function's argument specification by constant
    propagation. Scalars are 1x1 arrays, as in MATLAB. *)

type base =
  | Bool
  | Int  (** integer-valued doubles used for indices, sizes, counters *)
  | Double
  | Err
      (** poison: the type of an expression that failed semantic analysis
          under an accumulating sink. Absorbs in every promotion so
          cascades stay silent; never reaches MIR. *)

type cplx = Real | Complex

type t = {
  base : base;
  cplx : cplx;
  rows : int;
  cols : int;
}

val scalar : ?cplx:cplx -> base -> t

(** [double] is the real double scalar type. *)
val double : t

val int_ : t
val bool_ : t

(** [complex] is the complex double scalar type. *)
val complex : t

(** [error] is the scalar poison type. *)
val error : t

val is_error : t -> bool

(** [row_vector base n] is 1 x n. *)
val row_vector : ?cplx:cplx -> base -> int -> t

(** [col_vector base n] is n x 1. *)
val col_vector : ?cplx:cplx -> base -> int -> t

val matrix : ?cplx:cplx -> base -> int -> int -> t
val is_scalar : t -> bool

(** [is_vector t] holds for 1xN and Nx1 shapes, including scalars. *)
val is_vector : t -> bool

val numel : t -> int

(** Numeric promotion: [Bool < Int < Double] and [Real < Complex]. *)
val promote_base : base -> base -> base

val promote_cplx : cplx -> cplx -> cplx

(** [join a b] is the least common type for control-flow merges: promotes
    base and complexness, requires identical shape. [None] if shapes
    differ. *)
val join : t -> t -> t option

val equal : t -> t -> bool

(** Shape of an element-wise combination, broadcasting scalars: both
    operands scalar → scalar; one scalar → the other's shape; equal shapes
    → that shape; otherwise [None]. Returns the (rows, cols). *)
val broadcast : t -> t -> (int * int) option

val with_shape : t -> int -> int -> t

(** C-facing name, e.g. ["double"], ["cdouble_1x16"]. Used in reports. *)
val to_string : t -> string

val pp : Format.formatter -> t -> unit
