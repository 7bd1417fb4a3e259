(** Runtime values of the MIR simulator. *)

(** A scalar machine value. The simulator keeps Int/Bool distinct from
    Double (as the generated C would) and coerces at assignment
    boundaries. *)
type scalar =
  | Sf of float
  | Si of int
  | Sb of bool
  | Sc of Complex.t

val to_float : scalar -> float
val to_int : scalar -> int
val to_bool : scalar -> bool
val to_complex : scalar -> Complex.t

(** [coerce sty v] converts a scalar to a variable/array element type.
    Float-to-int conversion uses MATLAB round-half-away-from-zero
    semantics, identical to {!to_int}. *)
val coerce : Masc_mir.Mir.scalar_ty -> scalar -> scalar

(** [binop op a b] implements MIR scalar binary semantics (numeric
    promotion, complex arithmetic, integer division for [Bidiv]). *)
val binop : Masc_mir.Mir.binop -> scalar -> scalar -> scalar

val unop : Masc_mir.Mir.unop -> scalar -> scalar

(** [math name args] evaluates a scalar math call; complex arguments are
    supported for [exp], [sqrt], [log], [cos], [sin]. Raises
    [Invalid_argument] otherwise. *)
val math : string -> scalar list -> scalar

(** Approximate equality used by tests: complex-aware, relative for large
    magnitudes. *)
val close : ?tol:float -> scalar -> scalar -> bool

val pp_scalar : Format.formatter -> scalar -> unit
