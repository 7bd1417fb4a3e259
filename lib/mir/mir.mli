(** The mid-level IR: typed, loop-level, scalarized.

    Lowering turns the typed AST's array expressions into canonical loop
    nests over flat (column-major, 0-based) arrays. All user-function
    calls are inlined during lowering, so a MIR program is a single
    function. The vectorizer rewrites innermost loops into vector
    operations ([lanes > 1]) and ASIP intrinsics ({!Rintrin}); both scalar
    and vector forms execute on the simulator and are emitted as C. *)

type scalar_ty = {
  base : Masc_sema.Mtype.base;
  cplx : Masc_sema.Mtype.cplx;
  lanes : int;  (** 1 = scalar; [n] = n-lane SIMD register value *)
}

type ty =
  | Tscalar of scalar_ty
  | Tarray of scalar_ty * int  (** element type (lanes = 1) and element count *)

type var = { vname : string; vid : int; vty : ty }

type const =
  | Cf of float
  | Ci of int
  | Cb of bool
  | Cc of Complex.t

type operand = Ovar of var | Oconst of const

type binop =
  | Badd
  | Bsub
  | Bmul
  | Bdiv
  | Bmod  (** remainder *)
  | Bidiv  (** integer division (index arithmetic); [Bdiv] always yields double *)
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
  | Rmath of string * operand list  (** scalar math-library call *)
  | Rcomplex of operand * operand  (** complex from real and imaginary parts *)
  | Rload of var * operand  (** array element load, 0-based linear index *)
  | Rmove of operand
  | Rvload of var * operand * int  (** contiguous vector load: base index, lanes *)
  | Rvbroadcast of operand * int  (** splat scalar to [lanes] *)
  | Rvreduce of vreduce * operand  (** horizontal reduction of a vector value *)
  | Rintrin of string * operand list
      (** target intrinsic selected by the vectorizer / idiom recognizer *)

(** An instruction is its description plus the source span of the MATLAB
    construct it was lowered from ([Loc.dummy] for synthetic glue).
    Passes preserve [iloc] across rewrites, so the simulator profiler can
    attribute cycles to source lines after arbitrary optimization. *)
type instr = { idesc : instr_desc; iloc : Masc_frontend.Loc.span }

and instr_desc =
  | Idef of var * rvalue
  | Istore of var * operand * operand  (** array, index, value *)
  | Ivstore of var * operand * operand * int  (** array, base index, vector value, lanes *)
  | Iif of operand * block * block
  | Iloop of loop
  | Iwhile of { cond_block : block; cond : operand; body : block }
  | Ibreak
  | Icontinue
  | Ireturn
  | Iprint of string option * operand list
  | Icomment of string

and loop = {
  ivar : var;  (** induction variable; counts [lo], [lo+step], ... while <= [hi] (step > 0) *)
  lo : operand;
  step : operand;
  hi : operand;
  body : block;
}

and block = instr list

(** A function's variables are what it mentions: its params, its rets
    and every variable its body defines or reads ({!iter_vars}). No
    separate list is kept, so nothing can declare a variable the body
    does not use. *)
type func = {
  name : string;
  params : var list;
  rets : var list;
  body : block;
  next_vid : int;
      (** above every vid drawn for the function, including variables
          passes have since deleted. Fresh variables take ids from here,
          so the ids (and the C names) a later stage draws do not depend
          on what earlier passes deleted; vid-indexed tables are sized
          by it. *)
}

(** [at loc d] / [instr d] wrap a description into an instruction (with
    [Loc.dummy] for [instr]). *)
val at : Masc_frontend.Loc.span -> instr_desc -> instr

val instr : instr_desc -> instr

(** [redesc i d] is [i] with description [d], preserving [i] itself
    (physical equality) when [d == i.idesc] — passes use it so unchanged
    instructions keep sharing. *)
val redesc : instr -> instr_desc -> instr

(** Source line for cycle attribution; 0 when the span is synthetic. *)
val line_of : instr -> int

val scalar_of_mtype : Masc_sema.Mtype.t -> scalar_ty

(** [ty_of_mtype t] maps 1x1 types to registers and everything else to
    flat arrays. *)
val ty_of_mtype : Masc_sema.Mtype.t -> ty

val int_sty : scalar_ty
val double_sty : scalar_ty
val bool_sty : scalar_ty
val complex_sty : scalar_ty

val operand_ty : operand -> ty
val var_of_operand : operand -> var option

(** Structural equality of types without the polymorphic compare. *)
val equal_ty : ty -> ty -> bool

val is_array : var -> bool

(** Element scalar type of an array or scalar variable. *)
val elem_ty : var -> scalar_ty

(** Element scalar type of an operand; unlike {!operand_ty}, it
    allocates nothing. *)
val operand_sty : operand -> scalar_ty

(** [iter_vars g f] calls [g] on each of [f]'s variables (its params,
    its rets and every variable its body mentions) once each, in
    ascending vid order. The first record met for a vid (params, then
    rets, then the body in order) stands for it; [?conflict first other]
    is called on every later record of that vid that differs from it.
    Allocates one array, a word per vid up to the highest it meets. *)
val iter_vars : ?conflict:(var -> var -> unit) -> (var -> unit) -> func -> unit

(** Builder for constructing MIR with fresh variables. *)
module Builder : sig
  type t

  val create : string -> t
  val fresh_var : t -> ?hint:string -> ty -> var

  (** [set_loc b span] makes subsequent {!emit}s carry [span]; lowering
      calls it once per source statement. *)
  val set_loc : t -> Masc_frontend.Loc.span -> unit

  val current_loc : t -> Masc_frontend.Loc.span
  val emit : t -> instr_desc -> unit

  (** [nested b f] collects the instructions emitted by [f ()] into a
      separate block (for loop bodies and branches). *)
  val nested : t -> (unit -> unit) -> block

  (** [nested_with b f] also returns [f ()]'s value. *)
  val nested_with : t -> (unit -> 'a) -> block * 'a

  val finish : t -> params:var list -> rets:var list -> func
end
