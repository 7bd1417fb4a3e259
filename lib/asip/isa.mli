(** Parameterized ASIP instruction-set descriptions.

    The paper's key claim is retargetability: the compiler reads a
    description of the target processor's custom instructions (SIMD
    data-parallel operations and complex-arithmetic operations) and maps
    generated code onto them via intrinsic functions. {!t} is that
    description; {!Isa_parser} reads the textual format; {!Targets} has
    the built-in descriptions used in the evaluation. *)

(** Semantic class of a custom instruction. The vectorizer and idiom
    recognizer query the target by kind. *)
type kind =
  | Ksimd_add
  | Ksimd_sub
  | Ksimd_mul
  | Ksimd_div
  | Ksimd_min
  | Ksimd_max
  | Kmac  (** vector fused multiply-accumulate: [d = acc + a .* b] *)
  | Kload  (** wide contiguous vector load *)
  | Kstore
  | Kbroadcast  (** scalar splat *)
  | Kreduce_add  (** horizontal sum of a vector register *)
  | Kreduce_min
  | Kreduce_max
  | Kcmul  (** complex multiply (scalar ISE) *)
  | Kcmac  (** complex multiply-accumulate *)
  | Kcadd  (** complex add/sub pair *)

type instr_desc = {
  iname : string;  (** intrinsic name as it appears in generated C *)
  kind : kind;
  lanes : int;  (** SIMD width for vector kinds; 1 for complex ISEs *)
  latency : int;  (** issue-to-result cycles on the ASIP *)
}

(** Scalar-core cost parameters (cycles). *)
type costs = {
  alu : int;  (** int/fp add, sub, mul, compare *)
  fdiv : int;
  math_fn : int;  (** sin, cos, sqrt, ... *)
  pow_fn : int;
  load : int;
  store : int;
  loop_overhead : int;  (** per-iteration increment + branch *)
  branch : int;
  bounds_check : int;  (** per access, baseline (MATLAB-Coder-style) code only *)
  descriptor : int;  (** dynamic-array descriptor arithmetic, baseline only *)
  call_overhead : int;  (** per function call, baseline only (no inlining) *)
}

type t = {
  tname : string;
  description : string;
  vector_width : int;  (** 0 disables SIMD vectorization *)
  instrs : instr_desc list;
  costs : costs;
}

val default_costs : costs

(** [find t kind] returns the first instruction of that kind, if the
    target has one. *)
val find : t -> kind -> instr_desc option

val has : t -> kind -> bool

(** [find_named t name] looks an instruction up by intrinsic name.
    Backed by a memoized per-target hash table, so repeated lookups (one
    per dynamic instruction in the simulator) are O(1) instead of a list
    scan over the instruction descriptions. *)
val find_named : t -> string -> instr_desc option

val kind_of_string : string -> kind option
val kind_to_string : kind -> string
val pp : Format.formatter -> t -> unit
