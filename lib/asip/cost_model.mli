(** Cycle-cost model for executing MIR on a described ASIP.

    The simulator charges each dynamic MIR event through this module.
    Two modes reproduce the paper's comparison on the same core:

    - [Proposed]: code from this compiler — static arrays, no runtime
      checks, custom instructions available.
    - [Coder]: MATLAB-Coder-style generated C — scalar only, dynamic
      array descriptors (extra address arithmetic), per-access bounds
      checks, per-call overhead (no interprocedural inlining), and
      complex arithmetic open-coded on the scalar FPU.

    Absolute numbers are a model, not the authors' silicon; the paper's
    claims are about the ratio between the two modes, which this model
    preserves structurally (see DESIGN.md). *)

type mode = Proposed | Coder

val mode_name : mode -> string

(** [def_cost isa mode rvalue] cycles for evaluating an {!Masc_mir.Mir.rvalue}.
    Raises [Invalid_argument] for an [Rintrin] the target lacks. Costs
    depend only on the rvalue shape, operand types, ISA and mode — never
    on runtime values — so plan compilers can memoize them per static
    instruction. *)
val def_cost : Isa.t -> mode -> Masc_mir.Mir.rvalue -> int

(** Histogram class ("alu", "mem", "simd", ...) of an rvalue; static,
    like {!def_cost}. *)
val class_of_rvalue : Masc_mir.Mir.rvalue -> string

(** [store_cost isa mode ~cplx] cycles for a scalar array store. *)
val store_cost : Isa.t -> mode -> cplx:bool -> int

(** [vstore_cost isa] cycles for a wide vector store. *)
val vstore_cost : Isa.t -> int

(** Per-iteration loop control (increment, compare, branch). *)
val loop_iter_cost : Isa.t -> int

(** Taken-branch cost for [if]/[while] tests. *)
val branch_cost : Isa.t -> int

(** Charged when crossing an inlined-function boundary in [Coder] mode
    (MATLAB Coder emits real calls); zero in [Proposed] mode. *)
val call_boundary_cost : Isa.t -> mode -> int
