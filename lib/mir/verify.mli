(** MIR well-formedness checker.

    Catches compiler bugs early: every pass output can be checked. The
    target's entry check ([Masc_vm.Exec.check_entry]) runs it on every
    compile's final MIR and in both simulator engines, so a rule here
    is a guarantee the plan engine's typed slots build on.
    Rules:
    - every record of one vid agrees: a function's variables are the
      ones it mentions ({!Mir.iter_vars}), so each is declared by
      construction and two mentions of a vid must carry the same name
      and type;
    - array variables appear only as load/store bases, scalars only as
      register operands;
    - load/store indices are scalar (Int, Bool or integral Double);
    - vector registers ([lanes > 1]) are real double, the only vector
      type the emitted C has, and flow only where the C can carry one:
      - every scalar position takes a lanes-1 operand: the operands of
        [Rbin], [Runop], [Rmath] and [Rcomplex], indices and vector
        bases, [if]/[while] conditions, [Istore] values, print
        operands (an array prints whole) and the operand of
        [Rvbroadcast], which is also real;
      - params and rets are never vector registers;
      - [Rvload] and [Ivstore] address real-double arrays with at
        least 2 lanes, and [Rvreduce] takes a vector;
    - a def's rvalue gives exactly its target's lanes: [Rmove] its
      operand's, [Rvload] and [Rvbroadcast] their width, every other
      MIR rvalue 1, and [Rintrin] what [intrin] says (unchecked without
      it);
    - a counted loop's bounds are real lanes-1 scalars, and its
      induction variable is a real lanes-1 scalar in their promoted
      base: int when every bound is int or bool, double when any is
      double;
    - a loop body does not define its own induction variable (nor reuse
      it as an inner loop's), so the emitted C
      [for (k = lo; k <= hi; k += step)] counts as the simulator does;
    - [break]/[continue] appear only inside loops.

    Raises [Failure] with a description of the first violation; the
    all-clear path allocates nothing per instruction. *)

(** What an intrinsic takes and gives on a target, from its descriptor
    kind. *)
type intrin_shape =
  | Lanewise of int
      (** that many vector operands of one width, giving that width: the
          SIMD binops (2) and mac (3) *)
  | Reduce  (** exactly one vector operand, giving a scalar *)
  | Scalars of int
      (** that many lanes-1 complex operands ([masc_cplx] in C), giving
          a scalar *)
  | Memory
      (** a load/store/broadcast descriptor, which MIR spells [Rvload],
          [Ivstore] and [Rvbroadcast]: rejected *)
  | Absent
      (** the target lacks it: any operands, any lanes, and a run-time
          error *)

(** [intrin name] is the shape of intrinsic [name] on the target;
    without it an [Rintrin] takes any register operands and gives its
    target's lanes. *)
val check : ?intrin:(string -> intrin_shape) -> Mir.func -> unit
