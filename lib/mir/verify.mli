(** MIR well-formedness checker.

    Catches compiler bugs early: every pass output can be checked. Both
    simulator engines also run it on entry (see [Masc_vm.Exec]), so a
    rule here is a guarantee the plan engine's typed slots build on.
    Rules:
    - operands reference variables declared in the function;
    - array variables appear only as load/store bases, scalars only as
      register operands;
    - load/store indices are scalar (Int, Bool or integral Double);
    - vector registers ([lanes > 1]) are real double, the only vector
      type the emitted C has;
    - vector operations have consistent lane counts, and a def's rvalue
      gives exactly its target's lanes: [Rbin] the wider operand's,
      [Runop] and [Rmove] their operand's, [Rvload] and [Rvbroadcast]
      their width, [Rvreduce], [Rmath], [Rcomplex] and [Rload] 1, and
      [Rintrin] whatever [intrin_lanes] says (unchecked without it);
    - a counted loop's bounds are real lanes-1 scalars, and its
      induction variable is a real lanes-1 scalar in their promoted
      base: int when every bound is int or bool, double when any is
      double;
    - a loop body does not define its own induction variable (nor reuse
      it as an inner loop's), so the emitted C
      [for (k = lo; k <= hi; k += step)] counts as the simulator does;
    - [break]/[continue] appear only inside loops.

    Raises [Failure] with a description of the first violation; the
    all-clear path allocates nothing per instruction.

    [intrin_lanes name args] gives the lanes intrinsic [name] produces
    from [args], or [None] when the target does not constrain it (an
    unknown name stays a run-time error). *)

val check :
  ?intrin_lanes:(string -> Mir.operand list -> int option) -> Mir.func -> unit

(** [check_result f] returns the violation message instead of raising. *)
val check_result : Mir.func -> (unit, string) result
