(** Loop-invariant code motion.

    Hoists pure top-level definitions whose operands are not redefined in
    the loop body out of [for] loops. Loads are hoisted only from loops
    with constant, provably non-empty bounds (hoisting a load out of a
    zero-trip loop could fault). A def whose variable the body reads
    before it stays: the first iteration reads the earlier value. One
    run hoists a chain of invariants whole, and what an inner loop
    hoists can leave its outer loop in the same run, so a run is a no-op
    on its own output. *)

val run : Masc_mir.Mir.func -> Masc_mir.Mir.func
