(** Local common-subexpression elimination.

    Within a straight-line segment, a pure rvalue computed twice with the
    same operands reuses the first result. Array loads participate too,
    with conservative invalidation at any store or control-flow
    boundary, and a load of the index the last store to its array wrote
    is replaced by the stored value.

    Two rvalues are the same expression when they have the same
    constructor and operator, read the same variable ids and carry
    constants with the same bits. A variable's name and type play no
    part (the verifier rejects two records of one id). [0.0] and [-0.0]
    are different constants, so [z * 0.0] and [z * -0.0] stay apart,
    and two NaNs with the same bits are one constant.

    A run builds its tables once (entry arrays for the available
    expressions, vid-indexed maps for the last store per array and for
    the substitutions) and clears them at segment boundaries. A run
    that changes nothing takes about 40% of the time per instruction
    it took with polymorphic hash tables, on the optimized MIR of
    compile-large's programs (EXPERIMENTS.md, "CSE and copy-prop on
    vid-keyed tables"). *)

val run : Masc_mir.Mir.func -> Masc_mir.Mir.func
