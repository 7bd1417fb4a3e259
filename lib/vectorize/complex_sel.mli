(** Complex-arithmetic custom-instruction selection.

    The second ISE class the paper exploits: complex multiplies (and
    multiply-accumulate chains) in the scalarized code are rewritten to
    the target's complex intrinsics, so the generated C calls e.g.
    [cmul_f64(a, b)] instead of open-coding four multiplies and two
    adds.

    Patterns:
    - [t = a *c b]                  → [t = cmul(a, b)]
    - [t = a +c b] / subtraction via negation is left alone
    - [t = cmul(a, b); acc = acc +c t] (t used once)
                                    → [acc = cmac(acc, a, b)]

    Selection only fires for instructions present in the ISA
    description, and on complex operands only, as their C prototypes
    take. Degradation ladder: on a target with partial
    complex-ISE support, operations a missing instruction would have
    covered stay open-coded on the FPU, and with an accumulating
    [?sink] a [Note] diagnostic summarizes the count and the estimated
    per-operation cycle delta (dropped under the default [Raise]
    sink). *)

(** How many of each intrinsic the function calls after selection: a
    fused multiply-add counts as one [cmac], neither a [cmul] nor a
    [cadd]. *)
type stats = { cmul : int; cmac : int; cadd : int }

val run :
  ?sink:Masc_frontend.Diag.sink ->
  Masc_asip.Isa.t ->
  Masc_mir.Mir.func ->
  Masc_mir.Mir.func * stats
