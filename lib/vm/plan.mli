(** Closure-threaded execution plans for the cycle-accurate simulator.

    A plan is a MIR function pre-compiled — once — into a tree of OCaml
    closures with variables resolved to dense slots in monomorphic
    typed register banks ([float array] for real doubles, [int array],
    [bool array], interleaved re/im [float array] for complex, plus a
    boxed bank for the demoted remainder), static per-instruction costs
    and histogram classes memoized from {!Masc_asip.Cost_model},
    constants pooled into the same banks at plan time, intrinsics
    pre-resolved to their descriptions, and fast paths for hot shapes
    (typed loops, float and complex definitions fused through inlined
    bank views, unboxed stores). Boxed
    {!Value.scalar}s appear only at the argument/return boundary (see
    {!Store}).

    [execute] is observably bit-identical to the legacy tree-walking
    interpreter {!Interp.run_tree}: same return values, cycle counts,
    dynamic instruction counts, histogram (including ordering), printed
    output and error behaviour — it just runs several times faster. A
    plan is immutable and reusable: each [execute] call runs on fresh
    state, so one plan can serve many simulations of the same function
    (see [Masc.Compiler.compiled], which caches one per compilation). *)

type t

(** [compile ~isa ~mode f] walks [f] once and builds its plan. Cheap
    (linear in the static instruction count); never raises for programs
    that the tree-walker could start executing — dynamic failures
    (missing intrinsics, bad indices, type misuse) stay runtime errors
    raised at the same execution point as in the tree-walker. *)
val compile :
  isa:Masc_asip.Isa.t -> mode:Masc_asip.Cost_model.mode -> Masc_mir.Mir.func ->
  t

(** [execute p args] runs the plan on fresh state. Argument binding,
    defaults and failure modes match {!Interp.run} exactly, including
    the {!Exec.Trap} guardrails (fuel, cycle limit, allocation cap).
    The plan engine does not profile: a source-attributed profile comes
    from re-running on the reference interpreter,
    {!Interp.run_tree} [?profile]. *)
val execute :
  ?max_cycles:int -> ?fuel:int -> ?max_alloc_bytes:int -> t ->
  Exec.xvalue list -> Exec.result
