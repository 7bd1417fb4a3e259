(** MIR interpreter with cycle accounting — the evaluation substrate.

    Executes a lowered (optionally vectorized) MIR function while
    charging every dynamic event through {!Masc_asip.Cost_model}. This
    stands in for the paper's ASIP and its cycle-accurate simulator: the
    proposed compiler's output and the MATLAB-Coder-style baseline run on
    the same core model, so their cycle ratio is the paper's speedup.

    Two back ends share these semantics:

    - {!run} compiles the function to a closure-threaded {!Plan} and
      executes it — the fast default;
    - {!run_tree} is the tree-walking interpreter, kept as the
      executable reference and as the only profiling engine. The
      differential tests in [test/test_vm.ml] pin the two to
      bit-identical results on every kernel, target and mode, and on
      every shape the plan fuses. *)

type xvalue = Exec.xvalue =
  | Xscalar of Value.scalar
  | Xarray of Value.scalar array

type result = Exec.result = {
  rets : xvalue list;
  cycles : int;
  dyn_instrs : int;  (** dynamic instruction count *)
  histogram : (string * int) list;  (** cycles per instruction class *)
  output : string;  (** text produced by disp/fprintf *)
}

exception Runtime_error of string

(** [run ~isa ~mode f args] executes [f]. [args] bind to parameters by
    position; array arguments are copied in. Raises [Failure] before
    running anything when [f] fails the entry check both engines share
    ({!Exec.check_entry}), {!Runtime_error} on
    dynamic failures (index out of bounds, division by zero in index
    arithmetic, type misuse) and {!Exec.Trap} when a guardrail fires
    ([?fuel] dynamic instructions, [?max_cycles] modeled cycles,
    [?max_alloc_bytes] of simulated array storage).

    Builds a fresh {!Plan} per call; callers that simulate the same
    function repeatedly should compile the plan once ({!Plan.compile} or
    [Masc.Compiler.run], which caches it). *)
val run :
  ?max_cycles:int ->
  ?fuel:int ->
  ?max_alloc_bytes:int ->
  isa:Masc_asip.Isa.t ->
  mode:Masc_asip.Cost_model.mode ->
  Masc_mir.Mir.func ->
  xvalue list ->
  result

(** The tree-walking interpreter (reference semantics); same contract
    as {!run}, several times slower. [?profile] supplies a collector
    that receives every cycle charge attributed per opcode class, per
    intrinsic and per source line; per-line and per-class sums equal
    [cycles] exactly. This is the profiler behind
    [Masc.Compiler.run_profiled] and [mascc run --profile]: the plan
    engine has no profile mode. *)
val run_tree :
  ?max_cycles:int ->
  ?fuel:int ->
  ?max_alloc_bytes:int ->
  ?profile:Masc_obs.Profile.t ->
  isa:Masc_asip.Isa.t ->
  mode:Masc_asip.Cost_model.mode ->
  Masc_mir.Mir.func ->
  xvalue list ->
  result

(** Convenience accessors for test code. *)
val xarray_of_floats : float array -> xvalue
val xarray_of_complex : Complex.t array -> xvalue
