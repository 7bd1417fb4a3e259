(** The compiler driver: one-call pipeline from MATLAB source to ANSI C
    with ASIP intrinsics, plus execution on the cycle-accounting
    simulator.

    Stages (the paper's flow):
    parse → type/shape inference (entry specialization) → lowering with
    inlining and scalarization → scalar optimization (change-tracked
    fixpoint, {!Masc_opt.Pipeline}) → SIMD vectorization → complex-ISE
    selection → fixpoint cleanup → C emission.

    Two ready-made configurations reproduce the paper's comparison:
    {!proposed} (the contribution) and {!coder_baseline} (the
    MATLAB-Coder-style reference both in code shape and cost model). *)

module Isa = Masc_asip.Isa
module Cost_model = Masc_asip.Cost_model

type config = {
  isa : Isa.t;
  mode : Cost_model.mode;
  opt_level : Masc_opt.Pipeline.level;
  vectorize : bool;
  select_complex : bool;
}

(** Full proposed flow on the given target (default {!Masc_asip.Targets.dsp8}):
    O2, vectorization, complex-ISE selection. *)
val proposed : ?isa:Isa.t -> unit -> config

(** MATLAB-Coder-style baseline: O0, no custom instructions, dynamic
    array descriptors and bounds checks in both the emitted C and the
    cost model. Runs on the same core. *)
val coder_baseline : ?isa:Isa.t -> unit -> config

type compiled = {
  config : config;
  typed : Masc_sema.Tast.program;
  mir_raw : Masc_mir.Mir.func;  (** after lowering, before optimization *)
  mir : Masc_mir.Mir.func;  (** final form that executes and is emitted *)
  checked : Masc_vm.Exec.checked;
      (** [mir]'s entry check on [config.isa]; {!plan} builds from it *)
  vec_stats : Masc_vectorize.Vectorizer.stats;
  cplx_stats : Masc_vectorize.Complex_sel.stats;
  opt_stats : (string * Masc_opt.Pipeline.pass_stat list) list;
      (** per-stage scheduler counters: [("optimize", ...)] and, above
          O0, [("cleanup", ...)] for the post-vectorize fixpoint *)
  plan_lock : Mutex.t;
  mutable plan_memo : Masc_vm.Plan.t option;
      (** access through {!plan}: mutex-guarded memo, safe to share
          across domains (a [Lazy.t] would race when two domains force
          it concurrently) *)
}

(** [compile config ~source ~entry ~arg_types] runs the whole pipeline.
    Raises {!Masc_frontend.Diag.Error} on any front-end failure, and
    [Failure] when the final MIR fails {!Masc_vm.Exec.check_entry}.

    [?passes] replaces the scalar optimization stage
    ([Masc_opt.Pipeline.optimize config.opt_level]) with an explicit
    [(name, pass)] list driven to the change-tracked fixpoint — for
    pass-ablation experiments (e.g. Table V drops the fusion pass).
    Vectorization, complex-ISE selection and the post-vectorize cleanup
    still follow the configuration. *)
val compile :
  ?passes:(string * (Masc_mir.Mir.func -> Masc_mir.Mir.func)) list ->
  config ->
  source:string ->
  entry:string ->
  arg_types:Masc_sema.Mtype.t list ->
  compiled

(** The post-vectorize cleanup schedule, run above [O0]: const-fold,
    copy-prop, cse, licm and dce to their change-tracked fixpoint. At
    [O1] this is where cse and licm run, since the [O1] optimize stage
    lacks them. *)
val cleanup_passes : (string * (Masc_mir.Mir.func -> Masc_mir.Mir.func)) list

(** [cleanup_seed opt_stats vec_stats] names the cleanup passes that
    start dirty, given the optimize stage's scheduler stats and the
    vectorizer's: every cleanup pass the optimize stage did not drive to
    its fixpoint (absent from its list, or all of them if it hit its
    step cap), plus licm and const-fold once a loop was vectorized, plus
    cse once a loop with run-time bounds was. The others are no-ops on
    cleanup's input until a dependency changes. *)
val cleanup_seed :
  Masc_opt.Pipeline.pass_stat list -> Masc_vectorize.Vectorizer.stats ->
  string list

(** [compile_file config ~source ~entry ~arg_types] is {!compile} with
    an accumulating diagnostic context: the front end recovers
    (panic-mode parsing, type poisoning) and reports every independent
    error in one run, the SIMD / complex-ISE stages degrade to the
    scalar form with a warning instead of aborting, and missing-ISE
    notes carry their cycle deltas. Returns the compilation (or [None]
    when errors were recorded — a poisoned program is never lowered, and
    {!Masc_frontend.Diag.Budget_exhausted} is folded into [None]) along
    with every diagnostic in emission order. Warnings and notes alone
    never block the compile. Never raises for malformed input. *)
val compile_file :
  ?passes:(string * (Masc_mir.Mir.func -> Masc_mir.Mir.func)) list ->
  ?error_budget:int ->
  config ->
  source:string ->
  entry:string ->
  arg_types:Masc_sema.Mtype.t list ->
  compiled option * Masc_frontend.Diag.t list

(** [compile_cached] is {!compile} behind a process-wide
    content-addressed cache keyed by (source digest, entry, argument
    types, ISA name + structural digest, mode, opt level, stage
    toggles). Thread-safe: the batch drivers (`mascc --jobs`, the bench
    sweeps) call it from multiple domains and share one [compiled] — and
    therefore one execution plan — per distinct key.

    With a cache directory installed ({!set_cache_dir}), misses also
    consult — and successful compiles populate — the crash-safe
    persistent tier ({!Masc.Disk_cache}), shared across processes. *)
val compile_cached :
  config ->
  source:string ->
  entry:string ->
  arg_types:Masc_sema.Mtype.t list ->
  compiled

(** [compile_file_cached] is {!compile_file} behind the same two cache
    tiers. Only error-free compilations are cached; their
    warnings/notes are stored alongside, so a warm hit replays exactly
    the diagnostics of the cold compile. Results with errors are
    recompiled on every call (errors are rare and cheap on the service
    path, and must stay attributable to the source text actually
    submitted). *)
val compile_file_cached :
  ?error_budget:int ->
  config ->
  source:string ->
  entry:string ->
  arg_types:Masc_sema.Mtype.t list ->
  compiled option * Masc_frontend.Diag.t list

(** Install (or clear, with [None]) the persistent cache directory used
    by the cached entry points — [mascc --cache-dir]. The directory is
    created on first write. *)
val set_cache_dir : string option -> unit

val cache_dir : unit -> string option

(** Drop the in-memory cache tier (testing: makes the disk tier
    observable within one process). *)
val clear_memory_cache : unit -> unit

(** The closure-threaded execution plan for [mir], built from [checked]
    on first use and memoized for the lifetime of this compilation.
    Safe to call from any domain. *)
val plan : compiled -> Masc_vm.Plan.t

(** Generated translation unit (without the runtime header), emitted
    inside the ["emit"] stage span. *)
val c_source : compiled -> string

(** The matching self-contained runtime header text. *)
val runtime_header : compiled -> string

(** Execute on the simulator with the configuration's cost model.
    Raises {!Masc_vm.Exec.Trap} when a guardrail fires (fuel budget,
    cycle limit, allocation cap). *)
val run :
  ?max_cycles:int ->
  ?fuel:int ->
  ?max_alloc_bytes:int ->
  compiled ->
  Masc_vm.Interp.xvalue list ->
  Masc_vm.Interp.result

(** [run_profiled c inputs] is {!run} plus a source-attributed profile:
    simulated cycles and dynamic instruction counts per MATLAB source
    line, per opcode class and per intrinsic/ISE (exact partitions of
    the run's totals). Re-executes on the reference interpreter
    ({!Masc_vm.Interp.run_tree}), which is several times slower than
    the plan but bit-identical to it; the memoized {!plan} — and
    therefore every unprofiled simulation — is untouched. *)
val run_profiled :
  ?max_cycles:int ->
  ?fuel:int ->
  ?max_alloc_bytes:int ->
  compiled ->
  Masc_vm.Interp.xvalue list ->
  Masc_vm.Interp.result * Masc_obs.Profile.snapshot

(** Multi-stage dump for [--dump-stages]: typed AST summary, raw MIR,
    final MIR, and C. *)
val stage_dump : compiled -> string

(** Table of per-stage pass scheduler counters for [--opt-stats]. *)
val opt_stats_dump : compiled -> string
