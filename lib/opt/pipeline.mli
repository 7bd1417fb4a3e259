(** The scalar optimization pass manager.

    - [O0]: nothing (the MATLAB-Coder-style baseline runs at O0);
    - [O1]: constant folding, copy/constant propagation, collapse,
      global constants, dead-code elimination;
    - [O2]: O1 plus common-subexpression elimination, loop-invariant
      code motion and loop fusion.

    Passes are scheduled to a {e change-tracked fixpoint}: every pass is
    sharing-preserving (see {!Masc_opt.Rewrite}), so "did this pass
    change the function" is one physical comparison on the returned
    root. A pass re-runs only when a pass it depends on reported a
    change; converged passes are skipped, and the expensive tail passes
    (cse/licm/fusion) are deferred to sweeps in which the cheap
    normalizers made no change — which is what makes a single compile
    cheap on the batch-compilation path.

    Vectorization and complex-instruction selection are separate stages
    (see {!Masc_vectorize}) that run after [optimize]. *)

type level = O0 | O1 | O2

val level_of_int : int -> level
val level_name : level -> string

(** Per-pass scheduler counters for one [optimize]/[run_fixpoint] call:
    [runs] times the pass executed, [changed] how many of those runs
    rewrote the function, [skipped] sweep visits elided because no
    dependency had changed since the pass last converged. *)
type pass_stat = {
  ps_name : string;
  mutable runs : int;
  mutable changed : int;
  mutable skipped : int;
}

val optimize : level -> Masc_mir.Mir.func -> Masc_mir.Mir.func

(** [optimize_stats] is [optimize] plus the per-pass scheduler stats.
    Also feeds the [opt.pass_runs]/[opt.pass_changed]/[opt.pass_skipped]
    counters in {!Masc_obs.Metrics}. *)
val optimize_stats :
  level -> Masc_mir.Mir.func -> Masc_mir.Mir.func * pass_stat list

(** [run_fixpoint passes func] drives an explicit [(name, pass)] list to
    the change-tracked fixpoint — used for pass-ablation experiments
    (e.g. Table V drops the fusion pass) and the post-vectorize cleanup.
    Unknown pass names are scheduled conservatively (re-enabled by any
    change); a pass that is not sharing-preserving is still safe, it
    just re-runs until the defensive sweep cap. *)
val run_fixpoint :
  (string * (Masc_mir.Mir.func -> Masc_mir.Mir.func)) list ->
  Masc_mir.Mir.func ->
  Masc_mir.Mir.func * pass_stat list

(** Distinct passes at a level in scheduler priority order, for
    ablation benchmarks: [(name, pass)]. *)
val passes : level -> (string * (Masc_mir.Mir.func -> Masc_mir.Mir.func)) list

val total_runs : pass_stat list -> int
val total_skipped : pass_stat list -> int

(** [timed what name f x] applies [f x] inside a {!Masc_obs.Journal}
    span of category [what] — free when spans are not recorded.
    [optimize] wraps every pass run in it; the driver
    ({!Masc.Compiler.compile}) wraps each whole stage. *)
val timed : string -> string -> ('a -> 'b) -> 'a -> 'b
