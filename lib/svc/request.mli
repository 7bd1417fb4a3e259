(** Isolated execution of one compile/run work item.

    The service layer treats every request as untrusted work with a
    bounded blast radius. Each mechanism handles a failure real inputs
    produce:

    - a wall-clock {e deadline} ([policy.timeout_ms]) installed via
      {!Masc_fault.Cancel.with_deadline} and honored cooperatively at
      every pass/stage boundary and every
      {!Masc_vm.Exec.guard_mask}+1 simulated instructions — slow or
      runaway inputs become {!Timed_out};
    - {e crash isolation}: [execute] never raises — an internal
      compiler error or a library input the compiler cannot handle
      becomes a {!Crashed} outcome for that request alone;
    - a per-input {e circuit breaker}: after [quarantine_after]
      consecutive {!Timed_out}/{!Crashed} outcomes of the same input,
      further requests for it short-circuit to {!Quarantined} instead
      of burning a worker batch-wide.

    Nothing is retried. Diagnostics and simulator traps are pure
    functions of the input, and persistent-cache I/O errors never reach
    this layer: {!Masc.Disk_cache} turns them into misses. *)

module MT := Masc_sema.Mtype
module I := Masc_vm.Interp

type op = Compile | Run

type spec = {
  op : op;
  label : string;  (** reporting name: the file path or [kernel:<name>] *)
  source : string;  (** MATLAB source text *)
  entry : string;
  arg_types : MT.t list;
  inputs : I.xvalue list;  (** for [Run]; deterministic per request *)
  config : Masc.Compiler.config;
  fuel : int option;
}

type status =
  | Ok_run of { cycles : int; dyn_instrs : int; rets_digest : string }
      (** [rets_digest] fingerprints the returned values, so two runs
          of the same request can be compared bit-for-bit from the
          batch summary alone. *)
  | Ok_compile of { c_digest : string; c_bytes : int }
  | Rejected of Masc_frontend.Diag.t list  (** deterministic diagnostics *)
  | Trapped of string  (** simulator guardrail trap / runtime error *)
  | Timed_out of { budget_ms : float }
  | Quarantined of { reason : string }
  | Crashed of string  (** unexpected exception, isolated to this request *)
  | Invalid of string  (** malformed request line (batch front end) *)

type outcome = {
  o_label : string;
  o_op : op;
  o_status : status;
  o_latency_ms : float;
  o_retries : int;  (** always 0: requests are never retried *)
}

type policy = {
  quarantine_after : int;  (** consecutive failures before the breaker opens *)
  timeout_ms : float option;  (** whole-request wall-clock deadline *)
}

(** Quarantine after 3, no deadline. *)
val default_policy : policy

(** Consecutive-failure counts per input identity; share one breaker
    across a batch. Thread-safe. *)
type breaker

val create_breaker : unit -> breaker

(** Deterministic pseudo-random simulator inputs for a file-based run
    request (the same generator as [mascc run --seed]). *)
val random_inputs : seed:int -> MT.t list -> I.xvalue list

(** One-word status class for reports: [ok], [rejected], [trapped],
    [timeout], [quarantined], [crashed] or [invalid]. *)
val status_class : status -> string

(** Human-oriented detail suffix ([cycles=...], [reason="..."], ...). *)
val status_detail : status -> string

(** Run one request under the policy. Never raises. [rid] (default -1)
    is the request's journal/trace correlation id: it is installed as
    the domain-local {!Masc_obs.Journal} context for the request's
    whole extent, so every journal event and trace span recorded
    below — cache traffic, deadline hits, traps — carries it. *)
val execute : ?breaker:breaker -> ?rid:int -> policy:policy -> spec -> outcome
