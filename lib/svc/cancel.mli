(** Cooperative wall-clock cancellation.

    A request's deadline is stored in domain-local state by
    {!with_deadline}; long-running phases call {!check} at natural
    boundaries — {!Masc_opt.Pipeline.timed} wraps every compiler stage
    and pass, and both simulator engines check every
    {!Masc_vm.Exec.guard_mask}+1 dynamic instructions — and the first
    check past the deadline raises {!Deadline_exceeded}.

    Cooperative rather than preemptive on purpose: the pipeline and the
    simulator are pure OCaml loops with no blocking I/O, so boundary
    checks bound the overshoot to one pass / one guard window, and
    cancellation can never leave shared state (caches, metrics) torn
    the way [Thread.kill]-style preemption would.

    Deadlines nest: the innermost [with_deadline] wins for its dynamic
    extent and the previous deadline is restored on exit. Unarmed, a
    {!check} is a domain-local load and a compare. *)

exception Deadline_exceeded of { budget_ms : float }

(** [with_deadline ~ms f] runs [f ()] with an absolute deadline [ms]
    milliseconds from now (monotonic clock) installed for the current
    domain; restores the enclosing deadline (if any) on every exit
    path. *)
val with_deadline : ms:float -> (unit -> 'a) -> 'a

(** True when the current domain has a deadline installed. Pre-read it
    before a hot loop to skip even the check. *)
val armed : unit -> bool

(** Raises {!Deadline_exceeded} if the current domain's deadline has
    passed; otherwise (or with no deadline installed) returns unit. *)
val check : unit -> unit
