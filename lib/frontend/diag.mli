(** The diagnostics engine.

    Every phase reports user-facing problems through a {!sink}. Two
    regimes share the same reporting call:

    - {!Raise} — the legacy raise-first contract: the first error raises
      {!exception-Error} and warnings/notes are dropped. Programmatic
      entry points default to this, so existing callers keep their
      semantics.
    - {!Ctx} — an accumulating {!context}: diagnostics are recorded in a
      capped ring buffer and the phases recover (panic-mode resync in
      the parser, expression poisoning in the type checker), reporting
      every independent mistake in one run. After [error_budget] errors
      the phase bails with {!exception-Budget_exhausted}.

    A fresh context allocates only a few words; the ring buffer is
    allocated on the first diagnostic, so a clean compile pays nothing. *)

type phase = Lex | Parse | Sema | Lower | Optimize | Vectorize | Codegen | Simulate

exception Error of phase * Loc.span * string

val phase_name : phase -> string

module Severity : sig
  type t = Error | Warning | Note

  val name : t -> string
  val rank : t -> int
end

(** One diagnostic. *)
type t = {
  severity : Severity.t;
  phase : phase;
  span : Loc.span;
  message : string;
}

(** Accumulating diagnostic store: ring-buffered (the most recent [cap]
    diagnostics are retained, older ones are counted in
    {!dropped_count}), with an error budget. *)
type context

exception Budget_exhausted of phase

val default_error_budget : int
(** 24 — errors recorded before a phase bails. *)

val default_cap : int
(** 256 — diagnostics retained before the ring starts dropping. *)

val create : ?error_budget:int -> ?cap:int -> unit -> context

val error_count : context -> int
val warning_count : context -> int
val note_count : context -> int
val dropped_count : context -> int

(** Retained diagnostics, oldest first. *)
val to_list : context -> t list

type sink = Raise | Ctx of context

(** [report sink severity phase span fmt ...] — the one reporting
    primitive. [Raise]: errors raise {!exception-Error}, warnings and
    notes vanish. [Ctx c]: the diagnostic is recorded; recording the
    [error_budget]-th error raises {!exception-Budget_exhausted}. *)
val report :
  sink -> Severity.t -> phase -> Loc.span ->
  ('a, Format.formatter, unit, unit) format4 -> 'a

(** [error phase span fmt ...] raises {!exception-Error} with a
    formatted message (legacy shorthand for fatal sites). *)
val error : phase -> Loc.span -> ('a, Format.formatter, unit, 'b) format4 -> 'a

(** Human-readable rendering: a one-line header
    ([severity: phase: span: message]); with [?source], the offending
    source line follows with a caret run under the span. *)
val render : ?source:string -> t -> string

(** One stable JSON object (single line, keys [severity], [phase],
    [line], [col], [end_line], [end_col], [message]) — the
    machine-readable form behind [mascc --diag-format json]. *)
val to_json : t -> string

(** [to_string exn] renders an {!exception-Error}; raises
    [Invalid_argument] on other exceptions. *)
val to_string : exn -> string
