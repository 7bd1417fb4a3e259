(** The process's one event recorder: timed spans ([--trace]) and
    request-correlated instant events ([--journal]) in one log.

    Instants cover request lifecycle, deadline hits, cache traffic,
    quarantine transitions and simulator traps; spans cover compiler
    stages, optimizer passes and simulations. Each event carries
    monotonic time, the current request id (domain-local context
    installed by [Svc.Request.execute]) and the recording domain id.

    Events live in a bounded in-memory ring with a drop counter, and
    are optionally streamed to an [out_channel] as JSONL, one flushed
    line per event ([mascc batch --journal]). Spans and instants share
    one sequence, so [seq] is the JSONL line index. Disabled (the
    default), [span], [emit] and [with_request] cost one atomic load.
    {!Trace} renders the span events. *)

type span = {
  cat : string;
  dur_ns : int64;
  depth : int;  (** nesting depth within the recording domain at start *)
}

type event = {
  seq : int;  (** global arrival index, 0-based *)
  ts_ns : int64;  (** monotonic, relative to [enable]; a span's start *)
  rid : int;  (** request id; -1 = process scope *)
  dom : int;  (** recording domain id *)
  kind : string;  (** instant kind, or span name *)
  detail : (string * string) list;
  span : span option;  (** [Some] exactly on span events *)
}

(** The process's one monotonic clock (ns), read by event times,
    {!Health.now_ms} and request deadlines. *)
val now_ns : unit -> int64

(** Start recording into a fresh ring of [capacity] events (default
    65536): spans iff [spans] (default false), instants iff [instants]
    (default true). *)
val enable : ?capacity:int -> ?spans:bool -> ?instants:bool -> unit -> unit

val disable : unit -> unit

(** True when instant events are recorded. *)
val is_enabled : unit -> bool

(** Clear the ring and restart the clock; keeps capacity and sink. *)
val reset : unit -> unit

(** Append every subsequent event to [oc] as one JSON line, flushed per
    event (crash-safe). The channel is not closed by this module. *)
val stream_to : out_channel -> unit

val close_stream : unit -> unit

(** Run [f] with the domain-local request context set to [rid];
    restored on exit. Installed whenever anything is recorded, so spans
    inside [f] carry [rid] too. *)
val with_request : rid:int -> (unit -> 'a) -> 'a

(** Request id of the current domain context; -1 when none or when
    nothing is recorded. *)
val current_rid : unit -> int

(** [emit ?rid ?detail kind] records an instant event under the current
    domain context ([?rid] overrides it). Free unless instants are
    recorded. *)
val emit : ?rid:int -> ?detail:(string * string) list -> string -> unit

(** [span ~cat name f] times [f ()] (category default ["stage"]); the
    span is recorded when [f] returns or raises. Free unless spans are
    recorded. *)
val span : ?cat:string -> string -> (unit -> 'a) -> 'a

(** Events recorded so far / overwritten by the ring. *)
val total : unit -> int

val dropped : unit -> int

(** Surviving ring contents, arrival order. *)
val events : unit -> event list

val events_for : rid:int -> event list

(** Journal offsets (sequence numbers = JSONL line indices) of the
    surviving events for one request. *)
val seqs_for : rid:int -> int list

(** The surviving ring as JSONL text, one event per line. *)
val to_jsonl : unit -> string

val render_event : event -> string

(** Zero every time-valued field ([ts_ns] and any key ending in [_ms]
    or [_ns], span durations included) so journals from reruns of the
    same batch compare byte-identical. *)
val normalize : string -> string

val normalize_line : string -> string

(** Human-readable recorder tail ([limit] newest events, optionally for
    one request) for crash / trap / quarantine reports. *)
val render_flight : ?limit:int -> ?rid:int -> unit -> string
