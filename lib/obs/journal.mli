(** Request-correlated flight recorder.

    A structured, append-only event log: request lifecycle, deadline
    hits, cache traffic, quarantine transitions, simulator traps. Each
    event carries monotonic time, the current request id (domain-local
    context installed by [Svc.Request.execute]) and the recording
    domain id.

    Events live in a bounded in-memory ring with a drop counter, and
    are optionally streamed to an [out_channel] as JSONL, one flushed
    line per event ([mascc batch --journal]). Disabled (the default),
    [emit] costs one atomic load. *)

type event = {
  seq : int;  (** global arrival index, 0-based *)
  ts_ns : int64;  (** monotonic, relative to [enable] *)
  rid : int;  (** request id; -1 = process scope *)
  dom : int;  (** recording domain id *)
  kind : string;
  detail : (string * string) list;
}

val enable : ?capacity:int -> unit -> unit
val disable : unit -> unit
val is_enabled : unit -> bool

(** Clear the ring and restart the clock; keeps capacity and sink. *)
val reset : unit -> unit

(** Append every subsequent event to [oc] as one JSON line, flushed per
    event (crash-safe). The channel is not closed by this module. *)
val stream_to : out_channel -> unit

val close_stream : unit -> unit

(** Run [f] with the domain-local request context set to [rid];
    restored on exit. *)
val with_request : rid:int -> (unit -> 'a) -> 'a

(** Request id of the current domain context; -1 when none or when the
    journal is disabled. *)
val current_rid : unit -> int

(** [emit ?rid ?detail kind] records an event under the current domain
    context ([?rid] overrides it). Free when disabled. *)
val emit : ?rid:int -> ?detail:(string * string) list -> string -> unit

(** Events recorded so far / overwritten by the ring. *)
val total : unit -> int

val dropped : unit -> int

(** Surviving ring contents, arrival order. *)
val events : unit -> event list

val events_for : rid:int -> event list

(** Journal offsets (sequence numbers = JSONL line indices when nothing
    was dropped) of the events for one request. *)
val seqs_for : rid:int -> int list

(** The surviving ring as JSONL text, one event per line. *)
val to_jsonl : unit -> string

val render_event : event -> string

(** Zero every time-valued field ([ts_ns] and any key ending in [_ms]
    or [_ns]) so journals from reruns of the same batch compare
    byte-identical. *)
val normalize : string -> string

val normalize_line : string -> string

(** Human-readable recorder tail ([limit] newest events, optionally for
    one request) for crash / trap / quarantine reports. *)
val render_flight : ?limit:int -> ?rid:int -> unit -> string
