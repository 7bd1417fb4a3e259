(** Structured tracing spans with monotonic clocks.

    Disabled (the default) a span costs one atomic load; enabled, spans
    are recorded into a process-wide mutex-guarded buffer, tagged with
    the recording domain's id and nesting depth so [--jobs] batch
    compiles interleave correctly. Export as Chrome [trace_event] JSON
    (chrome://tracing, Perfetto) or a merged plain-text tree.

    Setting the [MASC_TIME_STAGES] environment variable (the historical
    interface) enables tracing in echo mode: one [\[masc-time\]] line
    per completed span on stderr. *)

type event = {
  name : string;
  cat : string;
  ts_ns : int64;  (** span start, ns, relative to trace start *)
  dur_ns : int64;
  tid : int;  (** domain id *)
  rid : int;  (** [Journal] request id at record time; -1 = none *)
  depth : int;  (** nesting depth within the domain *)
  args : (string * string) list;
}

val enable : ?echo_spans:bool -> unit -> unit
val is_enabled : unit -> bool

(** True when spans echo [\[masc-time\]] lines to stderr (the
    [MASC_TIME_STAGES] alias). *)
val echo_enabled : unit -> bool

(** [span ~cat ~args name f] times [f ()]; the span is recorded even
    when [f] raises. Free when tracing is disabled. *)
val span :
  ?cat:string -> ?args:(string * string) list -> string -> (unit -> 'a) -> 'a

(** Completed events, oldest first. *)
val dump : unit -> event list

(** Clear the buffer and restart the trace clock (testing). *)
val reset : unit -> unit

(** Chrome trace_event "JSON Array Format": complete ("ph":"X") events,
    microsecond timestamps, pid 1. Spans recorded inside a
    [Journal.with_request] context render on a per-request lane
    (tid 1000+rid, labelled by thread_name metadata); everything else
    stays on its domain lane. *)
val chrome_json : unit -> string

(** Plain-text tree: per-domain span forests merged by span name, with
    summed durations and call counts. Deterministic for a fixed span
    structure regardless of domain interleaving. *)
val summary : unit -> string
