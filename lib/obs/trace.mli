(** Renderers over the span events of a {!Journal} event list (the
    recorder is {!Journal}; [mascc --trace] passes it
    [Journal.events ()]). Instant events in the list are ignored. *)

(** Chrome trace_event "JSON Array Format": complete ("ph":"X") events,
    microsecond timestamps, pid 1. Spans recorded inside a
    [Journal.with_request] context render on a per-request lane
    (tid 1000+rid, labelled by one "ph":"M" thread_name event, with the
    rid in the span's args); other spans stay on their domain's lane,
    unlabelled. *)
val chrome_json : Journal.event list -> string

(** Plain-text tree: per-domain span forests merged by span name, with
    summed durations and call counts. Deterministic for a fixed span
    structure regardless of domain interleaving; a span whose parent is
    missing from the list is a root. *)
val summary : Journal.event list -> string
