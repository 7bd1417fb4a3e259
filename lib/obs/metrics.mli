(** Process-wide registry of named counters, gauges and histograms.

    One dump format, shared by [mascc --metrics] and tests. Thread-safe;
    counter aggregation is commutative so dumps are deterministic under
    [--jobs]. *)

type kind = Counter | Gauge | Histogram

(** [incr ?by name] bumps counter [name] (created on first use). *)
val incr : ?by:int -> string -> unit

(** [set name v] sets gauge [name] to [v]. *)
val set : string -> float -> unit

(** [observe name v] folds [v] into histogram [name]: count, sum, min
    and max, in constant memory (no samples are kept). *)
val observe : string -> float -> unit

(** Counter value, gauge level, or histogram sum; [None] if the metric
    was never touched. *)
val get : string -> float option

val reset : unit -> unit

(** Exact nearest-rank quantile over an unsorted sample array
    ([quantile xs 50.0] is the median; empty input yields 0). Shared by
    [batch --summary] and [Health]. *)
val quantile : float array -> float -> float

(** One line per metric, sorted by name; histograms report
    n/sum/min/max/mean. *)
val dump_text : unit -> string
