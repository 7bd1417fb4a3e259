(** Newline-framed batch front end for the service core ([mascc batch]).

    Input is one request per line:

    {v
    # comment / blank lines are skipped
    run kernel:fir
    run kernel:fft target=dsp4 fuel=2000000
    compile kernel:matmul coder
    run path/to/filter.m args=double:64,double:8 entry=filter seed=7
    compile other.m args=double:16 O=1 no-vectorize
    v}

    The first word is the operation ([run] or [compile]); the second
    names the program ([kernel:<name>] from the built-in suite, or a
    [.m] file path). The rest are [key=value] options ([args], [entry],
    [target], [seed], [fuel], [O]) and flags ([coder], [no-vectorize],
    [no-complex]). [fuel] must be positive.

    A malformed line — or an unreadable file — becomes a request with
    status {!Request.Invalid}; it occupies its slot in the report and
    the batch goes on. Requests execute on the domain pool
    ({!Masc.Parallel.map}); results are reported in input order
    regardless of completion order. *)

type item = {
  bx_index : int;  (** 0-based position among non-comment lines *)
  bx_label : string;
  bx_op : Request.op;  (** as requested, even when the line is invalid *)
  bx_parsed : (Request.spec, string) result;
}

(** [parse_arg_types "double:64,complex:8,int"] — the [args=] /
    [mascc --args] type-spec syntax. *)
val parse_arg_types : string -> (Masc_sema.Mtype.t list, string) result

(** Parse one request line; [None] for blank lines and [#] comments. *)
val parse_line :
  default_isa:Masc_asip.Isa.t -> index:int -> string -> item option

(** Parse a whole request text (newline framed). *)
val parse : default_isa:Masc_asip.Isa.t -> string -> item list

(** Execute every item under the policy with a shared circuit breaker.
    [jobs <= 1] runs sequentially. Outcomes are in item order; invalid
    items yield an {!Request.Invalid} outcome without executing.

    Every item is journaled as [request.accepted] (rid = [bx_index])
    before dispatch, and each request executes under that rid as its
    {!Masc_obs.Journal} correlation context. [on_outcome] is called
    once per completed request, from the worker domain that ran it
    (callers must synchronize) — it feeds live health reporting. *)
val run :
  ?jobs:int ->
  ?on_outcome:(Request.outcome -> unit) ->
  policy:Request.policy ->
  item list ->
  Request.outcome list

(** One deterministic report line per request, e.g.
    [req 3 ok run kernel:fft cycles=9188 dyn=5120 latency_ms=1.42]
    (latency last, so tests can [sed] it off). *)
val render_line : index:int -> Request.outcome -> string

(** JSON summary: per-request records (in order), counts by status
    class, latency percentiles (nearest-rank p50/p90/p99 and max),
    and the timeout / quarantine / cache counters from
    {!Masc_obs.Metrics}. When the journal is enabled, every non-ok
    request record carries a ["journal"] array of its flight-recorder
    event offsets. *)
val summary_json : Request.outcome list -> string
