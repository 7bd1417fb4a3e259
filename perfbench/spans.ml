(* In-memory span recorder for the traced run.

   Each operation records into its own buffer, held in domain-local
   storage while the operation runs, so the two domains of the
   batch-service workload never contend. Outside [record], [span] and
   [count] cost one domain-local read. Spans are written out as Chrome
   trace JSON at exit; [Masc_obs.Trace] stays off throughout. *)

type span = {
  id : int;
  parent : int;  (* 0 for the operation's root span *)
  name : string;
  t0 : int64;
  t1 : int64;
}

type op = {
  op_id : int;
  tid : int;
  mutable next_id : int;
  mutable open_span : int;
  mutable spans : span list;
  mutable counts : (string * float) list;
}

let now = Monotonic_clock.now
let current : op option Domain.DLS.key = Domain.DLS.new_key (fun () -> None)
let next_op = Atomic.make 0

let span name f =
  match Domain.DLS.get current with
  | None -> f ()
  | Some o ->
    let id = o.next_id in
    o.next_id <- id + 1;
    let parent = o.open_span in
    o.open_span <- id;
    let t0 = now () in
    Fun.protect f ~finally:(fun () ->
        let t1 = now () in
        o.open_span <- parent;
        o.spans <- { id; parent; name; t0; t1 } :: o.spans)

(* Work counts recorded at the same boundaries; repeated names add up. *)
let count name v =
  match Domain.DLS.get current with
  | None -> ()
  | Some o -> o.counts <- (name, v) :: o.counts

(* Run [f] as one traced operation under a root span "op". *)
let record f =
  let o =
    {
      op_id = Atomic.fetch_and_add next_op 1;
      tid = (Domain.self () :> int);
      next_id = 1;
      open_span = 0;
      spans = [];
      counts = [];
    }
  in
  Domain.DLS.set current (Some o);
  let r =
    Fun.protect ~finally:(fun () -> Domain.DLS.set current None) (fun () ->
        span "op" f)
  in
  (r, o)

(* Summed duration in ns of the spans named [name]; [None] when the
   operation has none. *)
let dur o name =
  List.fold_left
    (fun acc s ->
      if String.equal s.name name then
        Some (Option.value acc ~default:0.0 +. Int64.to_float (Int64.sub s.t1 s.t0))
      else acc)
    None o.spans

let counted o name =
  List.fold_left
    (fun acc (n, v) ->
      if String.equal n name then Some (Option.value acc ~default:0.0 +. v)
      else acc)
    None o.counts

(* ---- Chrome trace output ---- *)

(* Workload operations kept for the trace file: the first [chrome_cap],
   so the file stays a few MB however long the run, while the metrics
   fold in every operation. [~always] operations (the layer pass) are
   kept regardless. *)
let chrome_cap = 400
let kept : op list ref = ref []
let kept_n = ref 0

let keep ?(always = false) o =
  if always || !kept_n < chrome_cap then begin
    kept := o :: !kept;
    if not always then incr kept_n
  end

let write_chrome path =
  let origin =
    List.fold_left
      (fun m o -> List.fold_left (fun m s -> min m s.t0) m o.spans)
      Int64.max_int !kept
  in
  let us t = Int64.to_float (Int64.sub t origin) /. 1000.0 in
  let oc = open_out path in
  output_string oc "{\"traceEvents\": [";
  let first = ref true in
  List.iter
    (fun o ->
      List.iter
        (fun s ->
          if not !first then output_string oc ",";
          first := false;
          Printf.fprintf oc
            "\n{\"name\": \"%s\", \"cat\": \"%s\", \"ph\": \"X\", \"ts\": %.3f, \
             \"dur\": %.3f, \"pid\": 1, \"tid\": %d, \"args\": {\"op\": %d, \
             \"span\": %d, \"parent\": %d}}"
            s.name
            (match String.index_opt s.name '.' with
            | Some i -> String.sub s.name 0 i
            | None -> s.name)
            (us s.t0)
            (Int64.to_float (Int64.sub s.t1 s.t0) /. 1000.0)
            o.tid o.op_id s.id s.parent)
        (List.rev o.spans))
    (List.rev !kept);
  output_string oc "\n]}\n";
  close_out oc
