(* The process's one event recorder.

   Two kinds of event share one log: timed spans around compiler
   stages, passes and simulations (what [--trace] renders), and instant
   events from the service layer — request lifecycle, deadline hits,
   cache traffic, quarantine transitions, simulator traps (what
   [--journal] streams). Every event is stamped with monotonic time,
   the current request id and the recording domain id. The request id
   and the span nesting depth live in one domain-local context: each
   batch request runs wholly inside one domain of the pool, so DLS is a
   correct carrier, and a span needs no lock to find its depth.

   The log is a bounded in-memory ring (the "flight recorder"): old
   events are overwritten, a drop counter keeps the total honest. An
   optional stream sink appends every event to an [out_channel] as one
   JSON object per line, flushed per event so the file survives a crash
   — this is what [mascc batch --journal out.jsonl] wires up. Spans and
   instants draw from one sequence, so [seq] is the JSONL line index
   whatever is recorded.

   Disabled (the default) a span, an emission or a request scope costs
   one atomic load: no clock read, no allocation, no lock. *)

type span = {
  cat : string;
  dur_ns : int64;
  depth : int;  (* nesting depth within the recording domain at start *)
}

type event = {
  seq : int;  (* global arrival index, 0-based *)
  ts_ns : int64;  (* monotonic, relative to [enable]; a span's start *)
  rid : int;  (* request id; -1 = process scope *)
  dom : int;  (* Domain.self at record time *)
  kind : string;  (* instant kind, or span name *)
  detail : (string * string) list;
  span : span option;  (* [Some] exactly on span events *)
}

(* One bit per event kind: [--trace] records spans, [--journal]
   instants. *)
let spans_bit = 1
let instants_bit = 2
let state = Atomic.make 0
let lock = Mutex.create ()
let t0 = ref 0L
let ring : event option array ref = ref [||]
let total_count = ref 0
let sink : out_channel option ref = ref None

type context = { mutable c_rid : int; mutable c_depth : int }

let context = Domain.DLS.new_key (fun () -> { c_rid = -1; c_depth = 0 })
let now_ns () = Monotonic_clock.now ()
let default_capacity = 65536

let enable ?(capacity = default_capacity) ?(spans = false) ?(instants = true)
    () =
  Mutex.protect lock (fun () ->
      ring := Array.make (max 1 capacity) None;
      total_count := 0;
      t0 := now_ns ();
      Atomic.set state
        ((if spans then spans_bit else 0)
        lor if instants then instants_bit else 0))

let disable () =
  Mutex.protect lock (fun () ->
      Atomic.set state 0;
      ring := [||];
      total_count := 0;
      sink := None)

let is_enabled () = Atomic.get state land instants_bit <> 0

let reset () =
  Mutex.protect lock (fun () ->
      Array.fill !ring 0 (Array.length !ring) None;
      total_count := 0;
      t0 := now_ns ())

let stream_to oc = Mutex.protect lock (fun () -> sink := Some oc)

let close_stream () =
  Mutex.protect lock (fun () ->
      (match !sink with Some oc -> flush oc | None -> ());
      sink := None)

let current_rid () =
  if Atomic.get state = 0 then -1 else (Domain.DLS.get context).c_rid

let with_request ~rid f =
  if Atomic.get state = 0 then f ()
  else begin
    let ctx = Domain.DLS.get context in
    let saved = ctx.c_rid in
    ctx.c_rid <- rid;
    Fun.protect ~finally:(fun () -> ctx.c_rid <- saved) f
  end

(* One JSON object per line; detail pairs are flattened in as string
   values after the fixed fields, so every line is self-describing. A
   span is kind "span" with its name, category, duration and depth. *)
let render_event ev =
  let b = Buffer.create 128 in
  Buffer.add_string b
    (Printf.sprintf "{\"seq\":%d,\"ts_ns\":%Ld,\"rid\":%d,\"dom\":%d,\"kind\":"
       ev.seq ev.ts_ns ev.rid ev.dom);
  (match ev.span with
  | None -> Buffer.add_string b (Printf.sprintf "\"%s\"" (Ojson.escape ev.kind))
  | Some s ->
    Buffer.add_string b
      (Printf.sprintf
         "\"span\",\"name\":\"%s\",\"cat\":\"%s\",\"dur_ns\":%Ld,\"depth\":%d"
         (Ojson.escape ev.kind) (Ojson.escape s.cat) s.dur_ns s.depth));
  List.iter
    (fun (k, v) ->
      Buffer.add_string b
        (Printf.sprintf ",\"%s\":\"%s\"" (Ojson.escape k) (Ojson.escape v)))
    ev.detail;
  Buffer.add_char b '}';
  Buffer.contents b

let record ~start ~rid ~kind ~detail span =
  let dom = (Domain.self () :> int) in
  Mutex.protect lock (fun () ->
      let seq = !total_count in
      let ev =
        { seq; ts_ns = Int64.sub start !t0; rid; dom; kind; detail; span }
      in
      let cap = Array.length !ring in
      if cap > 0 then !ring.(seq mod cap) <- Some ev;
      incr total_count;
      match !sink with
      | None -> ()
      | Some oc ->
        output_string oc (render_event ev);
        output_char oc '\n';
        flush oc)

let emit ?rid ?(detail = []) kind =
  if Atomic.get state land instants_bit <> 0 then begin
    let rid =
      match rid with Some r -> r | None -> (Domain.DLS.get context).c_rid
    in
    record ~start:(now_ns ()) ~rid ~kind ~detail None
  end

(* A span is recorded when it completes, so within a domain children
   precede their parent in [seq] order. *)
let span ?(cat = "stage") name f =
  if Atomic.get state land spans_bit = 0 then f ()
  else begin
    let ctx = Domain.DLS.get context in
    let depth = ctx.c_depth in
    let rid = ctx.c_rid in
    ctx.c_depth <- depth + 1;
    let start = now_ns () in
    let finish () =
      let dur_ns = Int64.sub (now_ns ()) start in
      ctx.c_depth <- depth;
      record ~start ~rid ~kind:name ~detail:[] (Some { cat; dur_ns; depth })
    in
    match f () with
    | v ->
      finish ();
      v
    | exception e ->
      finish ();
      raise e
  end

let total () = Mutex.protect lock (fun () -> !total_count)

let dropped () =
  Mutex.protect lock (fun () -> max 0 (!total_count - Array.length !ring))

(* Surviving ring contents, arrival (seq) order. *)
let events () =
  Mutex.protect lock (fun () ->
      let cap = Array.length !ring in
      if cap = 0 then []
      else begin
        let n = !total_count in
        let first = max 0 (n - cap) in
        let out = ref [] in
        for s = n - 1 downto first do
          match !ring.(s mod cap) with
          | Some ev when ev.seq = s -> out := ev :: !out
          | _ -> ()
        done;
        !out
      end)

let events_for ~rid = List.filter (fun ev -> ev.rid = rid) (events ())
let seqs_for ~rid = List.map (fun ev -> ev.seq) (events_for ~rid)

let to_jsonl () =
  let b = Buffer.create 4096 in
  List.iter
    (fun ev ->
      Buffer.add_string b (render_event ev);
      Buffer.add_char b '\n')
    (events ());
  Buffer.contents b

(* ---- normalizing comparator ----

   Two journals from reruns of the same batch differ only in
   time-valued fields: [ts_ns] and any key ending in [_ms] or [_ns]
   (latencies, deadline budgets, span durations). [normalize] rewrites
   those values to 0 so byte comparison tests determinism of everything
   else. *)

let is_numchar c =
  (c >= '0' && c <= '9') || c = '.' || c = '-' || c = '+' || c = 'e' || c = 'E'

let normalize_line line =
  let n = String.length line in
  let b = Buffer.create n in
  let i = ref 0 in
  let time_key k =
    k = "ts_ns"
    || (String.length k > 3
        && (String.sub k (String.length k - 3) 3 = "_ms"
            || String.sub k (String.length k - 3) 3 = "_ns"))
  in
  while !i < n do
    let c = line.[!i] in
    Buffer.add_char b c;
    incr i;
    (* after every  "key":  decide whether to zero the value *)
    if c = '"' && !i < n then begin
      (* scan the key *)
      let j = ref !i in
      while !j < n && line.[!j] <> '"' do incr j done;
      if !j < n && !j + 1 < n && line.[!j + 1] = ':' then begin
        let key = String.sub line !i (!j - !i) in
        Buffer.add_string b key;
        Buffer.add_string b "\":";
        i := !j + 2;
        if time_key key then begin
          (* value is either a bare number or a quoted number *)
          let quoted = !i < n && line.[!i] = '"' in
          if quoted then incr i;
          let k = ref !i in
          while !k < n && is_numchar line.[!k] do incr k done;
          if !k > !i then begin
            i := !k;
            if quoted && !i < n && line.[!i] = '"' then begin
              incr i;
              Buffer.add_string b "\"0\""
            end
            else if quoted then Buffer.add_string b "\"0"
            else Buffer.add_char b '0'
          end
          else if quoted then Buffer.add_char b '"'
        end
      end
    end
  done;
  Buffer.contents b

let normalize text =
  String.split_on_char '\n' text
  |> List.map normalize_line
  |> String.concat "\n"

(* ---- flight dump ----
   Human-readable tail of the recorder, for crash/trap/quarantine
   reports on stderr. *)

let render_flight ?(limit = 50) ?rid () =
  let evs =
    match rid with Some rid -> events_for ~rid | None -> events ()
  in
  let evs =
    let n = List.length evs in
    if n <= limit then evs
    else List.filteri (fun i _ -> i >= n - limit) evs
  in
  let b = Buffer.create 1024 in
  List.iter
    (fun ev ->
      let kind =
        match ev.span with Some s -> s.cat ^ ":" ^ ev.kind | None -> ev.kind
      in
      Buffer.add_string b
        (Printf.sprintf "[flight] #%-5d %9.3fms rid=%-3d %-18s" ev.seq
           (Int64.to_float ev.ts_ns /. 1e6)
           ev.rid kind);
      List.iter
        (fun (k, v) -> Buffer.add_string b (Printf.sprintf " %s=%s" k v))
        ev.detail;
      Buffer.add_char b '\n')
    evs;
  Buffer.contents b
