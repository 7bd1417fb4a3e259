(* Request-correlated flight recorder.

   A structured, append-only event log for the service layer: request
   lifecycle, deadline hits, cache traffic, quarantine transitions and
   simulator traps. Events are stamped with monotonic time, the current
   request id (held in
   domain-local storage, installed by [Svc.Request.execute] — each
   batch request runs wholly inside one domain of the pool, so DLS is a
   correct carrier), and the recording domain id.

   The log lives in a bounded in-memory ring (the "flight recorder"):
   old events are overwritten, a drop counter keeps the total honest.
   An optional stream sink appends every event to an [out_channel] as
   one JSON object per line, flushed per event so the file survives a
   crash — this is what [mascc batch --journal out.jsonl] wires up.

   Disabled (the default) an emission costs one atomic load: no clock
   read, no allocation, no lock. *)

type event = {
  seq : int;  (* global arrival index, 0-based *)
  ts_ns : int64;  (* monotonic, relative to [enable] *)
  rid : int;  (* request id; -1 = process scope *)
  dom : int;  (* Domain.self at record time *)
  kind : string;
  detail : (string * string) list;
}

let enabled = Atomic.make false
let lock = Mutex.create ()
let t0 = ref 0L
let ring : event option array ref = ref [||]
let total_count = ref 0
let sink : out_channel option ref = ref None

(* Request id context per domain. *)
let context : int ref Domain.DLS.key = Domain.DLS.new_key (fun () -> ref (-1))

let now_ns () = Monotonic_clock.now ()
let default_capacity = 65536

let enable ?(capacity = default_capacity) () =
  Mutex.protect lock (fun () ->
      ring := Array.make (max 1 capacity) None;
      total_count := 0;
      t0 := now_ns ();
      Atomic.set enabled true)

let disable () =
  Mutex.protect lock (fun () ->
      Atomic.set enabled false;
      ring := [||];
      total_count := 0;
      sink := None)

let is_enabled () = Atomic.get enabled

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
  if not (Atomic.get enabled) then -1
  else !(Domain.DLS.get context)

let with_request ~rid f =
  if not (Atomic.get enabled) then f ()
  else begin
    let cell = Domain.DLS.get context in
    let saved = !cell in
    cell := rid;
    Fun.protect ~finally:(fun () -> cell := saved) f
  end

(* One JSON object per line; detail pairs are flattened in as string
   values after the fixed fields, so every line is self-describing. *)
let render_event ev =
  let b = Buffer.create 128 in
  Buffer.add_string b
    (Printf.sprintf
       "{\"seq\":%d,\"ts_ns\":%Ld,\"rid\":%d,\"dom\":%d,\"kind\":\"%s\""
       ev.seq ev.ts_ns ev.rid ev.dom (Ojson.escape ev.kind));
  List.iter
    (fun (k, v) ->
      Buffer.add_string b
        (Printf.sprintf ",\"%s\":\"%s\"" (Ojson.escape k) (Ojson.escape v)))
    ev.detail;
  Buffer.add_char b '}';
  Buffer.contents b

let emit ?rid ?(detail = []) kind =
  if Atomic.get enabled then begin
    let rid = match rid with Some r -> r | None -> !(Domain.DLS.get context) in
    let dom = (Domain.self () :> int) in
    Mutex.protect lock (fun () ->
        let ts_ns = Int64.sub (now_ns ()) !t0 in
        let seq = !total_count in
        let ev = { seq; ts_ns; rid; dom; kind; detail } in
        let cap = Array.length !ring in
        if cap > 0 then !ring.(seq mod cap) <- Some ev;
        incr total_count;
        match !sink with
        | None -> ()
        | Some oc ->
          output_string oc (render_event ev);
          output_char oc '\n';
          flush oc)
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
   time-valued fields: [ts_ns] and any detail key ending in [_ms] or
   [_ns] (latencies, deadline budgets). [normalize] rewrites those values
   to 0 so byte comparison tests determinism of everything else. *)

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
      Buffer.add_string b
        (Printf.sprintf "[flight] #%-5d %9.3fms rid=%-3d %-18s" ev.seq
           (Int64.to_float ev.ts_ns /. 1e6)
           ev.rid ev.kind);
      List.iter
        (fun (k, v) -> Buffer.add_string b (Printf.sprintf " %s=%s" k v))
        ev.detail;
      Buffer.add_char b '\n')
    evs;
  Buffer.contents b
