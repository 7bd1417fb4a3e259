(* Structured tracing spans.

   One process-wide buffer of completed spans, guarded by a mutex so
   `--jobs` domains can record concurrently; every span is tagged with
   its domain id and nesting depth, which is enough to rebuild the span
   forest without begin/end event pairing. Disabled tracing costs one
   atomic load per span — no clock reads, no allocation. *)

type event = {
  name : string;
  cat : string;
  ts_ns : int64;  (* start, relative to [t0] *)
  dur_ns : int64;
  tid : int;  (* Domain.self at record time *)
  rid : int;  (* Journal request id at record time; -1 = none *)
  depth : int;  (* nesting depth within this domain at start *)
  args : (string * string) list;
}

let enabled = Atomic.make false
let echo = ref false
let lock = Mutex.create ()
let events : event list ref = ref []  (* newest first *)
let t0 = ref 0L
let depths : (int, int) Hashtbl.t = Hashtbl.create 8

let now_ns () = Monotonic_clock.now ()

let enable ?(echo_spans = false) () =
  Mutex.protect lock (fun () ->
      if not (Atomic.get enabled) then t0 := now_ns ();
      Atomic.set enabled true;
      if echo_spans then echo := true)

(* MASC_TIME_STAGES predates this module and stays supported as an
   alias: it enables tracing in echo mode, which reproduces the
   historical one-stderr-line-per-span output. Read eagerly so the
   disabled fast path is a branch on an immutable-after-init atomic. *)
let () =
  if Sys.getenv_opt "MASC_TIME_STAGES" <> None then enable ~echo_spans:true ()

let is_enabled () = Atomic.get enabled
let echo_enabled () = !echo

let reset () =
  Mutex.protect lock (fun () ->
      events := [];
      Hashtbl.reset depths;
      t0 := now_ns ())

let span ?(cat = "stage") ?(args = []) name f =
  if not (Atomic.get enabled) then f ()
  else begin
    let tid = (Domain.self () :> int) in
    let rid = Journal.current_rid () in
    let depth =
      Mutex.protect lock (fun () ->
          let d = try Hashtbl.find depths tid with Not_found -> 0 in
          Hashtbl.replace depths tid (d + 1);
          d)
    in
    let start = now_ns () in
    let finish () =
      let dur = Int64.sub (now_ns ()) start in
      Mutex.protect lock (fun () ->
          let d = try Hashtbl.find depths tid with Not_found -> 1 in
          Hashtbl.replace depths tid (max 0 (d - 1));
          events :=
            { name; cat; ts_ns = Int64.sub start !t0; dur_ns = dur; tid;
              rid; depth; args }
            :: !events);
      if !echo then
        Printf.eprintf "[masc-time] %-5s %-14s %8.3f ms\n%!" cat name
          (Int64.to_float dur /. 1e6)
    in
    match f () with
    | v ->
      finish ();
      v
    | exception e ->
      finish ();
      raise e
  end

let dump () = Mutex.protect lock (fun () -> List.rev !events)

(* ---- Chrome trace_event JSON ----
   The "JSON Array Format" with complete ("ph":"X") events; loadable in
   chrome://tracing and Perfetto. Timestamps are microseconds. *)

(* Requests get their own lanes, offset past any plausible domain id,
   so chrome://tracing shows one row per request instead of one
   undifferentiated stream per domain. *)
let lane_offset = 1000
let lane_of ev = if ev.rid >= 0 then lane_offset + ev.rid else ev.tid

let chrome_json () =
  let evs =
    List.sort
      (fun a b ->
        match Int64.compare a.ts_ns b.ts_ns with
        | 0 -> compare (a.tid, a.name) (b.tid, b.name)
        | c -> c)
      (dump ())
  in
  let b = Buffer.create 4096 in
  Buffer.add_string b "{\"traceEvents\":[";
  let first = ref true in
  let add_event s =
    if not !first then Buffer.add_char b ',';
    first := false;
    Buffer.add_string b s
  in
  (* thread_name metadata labels each lane: request lanes by request
     id, remaining lanes by domain id *)
  let lanes = Hashtbl.create 8 in
  List.iter
    (fun ev ->
      let lane = lane_of ev in
      if not (Hashtbl.mem lanes lane) then begin
        Hashtbl.replace lanes lane ();
        let label =
          if ev.rid >= 0 then Printf.sprintf "request %d" ev.rid
          else Printf.sprintf "domain %d" ev.tid
        in
        add_event
          (Printf.sprintf
             "\n{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":%d,\"args\":{\"name\":\"%s\"}}"
             lane label)
      end)
    evs;
  List.iter
    (fun ev ->
      add_event
        (Printf.sprintf
           "\n{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"X\",\"ts\":%.3f,\"dur\":%.3f,\"pid\":1,\"tid\":%d"
           (Ojson.escape ev.name) (Ojson.escape ev.cat)
           (Int64.to_float ev.ts_ns /. 1e3)
           (Int64.to_float ev.dur_ns /. 1e3)
           (lane_of ev));
      let args =
        if ev.rid >= 0 then ("rid", string_of_int ev.rid) :: ev.args
        else ev.args
      in
      (match args with
      | [] -> ()
      | args ->
        Buffer.add_string b ",\"args\":{";
        List.iteri
          (fun j (k, v) ->
            if j > 0 then Buffer.add_char b ',';
            Buffer.add_string b
              (Printf.sprintf "\"%s\":\"%s\"" (Ojson.escape k) (Ojson.escape v)))
          args;
        Buffer.add_char b '}');
      Buffer.add_char b '}')
    evs;
  Buffer.add_string b "\n],\"displayTimeUnit\":\"ms\"}\n";
  Buffer.contents b

(* ---- plain-text tree summary ----
   Spans complete children-before-parents within a domain, so a single
   pass over completion-ordered events rebuilds each domain's forest:
   an event at depth [d] adopts the so-far-unclaimed events at depth
   [d+1]. Forests from different domains are then merged by span name,
   so a batch compile under --jobs reports one aggregated tree no
   matter how the domains interleaved. *)

type span_tree = { ev : event; kids : span_tree list }

type node = {
  n_name : string;
  n_cat : string;
  mutable n_dur : int64;
  mutable n_count : int;
  mutable n_children : node list;  (* first-seen order *)
}

let rec merge_into nodes (t : span_tree) =
  let n =
    match List.find_opt (fun n -> n.n_name = t.ev.name) nodes with
    | Some n ->
      n.n_dur <- Int64.add n.n_dur t.ev.dur_ns;
      n.n_count <- n.n_count + 1;
      n
    | None ->
      { n_name = t.ev.name; n_cat = t.ev.cat; n_dur = t.ev.dur_ns;
        n_count = 1; n_children = [] }
  in
  let nodes =
    if List.memq n nodes then nodes else nodes @ [ n ]
  in
  n.n_children <- List.fold_left merge_into n.n_children t.kids;
  nodes

let summary () =
  let evs = dump () in
  (* completion-ordered events per domain *)
  let by_tid : (int, event list ref) Hashtbl.t = Hashtbl.create 8 in
  let tids = ref [] in
  List.iter
    (fun ev ->
      match Hashtbl.find_opt by_tid ev.tid with
      | Some l -> l := ev :: !l
      | None ->
        Hashtbl.replace by_tid ev.tid (ref [ ev ]);
        tids := ev.tid :: !tids)
    evs;
  let forest_of tid =
    let pending : (int, span_tree list) Hashtbl.t = Hashtbl.create 8 in
    List.iter
      (fun ev ->
        let kids =
          match Hashtbl.find_opt pending (ev.depth + 1) with
          | Some l ->
            Hashtbl.remove pending (ev.depth + 1);
            l
          | None -> []
        in
        let cur = try Hashtbl.find pending ev.depth with Not_found -> [] in
        Hashtbl.replace pending ev.depth (cur @ [ { ev; kids } ]))
      (List.rev !(Hashtbl.find by_tid tid));
    Hashtbl.fold (fun _ l acc -> l @ acc) pending []
  in
  (* Merge domain forests by name so --jobs runs report one aggregated
     tree, deterministic given the same span structure. *)
  let roots =
    List.fold_left
      (fun acc tid -> List.fold_left merge_into acc (forest_of tid))
      []
      (List.sort compare !tids)
  in
  let b = Buffer.create 1024 in
  let rec render indent n =
    let label = n.n_cat ^ ":" ^ n.n_name in
    Buffer.add_string b
      (Printf.sprintf "%s%-*s %9.3f ms" indent
         (max 1 (32 - String.length indent))
         label
         (Int64.to_float n.n_dur /. 1e6));
    if n.n_count > 1 then
      Buffer.add_string b (Printf.sprintf "  x%d" n.n_count);
    Buffer.add_char b '\n';
    List.iter (render (indent ^ "  ")) n.n_children
  in
  List.iter (render "") roots;
  Buffer.contents b
