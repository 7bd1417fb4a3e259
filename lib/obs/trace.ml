(* Renderers over the span events of a {!Journal} event list: Chrome
   trace_event JSON and a merged plain-text tree. Pure functions; the
   recorder is [Journal]. *)

let spans evs =
  List.filter_map
    (fun (ev : Journal.event) ->
      match ev.span with Some s -> Some (ev, s) | None -> None)
    evs

(* ---- Chrome trace_event JSON ----
   The "JSON Array Format" with complete ("ph":"X") events; loadable in
   chrome://tracing and Perfetto. Timestamps are microseconds. *)

(* Requests get their own lanes, offset past any plausible domain id,
   so chrome://tracing shows one row per request instead of one
   undifferentiated stream per domain. *)
let lane_offset = 1000

let lane_of (ev : Journal.event) =
  if ev.rid >= 0 then lane_offset + ev.rid else ev.dom

let chrome_json evs =
  let evs =
    List.sort
      (fun ((a : Journal.event), _) ((b : Journal.event), _) ->
        match Int64.compare a.ts_ns b.ts_ns with
        | 0 -> compare (a.dom, a.kind) (b.dom, b.kind)
        | c -> c)
      (spans evs)
  in
  let b = Buffer.create 4096 in
  Buffer.add_string b "{\"traceEvents\":[";
  let first = ref true in
  let add_event s =
    if not !first then Buffer.add_char b ',';
    first := false;
    Buffer.add_string b s
  in
  (* one thread_name metadata event labels each request lane, ahead of
     its first span; domain lanes need no label *)
  let lanes = Hashtbl.create 8 in
  List.iter
    (fun ((ev : Journal.event), (s : Journal.span)) ->
      if ev.rid >= 0 && not (Hashtbl.mem lanes ev.rid) then begin
        Hashtbl.replace lanes ev.rid ();
        add_event
          (Printf.sprintf
             "\n{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":%d,\"args\":{\"name\":\"request %d\"}}"
             (lane_of ev) ev.rid)
      end;
      add_event
        (Printf.sprintf
           "\n{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"X\",\"ts\":%.3f,\"dur\":%.3f,\"pid\":1,\"tid\":%d"
           (Ojson.escape ev.kind) (Ojson.escape s.cat)
           (Int64.to_float ev.ts_ns /. 1e3)
           (Int64.to_float s.dur_ns /. 1e3)
           (lane_of ev));
      if ev.rid >= 0 then
        Buffer.add_string b (Printf.sprintf ",\"args\":{\"rid\":\"%d\"}" ev.rid);
      Buffer.add_char b '}')
    evs;
  Buffer.add_string b "\n],\"displayTimeUnit\":\"ms\"}\n";
  Buffer.contents b

(* ---- plain-text tree summary ----
   Spans complete children-before-parents within a domain, so a single
   pass over completion-ordered events rebuilds each domain's forest:
   a span at depth [d] adopts the so-far-unclaimed spans at depth [d+1]
   of its domain. Siblings, and then the roots of all domains, are
   merged by span name, so a batch compile under --jobs reports one
   aggregated tree no matter how the domains interleaved. Spans left
   unclaimed (their parent was dropped from the ring or is still open)
   are roots. *)

type node = {
  name : string;
  cat : string;
  mutable dur : int64;
  mutable count : int;
  mutable kids : node list;  (* first-seen order *)
}

let rec merge_into nodes t =
  match List.find_opt (fun n -> n.name = t.name) nodes with
  | Some n ->
    n.dur <- Int64.add n.dur t.dur;
    n.count <- n.count + t.count;
    n.kids <- List.fold_left merge_into n.kids t.kids;
    nodes
  | None -> nodes @ [ t ]

let summary evs =
  (* (domain, depth) -> merged spans waiting for their parent *)
  let pending = Hashtbl.create 8 in
  let take key =
    let l = Option.value ~default:[] (Hashtbl.find_opt pending key) in
    Hashtbl.remove pending key;
    l
  in
  List.iter
    (fun ((ev : Journal.event), (s : Journal.span)) ->
      let kids = take (ev.dom, s.depth + 1) in
      let n =
        { name = ev.kind; cat = s.cat; dur = s.dur_ns; count = 1; kids }
      in
      Hashtbl.replace pending (ev.dom, s.depth)
        (merge_into (take (ev.dom, s.depth)) n))
    (spans evs);
  let roots =
    Hashtbl.fold (fun key l acc -> (key, l) :: acc) pending []
    |> List.sort (fun (a, _) (b, _) -> compare a b)
    |> List.fold_left (fun acc (_, l) -> List.fold_left merge_into acc l) []
  in
  let b = Buffer.create 1024 in
  let rec render indent n =
    let label = n.cat ^ ":" ^ n.name in
    Buffer.add_string b
      (Printf.sprintf "%s%-*s %9.3f ms" indent
         (max 1 (32 - String.length indent))
         label
         (Int64.to_float n.dur /. 1e6));
    if n.count > 1 then Buffer.add_string b (Printf.sprintf "  x%d" n.count);
    Buffer.add_char b '\n';
    List.iter (render (indent ^ "  ")) n.kids
  in
  List.iter (render "") roots;
  Buffer.contents b
