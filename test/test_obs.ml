(* Telemetry-layer tests: tracing spans, the metrics registry, the
   profile collector, and the profiler differential — the profiled
   reference run must agree with the plan on every total, and its
   attributions must partition those totals exactly. *)

module Obs = Masc_obs
module C = Masc.Compiler
module I = Masc_vm.Interp
module K = Masc_kernels.Kernels

(* ---- minimal JSON syntax checker ----

   Enough of RFC 8259 to catch malformed emitter output (unbalanced
   structure, unescaped strings, trailing commas) without a json
   dependency: a recursive-descent parser that validates and discards. *)

let json_valid (s : string) : bool =
  let n = String.length s in
  let pos = ref 0 in
  let peek () = if !pos < n then Some s.[!pos] else None in
  let advance () = incr pos in
  let rec skip_ws () =
    match peek () with
    | Some (' ' | '\t' | '\n' | '\r') ->
      advance ();
      skip_ws ()
    | _ -> ()
  in
  let expect c =
    if peek () = Some c then advance () else failwith "unexpected char"
  in
  let rec value () =
    skip_ws ();
    match peek () with
    | Some '{' -> obj ()
    | Some '[' -> arr ()
    | Some '"' -> string_lit ()
    | Some ('-' | '0' .. '9') -> number ()
    | Some 't' -> literal "true"
    | Some 'f' -> literal "false"
    | Some 'n' -> literal "null"
    | _ -> failwith "bad value"
  and literal lit =
    String.iter expect lit
  and number () =
    let num_char = function
      | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
      | _ -> false
    in
    let start = !pos in
    while (match peek () with Some c when num_char c -> true | _ -> false) do
      advance ()
    done;
    if !pos = start then failwith "empty number"
  and string_lit () =
    expect '"';
    let rec go () =
      match peek () with
      | None -> failwith "unterminated string"
      | Some '"' -> advance ()
      | Some '\\' ->
        advance ();
        (match peek () with
        | Some ('"' | '\\' | '/' | 'b' | 'f' | 'n' | 'r' | 't') -> advance ()
        | Some 'u' ->
          advance ();
          for _ = 1 to 4 do
            match peek () with
            | Some ('0' .. '9' | 'a' .. 'f' | 'A' .. 'F') -> advance ()
            | _ -> failwith "bad \\u escape"
          done
        | _ -> failwith "bad escape");
        go ()
      | Some c when Char.code c < 0x20 -> failwith "raw control char"
      | Some _ ->
        advance ();
        go ()
    in
    go ()
  and obj () =
    expect '{';
    skip_ws ();
    if peek () = Some '}' then advance ()
    else
      let rec members () =
        skip_ws ();
        string_lit ();
        skip_ws ();
        expect ':';
        value ();
        skip_ws ();
        match peek () with
        | Some ',' ->
          advance ();
          members ()
        | Some '}' -> advance ()
        | _ -> failwith "bad object"
      in
      members ()
  and arr () =
    expect '[';
    skip_ws ();
    if peek () = Some ']' then advance ()
    else
      let rec elements () =
        value ();
        skip_ws ();
        match peek () with
        | Some ',' ->
          advance ();
          elements ()
        | Some ']' -> advance ()
        | _ -> failwith "bad array"
      in
      elements ()
  in
  match
    value ();
    skip_ws ();
    !pos = n
  with
  | b -> b
  | exception Failure _ -> false

let find_sub ~sub s =
  let n = String.length s and m = String.length sub in
  let rec go i =
    if i + m > n then None
    else if String.sub s i m = sub then Some i
    else go (i + 1)
  in
  go 0

let contains ~sub s = find_sub ~sub s <> None

(* ---- tracing ---- *)

(* Spans only, as [mascc --trace] records them. *)
let trace_only () = Obs.Journal.enable ~spans:true ~instants:false ()

let span_of (ev : Obs.Journal.event) =
  match ev.Obs.Journal.span with
  | Some s -> s
  | None -> Alcotest.failf "%s is not a span" ev.Obs.Journal.kind

let test_trace_spans () =
  trace_only ();
  let r =
    Obs.Journal.span ~cat:"stage" "outer" (fun () ->
        Obs.Journal.span ~cat:"pass" "inner" (fun () -> 41 + 1))
  in
  Alcotest.(check int) "span returns the value" 42 r;
  (try
     Obs.Journal.span "raiser" (fun () -> failwith "boom")
   with Failure _ -> ());
  Obs.Journal.emit "instant";
  let evs = Obs.Journal.events () in
  Alcotest.(check (list string)) "three completed spans, children first"
    [ "inner"; "outer"; "raiser" ]
    (List.map (fun (e : Obs.Journal.event) -> e.Obs.Journal.kind) evs);
  let by_name name =
    span_of
      (List.find (fun (e : Obs.Journal.event) -> e.Obs.Journal.kind = name) evs)
  in
  Alcotest.(check int) "inner depth" 1 (by_name "inner").Obs.Journal.depth;
  Alcotest.(check int) "outer depth" 0 (by_name "outer").Obs.Journal.depth;
  Alcotest.(check string) "category kept" "pass"
    (by_name "inner").Obs.Journal.cat;
  Alcotest.(check int) "raiser recorded despite the exception" 0
    (by_name "raiser").Obs.Journal.depth;
  Alcotest.(check bool) "inner nested inside outer" true
    ((by_name "inner").Obs.Journal.dur_ns
    <= (by_name "outer").Obs.Journal.dur_ns);
  Obs.Journal.disable ();
  Alcotest.(check int) "disabled span still runs" 7
    (Obs.Journal.span "off" (fun () -> 7));
  Alcotest.(check int) "disabled span is not recorded" 0 (Obs.Journal.total ())

let test_trace_chrome_json () =
  trace_only ();
  Obs.Journal.span ~cat:"stage" "esc\"aped" (fun () -> ());
  let js = Obs.Trace.chrome_json (Obs.Journal.events ()) in
  Obs.Journal.disable ();
  Alcotest.(check bool) "chrome trace is valid JSON" true (json_valid js);
  Alcotest.(check bool) "has traceEvents" true
    (contains ~sub:"\"traceEvents\"" js);
  Alcotest.(check bool) "complete events" true
    (contains ~sub:"\"ph\":\"X\"" js);
  Alcotest.(check bool) "domain lanes carry no metadata event" false
    (contains ~sub:"\"ph\":\"M\"" js);
  Alcotest.(check bool) "escapes quotes" true
    (contains ~sub:"esc\\\"aped" js)

let test_trace_summary () =
  trace_only ();
  for _ = 1 to 3 do
    Obs.Journal.span ~cat:"stage" "compile" (fun () ->
        Obs.Journal.span ~cat:"pass" "dce" (fun () -> ()))
  done;
  let s = Obs.Trace.summary (Obs.Journal.events ()) in
  Obs.Journal.disable ();
  Alcotest.(check bool) "root present" true (contains ~sub:"stage:compile" s);
  Alcotest.(check bool) "child indented under root" true
    (contains ~sub:"  pass:dce" s);
  Alcotest.(check bool) "counts merged" true (contains ~sub:"x3" s)

(* ---- metrics ---- *)

let test_metrics () =
  Obs.Metrics.reset ();
  Obs.Metrics.incr "a.count";
  Obs.Metrics.incr "a.count" ~by:4;
  Obs.Metrics.set "b.gauge" 2.5;
  Obs.Metrics.observe "c.hist" 1.0;
  Obs.Metrics.observe "c.hist" 3.0;
  Alcotest.(check (option (float 0.0))) "counter" (Some 5.0)
    (Obs.Metrics.get "a.count");
  Alcotest.(check (option (float 0.0))) "gauge" (Some 2.5)
    (Obs.Metrics.get "b.gauge");
  Alcotest.(check (option (float 0.0))) "histogram sum" (Some 4.0)
    (Obs.Metrics.get "c.hist");
  Alcotest.(check (option (float 0.0))) "absent" None
    (Obs.Metrics.get "nope");
  let text = Obs.Metrics.dump_text () in
  Alcotest.(check bool) "text has counter line" true
    (contains ~sub:"counter" text && contains ~sub:"a.count" text);
  Alcotest.(check bool) "histogram stats" true
    (contains ~sub:"c.hist                           n=2 sum=4 min=1 max=3 mean=2\n"
       text);
  (* name-sorted: a.count before b.gauge before c.hist *)
  (match (find_sub ~sub:"a.count" text, find_sub ~sub:"c.hist" text) with
  | Some ia, Some ic ->
    Alcotest.(check bool) "sorted by name" true (ia < ic)
  | _ -> Alcotest.fail "expected both metrics in the text dump");
  Obs.Metrics.reset ();
  Alcotest.(check (option (float 0.0))) "reset clears" None
    (Obs.Metrics.get "a.count")

(* ---- profile collector ---- *)

let test_profile_snapshot_render () =
  let p = Obs.Profile.create () in
  Obs.Profile.add_line p 3 ~cycles:75 ~instrs:10;
  Obs.Profile.add_line p 1 ~cycles:25 ~instrs:5;
  Obs.Profile.add_line p 0 ~cycles:0 ~instrs:2;
  Obs.Profile.add_class p "alu" ~cycles:60 ~instrs:12;
  Obs.Profile.add_class p "mem" ~cycles:40 ~instrs:5;
  Obs.Profile.add_intrin p "vmac_f64x8" ~cycles:30 ~instrs:3;
  let snap = Obs.Profile.snapshot p ~total_cycles:100 ~total_instrs:17 in
  Alcotest.(check (list (triple int int int)))
    "by_line ascending" [ (0, 0, 2); (1, 25, 5); (3, 75, 10) ] snap.by_line;
  Alcotest.(check (list string))
    "by_class cycles-descending" [ "alu"; "mem" ]
    (List.map (fun (r : Obs.Profile.row) -> r.Obs.Profile.key)
       snap.by_class);
  let report = Obs.Profile.render ~source:"l1\nl2\nl3\n" snap in
  Alcotest.(check bool) "header totals" true
    (contains ~sub:"100 cycles" report);
  Alcotest.(check bool) "annotates source text" true
    (contains ~sub:"l3" report);
  Alcotest.(check bool) "synthetic bucket labeled" true
    (contains ~sub:"<synthetic>" report);
  Alcotest.(check bool) "bar for the hot line" true
    (contains ~sub:"###############" report);
  let js = Obs.Profile.to_json snap in
  Alcotest.(check bool) "profile JSON valid" true (json_valid js);
  Alcotest.(check bool) "json lines array" true
    (contains ~sub:"\"lines\":[" js)

(* ---- profiler differential: profiled tree vs plan, sums vs totals ---- *)

let check_partitions name (r : I.result) (snap : Obs.Profile.snapshot) =
  let line_cy =
    List.fold_left (fun a (_, c, _) -> a + c) 0 snap.Obs.Profile.by_line
  and line_in =
    List.fold_left (fun a (_, _, i) -> a + i) 0 snap.Obs.Profile.by_line
  and class_cy =
    List.fold_left
      (fun a (row : Obs.Profile.row) -> a + row.Obs.Profile.cycles)
      0 snap.Obs.Profile.by_class
  and class_in =
    List.fold_left
      (fun a (row : Obs.Profile.row) -> a + row.Obs.Profile.instrs)
      0 snap.Obs.Profile.by_class
  in
  Alcotest.(check int)
    (name ^ ": per-line cycles sum = engine total")
    r.I.cycles line_cy;
  Alcotest.(check int)
    (name ^ ": per-line instrs sum = engine total")
    r.I.dyn_instrs line_in;
  Alcotest.(check int)
    (name ^ ": per-class cycles sum = engine total")
    r.I.cycles class_cy;
  Alcotest.(check int)
    (name ^ ": per-class instrs sum = engine total")
    r.I.dyn_instrs class_in

(* The profiler runs on the reference tree-walker
   ([Compiler.run_profiled]); every unprofiled simulation runs on the
   plan ([Compiler.run]). On every kernel x config the two must agree
   on the totals, and the profile must partition them exactly. *)
let test_profile_differential () =
  List.iter
    (fun (k : K.kernel) ->
      List.iter
        (fun (config, tag) ->
          let compiled =
            C.compile config ~source:k.K.source ~entry:k.K.entry
              ~arg_types:k.K.arg_types
          in
          let name = Printf.sprintf "%s/%s" k.K.kname tag in
          let inputs = k.K.inputs () in
          let rt, snap = C.run_profiled compiled inputs in
          let rp = C.run compiled inputs in
          Alcotest.(check int) (name ^ ": engines agree on cycles")
            rp.I.cycles rt.I.cycles;
          Alcotest.(check int) (name ^ ": engines agree on instrs")
            rp.I.dyn_instrs rt.I.dyn_instrs;
          check_partitions name rp snap)
        [ (C.proposed (), "proposed"); (C.coder_baseline (), "coder") ])
    (K.all ())

(* Profiling must not perturb the simulation: same cycles, histogram
   and returns with and without a collector attached. *)
let test_profiling_is_transparent () =
  let k = K.fir () in
  let config = C.proposed () in
  let compiled =
    C.compile config ~source:k.K.source ~entry:k.K.entry
      ~arg_types:k.K.arg_types
  in
  let inputs = k.K.inputs () in
  let plain = C.run compiled inputs in
  let profiled, snap = C.run_profiled compiled inputs in
  Alcotest.(check int) "cycles unchanged" plain.I.cycles profiled.I.cycles;
  Alcotest.(check int) "instrs unchanged" plain.I.dyn_instrs
    profiled.I.dyn_instrs;
  Alcotest.(check bool) "histogram unchanged" true
    (plain.I.histogram = profiled.I.histogram);
  Alcotest.(check bool) "returns unchanged" true
    (plain.I.rets = profiled.I.rets);
  Alcotest.(check int) "snapshot total matches run" profiled.I.cycles
    snap.Obs.Profile.total_cycles

(* ---- journal (flight recorder) ---- *)

let test_journal_lifecycle () =
  Obs.Journal.enable ();
  Obs.Journal.reset ();
  Obs.Journal.emit "proc.start";
  Obs.Journal.with_request ~rid:7 (fun () ->
      Alcotest.(check int) "context installed" 7 (Obs.Journal.current_rid ());
      Obs.Journal.emit "request.start";
      Obs.Journal.emit ~detail:[ ("reason", "decode") ] "cache.corrupt");
  Alcotest.(check int) "context restored" (-1) (Obs.Journal.current_rid ());
  Obs.Journal.emit ~rid:9 "request.done";
  let evs = Obs.Journal.events () in
  Alcotest.(check int) "four events" 4 (List.length evs);
  Alcotest.(check (list int)) "seq is arrival order" [ 0; 1; 2; 3 ]
    (List.map (fun (e : Obs.Journal.event) -> e.Obs.Journal.seq) evs);
  Alcotest.(check (list int)) "rid stamped from context" [ -1; 7; 7; 9 ]
    (List.map (fun (e : Obs.Journal.event) -> e.Obs.Journal.rid) evs);
  Alcotest.(check (list int)) "seqs_for one request" [ 1; 2 ]
    (Obs.Journal.seqs_for ~rid:7);
  List.iter
    (fun line ->
      Alcotest.(check bool) "each JSONL line valid" true (json_valid line))
    (String.split_on_char '\n' (String.trim (Obs.Journal.to_jsonl ())));
  let flight = Obs.Journal.render_flight () in
  Alcotest.(check bool) "flight dump tagged" true
    (contains ~sub:"[flight] #" flight);
  Alcotest.(check bool) "flight dump carries detail" true
    (contains ~sub:"reason=decode" flight);
  Obs.Journal.disable ();
  Obs.Journal.emit "ignored";
  Alcotest.(check int) "disabled emit is dropped" 0 (Obs.Journal.total ());
  Alcotest.(check int) "disabled rid is -1" (-1) (Obs.Journal.current_rid ())

let test_journal_ring_bounds () =
  Obs.Journal.enable ~capacity:8 ();
  for i = 0 to 19 do
    Obs.Journal.emit ~detail:[ ("i", string_of_int i) ] "tick"
  done;
  Alcotest.(check int) "total counts every emission" 20 (Obs.Journal.total ());
  Alcotest.(check int) "drop counter is honest" 12 (Obs.Journal.dropped ());
  let evs = Obs.Journal.events () in
  Alcotest.(check (list int)) "ring keeps the newest, in order"
    [ 12; 13; 14; 15; 16; 17; 18; 19 ]
    (List.map (fun (e : Obs.Journal.event) -> e.Obs.Journal.seq) evs);
  Obs.Journal.disable ()

let test_journal_stream () =
  let path = Filename.temp_file "masc_journal" ".jsonl" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () ->
      Obs.Journal.enable ~spans:true ();
      let oc = open_out path in
      Obs.Journal.stream_to oc;
      Obs.Journal.emit "one";
      Obs.Journal.span ~cat:"pass" "dce" (fun () -> ());
      Obs.Journal.emit ~detail:[ ("k", "v\"q") ] "two";
      Obs.Journal.close_stream ();
      close_out oc;
      Obs.Journal.disable ();
      let ic = open_in path in
      let lines = ref [] in
      (try
         while true do
           lines := input_line ic :: !lines
         done
       with End_of_file -> close_in ic);
      let lines = List.rev !lines in
      Alcotest.(check int) "one line per event" 3 (List.length lines);
      List.iteri
        (fun i l ->
          Alcotest.(check bool) "streamed line is valid JSON" true
            (json_valid l);
          Alcotest.(check bool) "seq is the line index" true
            (contains ~sub:(Printf.sprintf "{\"seq\":%d," i) l))
        lines;
      Alcotest.(check bool) "span streamed between the instants" true
        (contains ~sub:"\"kind\":\"span\",\"name\":\"dce\",\"cat\":\"pass\""
           (List.nth lines 1));
      Alcotest.(check bool) "detail escaped into the stream" true
        (contains ~sub:"\"k\":\"v\\\"q\"" (List.nth lines 2)))

let test_journal_normalize () =
  let line =
    "{\"seq\":3,\"ts_ns\":123456,\"rid\":1,\"dom\":2,\
     \"kind\":\"request.done\",\"latency_ms\":\"1.495\",\"class\":\"ok\"}"
  in
  let norm = Obs.Journal.normalize_line line in
  Alcotest.(check string) "times zeroed, the rest untouched"
    "{\"seq\":3,\"ts_ns\":0,\"rid\":1,\"dom\":2,\
     \"kind\":\"request.done\",\"latency_ms\":\"0\",\"class\":\"ok\"}"
    norm;
  Alcotest.(check bool) "normalized line still valid JSON" true
    (json_valid norm);
  Alcotest.(check string) "idempotent" norm (Obs.Journal.normalize_line norm)

(* ---- trace request lanes ---- *)

(* Tracing alone (no journal) still installs the request context, so
   batch spans land on request lanes. *)
let test_trace_request_lanes () =
  trace_only ();
  Obs.Journal.span ~cat:"stage" "unscoped" (fun () -> ());
  Obs.Journal.with_request ~rid:3 (fun () ->
      Alcotest.(check int) "context installed without the journal" 3
        (Obs.Journal.current_rid ());
      Obs.Journal.span ~cat:"stage" "scoped" (fun () -> ()));
  let evs = Obs.Journal.events () in
  let by_name name =
    List.find (fun (e : Obs.Journal.event) -> e.Obs.Journal.kind = name) evs
  in
  Alcotest.(check int) "span outside a request has rid -1" (-1)
    (by_name "unscoped").Obs.Journal.rid;
  Alcotest.(check int) "span inside a request captures its rid" 3
    (by_name "scoped").Obs.Journal.rid;
  let js = Obs.Trace.chrome_json evs in
  Alcotest.(check bool) "chrome trace valid" true (json_valid js);
  Alcotest.(check bool) "request lane tid = 1000+rid" true
    (contains ~sub:"\"tid\":1003" js);
  Alcotest.(check bool) "request lane labelled" true
    (contains ~sub:"\"ph\":\"M\",\"pid\":1,\"tid\":1003,\"args\":{\"name\":\"request 3\"}"
       js);
  Alcotest.(check bool) "only the request lane is labelled" false
    (contains ~sub:"domain" js);
  Alcotest.(check bool) "rid surfaced in span args" true
    (contains ~sub:"\"rid\":\"3\"" js);
  Obs.Journal.disable ()

(* ---- one ring for spans and instants ---- *)

let test_merged_ring () =
  Obs.Journal.enable ~capacity:8 ~spans:true ~instants:true ();
  (* 20 events: 10 instants, 9 leaf spans, one outer span that raises *)
  (try
     Obs.Journal.span ~cat:"stage" "outer" (fun () ->
         for i = 0 to 8 do
           Obs.Journal.emit ~detail:[ ("i", string_of_int i) ] "tick";
           Obs.Journal.span ~cat:"pass" (Printf.sprintf "leaf%d" i) (fun () ->
               ())
         done;
         Obs.Journal.emit "last";
         failwith "boom")
   with Failure _ -> ());
  Alcotest.(check int) "total counts spans and instants" 20
    (Obs.Journal.total ());
  Alcotest.(check int) "drop counter is honest" 12 (Obs.Journal.dropped ());
  let evs = Obs.Journal.events () in
  Alcotest.(check (list int)) "the newest 8, in seq order"
    [ 12; 13; 14; 15; 16; 17; 18; 19 ]
    (List.map (fun (e : Obs.Journal.event) -> e.Obs.Journal.seq) evs);
  Alcotest.(check (list string)) "spans and instants interleaved"
    [ "tick"; "leaf6"; "tick"; "leaf7"; "tick"; "leaf8"; "last"; "outer" ]
    (List.map (fun (e : Obs.Journal.event) -> e.Obs.Journal.kind) evs);
  let depth name =
    (span_of
       (List.find (fun (e : Obs.Journal.event) -> e.Obs.Journal.kind = name) evs))
      .Obs.Journal.depth
  in
  Alcotest.(check int) "leaf depth from the domain context" 1 (depth "leaf8");
  Alcotest.(check int) "raising span recorded at depth 0" 0 (depth "outer");
  Obs.Journal.span "after" (fun () -> ());
  Alcotest.(check int) "depth restored after the raise" 0
    (span_of (List.nth (Obs.Journal.events ()) 7)).Obs.Journal.depth;
  (* a summary of leaves whose parent is gone lists them as roots *)
  let orphans =
    List.filter (fun (e : Obs.Journal.event) -> e.Obs.Journal.kind <> "outer") evs
  in
  let s = Obs.Trace.summary orphans in
  Alcotest.(check bool) "orphaned spans become roots" true
    (contains ~sub:"pass:leaf6" s && not (contains ~sub:"  pass:" s));
  Alcotest.(check bool) "surviving parent adopts its surviving children" true
    (contains ~sub:"  pass:leaf6" (Obs.Trace.summary evs));
  Obs.Journal.disable ()

(* ---- metrics quantiles ---- *)

let test_metrics_quantiles () =
  let xs = Array.init 100 (fun i -> float_of_int (i + 1)) in
  Alcotest.(check (float 0.0)) "p50 of 1..100" 50.0 (Obs.Metrics.quantile xs 50.0);
  Alcotest.(check (float 0.0)) "p90 of 1..100" 90.0 (Obs.Metrics.quantile xs 90.0);
  Alcotest.(check (float 0.0)) "p99 of 1..100" 99.0 (Obs.Metrics.quantile xs 99.0);
  Alcotest.(check (float 0.0)) "p100 clamps to max" 100.0
    (Obs.Metrics.quantile xs 100.0);
  Alcotest.(check (float 0.0)) "empty input is 0" 0.0
    (Obs.Metrics.quantile [||] 50.0);
  Alcotest.(check (float 0.0)) "single sample" 7.5
    (Obs.Metrics.quantile [| 7.5 |] 99.0);
  (* unsorted input must not matter *)
  Alcotest.(check (float 0.0)) "input order irrelevant" 3.0
    (Obs.Metrics.quantile [| 5.0; 1.0; 3.0; 4.0; 2.0 |] 50.0);
  Obs.Metrics.reset ();
  for i = 1 to 100 do
    Obs.Metrics.observe "lat" (float_of_int i)
  done;
  Alcotest.(check bool) "histogram summarizes without samples" true
    (contains ~sub:"n=100 sum=5050 min=1 max=100 mean=50.5\n"
       (Obs.Metrics.dump_text ()));
  Obs.Metrics.reset ()

(* ---- health window arithmetic ---- *)

let test_health_window () =
  let h = Obs.Health.create ~window_ms:1000.0 () in
  Obs.Health.observe h ~now_ms:0.0 ~ok:true ~latency_ms:10.0;
  Obs.Health.observe h ~now_ms:400.0 ~ok:false ~latency_ms:30.0;
  Obs.Health.observe h ~now_ms:800.0 ~ok:true ~latency_ms:20.0;
  let st = Obs.Health.stats h ~now_ms:900.0 in
  Alcotest.(check int) "all three in window" 3 st.Obs.Health.h_requests;
  Alcotest.(check (float 1e-9)) "req/s over the window" 3.0
    st.Obs.Health.h_req_per_s;
  Alcotest.(check (float 1e-9)) "error rate" (1.0 /. 3.0)
    st.Obs.Health.h_error_rate;
  Alcotest.(check (float 1e-9)) "windowed p50" 20.0 st.Obs.Health.h_p50_ms;
  Alcotest.(check (float 1e-9)) "windowed p99" 30.0 st.Obs.Health.h_p99_ms;
  (* Half-open boundary: a sample exactly one window old is OUT, one
     epsilon younger is IN. *)
  let st = Obs.Health.stats h ~now_ms:1000.0 in
  Alcotest.(check int) "t=0 sample just expired" 2 st.Obs.Health.h_requests;
  let st = Obs.Health.stats h ~now_ms:1399.0 in
  Alcotest.(check int) "t=400 still in at 1399" 2 st.Obs.Health.h_requests;
  let st = Obs.Health.stats h ~now_ms:1400.0 in
  Alcotest.(check int) "t=400 out at exactly 1400" 1 st.Obs.Health.h_requests;
  Alcotest.(check int) "lifetime total survives expiry" 3
    st.Obs.Health.h_total;
  Alcotest.(check int) "lifetime errors survive expiry" 1
    st.Obs.Health.h_total_err;
  (* pruning is permanent: stats at a later now keeps only live samples *)
  let st = Obs.Health.stats h ~now_ms:5000.0 in
  Alcotest.(check int) "empty window" 0 st.Obs.Health.h_requests;
  Alcotest.(check (float 1e-9)) "empty window error rate is 0" 0.0
    st.Obs.Health.h_error_rate;
  Obs.Health.observe_cache h ~now_ms:5100.0 ~hit:true;
  Obs.Health.observe_cache h ~now_ms:5200.0 ~hit:true;
  Obs.Health.observe_cache h ~now_ms:5300.0 ~hit:false;
  let st = Obs.Health.stats h ~now_ms:5400.0 in
  Alcotest.(check (float 1e-9)) "cache hit rate" (2.0 /. 3.0)
    st.Obs.Health.h_cache_hit_rate;
  let line = Obs.Health.render ~done_count:4 ~total:9 st in
  Alcotest.(check bool) "render prefix" true
    (contains ~sub:"[masc-health]" line);
  Alcotest.(check bool) "render progress" true (contains ~sub:"4/9 done" line)

(* ---- ojson ---- *)

let test_ojson () =
  (match Obs.Ojson.parse "{\"a\": [1, 2.5, \"x\\n\"], \"b\": null}" with
  | Error e -> Alcotest.fail e
  | Ok v ->
    (match Obs.Ojson.member "a" v with
    | Some (Obs.Ojson.Arr [ x; y; z ]) ->
      Alcotest.(check (option (float 0.0))) "int" (Some 1.0)
        (Obs.Ojson.to_num x);
      Alcotest.(check (option (float 0.0))) "float" (Some 2.5)
        (Obs.Ojson.to_num y);
      Alcotest.(check (option string)) "escaped string" (Some "x\n")
        (Obs.Ojson.to_str z)
    | _ -> Alcotest.fail "expected a 3-element array");
    Alcotest.(check bool) "null member" true
      (Obs.Ojson.member "b" v = Some Obs.Ojson.Null);
    Alcotest.(check bool) "absent member" true
      (Obs.Ojson.member "c" v = None));
  Alcotest.(check bool) "trailing garbage rejected" true
    (Result.is_error (Obs.Ojson.parse "{} x"));
  Alcotest.(check bool) "unterminated rejected" true
    (Result.is_error (Obs.Ojson.parse "{\"a\": "))

(* ---- bench regression gate ---- *)

let bench_table2 fir_cycles =
  Printf.sprintf
    {|"table2": [
    {"kernel": "fir", "baseline_cycles": 1000, "proposed_cycles": %d,
     "speedup": 10.0, "passes_run": 5, "passes_skipped": 1}
  ]|}
    fir_cycles

let bench_fig3 =
  {|"fig3": [
    {"kernel": "fir", "speedup_vs_baseline":
      {"scalar": 1.0, "dsp4": 2.0, "dsp8": 4.0, "dsp16": 8.0}}
  ]|}

let bench_doc ?(fir_cycles = 100) () =
  Printf.sprintf {|{"schema_version": 6, %s, %s}|} (bench_table2 fir_cycles)
    bench_fig3

let bd_diff old_text new_text =
  match Obs.Bench_diff.diff ~old_text ~new_text with
  | Ok v -> v
  | Error e -> Alcotest.fail e

let bd_status v name =
  match
    List.find_opt
      (fun (c : Obs.Bench_diff.check) -> c.Obs.Bench_diff.c_name = name)
      v.Obs.Bench_diff.v_checks
  with
  | Some c -> Some c.Obs.Bench_diff.c_status
  | None -> None

let test_bench_diff_gate () =
  let base = bench_doc () in
  let v = bd_diff base (bench_doc ()) in
  Alcotest.(check bool) "identical reports pass" true v.Obs.Bench_diff.v_ok;
  Alcotest.(check bool) "json verdict valid" true
    (json_valid (Obs.Bench_diff.render_json v));
  (* a single cycle of drift on any kernel fails the gate *)
  let v = bd_diff base (bench_doc ~fir_cycles:101 ()) in
  Alcotest.(check bool) "cycle drift fails" false v.Obs.Bench_diff.v_ok;
  Alcotest.(check bool) "failing check named" true
    (bd_status v "cycles fir" = Some Obs.Bench_diff.Fail);
  (* unparseable input is an Error, not an exception *)
  Alcotest.(check bool) "garbage is a parse error" true
    (Result.is_error (Obs.Bench_diff.diff ~old_text:"nope" ~new_text:base));
  let text = Obs.Bench_diff.render_text (bd_diff base base) in
  Alcotest.(check bool) "text verdict summarised" true
    (contains ~sub:"bench diff: OK" text)

(* A cycle table the baseline has and the candidate lacks is a failure
   (an empty report must not pass the gate); one the baseline lacks has
   nothing to compare against and is skipped. *)
let test_bench_diff_missing_tables () =
  let base = bench_doc () in
  let v = bd_diff base {|{"schema_version": 6}|} in
  Alcotest.(check bool) "empty candidate fails" false v.Obs.Bench_diff.v_ok;
  Alcotest.(check bool) "table2 missing fails" true
    (bd_status v "table2" = Some Obs.Bench_diff.Fail);
  Alcotest.(check bool) "fig3 missing fails" true
    (bd_status v "fig3" = Some Obs.Bench_diff.Fail);
  let no_fig3 =
    Printf.sprintf {|{"schema_version": 6, %s}|} (bench_table2 100)
  in
  let v = bd_diff base no_fig3 in
  Alcotest.(check bool) "fig3 alone missing fails" false v.Obs.Bench_diff.v_ok;
  Alcotest.(check bool) "table2 still compared" true
    (bd_status v "cycles fir" = Some Obs.Bench_diff.Pass);
  let v = bd_diff {|{"schema_version": 6}|} base in
  Alcotest.(check bool) "tables absent from old pass" true
    v.Obs.Bench_diff.v_ok;
  Alcotest.(check bool) "absent from old is skipped" true
    (bd_status v "table2" = Some Obs.Bench_diff.Skip
    && bd_status v "fig3" = Some Obs.Bench_diff.Skip)

(* BENCH_6.json is a schema-5 recording with Bechamel timings and a
   metrics block; it must stay a valid baseline for schema-6 reports,
   which carry only the cycle tables. *)
let test_bench_diff_schema5_baseline () =
  let v5 =
    Printf.sprintf
      {|{"schema_version": 5, "jobs": 1, "host_cores": 2, %s, %s,
  "bechamel_ns_per_run": [
    {"name": "compile fir (proposed)", "ns_per_run": 10.0,
     "minor_words_per_run": 50.0}
  ],
  "metrics": {"counters": {"sim.runs": 12}}}|}
      (bench_table2 100) bench_fig3
  in
  let v = bd_diff v5 (bench_doc ()) in
  Alcotest.(check bool) "v5 baseline vs v6 passes" true v.Obs.Bench_diff.v_ok;
  Alcotest.(check (list string)) "only schema and cycle tables checked"
    [ "schema"; "cycles fir"; "fig3" ]
    (List.map
       (fun (c : Obs.Bench_diff.check) -> c.Obs.Bench_diff.c_name)
       v.Obs.Bench_diff.v_checks);
  Alcotest.(check bool) "no warnings" true
    (List.for_all
       (fun (c : Obs.Bench_diff.check) ->
         c.Obs.Bench_diff.c_status = Obs.Bench_diff.Pass)
       v.Obs.Bench_diff.v_checks)

let suites =
  [ ( "obs",
      [ Alcotest.test_case "trace spans" `Quick test_trace_spans;
        Alcotest.test_case "chrome json" `Quick test_trace_chrome_json;
        Alcotest.test_case "trace summary" `Quick test_trace_summary;
        Alcotest.test_case "metrics registry" `Quick test_metrics;
        Alcotest.test_case "profile snapshot and render" `Quick
          test_profile_snapshot_render;
        Alcotest.test_case "profiling is transparent" `Quick
          test_profiling_is_transparent ] );
    ( "journal",
      [ Alcotest.test_case "lifecycle and correlation" `Quick
          test_journal_lifecycle;
        Alcotest.test_case "ring bounds and drop counter" `Quick
          test_journal_ring_bounds;
        Alcotest.test_case "jsonl streaming" `Quick test_journal_stream;
        Alcotest.test_case "normalizing comparator" `Quick
          test_journal_normalize;
        Alcotest.test_case "trace request lanes" `Quick
          test_trace_request_lanes;
        Alcotest.test_case "one ring for spans and instants" `Quick
          test_merged_ring ] );
    ( "health",
      [ Alcotest.test_case "metrics quantiles" `Quick test_metrics_quantiles;
        Alcotest.test_case "window arithmetic" `Quick test_health_window ] );
    ( "bench gate",
      [ Alcotest.test_case "ojson parser" `Quick test_ojson;
        Alcotest.test_case "bench diff verdicts" `Quick test_bench_diff_gate;
        Alcotest.test_case "bench diff missing tables" `Quick
          test_bench_diff_missing_tables;
        Alcotest.test_case "bench diff schema 5 baseline" `Quick
          test_bench_diff_schema5_baseline ]
    );
    ( "profiler differential",
      [ Alcotest.test_case "tree vs plan attribution" `Slow
          test_profile_differential ] ) ]
