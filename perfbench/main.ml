(* Workload benchmark for mascc: see README.md.

   main.exe --workload W|all [--seed N] [--seconds S] [--trace 0|1]

   It runs the mascc built next to it (_build/default/bin/mascc.exe).

   With --trace 0 it prints every end-to-end metric of the workload;
   with --trace 1 it runs the workload untraced for half the time and
   traced for the other half, then a layer pass, and prints every
   per-layer metric and writes a Chrome trace to perfbench/out/. Each
   metric gets one JSON line with its sample count; the last line is
   the result object. Exits 1 when any output is wrong, 2 on bad usage
   or too few samples for a percentile. *)

module C = Masc.Compiler
module W = Workloads

let out_dir = Filename.concat "perfbench" "out"

let secs_between t0 t1 = Int64.to_float (Int64.sub t1 t0) /. 1e9
let median xs = Masc_obs.Metrics.quantile (Array.of_list xs) 50.0

external children_maxrss_kb : unit -> int = "perfbench_children_maxrss_kb"

let rec rm_rf path =
  if Sys.file_exists path then
    if Sys.is_directory path then begin
      Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
      Sys.rmdir path
    end
    else Sys.remove path

let mkdir_p path =
  List.iter
    (fun d -> if not (Sys.file_exists d) then Sys.mkdir d 0o755)
    [ Filename.dirname path; path ]

exception Usage of string

let usage fmt = Printf.ksprintf (fun s -> raise (Usage s)) fmt

(* ---- output ---- *)

let jnum f = Printf.sprintf "%.17g" f

(* One line per metric; returns the entry for the result object. *)
let emit ~workload name unit value samples =
  if not (Float.is_finite value) then
    usage "%s: metric %s is not finite (%f)" workload name value;
  Printf.printf
    "{\"workload\": \"%s\", \"metric\": \"%s\", \"value\": %s, \"unit\": \"%s\", \
     \"samples\": %d}\n%!"
    workload name (jnum value) unit samples;
  (name, value, unit)

let result_line ~correct ~attempted ~failed metrics =
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    correct attempted failed
    (String.concat ", "
       (List.map
          (fun (name, value, unit) ->
            Printf.sprintf "\"%s\": {\"value\": %s, \"unit\": \"%s\"}" name (jnum value)
              unit)
          metrics))

(* ---- one workload ---- *)

(* The resident set of this process, in KiB. *)
let resident_kb () =
  let ic = open_in "/proc/self/status" in
  Fun.protect ~finally:(fun () -> close_in ic) (fun () ->
      let rec find () =
        match input_line ic with
        | line when String.starts_with ~prefix:"VmRSS:" line ->
          Scanf.sscanf line "VmRSS: %d kB" Fun.id
        | _ -> find ()
        | exception End_of_file -> 0
      in
      find ())

(* Runs rounds until [seconds] have passed. Returns the elapsed time and
   the resident set after each round, in KiB. *)
let timed (st : W.t) ~seed ~traced ~seconds acc =
  let rng = Random.State.make [| seed; Bool.to_int traced |] in
  let t0 = Spans.now () in
  let deadline = Int64.add t0 (Int64.of_float (seconds *. 1e9)) in
  let rss = ref [] in
  while Spans.now () < deadline do
    st.W.round ~traced ~rng ~deadline ~finish:Layers.finish acc;
    rss := float_of_int (resident_kb ()) :: !rss
  done;
  (secs_between t0 (Spans.now ()), List.rev !rss)

(* [rss_mb] is the median resident set over the first [rss_rounds]
   rounds: a fixed amount of work, because batch-service's resident set
   keeps growing round after round, and a host slowed by other tenants
   completes fewer rounds in the same time. *)
let rss_rounds = 50

let p99_ok n = n - int_of_float (Float.ceil (0.99 *. float_of_int n)) >= 10

(* [latency_p99_ms] is the median, over up to 8 consecutive stretches of
   at least 1000 operations, of each stretch's 99th percentile: a burst
   of load from other tenants fills the tail of whatever stretch it
   falls in, and moves the metric only when it covers half the run. *)
let p99_of lat =
  let n = Array.length lat in
  let k = max 1 (min 8 (n / 1000)) in
  let stretch i = Array.sub lat (i * n / k) (((i + 1) * n / k) - (i * n / k)) in
  median (List.init k (fun i -> Masc_obs.Metrics.quantile (stretch i) 99.0))

(* The end-to-end metrics of an untraced run, timings rescaled to the
   reference host (Calib), and the reason [latency_p99_ms] is refused
   when it rests on fewer than 10 samples beyond the 99th percentile. *)
let end_to_end (w : W.workload) ~emit ~setups (st : W.t) acc ~elapsed ~rss ~minor_words =
  let n = acc.W.n_lat in
  let slowdown = Calib.slowdown_at () in
  let lat =
    Array.init n (fun i -> acc.W.lat_ms.(i) /. slowdown (Int64.of_float acc.W.at_ns.(i)))
  in
  (* mean host speed over the run; samples are evenly spaced in time *)
  let speed =
    match !Calib.samples with
    | [] -> 1.0
    | s ->
      List.fold_left (fun a (t, _) -> a +. (1.0 /. slowdown t)) 0.0 s
      /. float_of_int (List.length s)
  in
  let q = Masc_obs.Metrics.quantile in
  let ops = acc.W.ops in
  let rss_kb, rss_samples =
    if w.W.in_process then
      let first = List.filteri (fun i _ -> i < rss_rounds) rss in
      (median first, List.length first)
    else (float_of_int (children_maxrss_kb ()), ops)
  in
  Printf.printf
    "# host: median walk %.1f us over %d samples (reference %.0f us); as measured, \
     throughput %.2f ops/s, latency p50 %.4f ms\n"
    (Calib.median_us ()) (List.length !Calib.samples) Calib.reference_us
    (float_of_int ops /. elapsed)
    (q (Array.sub acc.W.lat_ms 0 n) 50.0);
  let refused =
    if p99_ok n then None
    else
      Some
        (Printf.sprintf
           "%s: latency_p99_ms needs 10 samples beyond the 99th percentile, got %d \
            samples in all; run longer"
           w.W.name n)
  in
  let metrics =
    List.filter_map
      (fun (name, unit, value, samples) ->
        if name = "latency_p99_ms" && refused <> None then None
        else Some (emit name unit value samples))
      [ ("setup_s", "s", median (List.map (fun (secs, slow) -> secs /. slow) setups),
          List.length setups);
        ("throughput_ops_s", "ops/s", float_of_int ops /. elapsed /. speed, ops);
        ("latency_p50_ms", "ms", q lat 50.0, n);
        ("latency_p99_ms", "ms", p99_of lat, n);
        ("rss_mb", "MiB", rss_kb /. 1024.0, rss_samples);
        ("alloc_kwords_per_op", "kwords", minor_words /. 1000.0 /. float_of_int ops, ops);
        ("speedup_geomean", "x", st.W.speedup, 6) ]
  in
  (metrics, refused)

(* The per-layer metrics: a traced half after the untraced one, the
   layer pass, and the per-run measurements. Returns the metrics, the
   traced accumulator and the layer pass's failures. *)
let per_layer (w : W.workload) ~emit ~seed ~seconds ~mascc ~dir (st : W.t) ~throughput =
  let counter n = Option.value (Masc_obs.Metrics.get n) ~default:0.0 in
  let hits0 = counter "compile.cache_hits" and misses0 = counter "compile.cache_misses" in
  let acc = W.new_acc () in
  let elapsed, _ = timed st ~seed ~traced:true ~seconds acc in
  let failures = Layers.pass ~mascc ~dir st.W.programs in
  let hits = counter "compile.cache_hits" -. hits0
  and misses = counter "compile.cache_misses" -. misses0 in
  let per_run =
    [ ("core.cache_hit_ratio", (hits /. (hits +. misses), int_of_float (hits +. misses)));
      ("core.parallel_speedup", (Layers.parallel_speedup st.W.programs, 1));
      ("bench.host_calib_us", (Calib.median_us (), List.length !Calib.samples));
      ( "bench.trace_overhead_pct",
        (100.0 *. (1.0 -. (float_of_int acc.W.ops /. elapsed /. throughput)), acc.W.ops) ) ]
  in
  let trace_file = Filename.concat out_dir ("trace-" ^ w.W.name ^ ".json") in
  Spans.write_chrome trace_file;
  Printf.printf "# chrome trace: %s\n%!" trace_file;
  let metrics =
    List.map
      (fun (mt : Layers.metric) ->
        let value, samples =
          match (mt.Layers.agg, Layers.result mt) with
          | Layers.Per_run, _ -> List.assoc mt.Layers.name per_run
          | _, Some r -> r
          | _, None -> usage "%s: no operation reached %s" w.W.name mt.Layers.name
        in
        emit mt.Layers.name mt.Layers.unit value samples)
      Layers.metrics
  in
  (metrics, acc, failures)

(* Set-ups of an untraced run; their median is [setup_s]. *)
let setups = 5

let run_one (w : W.workload) ~seed ~seconds ~trace ~mascc =
  let dir = Filename.concat out_dir (Printf.sprintf "%s-%d" w.W.name (Unix.getpid ())) in
  mkdir_p dir;
  Fun.protect ~finally:(fun () -> rm_rf dir) @@ fun () ->
  let env = { W.mascc; dir } in
  Calib.start ();
  let setup () =
    C.clear_memory_cache ();
    Calib.around (fun () -> w.W.setup ~seed env)
  in
  match setup () with
  | exception e ->
    Printf.eprintf "%s: FAILED set-up: %s\n%!" w.W.name (Printexc.to_string e);
    result_line ~correct:false ~attempted:1 ~failed:1 [];
    false
  | st, secs, slow ->
    Gc.compact ();
    let emit = emit ~workload:w.W.name in
    let untraced = W.new_acc () in
    let minor0 = (Gc.quick_stat ()).Gc.minor_words in
    W.cli_child_words := 0.0;
    let seconds_untraced = if trace then seconds /. 2.0 else seconds in
    let elapsed, rss = timed st ~seed ~traced:false ~seconds:seconds_untraced untraced in
    let minor_words =
      if w.W.in_process then (Gc.quick_stat ()).Gc.minor_words -. minor0
      else !W.cli_child_words
    in
    (* The other set-ups run after the timed phase, so that their garbage
       is not part of the resident set the workload reports. *)
    let more_setups =
      List.init (if trace then 0 else setups - 1) (fun _ ->
          match setup () with
          | later, secs, slow -> (later.W.setup_failures, (secs, slow))
          | exception e -> ([ "set-up: " ^ Printexc.to_string e ], (nan, 1.0)))
    in
    let st =
      { st with
        W.setup_failures =
          List.sort_uniq compare (st.W.setup_failures @ List.concat_map fst more_setups) }
    in
    let (metrics, refused), accs, extra_failures =
      if not trace then
        ( end_to_end w ~emit ~setups:((secs, slow) :: List.map snd more_setups) st untraced
            ~elapsed ~rss ~minor_words,
          [ untraced ],
          [] )
      else
        let metrics, traced, failures =
          per_layer w ~emit ~seed ~seconds:(seconds /. 2.0) ~mascc ~dir st
            ~throughput:(float_of_int untraced.W.ops /. elapsed)
        in
        ((metrics, None), [ untraced; traced ], failures)
    in
    let failures =
      st.W.setup_failures
      @ List.concat_map (fun a -> List.rev a.W.failed_ops) accs
      @ extra_failures
    in
    let failed =
      List.length st.W.setup_failures + List.length extra_failures
      + List.fold_left (fun n a -> n + a.W.failed) 0 accs
    in
    List.iter (fun f -> Printf.eprintf "%s: FAILED %s\n%!" w.W.name f) failures;
    let attempted = List.fold_left (fun n a -> n + a.W.ops) 0 accs in
    result_line ~correct:(failed = 0) ~attempted ~failed metrics;
    Option.iter (fun msg -> raise (Usage msg)) refused;
    failed = 0

(* ---- all workloads, one process each ---- *)

let run_all ~seed ~seconds ~trace =
  let correct = ref true and attempted = ref 0 and failed = ref 0 and metrics = ref [] in
  List.iter
    (fun (w : W.workload) ->
      let ic =
        Unix.open_process_args_in Sys.executable_name
          [| Sys.executable_name; "--workload"; w.W.name; "--seed"; string_of_int seed;
             "--seconds"; jnum seconds; "--trace"; (if trace then "1" else "0") |]
      in
      let rec lines acc =
        match input_line ic with l -> lines (l :: acc) | exception End_of_file -> List.rev acc
      in
      let out = lines [] in
      let status = Unix.close_process_in ic in
      List.iter
        (fun l ->
          match
            Scanf.sscanf l "{\"workload\": %S, \"metric\": %S, \"value\": %f, \"unit\": %S"
              (fun wl name v unit -> (wl ^ "/" ^ name, v, unit))
          with
          | m ->
            print_endline l;
            metrics := m :: !metrics
          | exception (Scanf.Scan_failure _ | End_of_file | Failure _) -> (
            match
              Scanf.sscanf l "{\"correct\": %B, \"attempted\": %d, \"failed\": %d"
                (fun c a f -> (c, a, f))
            with
            | c, a, f ->
              correct := !correct && c;
              attempted := !attempted + a;
              failed := !failed + f
            | exception (Scanf.Scan_failure _ | End_of_file | Failure _) -> print_endline l))
        out;
      if status <> Unix.WEXITED 0 then begin
        Printf.eprintf "%s: exited abnormally\n%!" w.W.name;
        correct := false
      end)
    W.all;
  result_line ~correct:!correct ~attempted:!attempted ~failed:!failed (List.rev !metrics);
  !correct

let () =
  let workload = ref "all" and seed = ref 1 and seconds = ref 20.0 and trace = ref false in
  try
    let rec parse = function
      | [] -> ()
      | "--workload" :: v :: rest -> workload := v; parse rest
      | "--seed" :: v :: rest ->
        seed :=
          (match int_of_string_opt v with
          | Some s -> s
          | None -> usage "bad --seed %s" v);
        parse rest
      | "--seconds" :: v :: rest ->
        seconds :=
          (match float_of_string_opt v with
          | Some s when s > 0.0 -> s
          | _ -> usage "bad --seconds %s" v);
        parse rest
      | "--trace" :: v :: rest ->
        trace := (match v with "0" -> false | "1" -> true | _ -> usage "bad --trace %s" v);
        parse rest
      | arg :: _ -> usage "unknown argument %s" arg
    in
    parse (List.tl (Array.to_list Sys.argv));
    let mascc =
      Filename.concat
        (Filename.dirname (Filename.dirname Sys.executable_name))
        "bin/mascc.exe"
    in
    if not (Sys.file_exists mascc) then usage "mascc not found at %s" mascc;
    mkdir_p out_dir;
    let seed = !seed and seconds = !seconds and trace = !trace in
    let correct =
      if !workload = "all" then run_all ~seed ~seconds ~trace
      else
        match List.find_opt (fun (w : W.workload) -> w.W.name = !workload) W.all with
        | Some w -> run_one w ~seed ~seconds ~trace ~mascc
        | None -> usage "unknown workload %s" !workload
    in
    if not correct then exit 1
  with Usage msg ->
    prerr_endline ("perfbench: " ^ msg);
    exit 2
