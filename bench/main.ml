(* Benchmark harness: regenerates every table and figure of the paper's
   evaluation (see DESIGN.md for the experiment index), then runs
   Bechamel wall-clock microbenchmarks of the compiler and simulator.

   Run with:  dune exec bench/main.exe            (everything)
              dune exec bench/main.exe -- tables  (cycle tables only)
              dune exec bench/main.exe -- json    (machine-readable; see
                                                   bench/README.md)
              dune exec bench/main.exe -- smoke   (reduced set, CI gate)

   `--jobs N` (any command) runs the sweeps on N domains; `--jobs 0`
   uses Domain.recommended_domain_count. Keep `--jobs 1` (the default)
   when recording BENCH_*.json: concurrent domains share the machine and
   distort the Bechamel per-run estimates. *)

module C = Masc.Compiler
module I = Masc_vm.Interp
module K = Masc_kernels.Kernels
module T = Masc_asip.Targets

let kernels = K.all ()
let jobs = ref 1

(* Sweep-level parallelism: the sweeps are independent (kernel, config)
   compile+simulate tasks, so they go through the domain pool; printing
   stays in the calling domain, in input order. *)
let pmap f l = Masc.Parallel.map ~jobs:!jobs f l

(* Uncached compile — what the Bechamel compiler-throughput tests
   measure. *)
let compile config (k : K.kernel) =
  C.compile config ~source:k.K.source ~entry:k.K.entry ~arg_types:k.K.arg_types

(* The table/figure sweeps ask for the same (kernel, config) compile
   many times across tables; the content-addressed cache collapses those
   to one compile each and lets concurrent domains share the result. *)
let compile_cached config (k : K.kernel) =
  C.compile_cached config ~source:k.K.source ~entry:k.K.entry
    ~arg_types:k.K.arg_types

let cycles config (k : K.kernel) =
  (C.run (compile_cached config k) (k.K.inputs ())).I.cycles

let line = String.make 78 '-'

let header title =
  Printf.printf "\n%s\n%s\n%s\n" line title line

(* ---------------- Table I: benchmark characteristics ---------------- *)

let table1 () =
  header "Table I: DSP benchmark suite";
  Printf.printf "%-8s %-46s %6s %12s\n" "name" "workload" "lines" "arith ops";
  List.iter
    (fun (k : K.kernel) ->
      Printf.printf "%-8s %-46s %6d %12d\n" k.K.kname k.K.description
        k.K.matlab_lines k.K.ops_estimate)
    kernels

(* ------- Table II + Fig. 2: proposed vs MATLAB-Coder baseline ------- *)

type t2row = {
  t2kernel : string;
  t2baseline : int;
  t2proposed : int;
  t2speedup : float;
  t2notes : string;
  t2passes_run : int;  (* pass-manager totals for the proposed compile *)
  t2passes_skipped : int;
}

let table2_data () =
  pmap
    (fun (k : K.kernel) ->
      let compiled = compile_cached (C.proposed ()) k in
      let pc = (C.run compiled (k.K.inputs ())).I.cycles in
      let bc = cycles (C.coder_baseline ()) k in
      let s = float_of_int bc /. float_of_int pc in
      let notes =
        let v = compiled.C.vec_stats in
        let c = compiled.C.cplx_stats in
        String.concat ", "
          (List.filter
             (fun s -> s <> "")
             [ (if v.Masc_vectorize.Vectorizer.map_loops > 0 then
                  Printf.sprintf "%d SIMD map loop(s)"
                    v.Masc_vectorize.Vectorizer.map_loops
                else "");
               (if v.Masc_vectorize.Vectorizer.reduction_loops > 0 then
                  Printf.sprintf "%d MAC reduction(s)"
                    v.Masc_vectorize.Vectorizer.reduction_loops
                else "");
               (if c.Masc_vectorize.Complex_sel.cmul > 0 then
                  Printf.sprintf "%d cmul" c.Masc_vectorize.Complex_sel.cmul
                else "");
               (if c.Masc_vectorize.Complex_sel.cmac > 0 then
                  Printf.sprintf "%d cmac" c.Masc_vectorize.Complex_sel.cmac
                else "") ])
      in
      let all_stats = List.concat_map snd compiled.C.opt_stats in
      { t2kernel = k.K.kname; t2baseline = bc; t2proposed = pc;
        t2speedup = s; t2notes = notes;
        t2passes_run = Masc_opt.Pipeline.total_runs all_stats;
        t2passes_skipped = Masc_opt.Pipeline.total_skipped all_stats })
    kernels

let bar width frac =
  let n = int_of_float (frac *. float_of_int width) in
  String.make (max 1 n) '#'

let table2 () =
  header
    "Table II: cycles on the dsp8 ASIP — MATLAB-Coder-style baseline vs \
     proposed compiler";
  Printf.printf "%-8s %14s %14s %9s   %s\n" "kernel" "baseline" "proposed"
    "speedup" "notes";
  let rows = table2_data () in
  List.iter
    (fun r ->
      Printf.printf "%-8s %14d %14d %8.1fx   %s\n" r.t2kernel r.t2baseline
        r.t2proposed r.t2speedup r.t2notes)
    rows;
  let best = List.fold_left (fun m r -> Float.max m r.t2speedup) 0.0 rows in
  let worst =
    List.fold_left (fun m r -> Float.min m r.t2speedup) infinity rows
  in
  Printf.printf "\nspeedup range: %.1fx - %.1fx (paper: 2x - 30x)\n" worst best;
  header "Fig. 2: speedup over MATLAB-Coder-style baseline (dsp8)";
  List.iter
    (fun r ->
      Printf.printf "%-8s %6.1fx |%s\n" r.t2kernel r.t2speedup
        (bar 50 (r.t2speedup /. 20.0)))
    rows;
  rows

(* ---------------- Table III: ISE-class ablation ---------------- *)

let table3 () =
  header
    "Table III: ablation — contribution of each custom-instruction class \
     (speedup vs baseline)";
  Printf.printf "%-8s %12s %12s %12s %12s\n" "kernel" "O2 scalar" "+SIMD"
    "+complex" "+both";
  let rows =
    pmap
      (fun (k : K.kernel) ->
        let bc = cycles (C.coder_baseline ()) k in
        let s isa =
          let c = cycles (C.proposed ~isa ()) k in
          float_of_int bc /. float_of_int c
        in
        Printf.sprintf "%-8s %11.1fx %11.1fx %11.1fx %11.1fx" k.K.kname
          (s T.scalar) (s T.dsp8_simd_only) (s T.dsp8_cplx_only) (s T.dsp8))
      kernels
  in
  List.iter print_endline rows

(* ------------- Fig. 3: SIMD width sweep (retargetability) ------------- *)

let fig3_targets =
  [ ("scalar", T.scalar); ("dsp4", T.dsp4); ("dsp8", T.dsp8);
    ("dsp16", T.dsp16) ]

let fig3_data () =
  (* kernels × targets as one flat task list so a wide pool stays full;
     re-grouped per kernel afterwards. *)
  let tasks =
    List.concat_map
      (fun (k : K.kernel) ->
        List.map (fun (tname, isa) -> (k, tname, isa)) fig3_targets)
      kernels
  in
  let flat =
    pmap
      (fun ((k : K.kernel), tname, isa) ->
        let bc = cycles (C.coder_baseline ()) k in
        ( k.K.kname,
          tname,
          float_of_int bc /. float_of_int (cycles (C.proposed ~isa ()) k) ))
      tasks
  in
  List.map
    (fun (k : K.kernel) ->
      ( k.K.kname,
        List.filter_map
          (fun (kname, tname, s) ->
            if kname = k.K.kname then Some (tname, s) else None)
          flat ))
    kernels

let fig3 () =
  header
    "Fig. 3: speedup vs baseline as a function of SIMD width (parameterized \
     ISA descriptions)";
  Printf.printf "%-8s %10s %10s %10s %10s\n" "kernel" "scalar" "dsp4" "dsp8"
    "dsp16";
  List.iter
    (fun (kname, per_target) ->
      Printf.printf "%-8s" kname;
      List.iter (fun (_, s) -> Printf.printf " %9.1fx" s) per_target;
      Printf.printf "\n")
    (fig3_data ())

(* -------- Table IV: scalar optimization levels (flow ablation) -------- *)

let table4 () =
  header
    "Table IV: effect of the scalar optimization level on the proposed flow \
     (dsp8 cycles)";
  Printf.printf "%-8s %14s %14s %14s\n" "kernel" "O0" "O1" "O2";
  let rows =
    pmap
      (fun (k : K.kernel) ->
        let c lvl =
          cycles { (C.proposed ()) with C.opt_level = lvl } k
        in
        Printf.sprintf "%-8s %14d %14d %14d" k.K.kname
          (c Masc_opt.Pipeline.O0) (c Masc_opt.Pipeline.O1)
          (c Masc_opt.Pipeline.O2))
      kernels
  in
  List.iter print_endline rows

(* -------- Table V: loop-fusion ablation (design-choice bench) -------- *)

let table5 () =
  header
    "Table V: loop-fusion ablation — proposed dsp8 cycles with the fusion \
     pass removed ('chain' = 4-stage elementwise pipeline, the shape fusion \
     targets)";
  Printf.printf "%-8s %14s %14s %10s\n" "kernel" "no fusion" "with fusion"
    "saving";
  let no_fusion_passes =
    List.filter (fun (name, _) -> name <> "fusion")
      (Masc_opt.Pipeline.passes Masc_opt.Pipeline.O2)
  in
  let chain_kernel =
    let n = 1024 in
    let source =
      "function y = chain(a, b)\n\
       t1 = a + b;\n\
       t2 = t1 .* a;\n\
       t3 = t2 - b;\n\
       y = t3 .* t3;\n\
       end"
    in
    { (K.fir ()) with
      K.kname = "chain"; source; entry = "chain";
      arg_types =
        [ Masc_sema.Mtype.row_vector Masc_sema.Mtype.Double n;
          Masc_sema.Mtype.row_vector Masc_sema.Mtype.Double n ];
      inputs =
        (fun () ->
          [ Masc_vm.Interp.xarray_of_floats (K.randoms ~seed:81 n);
            Masc_vm.Interp.xarray_of_floats (K.randoms ~seed:83 n) ]) }
  in
  let rows =
    pmap
      (fun (k : K.kernel) ->
        let with_fusion = cycles (C.proposed ()) k in
        (* same pipeline with the fusion pass dropped; the ablation path
           bypasses the cache (the pass list is not part of the key) *)
        let ablated =
          C.compile ~passes:no_fusion_passes (C.proposed ()) ~source:k.K.source
            ~entry:k.K.entry ~arg_types:k.K.arg_types
        in
        let no_fusion = (C.run ablated (k.K.inputs ())).I.cycles in
        Printf.sprintf "%-8s %14d %14d %9.1f%%" k.K.kname no_fusion with_fusion
          (100.0
          *. (float_of_int (no_fusion - with_fusion) /. float_of_int no_fusion)))
      (kernels @ [ chain_kernel ])
  in
  List.iter print_endline rows

(* ---------------- Bechamel: compiler throughput ---------------- *)

(* The simulator benches run each kernel through both back ends: the
   closure-threaded plan (the production path, plan construction cached
   in [compiled]) and the legacy tree-walking interpreter, so the
   plan-vs-tree speedup is part of the recorded perf trajectory. *)
let sim_cases () =
  [ ("fir256", K.fir ~n:256 ~m:16 ());
    ("fft64", K.fft ~n:64 ());
    ("fir1024", K.fir ~n:1024 ());
    ("fft1024", K.fft ~n:1024 ()) ]

let bechamel_tests () =
  let open Bechamel in
  (* Both compiler configurations, uncached: (proposed) is the full O2 +
     vectorize + complex-selection flow, (baseline) the O0
     MATLAB-Coder-style flow — the latter bounds the front-end +
     lowering + emission floor under the pass manager's numbers. *)
  let compile_test config cname (k : K.kernel) =
    Test.make
      ~name:(Printf.sprintf "compile %s (%s)" k.K.kname cname)
      (Staged.stage (fun () -> ignore (compile (config ()) k)))
  in
  let simulate_tests (label, (k : K.kernel)) =
    let compiled = compile (C.proposed ()) k in
    let inputs = k.K.inputs () in
    let isa = compiled.C.config.C.isa and mode = compiled.C.config.C.mode in
    [ Test.make
        ~name:(Printf.sprintf "simulate %s (dsp8, plan)" label)
        (Staged.stage (fun () -> ignore (C.run compiled inputs)));
      Test.make
        ~name:(Printf.sprintf "simulate %s (dsp8, tree)" label)
        (Staged.stage (fun () ->
             ignore (I.run_tree ~isa ~mode compiled.C.mir inputs))) ]
  in
  List.map (compile_test (fun () -> C.proposed ()) "proposed") kernels
  @ List.map (compile_test (fun () -> C.coder_baseline ()) "baseline") kernels
  @ List.concat_map simulate_tests (sim_cases ())

(* Run the tests and return [(name, ns_per_run option,
   minor_words_per_run option)] in test order. The allocation rate is
   part of the recorded trajectory because both the plan back end's
   typed register banks and the sharing-preserving rewriter are
   specifically allocation optimizations: a regression there shows up in
   minor words long before wall clock on a fast machine. *)
let bechamel_data () =
  let open Bechamel in
  let instances = Toolkit.Instance.[ monotonic_clock; minor_allocated ] in
  (* GC stabilization (compact until live words settle) cannot converge
     while sibling domains allocate, and bechamel raises when it gives
     up — so it is only requested on the single-domain path. Recorded
     BENCH_*.json numbers come from --jobs 1, which keeps it on. *)
  let cfg =
    Benchmark.cfg ~limit:300 ~quota:(Time.second 0.3) ~kde:(Some 300)
      ~stabilize:(!jobs <= 1) ()
  in
  (* Parallel domains share cores and skew per-run estimates; the pool
     is still used when asked (--jobs) for quick comparative runs, but
     recorded BENCH_*.json numbers come from --jobs 1. *)
  (* [Benchmark.run] unconditionally compacts until the major heap's
     live-word count stabilizes and fails if it never does — which it
     may not while sibling domains allocate. Retrying rides out the
     contention; measurement quality on the multi-domain path is
     already best-effort (see above). *)
  let all_retrying test =
    let rec go attempts =
      match Benchmark.all cfg instances test with
      | raw -> raw
      | exception Failure _ when attempts > 1 -> go (attempts - 1)
    in
    go (if !jobs <= 1 then 1 else 20)
  in
  List.concat
    (pmap
       (fun test ->
         let raw = all_retrying test in
         Hashtbl.fold
           (fun name wall acc ->
             let est instance =
               match
                 Analyze.one
                   (Analyze.ols ~bootstrap:0 ~r_square:false
                      ~predictors:[| Measure.run |])
                   instance wall
               with
               | ols -> (
                 match Analyze.OLS.estimates ols with
                 | Some [ est ] -> Some est
                 | _ -> None)
               | exception _ -> None
             in
             ( name,
               est Toolkit.Instance.monotonic_clock,
               est Toolkit.Instance.minor_allocated )
             :: acc)
           raw [])
       (bechamel_tests ()))

let bechamel_print data =
  header "Bechamel: compiler and simulator throughput (wall clock)";
  List.iter
    (fun (name, est, words) ->
      (match est with
      | Some est -> Printf.printf "%-32s %12.0f ns/run" name est
      | None -> Printf.printf "%-32s (no estimate)" name);
      (match words with
      | Some w -> Printf.printf " %14.0f minor words/run" w
      | None -> ());
      print_newline ())
    data

(* ---------------- json: machine-readable perf trajectory -------------- *)

(* Schema documented in bench/README.md; bump schema_version on change. *)
let json () =
  let buf = Buffer.create 4096 in
  let add fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  let esc = Masc_obs.Ojson.escape in
  let jfloat f = if Float.is_finite f then Printf.sprintf "%.6g" f else "null" in
  let sep xs f = List.iteri (fun i x -> (if i > 0 then add ","); f x) xs in
  add "{\n";
  add "  \"schema_version\": 5,\n";
  add "  \"generator\": \"bench/main.exe json\",\n";
  add "  \"jobs\": %d,\n" !jobs;
  add "  \"host_cores\": %d,\n" (Masc.Parallel.default_jobs ());
  add "  \"table2\": [";
  sep (table2_data ()) (fun r ->
      add "\n    {\"kernel\": \"%s\", \"baseline_cycles\": %d, \
           \"proposed_cycles\": %d, \"speedup\": %s, \"passes_run\": %d, \
           \"passes_skipped\": %d}"
        (esc r.t2kernel) r.t2baseline r.t2proposed (jfloat r.t2speedup)
        r.t2passes_run r.t2passes_skipped);
  add "\n  ],\n";
  add "  \"fig3\": [";
  sep (fig3_data ()) (fun (kname, per_target) ->
      add "\n    {\"kernel\": \"%s\", \"speedup_vs_baseline\": {" (esc kname);
      sep per_target (fun (tname, s) ->
          add "\"%s\": %s" (esc tname) (jfloat s));
      add "}}");
  add "\n  ],\n";
  add "  \"bechamel_ns_per_run\": [";
  sep (bechamel_data ()) (fun (name, est, words) ->
      add "\n    {\"name\": \"%s\", \"ns_per_run\": %s," (esc name)
        (match est with Some e -> jfloat e | None -> "null");
      add " \"minor_words_per_run\": %s}"
        (match words with Some w -> jfloat w | None -> "null"));
  add "\n  ],\n";
  (* Process-wide telemetry counters accumulated while producing the
     numbers above (pass runs/skips, compile-cache traffic, simulator
     activity) — same registry and format as `mascc --metrics`. *)
  Masc_obs.Metrics.set "gc.minor_words" (Gc.minor_words ());
  add "  \"metrics\": %s\n}\n" (Masc_obs.Metrics.dump_json ());
  print_string (Buffer.contents buf)

(* ---------------- overhead: profiler cost measurement ---------------- *)

(* Times the production plan against a profiled plan built from the same
   compilation — the measured cost of `mascc --profile`, recorded in
   EXPERIMENTS.md. Telemetry-*off* overhead is not measured here because
   it is structurally zero: profiling closures are only compiled into a
   plan built with [~profile:true], and BENCH_5 vs BENCH_4 pins the
   unprofiled cycle tables bit-identical. *)
let overhead () =
  header "profiler overhead: production plan vs profiled plan (wall clock)";
  Printf.printf "%-12s %12s %12s %9s\n" "case" "plan ns" "profiled ns"
    "overhead";
  let time_runs f =
    for _ = 1 to 3 do f () done;
    let reps = 30 in
    let t0 = Monotonic_clock.now () in
    for _ = 1 to reps do f () done;
    Int64.to_float (Int64.sub (Monotonic_clock.now ()) t0)
    /. float_of_int reps
  in
  List.iter
    (fun (name, (k : K.kernel)) ->
      let compiled = compile (C.proposed ()) k in
      let inputs = k.K.inputs () in
      let isa = compiled.C.config.C.isa
      and mode = compiled.C.config.C.mode in
      let plan = Masc_vm.Plan.compile ~isa ~mode compiled.C.mir in
      let prof_plan =
        Masc_vm.Plan.compile ~profile:true ~isa ~mode compiled.C.mir
      in
      let t_plan = time_runs (fun () ->
          ignore (Masc_vm.Plan.execute plan inputs))
      and t_prof = time_runs (fun () ->
          let col = Masc_obs.Profile.create () in
          ignore (Masc_vm.Plan.execute ~profile:col prof_plan inputs))
      in
      Printf.printf "%-12s %12.0f %12.0f %8.2fx\n" name t_plan t_prof
        (t_prof /. t_plan))
    [ ("fir1024", K.fir ~n:1024 ~m:32 ()); ("fft1024", K.fft ~n:1024 ()) ]

(* ---------------- smoke: reduced-set CI gate ---------------- *)

(* Exercises the full compile-and-simulate plumbing on small kernels and
   fails (exit 1) on a non-finite/non-positive speedup or on any
   plan-vs-tree divergence, so `dune build @bench-smoke` (wired into
   `dune runtest`) guards the perf machinery. *)
let smoke () =
  let small =
    [ K.fir ~n:64 ~m:8 (); K.fft ~n:32 (); K.matmul ~n:8 () ]
  in
  header "bench-smoke: reduced kernel set (compile + simulate gate)";
  Printf.printf "%-8s %12s %12s %9s   %s\n" "kernel" "baseline" "proposed"
    "speedup" "plan=tree";
  let ok = ref true in
  List.iter
    (fun (k : K.kernel) ->
      let compiled = compile (C.proposed ()) k in
      let inputs = k.K.inputs () in
      let rp = C.run compiled inputs in
      let rt =
        I.run_tree ~isa:compiled.C.config.C.isa ~mode:compiled.C.config.C.mode
          compiled.C.mir inputs
      in
      let agree =
        rp.I.cycles = rt.I.cycles
        && rp.I.dyn_instrs = rt.I.dyn_instrs
        && rp.I.histogram = rt.I.histogram
        && rp.I.output = rt.I.output
        && compare rp.I.rets rt.I.rets = 0
      in
      let bc = cycles (C.coder_baseline ()) k in
      let s = float_of_int bc /. float_of_int rp.I.cycles in
      Printf.printf "%-8s %12d %12d %8.2fx   %b\n" k.K.kname bc rp.I.cycles s
        agree;
      if (not (Float.is_finite s)) || s <= 0.0 || not agree then ok := false)
    small;
  if not !ok then begin
    prerr_endline
      "bench-smoke: FAILED (non-finite speedup or plan/tree divergence)";
    exit 1
  end;
  Printf.printf "\nbench-smoke: ok\n"

let () =
  let rec parse cmd = function
    | [] -> cmd
    | "--jobs" :: n :: rest ->
      let v = int_of_string n in
      jobs := (if v <= 0 then Masc.Parallel.default_jobs () else v);
      parse cmd rest
    | c :: rest -> parse c rest
  in
  let cmd = parse "all" (List.tl (Array.to_list Sys.argv)) in
  match cmd with
  | "json" -> json ()
  | "smoke" -> smoke ()
  | "overhead" -> overhead ()
  | "tables" ->
    table1 ();
    ignore (table2 ());
    table3 ();
    fig3 ();
    table4 ();
    table5 ();
    Printf.printf "\ndone.\n"
  | _ ->
    table1 ();
    ignore (table2 ());
    table3 ();
    fig3 ();
    table4 ();
    table5 ();
    bechamel_print (bechamel_data ());
    Printf.printf "\ndone.\n"
