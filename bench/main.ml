(* Benchmark harness: regenerates every table and figure of the paper's
   evaluation (see DESIGN.md for the experiment index). Compiler and
   simulator timing lives in perfbench/ (BENCHMARK.json), not here.

   Run with:  dune exec bench/main.exe            (all tables; or -- tables)
              dune exec bench/main.exe -- json    (machine-readable; see
                                                   bench/README.md)
              dune exec bench/main.exe -- smoke   (reduced set, CI gate) *)

module C = Masc.Compiler
module I = Masc_vm.Interp
module K = Masc_kernels.Kernels
module T = Masc_asip.Targets

let kernels = K.all ()

(* Uncached compile, for the smoke gate. *)
let compile config (k : K.kernel) =
  C.compile config ~source:k.K.source ~entry:k.K.entry ~arg_types:k.K.arg_types

(* The table/figure sweeps ask for the same (kernel, config) compile
   many times across tables; the content-addressed cache collapses those
   to one compile each. *)
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
  List.map
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
    rows

(* ---------------- Table III: ISE-class ablation ---------------- *)

let table3 () =
  header
    "Table III: ablation — contribution of each custom-instruction class \
     (speedup vs baseline)";
  Printf.printf "%-8s %12s %12s %12s %12s\n" "kernel" "O2 scalar" "+SIMD"
    "+complex" "+both";
  let rows =
    List.map
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
  List.map
    (fun (k : K.kernel) ->
      let bc = cycles (C.coder_baseline ()) k in
      ( k.K.kname,
        List.map
          (fun (tname, isa) ->
            let pc = cycles (C.proposed ~isa ()) k in
            (tname, float_of_int bc /. float_of_int pc))
          fig3_targets ))
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
    List.map
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
    List.map
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

(* ---------------- json: machine-readable cycle tables ---------------- *)

(* Schema documented in bench/README.md; bump schema_version on change. *)
let json () =
  let buf = Buffer.create 4096 in
  let add fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  let esc = Masc_obs.Ojson.escape in
  let jfloat f = if Float.is_finite f then Printf.sprintf "%.6g" f else "null" in
  let sep xs f = List.iteri (fun i x -> (if i > 0 then add ","); f x) xs in
  add "{\n";
  add "  \"schema_version\": 6,\n";
  add "  \"generator\": \"bench/main.exe json\",\n";
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
  add "\n  ]\n}\n";
  print_string (Buffer.contents buf)

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

let tables () =
  table1 ();
  table2 ();
  table3 ();
  fig3 ();
  table4 ();
  table5 ();
  Printf.printf "\ndone.\n"

let () =
  match List.tl (Array.to_list Sys.argv) with
  | [] | [ "tables" ] -> tables ()
  | [ "json" ] -> json ()
  | [ "smoke" ] -> smoke ()
  | _ ->
    prerr_endline "usage: main.exe [tables | json | smoke]";
    exit 2
