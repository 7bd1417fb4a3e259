(* Per-layer metrics of the traced run.

   Every traced operation is folded into the metrics below as it ends:
   the workload's own operations, then a layer pass that pushes each of
   the workload's distinct programs through every layer three times, so
   each layer reports on every workload. A metric's value is the median
   over the operations that reached its layer, unless it says
   otherwise. *)

module C = Masc.Compiler
module Req = Masc_svc.Request
module Batch = Masc_svc.Batch

let ( let* ) = Option.bind
let dur = Spans.dur
let counted = Spans.counted
let us o name = Option.map (fun ns -> ns /. 1e3) (dur o name)
let ms o name = Option.map (fun ns -> ns /. 1e6) (dur o name)


type agg =
  | Median of (Spans.op -> float option)
  | Ratio of (Spans.op -> float option) * (Spans.op -> float option)
      (** sum of numerators over sum of denominators *)
  | Total of (Spans.op -> float option)
  | Per_run  (** measured once per run, outside the operations *)

type metric = { name : string; unit : string; agg : agg }

let m name unit agg = { name; unit; agg }

(* [time name span]: the time of [span] per operation, in us. *)
let time name span = m name "us" (Median (fun o -> us o span))

(* [tally name unit]: the count recorded under [name] per operation. *)
let tally name unit = m name unit (Median (fun o -> counted o name))

(* [difference name a b]: span [a]'s time less span [b]'s, in us. *)
let difference name a b =
  m name "us"
    (Median
       (fun o ->
         let* x = dur o a in
         let* y = dur o b in
         Some ((x -. y) /. 1e3)))

let per_execute name count =
  m name ("ns/" ^ count)
    (Median
       (fun o ->
         let* n = counted o ("vm." ^ count ^ "s") in
         let* d = dur o "vm.execute" in
         Some (d /. n)))

let metrics =
  [ m "proc.startup_ms" "ms" (Median (fun o -> ms o "proc.targets"));
    m "proc.outside_compile_share" "ratio"
      (Median
         (fun o ->
           let* p = dur o "proc.compile" in
           let* c = dur o "core.compile" in
           Some (1.0 -. (c /. p))));
    time "frontend.parse_us" "frontend.parse";
    m "frontend.tokens_per_ms" "tokens/ms"
      (Median
         (fun o ->
           let* t = counted o "frontend.tokens" in
           let* d = ms o "frontend.parse" in
           Some (t /. d)));
    time "sema.infer_us" "sema.infer";
    time "mir.lower_us" "mir.lower";
    time "mir.verify_us" "mir.verify";
    tally "mir.instrs_lowered" "count";
    tally "mir.instrs_final" "count";
    time "opt.optimize_us" "opt.optimize" ]
  @ List.map
      (fun (p, _) -> time ("opt.pass." ^ p ^ "_us") ("opt.pass." ^ p))
      (Masc_opt.Pipeline.passes Masc_opt.Pipeline.O2)
  @ [ tally "opt.pass_runs" "count";
      tally "opt.pass_changed" "count";
      m "opt.useful_ratio" "ratio"
        (Ratio
           ( (fun o -> counted o "opt.pass_changed"),
             fun o -> counted o "opt.pass_runs" ));
      time "opt.cleanup_us" "opt.cleanup";
      tally "opt.cleanup_runs" "count";
      tally "opt.cleanup_changed" "count";
      time "vectorize.simd_us" "vectorize.simd";
      time "vectorize.complex_us" "vectorize.complex";
      tally "vectorize.loops" "count";
      tally "vectorize.complex_ops" "count";
      time "codegen.emit_us" "codegen.emit";
      tally "codegen.c_bytes" "bytes";
      time "vm.plan_us" "vm.plan";
      time "vm.execute_us" "vm.execute";
      per_execute "vm.ns_per_cycle" "cycle";
      per_execute "vm.ns_per_dyn_instr" "instr";
      tally "vm.kwords_per_run" "kwords";
      time "core.compile_us" "core.compile";
      m "core.unstaged_us" "us"
        (Median
           (fun o ->
             let* c = dur o "core.compile" in
             let stages =
               List.fold_left
                 (fun a s -> a +. Option.value (dur o s) ~default:0.0)
                 0.0 Replay.stages
             in
             Some ((c -. stages) /. 1e3)));
      difference "core.run_overhead_us" "core.run" "vm.execute";
      m "core.cache_hit_ratio" "ratio" Per_run;
      m "core.parallel_speedup" "x" Per_run;
      time "svc.request_us.compile" "svc.request.compile";
      time "svc.request_us.run" "svc.request.run";
      difference "svc.overhead_us" "svc.request.run" "core.direct.run";
      m "svc.retries" "count" (Total (fun o -> counted o "svc.retries"));
      m "svc.failed" "count" (Total (fun o -> counted o "svc.failed"));
      m "bench.host_calib_us" "us" Per_run;
      m "bench.trace_overhead_pct" "%" Per_run ]

(* ---- folding operations in ---- *)

type sink = {
  mutable values : float list;
  mutable num : float;
  mutable den : float;
  mutable n : int;
}

let sinks = Hashtbl.create 64

let sink name =
  match Hashtbl.find_opt sinks name with
  | Some s -> s
  | None ->
    let s = { values = []; num = 0.0; den = 0.0; n = 0 } in
    Hashtbl.replace sinks name s;
    s

let finish ?always o =
  Spans.keep ?always o;
  List.iter
    (fun mt ->
      let s = sink mt.name in
      match mt.agg with
      | Median f -> (
        match f o with
        | Some v ->
          s.values <- v :: s.values;
          s.n <- s.n + 1
        | None -> ())
      | Total f -> (
        match f o with
        | Some v ->
          s.num <- s.num +. v;
          s.n <- s.n + 1
        | None -> ())
      | Ratio (num, den) -> (
        match (num o, den o) with
        | Some a, Some b ->
          s.num <- s.num +. a;
          s.den <- s.den +. b;
          s.n <- s.n + 1
        | _ -> ())
      | Per_run -> ())
    metrics

(* [(value, samples)] of a folded metric; [None] when no operation
   reached its layer. *)
let result mt =
  let s = sink mt.name in
  if s.n = 0 then None
  else
    match mt.agg with
    | Median _ -> Some (Masc_obs.Metrics.quantile (Array.of_list s.values) 50.0, s.n)
    | Total _ -> Some (s.num, s.n)
    | Ratio _ -> Some (s.num /. s.den, s.n)
    | Per_run -> None

(* ---- the layer pass ---- *)

(* One program through every layer. Returns the failures it found: the
   staged replay must reproduce [Compiler.compile]'s C byte for byte. *)
let layer_op ~mascc (p : Prog.t) file =
  let compiled = Spans.span "core.compile" (fun () -> Prog.compile p) in
  let replayed =
    Replay.compile p.Prog.config ~source:p.Prog.source ~entry:p.Prog.entry
      ~arg_types:p.Prog.arg_types
  in
  let failures =
    if String.equal replayed (C.c_source compiled) then []
    else [ p.Prog.name ^ ": staged replay C differs from Compiler.compile" ]
  in
  let cfg = compiled.C.config in
  ignore
    (Spans.span "vm.plan" (fun () ->
         Masc_vm.Plan.compile ~isa:cfg.C.isa ~mode:cfg.C.mode compiled.C.mir));
  (* A first, untimed run builds the memoized plan and warms the caches,
     so [Plan.execute] and [Compiler.run] below time the same work. *)
  ignore (C.run compiled p.Prog.inputs);
  ignore (Replay.execute (C.plan compiled) p.Prog.inputs);
  ignore (Spans.span "core.run" (fun () -> C.run compiled p.Prog.inputs));
  List.iter
    (fun op -> ignore (Workloads.traced_request (Workloads.spec p op)))
    [ Req.Compile; Req.Run ];
  ignore
    (Spans.span "core.direct.run" (fun () ->
         match
           C.compile_file_cached p.Prog.config ~source:p.Prog.source
             ~entry:p.Prog.entry ~arg_types:p.Prog.arg_types
         with
         | Some c, _ -> C.run c p.Prog.inputs
         | None, _ -> failwith "compile_file_cached failed"));
  let out = Filename.remove_extension file ^ ".c" in
  let code =
    Spans.span "proc.compile" (fun () ->
        Prog.spawn mascc (Prog.mascc_compile_args p ~file ~out))
  in
  if code = 0 then failures
  else failures @ [ Printf.sprintf "%s: mascc compile exited %d" p.Prog.name code ]

let reps = 3

let pass ~mascc ~dir programs =
  C.clear_memory_cache ();
  let files = Workloads.write_sources (Filename.concat dir "layers") programs in
  let failures = ref [] in
  for _ = 1 to reps do
    List.iter
      (fun (p, file) ->
        let f, o =
          Spans.record (fun () ->
              try layer_op ~mascc p file
              with e -> [ p.Prog.name ^ ": " ^ Printexc.to_string e ])
        in
        failures := !failures @ f;
        finish ~always:true o)
      files
  done;
  for _ = 1 to 10 do
    let code, o =
      Spans.record (fun () ->
          Spans.span "proc.targets" (fun () -> Prog.spawn mascc [ "targets" ]))
    in
    if code <> 0 then failures := !failures @ [ "mascc targets failed" ];
    finish ~always:true o
  done;
  List.sort_uniq compare !failures

(* One round of every program as a run and a compile request, five
   times over (for batch-service, exactly its own round), on one domain
   and then on two, from a cold cache each time. *)
let parallel_speedup programs =
  let items =
    List.mapi
      (fun i (s : Req.spec) ->
        { Batch.bx_index = i; bx_label = s.Req.label; bx_op = s.Req.op;
          bx_parsed = Ok s })
      (List.concat_map
         (fun _ ->
           List.concat_map
             (fun p -> [ Workloads.spec p Req.Run; Workloads.spec p Req.Compile ])
             programs)
         [ 1; 2; 3; 4; 5 ])
  in
  let wall jobs =
    C.clear_memory_cache ();
    let t0 = Spans.now () in
    ignore (Batch.run ~jobs ~policy:Req.default_policy items);
    Int64.to_float (Int64.sub (Spans.now ()) t0)
  in
  let one = wall 1 in
  one /. wall 2
