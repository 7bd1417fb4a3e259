(* mascc — command-line driver for the masc MATLAB-to-C compiler.

   Subcommands:
     compile   FILE.m -> ANSI C with ASIP intrinsics (+ runtime header)
     run       compile and execute on the cycle-accounting simulator
     batch     execute newline-framed compile/run requests through the
               service core (deadlines, crash isolation, quarantine,
               persistent cache)
     targets   list built-in target descriptions
     kernels   list the bundled benchmark kernels

   Argument-type specifications follow MATLAB Coder's -args idea in a
   compact syntax: "double:1x1024,double:1x32,complex:8x8,double".

   Telemetry (--trace, --metrics, and run's --profile/--profile-json)
   goes to stderr or to explicit files — stdout carries only the
   generated C or the simulation report, so telemetry never corrupts
   piped output. The one exception is run's --profile hot-line report,
   which IS the requested simulation report and prints to stdout.

   Exit codes: 0 success; 1 diagnostics with errors (or warnings under
   --Werror, or a simulator trap); 2 command-line usage errors; 3
   internal compiler error. *)

open Cmdliner
module C = Masc.Compiler
module Diag = Masc_frontend.Diag
module I = Masc_vm.Interp
module V = Masc_vm.Value
module Req = Masc_svc.Request
module Batch = Masc_svc.Batch

(* Usage-class failures (bad flag values, nonsensical flag
   combinations): exit code 2, distinct from source diagnostics. *)
exception Usage of string

let usage fmt = Printf.ksprintf (fun s -> raise (Usage s)) fmt

(* A consumer closing the pipe early (mascc ... | head) must end the
   process cleanly, not as an unhandled Sys_error: SIGPIPE is ignored
   so writes fail with EPIPE instead of killing the process, and the
   resulting Sys_error is recognized below. *)
let () =
  if Sys.os_type = "Unix" then
    try Sys.set_signal Sys.sigpipe Sys.Signal_ignore
    with Invalid_argument _ -> ()

let is_epipe msg =
  (* Sys_error carries strerror text: "Broken pipe" on every libc we
     target; match loosely to stay locale-proof on the errno name. *)
  let lower = String.lowercase_ascii msg in
  let has sub =
    let n = String.length sub and m = String.length lower in
    let rec at i = i + n <= m && (String.sub lower i n = sub || at (i + 1)) in
    at 0
  in
  has "broken pipe" || has "epipe"

let parse_arg_spec spec =
  match Batch.parse_arg_types spec with
  | Ok tys -> tys
  | Error msg -> usage "%s" msg

let read_file path =
  let ic = open_in_bin path in
  let n = in_channel_length ic in
  let s = really_input_string ic n in
  close_in ic;
  s

let write_file path content =
  let oc = open_out path in
  output_string oc content;
  close_out oc

let resolve_target name isa_file =
  match isa_file with
  | Some path -> (
    (* A truncated or garbage .isa file is a usage-class mistake, like
       an unknown --target: report with file/line and exit 2, instead
       of letting the Diag escape as a source-diagnostics exit 1. *)
    match Masc_asip.Isa_parser.parse_file path with
    | isa -> isa
    | exception Diag.Error (_, span, msg) ->
      usage "%s:%d: %s" path span.Masc_frontend.Loc.start_pos.line msg
    | exception Sys_error msg -> usage "%s" msg)
  | None -> (
    match Masc_asip.Targets.by_name name with
    | Some t -> t
    | None ->
      usage "unknown target '%s'; available: %s" name
        (String.concat ", "
           (List.map
              (fun (t : Masc_asip.Isa.t) -> t.Masc_asip.Isa.tname)
              Masc_asip.Targets.all)))

let config_of ~isa ~coder ~opt_level ~no_vectorize ~no_complex =
  if coder then C.coder_baseline ~isa ()
  else
    { (C.proposed ~isa ()) with
      C.opt_level = Masc_opt.Pipeline.level_of_int opt_level;
      vectorize = not no_vectorize;
      select_complex = not no_complex }

(* Shared service knobs (--cache-dir, --compile-timeout): the
   persistent cache tier and a cooperative per-work-item wall-clock
   deadline. The deadline is installed on the domain running the work
   item, so it composes with --jobs. *)
let install_cache_dir dir = if dir <> None then C.set_cache_dir dir

let with_compile_timeout ms f =
  match ms with
  | None -> f ()
  | Some ms -> Masc_fault.Cancel.with_deadline ~ms f

(* The phase the driver is in when an unexpected exception escapes —
   named in the internal-compiler-error report. *)
let current_phase = ref "startup"

(* Telemetry sinks drain through one ordered registry (journal, trace,
   metrics — registration order), exactly once; defined here because
   the error paths below must force the drain before bailing out. *)
let flush_actions : (unit -> unit) list ref = ref []
let register_flush f = flush_actions := !flush_actions @ [ f ]
let telemetry_flushed = ref false

let flush_telemetry () =
  if not !telemetry_flushed then begin
    telemetry_flushed := true;
    List.iter (fun f -> try f () with Sys_error _ -> ()) !flush_actions
  end

let rec handle_exn = function
  | Usage msg ->
    Printf.eprintf "mascc: %s\n" msg;
    exit 2
  | Sys_error msg when is_epipe msg ->
    (* Output consumer went away; nothing useful left to write on
       stdout — but the file-bound telemetry sinks (journal, trace)
       still drain, in their deterministic order, before the quiet
       exit. Then stdout is pointed at /dev/null: the runtime's own
       at_exit flushers (Format's standard formatters, the channel
       table) would otherwise hit the dead pipe, re-raise, and turn
       the quiet exit into a fatal uncaught exception. *)
    flush_telemetry ();
    (try
       let null = Unix.openfile "/dev/null" [ Unix.O_WRONLY ] 0o644 in
       Unix.dup2 null Unix.stdout;
       Unix.close null
     with Unix.Unix_error _ -> ());
    (try flush stderr with Sys_error _ -> ());
    exit 1
  | Sys_error msg ->
    Printf.eprintf "mascc: %s\n" msg;
    exit 2
  | Masc_fault.Cancel.Deadline_exceeded { budget_ms } ->
    Printf.eprintf "mascc: deadline exceeded (budget %gms)\n" budget_ms;
    exit 1
  | Masc_frontend.Diag.Error _ as e ->
    (* raise-first paths that bypass the accumulating driver *)
    Printf.eprintf "error: %s\n" (Masc_frontend.Diag.to_string e);
    exit 1
  | Masc.Parallel.Worker_failed e -> handle_exn e
  | e ->
    (* Anything else is a compiler defect, not a user mistake: report it
       as such, with the phase, and use a distinct exit code so scripts
       can tell ICEs from rejected programs. When the flight recorder
       is on, its tail is the crash report's context. *)
    Printf.eprintf "mascc: internal compiler error (phase: %s): %s\n"
      !current_phase (Printexc.to_string e);
    if Masc_obs.Journal.is_enabled () then
      prerr_string (Masc_obs.Journal.render_flight ~limit:32 ());
    exit 3

let handle_errors f = try f () with e -> handle_exn e

(* ---- telemetry ----

   Sinks flush on every exit path (success, diagnostics, traps): a
   failed compile still writes the trace that explains where the time
   went. All sinks drain through ONE registry, in registration order
   (journal, then trace, then metrics), exactly once — a single
   [at_exit] hook rather than one per sink, so the order is
   deterministic and an early explicit flush (the EPIPE path) does not
   double-report. Each sink is individually EPIPE-proof: a consumer
   closing stderr must not lose the file-bound sinks behind it. All of
   it goes to stderr or to an explicit file, never stdout. *)

let setup_telemetry ?(journal = None) ~trace ~metrics () =
  if journal <> None || trace <> None then
    Masc_obs.Journal.enable ~spans:(trace <> None) ~instants:(journal <> None)
      ();
  (match journal with
  | Some path ->
    let oc = open_out path in
    Masc_obs.Journal.stream_to oc;
    register_flush (fun () ->
        Masc_obs.Journal.close_stream ();
        close_out_noerr oc;
        Printf.eprintf "journal: wrote %s (%d events, %d dropped)\n%!" path
          (Masc_obs.Journal.total ())
          (Masc_obs.Journal.dropped ()))
  | None -> ());
  (match trace with
  | Some path ->
    register_flush (fun () ->
        let evs = Masc_obs.Journal.events () in
        write_file path (Masc_obs.Trace.chrome_json evs);
        Printf.eprintf
          "trace: wrote %s (%d events dropped)\nspan summary:\n%s%!" path
          (Masc_obs.Journal.dropped ()) (Masc_obs.Trace.summary evs))
  | None -> ());
  if metrics then
    register_flush (fun () ->
        Masc_obs.Metrics.set "gc.minor_words" (Gc.minor_words ());
        Printf.eprintf "metrics:\n%s%!" (Masc_obs.Metrics.dump_text ()));
  at_exit flush_telemetry

(* ---- diagnostics reporting ---- *)

type diag_format = Text | Json

(* All diagnostics go to stderr (stdout carries the generated C / the
   simulation report). Text mode renders the GCC-style caret form,
   prefixed with the file so batch output stays attributable; json mode
   prints one stable JSON object per line. *)
let print_diag ~file ~source fmt (d : Diag.t) =
  match fmt with
  | Text -> Printf.eprintf "%s: %s\n" file (Diag.render ~source d)
  | Json -> prerr_endline (Diag.to_json d)

(* Report a file's diagnostics; [true] when the file is shippable
   (no errors, and no warnings under --Werror). *)
let report_diags ~file ~source ~fmt ~werror diags ok =
  List.iter (print_diag ~file ~source fmt) diags;
  let has_warning =
    List.exists
      (fun (d : Diag.t) -> d.Diag.severity = Diag.Severity.Warning)
      diags
  in
  if ok && werror && has_warning then begin
    Printf.eprintf "mascc: %s: warnings treated as errors\n" file;
    false
  end
  else ok

let trap_diag (e : exn) : Diag.t option =
  match e with
  | Masc_vm.Exec.Trap { kind; loc; steps_executed } ->
    Some
      { Diag.severity = Diag.Severity.Error; phase = Diag.Simulate;
        span = Masc_frontend.Loc.dummy;
        message = Masc_vm.Exec.trap_message ~kind ~loc ~steps_executed }
  | Masc_vm.Exec.Runtime_error msg ->
    Some
      { Diag.severity = Diag.Severity.Error; phase = Diag.Simulate;
        span = Masc_frontend.Loc.dummy; message = msg }
  | _ -> None

(* ---- compile ---- *)

let vec_note (compiled : C.compiled) =
  Printf.sprintf
    "# %d map loop(s) and %d reduction loop(s) vectorized; %d cmul, %d \
     cmac, %d cadd selected"
    compiled.C.vec_stats.Masc_vectorize.Vectorizer.map_loops
    compiled.C.vec_stats.Masc_vectorize.Vectorizer.reduction_loops
    compiled.C.cplx_stats.Masc_vectorize.Complex_sel.cmul
    compiled.C.cplx_stats.Masc_vectorize.Complex_sel.cmac
    compiled.C.cplx_stats.Masc_vectorize.Complex_sel.cadd

let do_compile files entry args_spec target isa_file opt_level coder
    no_vectorize no_complex output emit_header dump_stages opt_stats jobs
    cache_dir timeout diag_fmt werror trace metrics =
  handle_errors @@ fun () ->
  setup_telemetry ~trace ~metrics ();
  let isa = resolve_target target isa_file in
  let config = config_of ~isa ~coder ~opt_level ~no_vectorize ~no_complex in
  let arg_types = parse_arg_spec args_spec in
  install_cache_dir cache_dir;
  current_phase := "compile";
  let compile_one file =
    let source = read_file file in
    let entry =
      match entry with
      | Some e -> e
      | None -> Filename.remove_extension (Filename.basename file)
    in
    let compiled, diags =
      with_compile_timeout timeout (fun () ->
          if cache_dir <> None then
            C.compile_file_cached config ~source ~entry ~arg_types
          else C.compile_file config ~source ~entry ~arg_types)
    in
    (file, source, compiled, diags)
  in
  (* Reporting happens in the calling domain, in command-line order, so
     per-file diagnostics aggregate deterministically under --jobs. *)
  let report (file, source, compiled, diags) =
    if report_diags ~file ~source ~fmt:diag_fmt ~werror diags
         (compiled <> None)
    then compiled
    else None
  in
  match files with
  | [ file ] -> (
    let r = compile_one file in
    match report r with
    | None -> exit 1
    | Some compiled ->
      current_phase := "codegen";
      if dump_stages then print_string (C.stage_dump compiled)
      else begin
        let c_text = C.c_source compiled in
        (match output with
        | Some path ->
          write_file path c_text;
          Printf.printf "wrote %s\n" path
        | None -> print_string c_text);
        if emit_header then begin
          let hpath =
            match output with
            | Some path ->
              Filename.concat (Filename.dirname path)
                Masc_codegen.Runtime.header_filename
            | None -> Masc_codegen.Runtime.header_filename
          in
          write_file hpath (C.runtime_header compiled);
          Printf.printf "wrote %s\n" hpath
        end;
        print_endline (vec_note compiled)
      end;
      if opt_stats then prerr_string (C.opt_stats_dump compiled))
  | files ->
    (* Batch mode: each FILE.m compiles (in parallel with --jobs) to a
       sibling FILE.c; stdout/-o/--dump-stages make no sense across
       several translation units. *)
    if output <> None || dump_stages then
      usage "--output/--dump-stages require a single input file";
    let jobs =
      if jobs <= 0 then Masc.Parallel.default_jobs () else jobs
    in
    let results = Masc.Parallel.map ~jobs compile_one files in
    current_phase := "codegen";
    (* Writing and reporting stay in the calling domain so the output
       order matches the command line. *)
    let shipped =
      List.filter_map
        (fun ((file, _, _, _) as r) ->
          match report r with
          | None -> None
          | Some compiled ->
            let path = Filename.remove_extension file ^ ".c" in
            write_file path (C.c_source compiled);
            Printf.printf "wrote %s\n" path;
            print_endline (vec_note compiled);
            if opt_stats then prerr_string (C.opt_stats_dump compiled);
            Some (file, compiled))
        results
    in
    if emit_header then begin
      match shipped with
      | (file, first) :: _ ->
        let hpath =
          Filename.concat (Filename.dirname file)
            Masc_codegen.Runtime.header_filename
        in
        write_file hpath (C.runtime_header first);
        Printf.printf "wrote %s\n" hpath
      | [] -> ()
    end;
    if List.length shipped <> List.length files then exit 1

(* ---- run ---- *)

let do_run file entry args_spec target isa_file opt_level coder no_vectorize
    no_complex seed show_output opt_stats cache_dir timeout diag_fmt werror
    fuel trace metrics profile profile_json =
  handle_errors @@ fun () ->
  setup_telemetry ~trace ~metrics ();
  let isa = resolve_target target isa_file in
  let config = config_of ~isa ~coder ~opt_level ~no_vectorize ~no_complex in
  let source = read_file file in
  let entry =
    match entry with
    | Some e -> e
    | None -> Filename.remove_extension (Filename.basename file)
  in
  let arg_types = parse_arg_spec args_spec in
  install_cache_dir cache_dir;
  current_phase := "compile";
  let compiled, diags =
    with_compile_timeout timeout (fun () ->
        if cache_dir <> None then
          C.compile_file_cached config ~source ~entry ~arg_types
        else C.compile_file config ~source ~entry ~arg_types)
  in
  let compiled =
    if report_diags ~file ~source ~fmt:diag_fmt ~werror diags
         (compiled <> None)
    then compiled
    else None
  in
  let compiled = match compiled with Some c -> c | None -> exit 1 in
  let inputs = Req.random_inputs ~seed arg_types in
  current_phase := "simulate";
  let profiling = profile || profile_json <> None in
  let result, prof_snap =
    match
      with_compile_timeout timeout (fun () ->
          if profiling then
            let r, snap = C.run_profiled ?fuel compiled inputs in
            (r, Some snap)
          else (C.run ?fuel compiled inputs, None))
    with
    | result -> result
    | exception e -> (
      (* Guardrail traps and runtime failures are structured program
         diagnostics, not driver crashes: render them in the requested
         format and use the diagnostics exit code. *)
      match trap_diag e with
      | Some d ->
        print_diag ~file ~source diag_fmt d;
        exit 1
      | None -> raise e)
  in
  if show_output && result.I.output <> "" then begin
    print_string result.I.output;
    print_newline ()
  end;
  List.iteri
    (fun i ret ->
      match ret with
      | I.Xscalar s -> Format.printf "ret%d = %a@." i V.pp_scalar s
      | I.Xarray a ->
        let n = Array.length a in
        let shown = min n 8 in
        Format.printf "ret%d = [%s%s] (%d elements)@." i
          (String.concat ", "
             (List.init shown (fun j ->
                  Format.asprintf "%a" V.pp_scalar a.(j))))
          (if n > shown then ", ..." else "")
          n)
    result.I.rets;
  Printf.printf "cycles: %d  (mode: %s, target: %s)\n" result.I.cycles
    (Masc_asip.Cost_model.mode_name config.C.mode)
    isa.Masc_asip.Isa.tname;
  Printf.printf "dynamic instructions: %d\n" result.I.dyn_instrs;
  print_endline "cycle breakdown:";
  List.iter
    (fun (cls, cycles) ->
      Printf.printf "  %-12s %10d (%.1f%%)\n" cls cycles
        (100.0 *. float_of_int cycles /. float_of_int (max 1 result.I.cycles)))
    result.I.histogram;
  (match prof_snap with
  | Some snap ->
    if profile then print_string (Masc_obs.Profile.render ~source snap);
    (match profile_json with
    | Some path ->
      write_file path (Masc_obs.Profile.to_json snap);
      Printf.eprintf "profile: wrote %s\n" path
    | None -> ())
  | None -> ());
  if opt_stats then prerr_string (C.opt_stats_dump compiled)

(* ---- batch ---- *)

let do_batch reqfile jobs target isa_file cache_dir timeout quarantine summary
    journal heartbeat trace metrics =
  handle_errors @@ fun () ->
  setup_telemetry ~journal ~trace ~metrics ();
  let isa = resolve_target target isa_file in
  install_cache_dir cache_dir;
  let text =
    match reqfile with
    | "-" -> In_channel.input_all In_channel.stdin
    | path -> read_file path
  in
  current_phase := "batch";
  let items = Batch.parse ~default_isa:isa text in
  if items = [] then
    usage "no requests in %s" (if reqfile = "-" then "stdin" else reqfile);
  let policy = { Req.quarantine_after = quarantine; timeout_ms = timeout } in
  let jobs = if jobs <= 0 then Masc.Parallel.default_jobs () else jobs in
  (* --heartbeat: a sampling domain prints a [masc-health] line to
     stderr every MS, fed by per-outcome callbacks from the worker
     domains and by cache-counter deltas from the metrics registry. A
     final line always prints after the batch, so even a batch shorter
     than one period reports its health. *)
  let health = Masc_obs.Health.create () in
  let completed = Atomic.make 0 in
  let total = List.length items in
  let on_outcome =
    match heartbeat with
    | None -> None
    | Some _ ->
      Some
        (fun (o : Req.outcome) ->
          Masc_obs.Health.observe health
            ~now_ms:(Masc_obs.Health.now_ms ())
            ~ok:(Req.status_class o.Req.o_status = "ok")
            ~latency_ms:o.Req.o_latency_ms;
          Atomic.incr completed)
  in
  let feed_cache =
    let seen_hits = ref 0 and seen_misses = ref 0 in
    fun now_ms ->
      let counter name =
        int_of_float (Option.value ~default:0.0 (Masc_obs.Metrics.get name))
      in
      let feed seen n hit =
        for _ = !seen + 1 to n do
          Masc_obs.Health.observe_cache health ~now_ms ~hit
        done;
        seen := max !seen n
      in
      feed seen_hits (counter "compile.cache_hits") true;
      feed seen_misses (counter "compile.cache_misses") false
  in
  let heartbeat_line () =
    let now_ms = Masc_obs.Health.now_ms () in
    feed_cache now_ms;
    Printf.eprintf "%s\n%!"
      (Masc_obs.Health.render
         ~done_count:(Atomic.get completed)
         ~total
         (Masc_obs.Health.stats health ~now_ms))
  in
  let hb_stop = Atomic.make false in
  let hb_domain =
    match heartbeat with
    | None -> None
    | Some ms ->
      Some
        (Domain.spawn (fun () ->
             let period_s = Float.max 0.001 (ms /. 1000.0) in
             (* Sleep in short slices so the batch's final join is not
                held hostage by a long --heartbeat period. *)
             let rec wait remaining =
               if (not (Atomic.get hb_stop)) && remaining > 0.0 then begin
                 let slice = Float.min 0.05 remaining in
                 Unix.sleepf slice;
                 wait (remaining -. slice)
               end
             in
             while not (Atomic.get hb_stop) do
               wait period_s;
               if not (Atomic.get hb_stop) then heartbeat_line ()
             done))
  in
  let outcomes =
    Fun.protect
      ~finally:(fun () ->
        Atomic.set hb_stop true;
        Option.iter Domain.join hb_domain;
        if heartbeat <> None then heartbeat_line ())
      (fun () -> Batch.run ~jobs ?on_outcome ~policy items)
  in
  (* Per-request lines in command-line order, whatever order the pool
     finished them in; summary counts last. *)
  List.iteri
    (fun i o -> print_endline (Batch.render_line ~index:i o))
    outcomes;
  let count cls =
    List.length
      (List.filter
         (fun (o : Req.outcome) -> Req.status_class o.Req.o_status = cls)
         outcomes)
  in
  Printf.printf
    "batch: total=%d ok=%d rejected=%d trapped=%d timeout=%d quarantined=%d \
     crashed=%d invalid=%d\n"
    (List.length outcomes) (count "ok") (count "rejected") (count "trapped")
    (count "timeout") (count "quarantined") (count "crashed")
    (count "invalid");
  (match summary with
  | Some path ->
    write_file path (Batch.summary_json outcomes);
    Printf.eprintf "summary: wrote %s\n" path
  | None -> ());
  (* Quarantined requests are *reported*, not silently failed: the
     batch as a whole still succeeds, matching the soak contract
     (every request succeeds or is quarantined with a reason). *)
  if List.length outcomes - count "ok" - count "quarantined" > 0 then exit 1

(* ---- bench diff ---- *)

module BD = Masc_obs.Bench_diff

let do_bench_diff old_file new_file json_out =
  handle_errors @@ fun () ->
  current_phase := "bench-diff";
  let old_text = read_file old_file in
  let new_text = read_file new_file in
  match BD.diff ~old_text ~new_text with
  | Error msg -> usage "bench diff: %s" msg
  | Ok v ->
    print_string (BD.render_text v);
    (match json_out with
    | Some path ->
      write_file path (BD.render_json v);
      Printf.eprintf "bench-diff: wrote %s\n" path
    | None -> ());
    if not v.BD.v_ok then exit 1

(* ---- targets / kernels ---- *)

let do_targets () =
  List.iter
    (fun (t : Masc_asip.Isa.t) ->
      Format.printf "%a@." Masc_asip.Isa.pp t)
    Masc_asip.Targets.all

let do_kernels () =
  List.iter
    (fun (k : Masc_kernels.Kernels.kernel) ->
      Printf.printf "%-8s %s (%d MATLAB lines, ~%d arithmetic ops)\n"
        k.Masc_kernels.Kernels.kname k.Masc_kernels.Kernels.description
        k.Masc_kernels.Kernels.matlab_lines k.Masc_kernels.Kernels.ops_estimate)
    (Masc_kernels.Kernels.all ())

(* ---- cmdliner wiring ---- *)

let file_arg =
  Arg.(required & pos 0 (some file) None & info [] ~docv:"FILE.m" ~doc:"MATLAB source file")

let files_arg =
  Arg.(non_empty & pos_all file []
       & info [] ~docv:"FILE.m..."
           ~doc:"MATLAB source file(s); several files enter batch mode \
                 (each compiles to a sibling FILE.c, in parallel with \
                 $(b,--jobs))")

let jobs_arg =
  Arg.(value & opt int 1
       & info [ "jobs"; "j" ] ~docv:"N"
           ~doc:"Compile batch inputs on N domains (0 = all cores)")

let opt_stats_arg =
  Arg.(value & flag
       & info [ "opt-stats" ]
           ~doc:"Print the pass manager's per-pass runs/changed/skipped \
                 counters to stderr")

let entry_arg =
  Arg.(value & opt (some string) None
       & info [ "entry"; "e" ] ~docv:"NAME"
           ~doc:"Entry function (default: the file's base name)")

let args_arg =
  Arg.(value & opt string ""
       & info [ "args" ] ~docv:"SPEC"
           ~doc:"Entry argument types, e.g. 'double:1x1024,double:1x32,complex:8x8,double'")

let target_arg =
  Arg.(value & opt string "dsp8"
       & info [ "target"; "t" ] ~docv:"NAME"
           ~doc:"Built-in target (scalar, dsp4, dsp8, dsp16, dsp8_simd_only, dsp8_cplx_only)")

let isa_arg =
  Arg.(value & opt (some file) None
       & info [ "isa" ] ~docv:"FILE.isa"
           ~doc:"Custom target description file (overrides --target)")

let opt_arg =
  Arg.(value & opt int 2 & info [ "O" ] ~docv:"LEVEL" ~doc:"Optimization level 0-2")

let coder_arg =
  Arg.(value & flag
       & info [ "coder" ]
           ~doc:"Emit MATLAB-Coder-style baseline code (dynamic descriptors, \
                 bounds checks, no custom instructions)")

let no_vec_arg =
  Arg.(value & flag & info [ "no-vectorize" ] ~doc:"Disable SIMD vectorization")

let no_cplx_arg =
  Arg.(value & flag
       & info [ "no-complex" ] ~doc:"Disable complex-ISE selection")

let output_arg =
  Arg.(value & opt (some string) None
       & info [ "o"; "output" ] ~docv:"FILE.c" ~doc:"Output C file (default: stdout)")

let header_arg =
  Arg.(value & flag
       & info [ "emit-header" ] ~doc:"Also write masc_runtime.h next to the output")

let dump_arg =
  Arg.(value & flag
       & info [ "dump-stages" ]
           ~doc:"Print every compilation stage (typed AST, MIR before/after, C)")

let seed_arg =
  Arg.(value & opt int 42 & info [ "seed" ] ~docv:"N" ~doc:"Input generator seed")

let show_output_arg =
  Arg.(value & flag & info [ "show-output" ] ~doc:"Print disp/fprintf output")

let diag_format_arg =
  Arg.(value
       & opt (enum [ ("text", Text); ("json", Json) ]) Text
       & info [ "diag-format" ] ~docv:"FMT"
           ~doc:"Diagnostic rendering on stderr: $(b,text) (caret \
                 snippets) or $(b,json) (one object per line)")

let werror_arg =
  Arg.(value & flag
       & info [ "Werror" ] ~doc:"Treat warnings as errors (exit 1)")

let trace_arg =
  Arg.(value & opt (some string) None
       & info [ "trace" ] ~docv:"FILE.json"
           ~doc:"Record tracing spans for every compiler stage, pass and \
                 simulation; write Chrome trace_event JSON (load in \
                 chrome://tracing or Perfetto) to $(docv) and a merged \
                 span-tree summary to stderr")

let metrics_arg =
  Arg.(value & flag
       & info [ "metrics" ]
           ~doc:"Dump the process-wide metrics registry (pass scheduler \
                 counters, diagnostics, compile-cache hits, simulation \
                 totals, GC) to stderr on exit")

let profile_arg =
  Arg.(value & flag
       & info [ "profile" ]
           ~doc:"Profile the simulation: attribute simulated cycles and \
                 dynamic instructions to MATLAB source lines, opcode \
                 classes and intrinsics, and print a hot-line report \
                 (per-line sums equal the total cycle count exactly)")

let profile_json_arg =
  Arg.(value & opt (some string) None
       & info [ "profile-json" ] ~docv:"FILE.json"
           ~doc:"Write the simulation profile as JSON to $(docv)")

(* A limit of zero or less cannot be met by any request: it would trap,
   time out or quarantine every one. Refuse it as a usage error. *)
let positive conv zero =
  let parse s =
    match Arg.conv_parser conv s with
    | Ok v when compare v zero > 0 -> Ok v
    | Ok _ -> Error (`Msg (Printf.sprintf "%s is not positive" s))
    | Error _ as e -> e
  in
  Arg.conv (parse, Arg.conv_printer conv)

let pos_int = positive Arg.int 0
let pos_float = positive Arg.float 0.0

let fuel_arg =
  Arg.(value & opt (some pos_int) None
       & info [ "fuel" ] ~docv:"N"
           ~doc:"Dynamic-instruction budget for the simulator (default \
                 1e9); exceeding it raises a structured trap instead of \
                 hanging")

let cache_dir_arg =
  Arg.(value & opt (some string) None
       & info [ "cache-dir" ] ~docv:"DIR"
           ~doc:"Persistent compile cache directory (crash-safe, \
                 content-addressed, shared across processes); corrupt \
                 entries are detected, counted and recompiled")

let timeout_arg =
  Arg.(value & opt (some pos_float) None
       & info [ "compile-timeout" ] ~docv:"MS"
           ~doc:"Wall-clock budget per work item, in milliseconds; \
                 cancellation is cooperative at pass/stage boundaries \
                 and every 1024 simulated instructions")

let batch_file_arg =
  Arg.(value & pos 0 string "-"
       & info [] ~docv:"REQFILE"
           ~doc:"Request file, one request per line ('-' or absent: \
                 stdin). Line grammar: <run|compile> <kernel:NAME|FILE.m> \
                 [args=SPEC] [entry=NAME] [target=NAME] [seed=N] [fuel=N] \
                 [O=N] [coder] [no-vectorize] [no-complex]; '#' comments")

let quarantine_arg =
  Arg.(value & opt pos_int 3
       & info [ "quarantine-after" ] ~docv:"K"
           ~doc:"Open the per-input circuit breaker after K consecutive \
                 timeouts or crashes of the same input")

let summary_arg =
  Arg.(value & opt (some string) None
       & info [ "summary" ] ~docv:"FILE.json"
           ~doc:"Write the batch JSON summary (per-request outcomes, \
                 latency percentiles, timeout/quarantine and \
                 cache counters) to $(docv)")

let journal_arg =
  Arg.(value & opt (some string) None
       & info [ "journal" ] ~docv:"FILE.jsonl"
           ~doc:"Stream the request-correlated flight recorder to \
                 $(docv) as JSONL, one flushed line per event: request \
                 lifecycle, deadline hits, cache traffic, quarantine \
                 transitions, traps")

let heartbeat_arg =
  Arg.(value & opt (some pos_float) None
       & info [ "heartbeat" ] ~docv:"MS"
           ~doc:"Print a [masc-health] status line (req/s, error rate, \
                 cache hit rate, windowed p50/p99 latency, progress) to \
                 stderr every $(docv) milliseconds, and once after the \
                 batch")

let bench_old_arg =
  Arg.(required & pos 0 (some file) None
       & info [] ~docv:"OLD.json" ~doc:"Baseline bench report")

let bench_new_arg =
  Arg.(required & pos 1 (some file) None
       & info [] ~docv:"NEW.json" ~doc:"Candidate bench report")

let bench_json_arg =
  Arg.(value & opt (some string) None
       & info [ "json" ] ~docv:"FILE.json"
           ~doc:"Also write the verdict as JSON to $(docv)")

(* The documented exit-code convention; cmdliner's own codes are folded
   into it at the bottom of [main]. *)
let exits =
  [ Cmd.Exit.info 0 ~doc:"on success.";
    Cmd.Exit.info 1
      ~doc:"on reported errors (or warnings under $(b,--Werror)), \
            including simulator traps.";
    Cmd.Exit.info 2 ~doc:"on command-line usage errors.";
    Cmd.Exit.info 3 ~doc:"on an internal compiler error." ]

let compile_cmd =
  let doc = "compile a MATLAB file to ANSI C with ASIP intrinsics" in
  Cmd.v
    (Cmd.info "compile" ~doc ~exits)
    Term.(
      const do_compile $ files_arg $ entry_arg $ args_arg $ target_arg
      $ isa_arg $ opt_arg $ coder_arg $ no_vec_arg $ no_cplx_arg $ output_arg
      $ header_arg $ dump_arg $ opt_stats_arg $ jobs_arg $ cache_dir_arg
      $ timeout_arg $ diag_format_arg $ werror_arg $ trace_arg $ metrics_arg)

let run_cmd =
  let doc = "compile and execute on the cycle-accounting ASIP simulator" in
  Cmd.v
    (Cmd.info "run" ~doc ~exits)
    Term.(
      const do_run $ file_arg $ entry_arg $ args_arg $ target_arg $ isa_arg
      $ opt_arg $ coder_arg $ no_vec_arg $ no_cplx_arg $ seed_arg
      $ show_output_arg $ opt_stats_arg $ cache_dir_arg $ timeout_arg
      $ diag_format_arg $ werror_arg $ fuel_arg $ trace_arg $ metrics_arg
      $ profile_arg $ profile_json_arg)

let batch_cmd =
  let doc =
    "execute newline-framed compile/run requests through the service \
     core"
  in
  Cmd.v
    (Cmd.info "batch" ~doc ~exits)
    Term.(
      const do_batch $ batch_file_arg $ jobs_arg $ target_arg $ isa_arg
      $ cache_dir_arg $ timeout_arg $ quarantine_arg $ summary_arg
      $ journal_arg $ heartbeat_arg $ trace_arg $ metrics_arg)

let bench_cmd =
  let diff_cmd =
    let doc =
      "compare two bench reports; exit 1 when a cycle table or the \
       speedup matrix changes or goes missing"
    in
    Cmd.v
      (Cmd.info "diff" ~doc ~exits)
      Term.(
        const do_bench_diff $ bench_old_arg $ bench_new_arg $ bench_json_arg)
  in
  Cmd.group
    (Cmd.info "bench" ~doc:"bench report tooling (regression gate)" ~exits)
    [ diff_cmd ]

let targets_cmd =
  Cmd.v
    (Cmd.info "targets" ~doc:"list built-in target descriptions" ~exits)
    Term.(const do_targets $ const ())

let kernels_cmd =
  Cmd.v
    (Cmd.info "kernels" ~doc:"list the bundled benchmark kernels" ~exits)
    Term.(const do_kernels $ const ())

let () =
  let doc = "retargetable MATLAB-to-C compiler for ASIPs" in
  let info = Cmd.info "mascc" ~version:"1.0.0" ~doc ~exits in
  let code =
    Cmd.eval ~catch:false
      (Cmd.group info
         [ compile_cmd; run_cmd; batch_cmd; bench_cmd; targets_cmd;
           kernels_cmd ])
  in
  (* Fold cmdliner's reserved codes into the documented convention:
     124 (cli error) -> 2, 125 (internal) -> 3. *)
  exit (match code with 124 -> 2 | 125 -> 3 | c -> c)
