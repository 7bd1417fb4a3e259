(* Service-core tests: cooperative deadlines, crash isolation, the
   per-input breaker, and crash recovery of the persistent compile
   cache — each driven by a failure real inputs produce.

   The metrics registry is process-global, so metric assertions are
   deltas, never absolutes. *)

module Cancel = Masc_fault.Cancel
module Req = Masc_svc.Request
module Batch = Masc_svc.Batch
module C = Masc.Compiler
module K = Masc_kernels.Kernels
module Metrics = Masc_obs.Metrics

let metric name = Option.value ~default:0.0 (Metrics.get name)

let kernel name =
  match K.by_name name with
  | Some k -> k
  | None -> Alcotest.failf "missing kernel %s" name

let spec_of_kernel ?(op = Req.Run) name =
  let k = kernel name in
  {
    Req.op;
    label = "kernel:" ^ name;
    source = k.K.source;
    entry = k.K.entry;
    arg_types = k.K.arg_types;
    inputs = k.K.inputs ();
    config = C.proposed ();
    fuel = None;
  }

(* ---- cooperative deadlines ---- *)

let test_deadline_fires () =
  match
    Cancel.with_deadline ~ms:0.01 (fun () ->
        (* Burn well past 0.01ms, checking as the pipeline would. *)
        let junk = ref 0.0 in
        for i = 1 to 10_000_000 do
          junk := !junk +. float_of_int i;
          if i mod 1024 = 0 then Cancel.check ()
        done;
        !junk)
  with
  | exception Cancel.Deadline_exceeded { budget_ms } ->
    Alcotest.(check (float 0.0001)) "budget recorded" 0.01 budget_ms
  | _ -> Alcotest.fail "deadline must fire"

let test_deadline_restores () =
  Alcotest.(check bool) "unarmed outside" false (Cancel.armed ());
  let inner_armed =
    Cancel.with_deadline ~ms:10_000.0 (fun () -> Cancel.armed ())
  in
  Alcotest.(check bool) "armed inside" true inner_armed;
  Alcotest.(check bool) "restored after" false (Cancel.armed ());
  (* Nesting: the inner (tighter) deadline wins, the outer returns. *)
  let r =
    Cancel.with_deadline ~ms:10_000.0 (fun () ->
        (match
           Cancel.with_deadline ~ms:0.001 (fun () ->
               Unix.sleepf 0.002;
               Cancel.check ())
         with
        | exception Cancel.Deadline_exceeded _ -> ()
        | () -> Alcotest.fail "inner deadline must fire");
        Cancel.check ();
        (* outer budget still live *)
        42)
  in
  Alcotest.(check int) "outer survives inner expiry" 42 r

(* ---- request execution ---- *)

let test_request_ok () =
  let s = spec_of_kernel "fir" in
  let o = Req.execute ~policy:Req.default_policy s in
  (match o.Req.o_status with
  | Req.Ok_run { cycles; _ } ->
    let compiled =
      C.compile_cached s.Req.config ~source:s.Req.source ~entry:s.Req.entry
        ~arg_types:s.Req.arg_types
    in
    let direct = C.run compiled s.Req.inputs in
    Alcotest.(check int) "cycles match direct run"
      direct.Masc_vm.Interp.cycles cycles
  | st -> Alcotest.failf "expected ok, got %s" (Req.status_class st));
  Alcotest.(check int) "no retries" 0 o.Req.o_retries

let test_request_rejected_not_retried () =
  (* A deterministic diagnostic is the input behaving as specified. *)
  let s =
    {
      Req.op = Req.Compile;
      label = "bad.m";
      source = "function y = f(x)\ny = undefined_fn(x);\n";
      entry = "f";
      arg_types = [ Masc_sema.Mtype.scalar Masc_sema.Mtype.Double ];
      inputs = [];
      config = C.proposed ();
      fuel = None;
    }
  in
  let o = Req.execute ~policy:Req.default_policy s in
  (match o.Req.o_status with
  | Req.Rejected diags ->
    Alcotest.(check bool) "diags present" true (diags <> [])
  | st -> Alcotest.failf "expected rejected, got %s" (Req.status_class st));
  Alcotest.(check int) "no retries" 0 o.Req.o_retries

let test_request_timeout () =
  let s = spec_of_kernel "matmul" in
  let policy = { Req.default_policy with Req.timeout_ms = Some 0.001 } in
  let o = Req.execute ~policy s in
  match o.Req.o_status with
  | Req.Timed_out { budget_ms } ->
    Alcotest.(check (float 0.0001)) "budget" 0.001 budget_ms
  | st -> Alcotest.failf "expected timeout, got %s" (Req.status_class st)

let test_circuit_breaker () =
  (* A 1 us deadline is far below matmul's compile-plus-simulate time:
     a real, repeatable timeout. *)
  let s = spec_of_kernel "matmul" in
  let policy = { Req.quarantine_after = 2; timeout_ms = Some 0.001 } in
  let b = Req.create_breaker () in
  let cls o = Req.status_class o.Req.o_status in
  let run policy = cls (Req.execute ~breaker:b ~policy s) in
  (* A success in between resets the count: one timeout, then an
     unbounded run, then a fresh pair of timeouts to open it. *)
  Alcotest.(check string) "first timeout" "timeout" (run policy);
  Alcotest.(check string) "success closes" "ok"
    (run { policy with Req.timeout_ms = None });
  Alcotest.(check string) "timeout after reset" "timeout" (run policy);
  Alcotest.(check string) "second consecutive timeout" "timeout" (run policy);
  let o = Req.execute ~breaker:b ~policy:{ policy with Req.timeout_ms = None } s in
  (match o.Req.o_status with
  | Req.Quarantined { reason } ->
    Alcotest.(check string) "reason" "circuit open after 2 consecutive failures"
      reason
  | st -> Alcotest.failf "expected quarantined, got %s" (Req.status_class st));
  (* The breaker is per input: another kernel passes the open breaker. *)
  let o = Req.execute ~breaker:b ~policy:Req.default_policy (spec_of_kernel "fir") in
  Alcotest.(check string) "other input unaffected" "ok"
    (Req.status_class o.Req.o_status)

(* fir's parameters are doubles; binding complex values to them is a
   library-call mistake the compiler does not anticipate. *)
let mistyped_fir () =
  let s = spec_of_kernel "fir" in
  let complex_types =
    List.map (fun ty -> { ty with Masc_sema.Mtype.cplx = Masc_sema.Mtype.Complex })
      s.Req.arg_types
  in
  { s with Req.inputs = Req.random_inputs ~seed:1 complex_types }

let test_crash_isolation () =
  let o = Req.execute ~policy:Req.default_policy (mistyped_fir ()) in
  Alcotest.(check string) "isolated as crashed" "crashed"
    (Req.status_class o.Req.o_status);
  (* In a batch, the crash costs exactly its own slot. *)
  let item i spec =
    { Batch.bx_index = i; bx_label = spec.Req.label; bx_op = spec.Req.op;
      bx_parsed = Ok spec }
  in
  let items =
    [ item 0 (spec_of_kernel "iir"); item 1 (mistyped_fir ());
      item 2 (spec_of_kernel "fir") ]
  in
  let outcomes = Batch.run ~jobs:2 ~policy:Req.default_policy items in
  Alcotest.(check (list string)) "neighbours complete" [ "ok"; "crashed"; "ok" ]
    (List.map (fun o -> Req.status_class o.Req.o_status) outcomes)

(* ---- persistent cache ---- *)

let tmpdir () =
  let d =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "masc_svc_test_%d_%d" (Unix.getpid ())
         (int_of_float (Unix.gettimeofday () *. 1e6) land 0xFFFFFF))
  in
  d

let with_cache_dir f =
  let dir = tmpdir () in
  (* Earlier tests populate the in-memory tier; drop it so this test's
     compiles actually reach the disk tier under [dir]. *)
  C.clear_memory_cache ();
  C.set_cache_dir (Some dir);
  Fun.protect
    ~finally:(fun () ->
      C.set_cache_dir None;
      C.clear_memory_cache ();
      ignore (Sys.command (Printf.sprintf "rm -rf %s" (Filename.quote dir))))
    (fun () -> f dir)

let entry_paths dir =
  let acc = ref [] in
  if Sys.file_exists dir then
    Array.iter
      (fun shard ->
        let sdir = Filename.concat dir shard in
        if Sys.is_directory sdir then
          Array.iter
            (fun f ->
              if Filename.check_suffix f ".masc" then
                acc := Filename.concat sdir f :: !acc)
            (Sys.readdir sdir))
      (Sys.readdir dir);
  List.sort compare !acc

let compile_fir () =
  let k = kernel "fir" in
  C.compile_file_cached (C.proposed ()) ~source:k.K.source ~entry:k.K.entry
    ~arg_types:k.K.arg_types

let c_of = function
  | Some compiled, _ -> C.c_source compiled
  | None, _ -> Alcotest.fail "fir must compile"

let test_disk_cache_roundtrip () =
  with_cache_dir (fun dir ->
      let cold = c_of (compile_fir ()) in
      Alcotest.(check int) "one entry on disk" 1
        (List.length (entry_paths dir));
      let hits0 = metric "cache.disk_hits" in
      C.clear_memory_cache ();
      let warm = c_of (compile_fir ()) in
      Alcotest.(check string) "warm hit bit-identical" cold warm;
      Alcotest.(check (float 0.0)) "served from disk" (hits0 +. 1.0)
        (metric "cache.disk_hits"))

(* Corrupt one on-disk entry with [mutate], then recompile: the entry
   must be detected, counted, deleted and recompiled bit-identically —
   never surfaced as an error. *)
let corruption_case name mutate =
  with_cache_dir (fun dir ->
      let cold = c_of (compile_fir ()) in
      let path =
        match entry_paths dir with
        | [ p ] -> p
        | ps -> Alcotest.failf "expected 1 entry, found %d" (List.length ps)
      in
      mutate path;
      let corrupt0 = metric "cache.disk_corrupt" in
      C.clear_memory_cache ();
      let recovered = c_of (compile_fir ()) in
      Alcotest.(check string)
        (name ^ ": recovered output bit-identical to cold compile")
        cold recovered;
      Alcotest.(check bool) (name ^ ": corruption counted") true
        (metric "cache.disk_corrupt" > corrupt0);
      (* The recompile rewrote a fresh, valid entry in place. *)
      C.clear_memory_cache ();
      let hits0 = metric "cache.disk_hits" in
      let again = c_of (compile_fir ()) in
      Alcotest.(check string) (name ^ ": replacement entry serves hits") cold
        again;
      Alcotest.(check (float 0.0))
        (name ^ ": hit from replaced entry")
        (hits0 +. 1.0)
        (metric "cache.disk_hits"))

let read_bytes path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let write_bytes path s =
  let oc = open_out_bin path in
  output_string oc s;
  close_out oc

let test_cache_truncation () =
  corruption_case "truncate" (fun path ->
      let raw = read_bytes path in
      write_bytes path (String.sub raw 0 (String.length raw / 2)))

let test_cache_bitflip () =
  corruption_case "bit-flip" (fun path ->
      let raw = Bytes.of_string (read_bytes path) in
      let i = Bytes.length raw - 7 in
      Bytes.set raw i (Char.chr (Char.code (Bytes.get raw i) lxor 0x40));
      write_bytes path (Bytes.to_string raw))

let test_cache_version_skew () =
  corruption_case "version-skew" (fun path ->
      let raw = read_bytes path in
      (* Rewrite the v: header line to an old version string. *)
      let nl1 = String.index raw '\n' in
      let nl2 = String.index_from raw (nl1 + 1) '\n' in
      write_bytes path
        (String.sub raw 0 (nl1 + 1)
        ^ "v:masc-cc-0|ancient\n"
        ^ String.sub raw (nl2 + 1) (String.length raw - nl2 - 1)))

(* The layout [Compiler] marshals into a disk entry. *)
type disk_payload =
  Masc_sema.Tast.program
  * Masc_mir.Mir.func
  * Masc_mir.Mir.func
  * Masc_vectorize.Vectorizer.stats
  * Masc_vectorize.Complex_sel.stats
  * (string * Masc_opt.Pipeline.pass_stat list) list
  * Masc_frontend.Diag.t list

(* The entry check's witness is not stored: a decoded entry's MIR is
   checked again, and MIR that fails the check, as an entry written
   under looser rules can, is corruption. The entry here is rewritten
   through the cache's own writer, so its header and digest are valid;
   only its final MIR is bad: a cmul of two real constants, which the
   target's complex ISE cannot take. *)
let test_cache_entry_fails_check () =
  corruption_case "fails the entry check" (fun path ->
      let module Mir = Masc_mir.Mir in
      let raw = read_bytes path in
      let header = String.split_on_char '\n' raw in
      let field tag =
        let line = List.find (String.starts_with ~prefix:tag) header in
        String.sub line 2 (String.length line - 2)
      in
      let body_at =
        List.fold_left
          (fun at line -> at + String.length line + 1)
          0
          (List.filteri (fun i _ -> i < 5) header)
      in
      let typed, mir_raw, (mir : Mir.func), vec, cplx, opt, diags =
        (Marshal.from_string raw body_at : disk_payload)
      in
      let bad =
        { Mir.vname = "bad";
          vid = mir.Mir.next_vid;
          vty = Mir.Tscalar Mir.complex_sty }
      in
      let cmul =
        Mir.Rintrin ("cmul_f64", [ Mir.Oconst (Mir.Cf 2.0); Mir.Oconst (Mir.Cf 3.0) ])
      in
      let mir =
        { mir with
          Mir.body = Mir.instr (Mir.Idef (bad, cmul)) :: mir.Mir.body;
          next_vid = bad.Mir.vid + 1 }
      in
      Sys.remove path;
      Masc.Disk_cache.store
        ~dir:(Filename.dirname (Filename.dirname path))
        ~version:(field "v:") ~key:(field "k:")
        (Marshal.to_string
           ((typed, mir_raw, mir, vec, cplx, opt, diags) : disk_payload)
           []))

let test_cache_io_errors_are_misses () =
  (* Real I/O failures, not corruption: an entry path that is a
     directory cannot be read, and a shard path that is a file cannot
     be created. Both degrade to a miss and a recompile. *)
  with_cache_dir (fun dir ->
      let clean = c_of (compile_fir ()) in
      let path =
        match entry_paths dir with
        | [ p ] -> p
        | ps -> Alcotest.failf "expected one entry, got %d" (List.length ps)
      in
      Sys.remove path;
      Sys.mkdir path 0o755;
      let read_errors0 = metric "cache.disk_read_errors" in
      C.clear_memory_cache ();
      Alcotest.(check string) "unreadable entry recompiles" clean
        (c_of (compile_fir ()));
      Alcotest.(check (float 0.0)) "read error counted" (read_errors0 +. 1.0)
        (metric "cache.disk_read_errors");
      ignore (Sys.command (Printf.sprintf "rm -rf %s" (Filename.quote dir)));
      Out_channel.with_open_bin dir (fun _ -> ());
      let write_errors0 = metric "cache.disk_write_errors" in
      C.clear_memory_cache ();
      Alcotest.(check string) "unwritable cache still compiles" clean
        (c_of (compile_fir ()));
      Alcotest.(check (float 0.0)) "write error counted" (write_errors0 +. 1.0)
        (metric "cache.disk_write_errors"))

(* ---- batch front end ---- *)

let dsp8 = Masc_asip.Targets.dsp8

let test_batch_parse () =
  let items =
    Batch.parse ~default_isa:dsp8
      "# comment\n\
       run kernel:fir\n\
       \n\
       compile kernel:fft target=dsp4 fuel=1000\n\
       run kernel:nope\n\
       frobnicate kernel:fir\n\
       run kernel:fir bogus-flag\n\
       run kernel:fir fuel=0\n"
  in
  Alcotest.(check int) "comments and blanks skipped" 6 (List.length items);
  let ok_count =
    List.length
      (List.filter (fun i -> Result.is_ok i.Batch.bx_parsed) items)
  in
  Alcotest.(check int) "two parse, four rejected" 2 ok_count;
  match (List.nth items 0).Batch.bx_parsed with
  | Ok spec ->
    Alcotest.(check string) "label" "kernel:fir" spec.Req.label;
    Alcotest.(check bool) "run op" true (spec.Req.op = Req.Run)
  | Error e -> Alcotest.failf "first item must parse: %s" e

let test_batch_run_order_and_isolation () =
  let items =
    Batch.parse ~default_isa:dsp8
      "run kernel:fir\nrun kernel:nope\nrun kernel:iir\n"
  in
  let outcomes = Batch.run ~jobs:2 ~policy:Req.default_policy items in
  Alcotest.(check (list string)) "statuses in input order"
    [ "ok"; "invalid"; "ok" ]
    (List.map (fun o -> Req.status_class o.Req.o_status) outcomes)

let test_batch_summary_json () =
  let items = Batch.parse ~default_isa:dsp8 "run kernel:fir\n" in
  let outcomes = Batch.run ~policy:Req.default_policy items in
  let json = Batch.summary_json outcomes in
  let contains sub =
    let n = String.length sub and m = String.length json in
    let rec at i = i + n <= m && (String.sub json i n = sub || at (i + 1)) in
    at 0
  in
  List.iter
    (fun key ->
      Alcotest.(check bool) (Printf.sprintf "summary has %s" key) true
        (contains key))
    [ "\"requests\""; "\"counts\""; "\"latency_ms\""; "\"p99\"";
      "\"timeouts\""; "\"cache\""; "\"hit_rate\"" ]

(* ---- flight-recorder soak: determinism and reconstruction ----

   The CI soak workload (6 kernels x 4 targets x run+compile x 5 reps =
   240 requests), run in-process at jobs=1 so the journal's event order
   is a pure function of the batch. Two runs must produce
   byte-identical journals modulo time-valued fields, and every outcome
   must be reconstructible from the journal alone. *)

module Journal = Masc_obs.Journal

let soak_reqs =
  let b = Buffer.create 4096 in
  for _rep = 1 to 5 do
    List.iter
      (fun k ->
        List.iter
          (fun t ->
            Buffer.add_string b
              (Printf.sprintf "run kernel:%s target=%s\n" k t);
            Buffer.add_string b
              (Printf.sprintf "compile kernel:%s target=%s\n" k t))
          [ "scalar"; "dsp4"; "dsp8"; "dsp16" ])
      [ "fir"; "iir"; "fft"; "matmul"; "xcorr"; "fmdemod" ]
  done;
  Buffer.contents b

let run_soak () =
  let dir = tmpdir () in
  C.clear_memory_cache ();
  C.set_cache_dir (Some dir);
  Journal.reset ();
  Fun.protect
    ~finally:(fun () ->
      C.set_cache_dir None;
      C.clear_memory_cache ();
      ignore (Sys.command (Printf.sprintf "rm -rf %s" (Filename.quote dir))))
    (fun () ->
      let items = Batch.parse ~default_isa:dsp8 soak_reqs in
      Batch.run ~jobs:1 ~policy:Req.default_policy items)

let detail key (ev : Journal.event) = List.assoc_opt key ev.Journal.detail

let test_soak_journal () =
  Journal.enable ();
  Fun.protect ~finally:Journal.disable @@ fun () ->
  let o1 = run_soak () in
  let j1 = Journal.normalize (Journal.to_jsonl ()) in
  let o2 = run_soak () in
  let j2 = Journal.normalize (Journal.to_jsonl ()) in
  Alcotest.(check int) "240 outcomes" 240 (List.length o2);
  Alcotest.(check int) "nothing dropped from the ring" 0 (Journal.dropped ());
  let classes os = List.map (fun o -> Req.status_class o.Req.o_status) os in
  Alcotest.(check (list string)) "every request ok" (List.init 240 (fun _ -> "ok"))
    (classes o1);
  Alcotest.(check (list string)) "same batch, same outcome classes"
    (classes o1) (classes o2);
  Alcotest.(check bool) "journals byte-identical modulo timestamps" true
    (j1 = j2);
  let all = Journal.events () in
  let kinds k =
    List.length (List.filter (fun (e : Journal.event) -> e.Journal.kind = k) all)
  in
  Alcotest.(check bool) "cache traffic journaled" true
    (kinds "cache.miss" > 0 || kinds "cache.hit" > 0);
  (* Reconstruction: every outcome's story — acceptance and final
     class — must be recoverable from its rid's journal slice alone. *)
  List.iteri
    (fun i (o : Req.outcome) ->
      let evs = Journal.events_for ~rid:i in
      let count k =
        List.length
          (List.filter (fun (e : Journal.event) -> e.Journal.kind = k) evs)
      in
      Alcotest.(check int)
        (Printf.sprintf "req %d accepted exactly once" i)
        1 (count "request.accepted");
      match
        List.filter
          (fun (e : Journal.event) -> e.Journal.kind = "request.done")
          evs
      with
      | [ d ] ->
        Alcotest.(check (option string))
          (Printf.sprintf "req %d final class from journal" i)
          (Some (Req.status_class o.Req.o_status))
          (detail "class" d)
      | ds ->
        Alcotest.failf "req %d: expected exactly one request.done, got %d" i
          (List.length ds))
    o2

let suites =
  [ ( "svc deadlines",
      [ Alcotest.test_case "deadline fires" `Quick test_deadline_fires;
        Alcotest.test_case "nesting and restore" `Quick test_deadline_restores
      ] );
    ( "svc requests",
      [ Alcotest.test_case "ok run matches direct" `Quick test_request_ok;
        Alcotest.test_case "rejected not retried" `Quick
          test_request_rejected_not_retried;
        Alcotest.test_case "timeout" `Quick test_request_timeout;
        Alcotest.test_case "circuit breaker" `Quick test_circuit_breaker;
        Alcotest.test_case "crash isolation" `Quick test_crash_isolation ] );
    ( "svc persistent cache",
      [ Alcotest.test_case "disk round-trip" `Quick test_disk_cache_roundtrip;
        Alcotest.test_case "truncation recovery" `Quick test_cache_truncation;
        Alcotest.test_case "bit-flip recovery" `Quick test_cache_bitflip;
        Alcotest.test_case "version-skew recovery" `Quick
          test_cache_version_skew;
        Alcotest.test_case "entry failing the entry check recompiles" `Quick
          test_cache_entry_fails_check;
        Alcotest.test_case "I/O errors are misses" `Quick
          test_cache_io_errors_are_misses ] );
    ( "svc batch",
      [ Alcotest.test_case "line grammar" `Quick test_batch_parse;
        Alcotest.test_case "order and isolation" `Quick
          test_batch_run_order_and_isolation;
        Alcotest.test_case "summary json" `Quick test_batch_summary_json ] );
    ( "svc flight recorder",
      [ Alcotest.test_case "soak determinism and reconstruction" `Slow
          test_soak_journal ] )
  ]
