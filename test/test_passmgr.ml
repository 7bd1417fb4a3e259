(* Pass-manager and batch-compilation tests: fixpoint idempotence over
   the real kernels, the domain pool, and the content-addressed compile
   cache. *)

module Mir = Masc_mir.Mir
module K = Masc_kernels.Kernels
module P = Masc_opt.Pipeline
module C = Masc.Compiler

let lower_kernel (k : K.kernel) =
  Masc_mir.Lower.lower_program
    (Masc_sema.Infer.infer_source k.K.source ~entry:k.K.entry
       ~arg_types:k.K.arg_types)

(* The fixpoint contract, checked on every bundled kernel at O2:
   (a) running the pipeline twice pretty-prints identically to once, and
   (b) on the pipeline's output every pass returns a physically equal
   root — i.e. the schedule really converged and the passes really are
   sharing-preserving (a pass that reallocated an unchanged function
   would fail the [==]). *)
let test_fixpoint_idempotent () =
  List.iter
    (fun (k : K.kernel) ->
      let f0 = lower_kernel k in
      let f1 = P.optimize P.O2 f0 in
      let f2 = P.optimize P.O2 f1 in
      Alcotest.(check string)
        (k.K.kname ^ ": optimize twice = once")
        (Masc_mir.Mir_pp.func_to_string f1)
        (Masc_mir.Mir_pp.func_to_string f2);
      List.iter
        (fun (name, pass) ->
          Alcotest.(check bool)
            (Printf.sprintf "%s: %s is a no-op on the fixpoint" k.K.kname name)
            true
            (pass f1 == f1))
        (P.passes P.O2))
    (K.all ())

(* A re-run on converged input must be skip-only: every pass ran at
   least once, none changed, and the stats account for it. *)
let test_fixpoint_stats () =
  let k = K.fir ~n:64 ~m:8 () in
  let f1 = P.optimize P.O2 (lower_kernel k) in
  let f2, stats = P.run_fixpoint (P.passes P.O2) f1 in
  Alcotest.(check bool) "no change on converged input" true (f2 == f1);
  List.iter
    (fun (s : P.pass_stat) ->
      Alcotest.(check int) (s.P.ps_name ^ " runs") 1 s.P.runs;
      Alcotest.(check int) (s.P.ps_name ^ " changed") 0 s.P.changed)
    stats

(* ---- checked cleanup ----

   The post-vectorize cleanup starts with only its seed dirty
   ([Compiler.cleanup_seed]). Checked in the style of Bonsai's
   constant_fold_and_assert_no_op: on every program below, the seeded
   cleanup must give the same code as the all-dirty one on the same
   input, and every cleanup pass must then be a no-op. *)

module V = Masc_vectorize.Vectorizer
module T = Masc_asip.Targets

type case = {
  cname : string;
  config : C.config;
  source : string;
  entry : string;
  arg_types : Masc_sema.Mtype.t list;
}

let pp = Masc_mir.Mir_pp.func_to_string
let no_loops = { V.map_loops = 0; reduction_loops = 0; run_time_trips = 0 }

(* The compiler's stages up to cleanup, through each module's public
   entry point; [check_cleanup] ties them to [Compiler.compile]. *)
let pre_cleanup c =
  let f =
    Masc_mir.Lower.lower_program
      (Masc_sema.Infer.infer_source c.source ~entry:c.entry
         ~arg_types:c.arg_types)
  in
  let f, opt_stats = P.optimize_stats c.config.C.opt_level f in
  let f, vec =
    if c.config.C.vectorize then V.run c.config.C.isa f
    else (f, no_loops)
  in
  let f =
    if c.config.C.select_complex then
      fst (Masc_vectorize.Complex_sel.run c.config.C.isa f)
    else f
  in
  (f, opt_stats, vec)

(* [Error] carries the failed check with the MIR on both sides. *)
let check_cleanup seed c =
  let input, opt_stats, vec = pre_cleanup c in
  let seeded, _ =
    P.run_fixpoint ~dirty:(seed opt_stats vec) C.cleanup_passes input
  in
  let full, _ = P.run_fixpoint C.cleanup_passes input in
  if pp seeded <> pp full then
    Error
      (Printf.sprintf
         "%s: seeded cleanup [%s] differs from the all-dirty one\n\
          --- all-dirty\n%s--- seeded\n%s"
         c.cname
         (String.concat " " (seed opt_stats vec))
         (pp full) (pp seeded))
  else
    match
      List.find_opt (fun (_, pass) -> pass seeded != seeded) C.cleanup_passes
    with
    | Some (name, pass) ->
      Error
        (Printf.sprintf
           "%s: %s is not a no-op after cleanup\n--- before\n%s--- after\n%s"
           c.cname name (pp seeded) (pp (pass seeded)))
    | None ->
      let compiled =
        C.compile c.config ~source:c.source ~entry:c.entry
          ~arg_types:c.arg_types
      in
      if pp compiled.C.mir = pp seeded then Ok ()
      else
        Error
          (Printf.sprintf
             "%s: the staged replay drifted from Compiler.compile\n\
              --- compile\n%s--- replay\n%s"
             c.cname (pp compiled.C.mir) (pp seeded))

let levels = [ P.O1; P.O2 ]

let config isa level = { (C.proposed ~isa ()) with C.opt_level = level }

let kernel_cases () =
  List.concat_map
    (fun (k : K.kernel) ->
      List.concat_map
        (fun (isa : Masc_asip.Isa.t) ->
          List.map
            (fun level ->
              { cname =
                  Printf.sprintf "%s/%s/%s" k.K.kname isa.Masc_asip.Isa.tname
                    (P.level_name level);
                config = config isa level; source = k.K.source;
                entry = k.K.entry; arg_types = k.K.arg_types })
            levels)
        T.all)
    (K.all ())

(* The compile-large programs of seed 1, from the benchmark's own
   generator (copied in by test/dune); large256.m is gen036. *)
let generated_cases () =
  List.concat_map
    (fun (entry, statements, source) ->
      List.map
        (fun level ->
          { cname = Printf.sprintf "%s-s%d/%s" entry statements
                (P.level_name level);
            config = config T.dsp8 level; source; entry;
            arg_types = Gen.arg_types })
        levels)
    (Gen.pool ~seed:1)

(* Loops whose trip count is an int argument: the vectorizer emits the
   run-time strip-mine prologue, and [0:n-1] makes [vn = sub hi, lo]
   fold to a move. *)
let dynamic_cases () =
  let vec = Masc_sema.Mtype.row_vector Masc_sema.Mtype.Double 64 in
  let n = Masc_sema.Mtype.int_ in
  List.concat_map
    (fun (entry, arg_types, source) ->
      List.concat_map
        (fun (isa : Masc_asip.Isa.t) ->
          List.map
            (fun level ->
              { cname =
                  Printf.sprintf "%s/%s/%s" entry isa.Masc_asip.Isa.tname
                    (P.level_name level);
                config = config isa level; source; entry; arg_types })
            levels)
        T.all)
    [ ( "dyn_map", [ vec; n ],
        {|function y = dyn_map(x, n)
y = zeros(1, 64);
for i = 1:n
  y(i) = x(i) * 3 + 1;
end
end
|} );
      ( "dyn_map0", [ vec; n ],
        {|function y = dyn_map0(x, n)
y = zeros(1, 64);
for i = 0:n-1
  y(i+1) = x(i+1) * 3 + 1;
end
end
|} );
      ( "dyn_dot0", [ vec; vec; n ],
        {|function s = dyn_dot0(x, w, n)
s = 0;
for i = 0:n-1
  s = s + x(i+1) * w(i+1);
end
end
|} );
      (* [n - k] is available in the loop's segment before the
         vectorizer's prologue recomputes it as [vn = sub hi, lo], and
         only cse can merge the two. The program has no map loop: the
         broadcast a zero fill hoists would re-dirty cse anyway. *)
      ( "dyn_pre", [ vec; vec; n; n ],
        {|function s = dyn_pre(x, w, n, k)
d = n - k;
s = x(1) * d;
for i = k:n
  s = s + x(i) * w(i);
end
end
|} ) ]

(* Invariants that need licm to hoist more than one level: a def whose
   operand is itself hoisted, and an invariant two loops deep. Cleanup
   seeds no licm where nothing vectorizes ([scalar], [dsp8_cplx_only]),
   so at O2 the optimize stage must leave none of them in a loop. *)
let invariant_cases () =
  let vec = Masc_sema.Mtype.row_vector Masc_sema.Mtype.Double 64 in
  let d = Masc_sema.Mtype.double in
  List.concat_map
    (fun (entry, arg_types, source) ->
      List.concat_map
        (fun (isa : Masc_asip.Isa.t) ->
          List.map
            (fun level ->
              { cname =
                  Printf.sprintf "%s/%s/%s" entry isa.Masc_asip.Isa.tname
                    (P.level_name level);
                config = config isa level; source; entry; arg_types })
            levels)
        T.all)
    [ ( "chain2", [ vec; d ],
        {|function y = chain2(x, a)
y = zeros(1, 64);
for i = 1:64
  t = a * 2;
  u = t + 1;
  y(i) = x(i) * u;
end
end
|} );
      ( "chain3", [ vec; d ],
        {|function y = chain3(x, a)
y = zeros(1, 64);
for i = 1:64
  t = a * 2;
  u = t + 1;
  v = u * 3;
  y(i) = x(i) * v;
end
end
|} );
      ( "nested", [ vec; d ],
        {|function y = nested(x, a)
y = zeros(1, 64);
for j = 1:4
  for i = 1:64
    y(i) = y(i) + x(i) * (a * 2);
  end
end
end
|} );
      ( "nested_chain", [ vec; d ],
        {|function y = nested_chain(x, a)
y = zeros(1, 64);
for j = 1:4
  for i = 1:64
    t = a * 2;
    u = t + 1;
    y(i) = y(i) + x(i) * u;
  end
end
end
|} ) ]

let failures seed cases =
  List.filter_map
    (fun c -> match check_cleanup seed c with Ok () -> None | Error e -> Some e)
    cases

let expect_checked cases () =
  match failures C.cleanup_seed cases with
  | [] -> ()
  | errs ->
    let first_line e =
      match String.index_opt e '\n' with
      | Some i -> String.sub e 0 i
      | None -> e
    in
    Alcotest.failf "%d of %d programs fail the checked cleanup:\n%s\n\n%s"
      (List.length errs) (List.length cases)
      (String.concat "\n" (List.map first_line errs))
      (List.hd errs)

(* The check has teeth: seeding licm alone after vectorizing (without
   const-fold) leaves the [0:n-1] strip-mine prologue unfolded, and
   seeding no cse after a run-time prologue leaves [dyn_pre]'s second
   [sub n, k]. *)
let test_licm_alone_fails () =
  let licm_alone opt_stats (vec : V.stats) =
    let rest = C.cleanup_seed opt_stats no_loops in
    if vec.V.map_loops + vec.V.reduction_loops > 0 && not (List.mem "licm" rest)
    then rest @ [ "licm" ]
    else rest
  in
  Alcotest.(check bool) "seeding licm alone fails the checked cleanup" true
    (failures licm_alone (dynamic_cases ()) <> [])

let test_no_prologue_cse_fails () =
  let no_cse opt_stats (vec : V.stats) =
    C.cleanup_seed opt_stats { vec with V.run_time_trips = 0 }
  in
  let failed = failures no_cse (dynamic_cases ()) in
  Alcotest.(check bool) "only dyn_pre fails" true
    (failed <> []
    && List.for_all (fun e -> String.starts_with ~prefix:"dyn_pre/" e) failed)

let test_parallel_map () =
  let l = List.init 100 Fun.id in
  let sq x = x * x in
  List.iter
    (fun jobs ->
      Alcotest.(check (list int))
        (Printf.sprintf "map jobs=%d preserves order" jobs)
        (List.map sq l)
        (Masc.Parallel.map ~jobs sq l))
    [ 1; 3; 8; 200 ];
  Alcotest.(check (list int)) "empty" [] (Masc.Parallel.map ~jobs:4 sq []);
  Alcotest.(check bool) "default_jobs positive" true
    (Masc.Parallel.default_jobs () >= 1)

let test_parallel_map_exn () =
  match
    Masc.Parallel.map ~jobs:4
      (fun x -> if x = 17 then failwith "boom" else x)
      (List.init 64 Fun.id)
  with
  | _ -> Alcotest.fail "expected Worker_failed"
  | exception Masc.Parallel.Worker_failed (Failure msg) ->
    Alcotest.(check string) "carries the worker's exception" "boom" msg

let test_compile_cache () =
  let k = K.fir ~n:64 ~m:8 () in
  let compile_c config =
    C.compile_cached config ~source:k.K.source ~entry:k.K.entry
      ~arg_types:k.K.arg_types
  in
  let a = compile_c (C.proposed ()) in
  let b = compile_c (C.proposed ()) in
  Alcotest.(check bool) "same key shares the compilation" true (a == b);
  let o1 = compile_c { (C.proposed ()) with C.opt_level = P.O1 } in
  Alcotest.(check bool) "opt level is part of the key" true (o1 != a);
  let base = compile_c (C.coder_baseline ()) in
  Alcotest.(check bool) "config is part of the key" true (base != a);
  (* cached and uncached compilations agree byte-for-byte *)
  let fresh =
    C.compile (C.proposed ()) ~source:k.K.source ~entry:k.K.entry
      ~arg_types:k.K.arg_types
  in
  Alcotest.(check string) "cached C = fresh C" (C.c_source fresh)
    (C.c_source a)

(* The batch path: concurrent domains compiling the same key share one
   compiled (and so one plan) and the same simulation result. *)
let test_parallel_compile_and_run () =
  let k = K.fir ~n:64 ~m:8 () in
  let results =
    Masc.Parallel.map ~jobs:4
      (fun _ ->
        let c =
          C.compile_cached (C.proposed ()) ~source:k.K.source ~entry:k.K.entry
            ~arg_types:k.K.arg_types
        in
        (C.run c (k.K.inputs ())).Masc_vm.Interp.cycles)
      (List.init 8 Fun.id)
  in
  match results with
  | first :: rest ->
    List.iter (Alcotest.(check int) "all domains agree on cycles" first) rest
  | [] -> Alcotest.fail "no results"

let suites =
  [ ( "pass manager",
      [ Alcotest.test_case "fixpoint idempotence (all kernels, O2)" `Quick
          test_fixpoint_idempotent;
        Alcotest.test_case "converged input is skip-only" `Quick
          test_fixpoint_stats ] );
    ( "checked cleanup",
      [ Alcotest.test_case "kernels x targets x O1/O2" `Quick
          (fun () -> expect_checked (kernel_cases ()) ());
        Alcotest.test_case "compile-large programs, seed 1" `Quick
          (fun () -> expect_checked (generated_cases ()) ());
        Alcotest.test_case "int trip counts x targets x O1/O2" `Quick
          (fun () -> expect_checked (dynamic_cases ()) ());
        Alcotest.test_case "multi-level invariants x targets x O1/O2" `Quick
          (fun () -> expect_checked (invariant_cases ()) ());
        Alcotest.test_case "seeding licm alone fails" `Quick
          test_licm_alone_fails;
        Alcotest.test_case "seeding no prologue cse fails" `Quick
          test_no_prologue_cse_fails ] );
    ( "parallel+cache",
      [ Alcotest.test_case "Parallel.map" `Quick test_parallel_map;
        Alcotest.test_case "Parallel.map propagates failures" `Quick
          test_parallel_map_exn;
        Alcotest.test_case "compile cache identity" `Quick test_compile_cache;
        Alcotest.test_case "parallel compile+run agree" `Quick
          test_parallel_compile_and_run ] ) ]
