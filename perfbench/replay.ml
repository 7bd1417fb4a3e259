(* Staged replay of [Masc.Compiler.compile] + [c_source] through each
   module's public entry point, one span per stage and one per pass run,
   with the work counts of each layer.

   [cleanup_passes] is a copy of the compiler's private post-vectorize
   schedule. The traced run compares the replay's C with the compiler's
   own for every program (Layers.pass), so a pipeline change that this
   copy misses stops the run instead of skewing the per-layer numbers. *)

module C = Masc.Compiler
module P = Masc_opt.Pipeline
module Mir = Masc_mir.Mir

let cleanup_passes =
  [ ("const-fold", Masc_opt.Const_fold.run);
    ("copy-prop", Masc_opt.Copy_prop.run); ("cse", Masc_opt.Cse.run);
    ("licm", Masc_opt.Licm.run); ("dce", Masc_opt.Dce.run) ]

let rec instrs (b : Mir.block) =
  List.fold_left
    (fun n (i : Mir.instr) ->
      n + 1
      +
      match i.Mir.idesc with
      | Mir.Iif (_, a, b) -> instrs a + instrs b
      | Mir.Iloop l -> instrs l.Mir.body
      | Mir.Iwhile { cond_block; body; _ } -> instrs cond_block + instrs body
      | _ -> 0)
    0 b

(* Token counts are taken outside the spans, once per distinct source. *)
let token_counts : (string, int) Hashtbl.t = Hashtbl.create 64
let token_lock = Mutex.create ()

let tokens source =
  Mutex.protect token_lock (fun () ->
      match Hashtbl.find_opt token_counts source with
      | Some n -> n
      | None ->
        let n = List.length (Masc_frontend.Lexer.tokenize source) in
        Hashtbl.replace token_counts source n;
        n)

let fixpoint stage passes mir =
  let timed (name, pass) =
    (name, fun f -> Spans.span (Printf.sprintf "opt.%s.%s" stage name) (fun () -> pass f))
  in
  let mir, stats = P.run_fixpoint (List.map timed passes) mir in
  let sum f = float_of_int (List.fold_left (fun a s -> a + f s) 0 stats) in
  Spans.count (Printf.sprintf "opt.%s_runs" stage) (sum (fun s -> s.P.runs));
  Spans.count
    (Printf.sprintf "opt.%s_changed" stage)
    (sum (fun s -> s.P.changed));
  mir

let compile (config : C.config) ~source ~entry ~arg_types =
  let span = Spans.span and count name v = Spans.count name (float_of_int v) in
  count "frontend.tokens" (tokens source);
  let ast =
    span "frontend.parse" (fun () -> Masc_frontend.Parser.parse_program source)
  in
  let typed =
    span "sema.infer" (fun () ->
        Masc_sema.Infer.infer_program ast ~entry ~arg_types)
  in
  let mir = span "mir.lower" (fun () -> Masc_mir.Lower.lower_program typed) in
  count "mir.instrs_lowered" (instrs mir.Mir.body);
  (* At O0 the optimize stage has no passes; the replay skips it so the
     opt metrics describe only compiles that optimize. *)
  let mir =
    if config.C.opt_level = P.O0 then mir
    else
      span "opt.optimize" (fun () ->
          fixpoint "pass" (P.passes config.C.opt_level) mir)
  in
  let mir =
    if not config.C.vectorize then mir
    else
      let mir, s =
        span "vectorize.simd" (fun () ->
            Masc_vectorize.Vectorizer.run config.C.isa mir)
      in
      count "vectorize.loops"
        (s.Masc_vectorize.Vectorizer.map_loops
        + s.Masc_vectorize.Vectorizer.reduction_loops);
      mir
  in
  let mir =
    if not config.C.select_complex then mir
    else
      let mir, s =
        span "vectorize.complex" (fun () ->
            Masc_vectorize.Complex_sel.run config.C.isa mir)
      in
      count "vectorize.complex_ops"
        (s.Masc_vectorize.Complex_sel.cmul + s.Masc_vectorize.Complex_sel.cmac
       + s.Masc_vectorize.Complex_sel.cadd);
      mir
  in
  let mir =
    if config.C.opt_level = P.O0 then mir
    else span "opt.cleanup" (fun () -> fixpoint "cleanup" cleanup_passes mir)
  in
  span "mir.verify" (fun () -> Masc_mir.Verify.check mir);
  count "mir.instrs_final" (instrs mir.Mir.body);
  let c =
    span "codegen.emit" (fun () ->
        Masc_codegen.Emit.program ~isa:config.C.isa ~mode:config.C.mode mir)
  in
  count "codegen.c_bytes" (String.length c);
  c

(* The compile stages whose spans [core.unstaged_us] subtracts from the
   whole [Compiler.compile] call (emission is not part of it). *)
let stages =
  [ "frontend.parse"; "sema.infer"; "mir.lower"; "opt.optimize";
    "vectorize.simd"; "vectorize.complex"; "opt.cleanup"; "mir.verify" ]

(* One simulation through [Plan.execute], with its cycle, instruction
   and allocation counts. *)
let execute plan inputs =
  let w0 = Gc.minor_words () in
  let r = Spans.span "vm.execute" (fun () -> Masc_vm.Plan.execute plan inputs) in
  Spans.count "vm.kwords_per_run" ((Gc.minor_words () -. w0) /. 1000.0);
  Spans.count "vm.cycles" (float_of_int r.Masc_vm.Exec.cycles);
  Spans.count "vm.instrs" (float_of_int r.Masc_vm.Exec.dyn_instrs);
  r
