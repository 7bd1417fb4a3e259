module Isa = Masc_asip.Isa
module Cost_model = Masc_asip.Cost_model
module Targets = Masc_asip.Targets
module Diag = Masc_frontend.Diag
module Loc = Masc_frontend.Loc
module Infer = Masc_sema.Infer
module Lower = Masc_mir.Lower
module Pipeline = Masc_opt.Pipeline
module Vectorizer = Masc_vectorize.Vectorizer
module Complex_sel = Masc_vectorize.Complex_sel

type config = {
  isa : Isa.t;
  mode : Cost_model.mode;
  opt_level : Pipeline.level;
  vectorize : bool;
  select_complex : bool;
}

let proposed ?(isa = Targets.dsp8) () =
  { isa; mode = Cost_model.Proposed; opt_level = Pipeline.O2;
    vectorize = true; select_complex = true }

let coder_baseline ?(isa = Targets.scalar) () =
  { isa; mode = Cost_model.Coder; opt_level = Pipeline.O0; vectorize = false;
    select_complex = false }

type compiled = {
  config : config;
  typed : Masc_sema.Tast.program;
  mir_raw : Masc_mir.Mir.func;
  mir : Masc_mir.Mir.func;
  vec_stats : Vectorizer.stats;
  cplx_stats : Complex_sel.stats;
  opt_stats : (string * Pipeline.pass_stat list) list;
  plan_lock : Mutex.t;
  mutable plan_memo : Masc_vm.Plan.t option;
}

(* Post-vectorize cleanup: fold strip-mine arithmetic, hoist invariant
   broadcasts out of the vector loops, and drop the dead scalar
   leftovers. Driven by the same change-tracked fixpoint as the main
   optimization stage, so converged passes are skipped. *)
let cleanup_passes =
  [ ("const-fold", Masc_opt.Const_fold.run);
    ("copy-prop", Masc_opt.Copy_prop.run); ("cse", Masc_opt.Cse.run);
    ("licm", Masc_opt.Licm.run); ("dce", Masc_opt.Dce.run) ]

(* The final MIR is always verified before codegen; the two interior
   checks (post-lower, post-optimize) triple the verifier cost per
   compile for defects the final check also catches — they are worth
   paying only when bisecting which stage broke an invariant, so they
   are opt-in via MASC_VERIFY_STAGES (read eagerly, to keep the hot
   path branch-on-load). *)
let verify_stages = Sys.getenv_opt "MASC_VERIFY_STAGES" <> None

(* Internal signal: the front end recorded errors into an accumulating
   sink; the poisoned typed AST must not be lowered. Only reachable with
   a [Ctx] sink, and caught by [compile_file]. *)
exception Frontend_errors

let compile_with ?passes ~sink config ~source ~entry ~arg_types =
  (* Each stage runs inside a Masc_obs.Journal span (category "stage";
     passes inside Pipeline.optimize get "pass" spans). Free when spans
     are not recorded. *)
  let timed name f x = Pipeline.timed "stage" name f x in
  Masc_obs.Metrics.incr "compile.runs";
  let typed =
    timed "infer"
      (fun arg_types -> Infer.infer_source ~sink source ~entry ~arg_types)
      arg_types
  in
  (match sink with
  | Diag.Ctx c when Diag.error_count c > 0 -> raise Frontend_errors
  | Diag.Ctx _ | Diag.Raise -> ());
  let mir_raw = timed "lower" Lower.lower_program typed in
  if verify_stages then Masc_mir.Verify.check mir_raw;
  let mir, opt_stats =
    match passes with
    | None ->
      timed "optimize"
        (fun mir -> Pipeline.optimize_stats config.opt_level mir)
        mir_raw
    | Some ps -> Pipeline.run_fixpoint ps mir_raw
  in
  if verify_stages then Masc_mir.Verify.check mir;
  (* Degradation ladder: the SIMD and complex-ISE stages are
     optimizations, so any failure inside them degrades to the scalar
     MIR they were handed plus a warning — a missing idiom or a bug in
     either stage must never abort a compile that has a correct scalar
     form in hand. *)
  let degrade stage phase scalar zero_stats f =
    try f () with
    | Diag.Budget_exhausted _ as e -> raise e
    (* Deadline expiry must stay a timeout, not a stage failure to
       degrade over. *)
    | Masc_fault.Cancel.Deadline_exceeded _ as e -> raise e
    | e ->
      Diag.report sink Diag.Severity.Warning phase Loc.dummy
        "%s failed (%s); keeping the scalar form" stage
        (Printexc.to_string e);
      (scalar, zero_stats)
  in
  let mir, vec_stats =
    if config.vectorize then
      degrade "vectorizer" Diag.Vectorize mir
        { Vectorizer.map_loops = 0; reduction_loops = 0 }
        (fun () -> timed "vectorize" (Vectorizer.run ~sink config.isa) mir)
    else (mir, { Vectorizer.map_loops = 0; reduction_loops = 0 })
  in
  let mir, cplx_stats =
    if config.select_complex then
      degrade "complex-ISE selection" Diag.Vectorize mir
        { Complex_sel.cmul = 0; cmac = 0; cadd = 0 }
        (fun () -> timed "complex-sel" (Complex_sel.run ~sink config.isa) mir)
    else (mir, { Complex_sel.cmul = 0; cmac = 0; cadd = 0 })
  in
  let mir, cleanup_stats =
    if config.opt_level = Pipeline.O0 then (mir, [])
    else timed "cleanup" (Pipeline.run_fixpoint cleanup_passes) mir
  in
  Masc_mir.Verify.check mir;
  { config; typed; mir_raw; mir; vec_stats; cplx_stats;
    opt_stats =
      (match cleanup_stats with
      | [] -> [ ("optimize", opt_stats) ]
      | _ -> [ ("optimize", opt_stats); ("cleanup", cleanup_stats) ]);
    plan_lock = Mutex.create ();
    plan_memo = None }

let compile ?passes config ~source ~entry ~arg_types =
  compile_with ?passes ~sink:Diag.Raise config ~source ~entry ~arg_types

(* Batch-friendly entry point: every diagnostic the pipeline produced,
   in emission order, next to the result. [None] means errors were
   recorded (or a phase bailed) and there is nothing to ship; warnings
   and notes alone never block the compile. *)
let compile_file ?passes ?error_budget config ~source ~entry ~arg_types =
  let ctx = Diag.create ?error_budget () in
  let sink = Diag.Ctx ctx in
  let result =
    match compile_with ?passes ~sink config ~source ~entry ~arg_types with
    | c -> Some c
    | exception Frontend_errors -> None
    | exception Diag.Budget_exhausted _ -> None
    | exception Diag.Error (phase, span, msg) ->
      (* A phase without its own recovery (lowering, verification)
         raised; fold the failure into the accumulated list. *)
      (try Diag.report sink Diag.Severity.Error phase span "%s" msg
       with Diag.Budget_exhausted _ -> ());
      None
  in
  (result, Diag.to_list ctx)

(* The execution plan is derived data: built on first [run], reused for
   every subsequent simulation of this compilation (the benchmark
   sweeps re-run each compiled kernel many times). Compilations are
   shared across domains by the compile cache and by `mascc --jobs`, so
   the memo is guarded by a mutex rather than a [Lazy.t] — two domains
   forcing the same lazy would race ([Lazy.Undefined]); here the loser
   simply waits and reuses the winner's plan. *)
let plan c =
  Mutex.protect c.plan_lock (fun () ->
      match c.plan_memo with
      | Some p -> p
      | None ->
        let p =
          Masc_vm.Plan.compile ~isa:c.config.isa ~mode:c.config.mode c.mir
        in
        c.plan_memo <- Some p;
        p)

(* ---- content-addressed compile cache ----

   Keyed by everything that determines the output: source digest, entry
   name, argument types, ISA (name + structural digest, so two .isa
   files sharing a name don't collide), cost-model mode, opt level and
   the stage toggles. Safe to share across domains: lookups/inserts are
   mutex-protected and [compiled] is immutable apart from the
   mutex-guarded plan memo. On a racing miss both domains compile; the
   first insert wins so every caller shares one plan.

   Two tiers. The in-memory table holds [compiled] values (with their
   surviving warnings, so a cached compile replays its diagnostics) for
   this process. When a cache directory is installed
   ({!set_cache_dir}), successful compiles are also persisted through
   {!Disk_cache} — temp-file + atomic-rename writes, checksummed
   entries, corruption degraded to a miss — keyed by the same string,
   so batches across process restarts share work. Only the marshalable
   core (typed AST, MIR, stats, diagnostics) is persisted; the plan
   memo is derived data and is rebuilt on first run. *)
let cache : (string, compiled * Diag.t list) Hashtbl.t = Hashtbl.create 64
let cache_lock = Mutex.create ()

(* Defensive bound for open-ended sweeps (e.g. candidate-ISA design
   space exploration): a full flush is simpler than LRU and the sweep
   re-warms in one batch. *)
let cache_cap = 256

(* The persistent tier's version: any change to the marshaled shape —
   which in practice means any change to the AST/MIR/stat types — must
   bump the format number, and a different OCaml runtime must never
   unmarshal our payloads. The digest check runs before unmarshal, so a
   skewed entry is deleted without ever being decoded. *)
let cache_version = "masc-cc-1|" ^ Sys.ocaml_version

let disk_dir : string option Atomic.t = Atomic.make None
let set_cache_dir dir = Atomic.set disk_dir dir
let cache_dir () = Atomic.get disk_dir

(* Testing hook: drop the in-memory tier so the disk tier is
   observable in-process. *)
let clear_memory_cache () =
  Mutex.protect cache_lock (fun () -> Hashtbl.reset cache)

let cache_key config ~source ~entry ~arg_types =
  String.concat "|"
    [ Digest.to_hex (Digest.string source); entry;
      String.concat ";" (List.map Masc_sema.Mtype.to_string arg_types);
      config.isa.Isa.tname;
      Digest.to_hex (Digest.string (Marshal.to_string config.isa []));
      Cost_model.mode_name config.mode;
      Pipeline.level_name config.opt_level;
      string_of_bool config.vectorize;
      string_of_bool config.select_complex ]

(* Persisted form: the immutable core of [compiled] plus the
   diagnostics that accompanied it (warnings/notes — errors are never
   cached). Every component is plain algebraic data. *)
type disk_payload =
  Masc_sema.Tast.program
  * Masc_mir.Mir.func
  * Masc_mir.Mir.func
  * Masc_vectorize.Vectorizer.stats
  * Masc_vectorize.Complex_sel.stats
  * (string * Pipeline.pass_stat list) list
  * Diag.t list

let encode_payload (c : compiled) (diags : Diag.t list) : string =
  Marshal.to_string
    (( c.typed, c.mir_raw, c.mir, c.vec_stats, c.cplx_stats, c.opt_stats,
       diags )
      : disk_payload)
    []

(* Unmarshal runs only on digest-verified bytes written under the same
   [cache_version], so a [Failure] here means our own writer produced
   it — still treated as corruption (delete + miss), never an error. *)
let decode_payload config (s : string) : (compiled * Diag.t list) option =
  match (Marshal.from_string s 0 : disk_payload) with
  | typed, mir_raw, mir, vec_stats, cplx_stats, opt_stats, diags ->
    Some
      ( { config; typed; mir_raw; mir; vec_stats; cplx_stats; opt_stats;
          plan_lock = Mutex.create (); plan_memo = None },
        diags )
  | exception _ -> None

let mem_find key =
  Mutex.protect cache_lock (fun () -> Hashtbl.find_opt cache key)

let mem_add key entry =
  Mutex.protect cache_lock (fun () ->
      match Hashtbl.find_opt cache key with
      | Some winner -> winner
      | None ->
        if Hashtbl.length cache >= cache_cap then Hashtbl.reset cache;
        Hashtbl.add cache key entry;
        entry)

(* Disk lookup + decode; corruption discovered at decode time is folded
   back into the store's corruption accounting. *)
let disk_find config key =
  match cache_dir () with
  | None -> None
  | Some dir -> (
    match Disk_cache.find ~dir ~version:cache_version ~key with
    | None -> None
    | Some payload -> (
      match decode_payload config payload with
      | Some entry -> Some entry
      | None ->
        Disk_cache.invalidate ~dir ~key;
        None))

let disk_store key (c : compiled) diags =
  match cache_dir () with
  | None -> ()
  | Some dir ->
    Disk_cache.store ~dir ~version:cache_version ~key (encode_payload c diags)

(* Shared two-tier lookup: [compile_it] runs on a full miss and returns
   [Some (compiled, diags)] for cacheable (error-free) results. *)
let cached_lookup config ~source ~entry ~arg_types compile_it =
  let key = cache_key config ~source ~entry ~arg_types in
  match mem_find key with
  | Some entry ->
    Masc_obs.Metrics.incr "compile.cache_hits";
    Masc_obs.Journal.emit "cache.hit" ~detail:[ ("tier", "memory") ];
    `Hit entry
  | None -> (
    match disk_find config key with
    | Some entry ->
      Masc_obs.Metrics.incr "compile.cache_hits";
      Masc_obs.Journal.emit "cache.hit" ~detail:[ ("tier", "disk") ];
      `Hit (mem_add key entry)
    | None ->
      Masc_obs.Metrics.incr "compile.cache_misses";
      Masc_obs.Journal.emit "cache.miss";
      (match compile_it () with
      | None -> `Uncacheable
      | Some entry ->
        let entry = mem_add key entry in
        let c, diags = entry in
        disk_store key c diags;
        `Hit entry))

let compile_cached config ~source ~entry ~arg_types =
  match
    cached_lookup config ~source ~entry ~arg_types (fun () ->
        Some (compile config ~source ~entry ~arg_types, []))
  with
  | `Hit (c, _) -> c
  | `Uncacheable -> assert false

(* The batch/service entry point: {!compile_file}'s accumulating
   contract behind both cache tiers. Only error-free results are
   cached; their warnings/notes ride along so a warm hit replays the
   same diagnostics as the cold compile. *)
let compile_file_cached ?error_budget config ~source ~entry ~arg_types =
  let outcome = ref None in
  match
    cached_lookup config ~source ~entry ~arg_types (fun () ->
        match compile_file ?error_budget config ~source ~entry ~arg_types with
        | Some c, diags -> Some (c, diags)
        | None, diags ->
          outcome := Some (None, diags);
          None)
  with
  | `Hit (c, diags) -> (Some c, diags)
  | `Uncacheable -> (
    match !outcome with Some r -> r | None -> assert false)

(* C emission is the last compile stage and gets its own "stage" span,
   so --trace attributes it like the others. *)
let c_source c =
  Masc_obs.Journal.span ~cat:"stage" "emit" (fun () ->
      Masc_codegen.Emit.program ~isa:c.config.isa ~mode:c.config.mode c.mir)

let runtime_header c = Masc_codegen.Runtime.header c.config.isa

let run ?max_cycles ?fuel ?max_alloc_bytes c inputs =
  let r =
    Masc_obs.Journal.span ~cat:"sim" c.mir.Masc_mir.Mir.name (fun () ->
        Masc_vm.Plan.execute ?max_cycles ?fuel ?max_alloc_bytes (plan c)
          inputs)
  in
  Masc_obs.Metrics.incr "sim.runs";
  Masc_obs.Metrics.observe "sim.cycles" (float_of_int r.Masc_vm.Exec.cycles);
  Masc_obs.Metrics.observe "sim.dyn_instrs"
    (float_of_int r.Masc_vm.Exec.dyn_instrs);
  r

(* Profiled runs re-execute on the reference tree-walker, which charges
   every cycle to its source line; the memoized plan above stays
   untouched, so profiling a compilation never perturbs its benchmark
   numbers. Both engines are pinned bit-identical, so the profiled run's
   results equal [run]'s. Profiling is a diagnostic act, not a hot
   path. *)
let run_profiled ?max_cycles ?fuel ?max_alloc_bytes c inputs =
  let col = Masc_obs.Profile.create () in
  let r =
    Masc_obs.Journal.span ~cat:"sim" (c.mir.Masc_mir.Mir.name ^ ":profiled")
      (fun () ->
        Masc_vm.Interp.run_tree ?max_cycles ?fuel ?max_alloc_bytes
          ~profile:col ~isa:c.config.isa ~mode:c.config.mode c.mir inputs)
  in
  Masc_obs.Metrics.incr "sim.profiled_runs";
  ( r,
    Masc_obs.Profile.snapshot col ~total_cycles:r.Masc_vm.Exec.cycles
      ~total_instrs:r.Masc_vm.Exec.dyn_instrs )

let stage_dump c =
  let b = Buffer.create 8192 in
  let section title body =
    Buffer.add_string b
      (Printf.sprintf "==== %s ====\n%s\n" title body)
  in
  let entry = Masc_sema.Tast.entry_func c.typed in
  section "typed entry signature"
    (String.concat "\n"
       (List.map
          (fun (n, ty) ->
            Printf.sprintf "  %s : %s" n (Masc_sema.Mtype.to_string ty))
          (entry.Masc_sema.Tast.tparams @ entry.Masc_sema.Tast.trets)));
  section "MIR after lowering (scalarized, inlined)"
    (Masc_mir.Mir_pp.func_to_string c.mir_raw);
  section
    (Printf.sprintf
       "final MIR (opt %s%s%s)"
       (Pipeline.level_name c.config.opt_level)
       (if c.config.vectorize then
          Printf.sprintf ", vectorized: %d map + %d reduction loop(s)"
            c.vec_stats.Vectorizer.map_loops
            c.vec_stats.Vectorizer.reduction_loops
        else "")
       (if c.config.select_complex then
          Printf.sprintf ", complex ISEs: %d cmul, %d cmac, %d cadd"
            c.cplx_stats.Complex_sel.cmul c.cplx_stats.Complex_sel.cmac
            c.cplx_stats.Complex_sel.cadd
        else ""))
    (Masc_mir.Mir_pp.func_to_string c.mir);
  section "generated C" (c_source c);
  Buffer.contents b

let opt_stats_dump c =
  let b = Buffer.create 256 in
  List.iter
    (fun (stage, stats) ->
      Buffer.add_string b
        (Printf.sprintf "%-10s %-14s %5s %8s %8s\n" stage "pass" "runs"
           "changed" "skipped");
      List.iter
        (fun (s : Pipeline.pass_stat) ->
          Buffer.add_string b
            (Printf.sprintf "%-10s %-14s %5d %8d %8d\n" "" s.Pipeline.ps_name
               s.Pipeline.runs s.Pipeline.changed s.Pipeline.skipped))
        stats)
    c.opt_stats;
  Buffer.contents b
