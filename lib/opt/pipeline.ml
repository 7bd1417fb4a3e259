type level = O0 | O1 | O2

let level_of_int = function 0 -> O0 | 1 -> O1 | _ -> O2
let level_name = function O0 -> "O0" | O1 -> "O1" | O2 -> "O2"

(* Priority order: cheap normalizers first, structural passes last, so
   one sweep does most of the work and later sweeps only mop up. *)
let o1_passes =
  [ ("const-fold", Const_fold.run); ("copy-prop", Copy_prop.run);
    ("collapse", Collapse.run); ("global-const", Global_const.run);
    ("dce", Dce.run) ]

let o2_passes =
  o1_passes
  @ [ ("cse", Cse.run); ("licm", Licm.run); ("fusion", Fusion.run) ]

let passes = function O0 -> [] | O1 -> o1_passes | O2 -> o2_passes

(* Which passes can be re-enabled by a change another pass reported.
   [p, qs] reads "p must re-run after any of qs changed the function".
   Edges are derived from what each pass reacts to, and each absence is
   an argument about what the other pass *cannot* produce:

   - const-fold consumes constant operands; only copy-prop and
     global-const introduce new constants. It never drops a variable
     use (every identity rule keeps its operand; folds consume only
     constants) and never touches loop bounds (it rewrites def rvalues
     only), so it cannot enable dce, collapse or fusion.
   - copy-prop reacts to move definitions and to segment merges, which
     almost every pass can cause (dce deleting an effect-free loop or
     fusion/licm restructuring one merges straight-line segments), so
     it stays fully conservative.
   - collapse reacts to use counts dropping and to new def/move
     adjacency; every structural pass can cause one of those.
   - global-const needs a *top-level* single-def constant move: made by
     const-fold/copy-prop (folding a def to a constant), collapse
     (merging onto a constant move) or licm (hoisting one to the top
     level). dce removes defs all-or-nothing per variable and cse only
     creates variable moves, so neither can enable it.
   - dce needs a read count to reach zero (copy-prop/global-const/cse
     substitution) or a block to become effect-free (licm emptying a
     loop body). collapse keeps the surviving def and fusion only
     concatenates bodies, so neither creates dead code.
   - cse reacts to operand normalization (const-fold/copy-prop/
     global-const), to store removal un-clobbering loads (dce) and to
     segment merges (licm/fusion).
   - licm reacts to operands becoming invariant (copy-prop/global-const
     substitution), defs becoming single (collapse), dead stores
     un-blocking load hoists (dce) and hoistable moves from cse.
     fusion only unions defined/stored sets, which can only *shrink*
     hoistability, and const-fold only shrinks operand sets. Its own
     hoists need no re-run: one licm run takes chains of invariants
     and invariants of nested loops out whole (Licm).
   - fusion needs adjacent loops with equal constant bounds: only
     copy-prop/global-const rewrite bounds and only dce deletes
     instructions between loops. cse/licm/const-fold touch neither.

   A pass name not in this table — a user-supplied ablation pass — is
   conservatively re-enabled by every change. "collapse" is the only
   self-invalidating pass: collapsing a pair can expose a new pair with
   its successor, which a single scan does not revisit. *)
let invalidated_by =
  [ ("const-fold", [ "copy-prop"; "global-const" ]);
    ("copy-prop",
     [ "const-fold"; "collapse"; "global-const"; "dce"; "cse"; "licm";
       "fusion" ]);
    ("collapse",
     [ "copy-prop"; "global-const"; "dce"; "cse"; "licm"; "fusion";
       "collapse" ]);
    ("global-const", [ "const-fold"; "copy-prop"; "collapse"; "licm" ]);
    ("dce", [ "copy-prop"; "global-const"; "cse"; "licm" ]);
    ("cse", [ "const-fold"; "copy-prop"; "global-const"; "dce"; "licm";
              "fusion" ]);
    ("licm", [ "copy-prop"; "collapse"; "global-const"; "dce"; "cse" ]);
    ("fusion", [ "copy-prop"; "global-const"; "dce" ]) ]

type pass_stat = {
  ps_name : string;
  mutable runs : int;
  mutable changed : int;
  mutable skipped : int;
}

(* Every stage and pass boundary is also a cancellation point: a
   request deadline installed by the service layer (Masc_fault.Cancel)
   is honored between passes, so a hung *schedule* cannot outlive its
   budget even though each individual pass runs to completion. *)
let timed what name f x =
  Masc_fault.Cancel.check ();
  Masc_obs.Journal.span ~cat:what name (fun () -> f x)

(* Passes whose single run dominates a whole sweep of the cheap
   normalizers: they are deferred to change-free sweeps (below). *)
let expensive_passes = [ "cse"; "licm"; "fusion" ]

(* Fixpoint driver, deferred-sweep policy: sweep the pass list in
   order, visiting only dirty passes. A pass that reports a change
   (physical inequality of the returned root, see Rewrite) re-dirties
   its dependents per [invalidated_by]. Two refinements keep total
   executions below the unconditional-schedule count:

   - While a sweep has already seen a cheap (front) pass change, the
     [expensive_passes] at the tail are postponed to the next sweep, so
     they only ever see input the normalizers have driven to a local
     fixpoint — instead of re-running after every intermediate change.
   - Several expensive-pass changes within one sweep re-dirty a cheap
     pass *once* for the next sweep rather than once per change, so the
     front settles in one batch.

   Terminates when no pass is dirty; the step cap is a defensive bound —
   the passes only ever shrink or normalize the function.

   [skipped] counts clean passes a sweep stepped over: the pass
   executions a change-oblivious sweep schedule would have performed at
   that point but this one proved unnecessary (deferred expensive passes
   are postponed work, not elided work, and are not counted).

   [?dirty] names the passes that start dirty (default: all). Leaving a
   pass out is a claim that it is a no-op on [func]; under that claim,
   and the soundness of [invalidated_by], the changing runs are the
   same ones the all-dirty schedule makes, since a no-op run changes
   neither the function nor another pass's dirty bit. *)
let max_steps_per_pass = 24

let run_fixpoint ?dirty
    (pass_list : (string * (Masc_mir.Mir.func -> Masc_mir.Mir.func)) list) func =
  let arr = Array.of_list pass_list in
  let n = Array.length arr in
  let stats =
    Array.map
      (fun (name, _) -> { ps_name = name; runs = 0; changed = 0; skipped = 0 })
      arr
  in
  let names = Array.map fst arr in
  let deferred = Array.map (fun name -> List.mem name expensive_passes) names in
  (* triggers.(i): pass indices to re-dirty when pass i changes. A pass
     name outside [invalidated_by] (user-supplied ablation pass) is
     handled conservatively on both sides: its changes re-enable every
     pass, and every change re-enables it. *)
  let known name = List.mem_assoc name invalidated_by in
  let triggers =
    Array.init n (fun i ->
        List.filter
          (fun j ->
            (not (known names.(i)))
            ||
            match List.assoc_opt names.(j) invalidated_by with
            | None -> true
            | Some deps -> List.mem names.(i) deps)
          (List.init n Fun.id))
  in
  let dirty =
    match dirty with
    | None -> Array.make n true
    | Some seed -> Array.map (fun name -> List.mem name seed) names
  in
  let func = ref func in
  let steps = ref 0 in
  let max_steps = max_steps_per_pass * n in
  let any_dirty () = Array.exists Fun.id dirty in
  let rec sweeps () =
    if any_dirty () && !steps < max_steps then begin
      (* Set once a cheap pass changes this sweep: expensive passes are
         then deferred, ending the sweep at the first one reached. *)
      let front_changed = ref false in
      (try
         for i = 0 to n - 1 do
           if deferred.(i) && !front_changed then raise Exit;
           if not dirty.(i) then
             stats.(i).skipped <- stats.(i).skipped + 1
           else if !steps < max_steps then begin
             incr steps;
             dirty.(i) <- false;
             stats.(i).runs <- stats.(i).runs + 1;
             let name, pass = arr.(i) in
             let func' = timed "pass" name pass !func in
             if func' != !func then begin
               stats.(i).changed <- stats.(i).changed + 1;
               func := func';
               List.iter (fun j -> dirty.(j) <- true) triggers.(i);
               if not deferred.(i) then front_changed := true
             end
           end
         done
       with Exit -> ());
      sweeps ()
    end
  in
  sweeps ();
  (!func, Array.to_list stats)

let optimize_stats level func =
  let func, stats = run_fixpoint (passes level) func in
  List.iter
    (fun s ->
      Masc_obs.Metrics.incr "opt.pass_runs" ~by:s.runs;
      Masc_obs.Metrics.incr "opt.pass_changed" ~by:s.changed;
      Masc_obs.Metrics.incr "opt.pass_skipped" ~by:s.skipped)
    stats;
  (func, stats)

let optimize level func = fst (optimize_stats level func)

let total_runs stats = List.fold_left (fun a s -> a + s.runs) 0 stats
let total_skipped stats = List.fold_left (fun a s -> a + s.skipped) 0 stats

(* The loop only stops early at the step cap, so a fixpoint that stayed
   below it ended with no pass dirty. One that reached it may have
   converged on its last step; it is still reported as unconverged. *)
let converged stats = total_runs stats < max_steps_per_pass * List.length stats
