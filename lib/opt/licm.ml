module Mir = Masc_mir.Mir
module Vid_set = Rewrite.Vid_set

let run (func : Mir.func) : Mir.func =
  (* Per-loop analysis sets, built once per run and cleared per loop
     (a constant-time epoch bump): the variables the body defines, those
     it defines more than once (only single-definition variables hoist
     safely; any definition at all means "not invariant"), the arrays
     the body stores to, and the variables read so far by the forward
     hoisting walk. A def count is only ever compared with 1, so two
     byte-per-id sets replace a count table and fill without
     allocating. *)
  let nvars = func.Mir.next_vid in
  let defined = Vid_set.create nvars in
  let redefined = Vid_set.create nvars in
  let stored = Vid_set.create nvars in
  let read = Vid_set.create nvars in
  let bump vid =
    if Vid_set.mem defined vid then Vid_set.add redefined vid
    else Vid_set.add defined vid
  in
  let rec scan (i : Mir.instr) =
    match i.Mir.idesc with
    | Mir.Idef (v, _) -> bump v.Mir.vid
    | Mir.Istore (arr, _, _) | Mir.Ivstore (arr, _, _, _) ->
      Vid_set.add stored arr.Mir.vid
    | Mir.Iloop inner ->
      bump inner.Mir.ivar.Mir.vid;
      List.iter scan inner.Mir.body
    | Mir.Iif (_, t, e) ->
      List.iter scan t;
      List.iter scan e
    | Mir.Iwhile { cond_block; body; _ } ->
      List.iter scan cond_block;
      List.iter scan body
    | Mir.Ibreak | Mir.Icontinue | Mir.Ireturn | Mir.Iprint _ | Mir.Icomment _
      ->
      ()
  in
  let add_op = Vid_set.add_operand read in
  let rec note_reads (i : Mir.instr) =
    match i.Mir.idesc with
    | Mir.Idef (_, rv) -> Vid_set.add_reads read rv
    | Mir.Istore (_, idx, x) | Mir.Ivstore (_, idx, x, _) ->
      add_op idx;
      add_op x
    | Mir.Iloop inner ->
      add_op inner.Mir.lo;
      add_op inner.Mir.step;
      add_op inner.Mir.hi;
      List.iter note_reads inner.Mir.body
    | Mir.Iif (c, t, e) ->
      add_op c;
      List.iter note_reads t;
      List.iter note_reads e
    | Mir.Iwhile { cond_block; cond; body } ->
      List.iter note_reads cond_block;
      add_op cond;
      List.iter note_reads body
    | Mir.Iprint (_, ops) -> List.iter add_op ops
    | Mir.Ibreak | Mir.Icontinue | Mir.Ireturn | Mir.Icomment _ -> ()
  in
  (* [hoist_loop l] is [Some (hoisted, l')] when any body def could be
     hoisted in front of the loop, [None] otherwise.

     One forward walk over the body decides. A def hoists when its
     variable has no other def in the loop, nothing earlier in the body
     reads it (that read would see the value from before the loop, or
     from the previous iteration, on every iteration), and its operands
     are invariant. A hoisted def leaves [defined], so a later def
     reading it is invariant too: a chain of invariants leaves in one
     run. Blocks are visited inner first ([Rewrite.map_blocks]), so
     what an inner loop hoists is in its parent's body by the time the
     parent is walked, and one run is a no-op on its own output. The
     pass manager relies on that: licm does not re-dirty itself
     (Pipeline.invalidated_by).

     The loop's own induction variable is defined by the loop header,
     not by any body instruction, so it is entered manually.

     A loop whose bounds are not constants that give an iteration may
     run zero times, and then a hoisted def overwrites a value the loop
     would have left alone. Such a loop keeps a def unless its variable
     is dead after the loop: no read outside the body (the loop's own
     bounds and the function's returns count as reads). The read counts
     are only built when such a loop has a candidate, so constant-bound
     loops cost nothing more: the whole function's once per run, and one
     body table per run that is moved from loop to loop by subtracting
     the previous body's reads. *)
  let nonempty_const_bounds = ref false in
  let func_reads = lazy (Rewrite.use_counts func) in
  let body_reads = lazy (Rewrite.Vid_counts.create nvars) in
  let counted_body = ref [] in
  let dead_after (l : Mir.loop) (v : Mir.var) =
    let body = Lazy.force body_reads in
    if !counted_body != l.Mir.body then begin
      Rewrite.Vid_counts.add_block_uses body (-1) !counted_body;
      Rewrite.Vid_counts.add_block_uses body 1 l.Mir.body;
      counted_body := l.Mir.body
    end;
    Rewrite.Vid_counts.get (Lazy.force func_reads) v.Mir.vid
    = Rewrite.Vid_counts.get body v.Mir.vid
  in
  let hoistable l (v : Mir.var) rv =
    Vid_set.mem defined v.Mir.vid
    && (not (Vid_set.mem redefined v.Mir.vid))
    && (not (Vid_set.mem read v.Mir.vid))
    && (not (Vid_set.reads_any defined rv))
    &&
    match rv with
    | Mir.Rload (arr, _) ->
      !nonempty_const_bounds && not (Vid_set.mem stored arr.Mir.vid)
    | Mir.Rvload _ | Mir.Rintrin _ -> false
    | _ -> Rewrite.pure rv && (!nonempty_const_bounds || dead_after l v)
  in
  let rec walk l hoisted = function
    | [] -> hoisted
    | ({ Mir.idesc = Mir.Idef (v, rv); _ } as i) :: rest when hoistable l v rv
      ->
      Vid_set.remove defined v.Mir.vid;
      note_reads i;
      walk l (i :: hoisted) rest
    | i :: rest ->
      note_reads i;
      walk l hoisted rest
  in
  let hoist_loop (l : Mir.loop) =
    Vid_set.clear defined;
    Vid_set.clear redefined;
    Vid_set.clear stored;
    Vid_set.clear read;
    List.iter scan l.Mir.body;
    bump l.Mir.ivar.Mir.vid;
    nonempty_const_bounds :=
      (match (l.Mir.lo, l.Mir.step, l.Mir.hi) with
      | Mir.Oconst (Mir.Ci lo), Mir.Oconst (Mir.Ci step), Mir.Oconst (Mir.Ci hi)
        ->
        (step > 0 && lo <= hi) || (step < 0 && lo >= hi)
      | _ -> false);
    (* The common nothing-to-hoist case builds no list. *)
    match walk l [] l.Mir.body with
    | [] -> None
    | hoisted ->
      let body = List.filter (fun i -> not (List.memq i hoisted)) l.Mir.body in
      Some (List.rev hoisted, { l with Mir.body = body })
  in
  (* Sharing-preserving splice, built once per run: a block whose loops
     hoist nothing is returned physically, so a clean run rebuilds no
     list. It allocates the four sets and the helpers: about 0.4 kwords
     per run on compile-large's programs (EXPERIMENTS.md, "Optimizer
     no-change runs"). *)
  let rec process (bl : Mir.block) : Mir.block =
    match bl with
    | [] -> bl
    | ({ Mir.idesc = Mir.Iloop l; _ } as instr) :: rest -> (
      match hoist_loop l with
      | None ->
        let rest' = process rest in
        if rest' == rest then bl else instr :: rest'
      | Some (hoisted, l') ->
        hoisted @ (Mir.redesc instr (Mir.Iloop l') :: process rest))
    | instr :: rest ->
      let rest' = process rest in
      if rest' == rest then bl else instr :: rest'
  in
  Rewrite.map_blocks process func
