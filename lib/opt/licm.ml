module Mir = Masc_mir.Mir

let run (func : Mir.func) : Mir.func =
  (* Per-loop analysis tables, built once per run and cleared per loop:
     top-level def count per variable (only single-definition variables
     hoist safely; any entry at all means "defined somewhere in the
     body", which is the invariance test) and the arrays the body
     stores to. *)
  let def_counts = Hashtbl.create 16 in
  let stored = Hashtbl.create 8 in
  let bump vid =
    let cur = try Hashtbl.find def_counts vid with Not_found -> 0 in
    Hashtbl.replace def_counts vid (cur + 1)
  in
  let invariant_operand = function
    | Mir.Ovar v -> not (Hashtbl.mem def_counts v.Mir.vid)
    | Mir.Oconst _ -> true
  in
  let rec scan (i : Mir.instr) =
    match i.Mir.idesc with
    | Mir.Idef (v, _) -> bump v.Mir.vid
    | Mir.Istore (arr, _, _) | Mir.Ivstore (arr, _, _, _) ->
      Hashtbl.replace stored arr.Mir.vid ()
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
  (* [hoist_loop l] is [Some (hoisted, l')] when any body def could be
     hoisted in front of the loop, [None] otherwise.

     Hoisting is deliberately single-round: an operand is invariant only
     when nothing in the loop's *original* body defines it, so a def
     whose operand is itself a hoisted def stays put until the next
     pipeline-scheduled licm run (which sees the new body). That keeps
     one run linear in the body — and the pipeline's change tracking
     re-runs licm anyway whenever a pass (including licm itself via its
     dependents) reports a change.

     The loop's own induction variable is defined by the loop header,
     not by any body instruction, so it is entered manually. *)
  let hoist_loop (l : Mir.loop) =
    Hashtbl.clear def_counts;
    Hashtbl.clear stored;
    List.iter scan l.Mir.body;
    bump l.Mir.ivar.Mir.vid;
    let nonempty_const_bounds =
      match (l.Mir.lo, l.Mir.step, l.Mir.hi) with
      | Mir.Oconst (Mir.Ci lo), Mir.Oconst (Mir.Ci step), Mir.Oconst (Mir.Ci hi)
        ->
        (step > 0 && lo <= hi) || (step < 0 && lo >= hi)
      | _ -> false
    in
    let hoistable (i : Mir.instr) =
      match i.Mir.idesc with
      | Mir.Idef (v, rv) -> (
        (try Hashtbl.find def_counts v.Mir.vid = 1 with Not_found -> false)
        && Rewrite.forall_operands invariant_operand rv
        &&
        match rv with
        | Mir.Rload (arr, _) ->
          nonempty_const_bounds && not (Hashtbl.mem stored arr.Mir.vid)
        | Mir.Rvload _ | Mir.Rintrin _ -> false
        | _ -> Rewrite.pure rv)
      | _ -> false
    in
    (* Probe before partitioning: [List.partition] copies the whole
       body, which the common nothing-to-hoist case must not pay for. *)
    if not (List.exists hoistable l.Mir.body) then None
    else
      let hoisted, body = List.partition hoistable l.Mir.body in
      Some (hoisted, { l with Mir.body = body })
  in
  (* Sharing-preserving splice: a block whose loops hoist nothing is
     returned physically, so a clean run rebuilds no list. It still
     fills the two tables and builds a [hoistable] closure per loop:
     about 3.7 kwords per run on compile-large's programs (EXPERIMENTS.md,
     "Optimizer and inference re-scans"). *)
  let process (block : Mir.block) : Mir.block =
    let rec go (bl : Mir.block) : Mir.block =
      match bl with
      | [] -> bl
      | ({ Mir.idesc = Mir.Iloop l; _ } as instr) :: rest -> (
        match hoist_loop l with
        | None ->
          let rest' = go rest in
          if rest' == rest then bl else instr :: rest'
        | Some (hoisted, l') ->
          hoisted @ (Mir.redesc instr (Mir.Iloop l') :: go rest))
      | instr :: rest ->
        let rest' = go rest in
        if rest' == rest then bl else instr :: rest'
    in
    go block
  in
  Rewrite.map_blocks process func
