module Mir = Masc_mir.Mir

module Vid_counts = Rewrite.Vid_counts

(* Read counts: like Rewrite.use_counts but the target array of a store
   does not count as a read, so write-only arrays can be eliminated.
   [count_instr c d i] adds [d] per read in [i] and its nested blocks:
   [1] to build the table, [-1] to forget an instruction DCE drops. *)
let rec count_instr c d (i : Mir.instr) =
  match i.Mir.idesc with
  | Mir.Idef (_, rv) -> Vid_counts.add_reads c d rv
  | Mir.Istore (_, idx, v) | Mir.Ivstore (_, idx, v, _) ->
    Vid_counts.add_operand c d idx;
    Vid_counts.add_operand c d v
  | Mir.Iif (cond, t, e) ->
    Vid_counts.add_operand c d cond;
    count_block c d t;
    count_block c d e
  | Mir.Iloop l ->
    Vid_counts.add_operand c d l.Mir.lo;
    Vid_counts.add_operand c d l.Mir.step;
    Vid_counts.add_operand c d l.Mir.hi;
    count_block c d l.Mir.body
  | Mir.Iwhile { cond; cond_block; body } ->
    Vid_counts.add_operand c d cond;
    count_block c d cond_block;
    count_block c d body
  | Mir.Iprint (_, ops) -> count_operands c d ops
  | Mir.Ibreak | Mir.Icontinue | Mir.Ireturn | Mir.Icomment _ -> ()

and count_block c d (b : Mir.block) =
  match b with
  | [] -> ()
  | i :: tl ->
    count_instr c d i;
    count_block c d tl

and count_operands c d = function
  | [] -> ()
  | a :: tl ->
    Vid_counts.add_operand c d a;
    count_operands c d tl

let rec block_has_effects (b : Mir.block) =
  List.exists
    (fun (i : Mir.instr) ->
      match i.Mir.idesc with
      | Mir.Istore _ | Mir.Ivstore _ | Mir.Iprint _ | Mir.Ibreak
      | Mir.Icontinue | Mir.Ireturn | Mir.Idef _ ->
        true
      | Mir.Icomment _ -> false
      | Mir.Iif (_, t, e) -> block_has_effects t || block_has_effects e
      | Mir.Iloop l -> block_has_effects l.Mir.body
      | Mir.Iwhile _ -> true)
    b

(* The whole pass maintains ONE read-count table: dropping an
   instruction subtracts exactly the reads it contributed (recursively
   for dropped blocks), which is the same table a fresh count would
   build on the remaining program — so the removal cascade (a def's
   only reader dies, then the def) runs without re-scanning the
   function per round. Removal is monotone (counts only decrease, and
   [keep] is anti-monotone in them), so the reached fixpoint is the
   same whichever order drops are discovered in. The table is an int
   per variable id and every helper is built once per run, so a run
   that removes nothing allocates the table and a few closures: about
   0.1 kwords of minor heap per run on compile-large's programs, where
   most tables are over 256 ids and go straight to the major heap
   (EXPERIMENTS.md, "Optimizer no-change runs"). *)
let run (func : Mir.func) : Mir.func =
  let reads = Vid_counts.create func.Mir.next_vid in
  count_block reads 1 func.Mir.body;
  List.iter (fun (r : Mir.var) -> Vid_counts.add reads r.Mir.vid 1) func.Mir.rets;
  let read vid = Vid_counts.get reads vid > 0 in
  let ret_ids = List.map (fun (r : Mir.var) -> r.Mir.vid) func.Mir.rets in
  let keep_array (arr : Mir.var) =
    read arr.Mir.vid || List.mem arr.Mir.vid ret_ids
  in
  let keep (instr : Mir.instr) =
    match instr.Mir.idesc with
    | Mir.Idef (v, rv) ->
      (* Loads are removable when dead: lowered programs only emit
         in-bounds accesses, so dropping one cannot hide a fault. *)
      let removable =
        Rewrite.pure rv
        || match rv with Mir.Rload _ | Mir.Rvload _ -> true | _ -> false
      in
      read v.Mir.vid || (not removable) || List.mem v.Mir.vid ret_ids
    | Mir.Istore (arr, _, _) | Mir.Ivstore (arr, _, _, _) -> keep_array arr
    | Mir.Iloop l -> block_has_effects l.Mir.body
    | Mir.Iif (_, t, e) -> block_has_effects t || block_has_effects e
    | Mir.Icomment _ | Mir.Iwhile _ | Mir.Ibreak | Mir.Icontinue
    | Mir.Ireturn | Mir.Iprint _ ->
      true
  in
  let changed = ref false in
  (* Sharing-preserving filter: a block with nothing to remove is
     returned physically, so a no-change round rebuilds no list. *)
  let rec prune (l : Mir.block) : Mir.block =
    match l with
    | [] -> l
    | instr :: rest ->
      if keep instr then begin
        let rest' = prune rest in
        if rest' == rest then l else instr :: rest'
      end
      else begin
        changed := true;
        count_instr reads (-1) instr;
        prune rest
      end
  in
  let rec fix func n =
    changed := false;
    let func' = Rewrite.map_blocks prune func in
    if !changed && n < 20 then fix func' (n + 1) else func'
  in
  fix func 0
