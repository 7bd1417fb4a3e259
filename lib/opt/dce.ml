module Mir = Masc_mir.Mir

(* Read counts: like Rewrite.use_counts but the target array of a store
   does not count as a read, so write-only arrays can be eliminated. *)
let read_counts (func : Mir.func) : (int, int) Hashtbl.t =
  let tbl = Hashtbl.create 64 in
  let bump = function
    | Mir.Ovar v ->
      let cur = try Hashtbl.find tbl v.Mir.vid with Not_found -> 0 in
      Hashtbl.replace tbl v.Mir.vid (cur + 1)
    | Mir.Oconst _ -> ()
  in
  Rewrite.iter_instrs
    (fun i ->
      match i.Mir.idesc with
      | Mir.Idef (_, rv) -> Rewrite.iter_operands bump rv
      | Mir.Istore (_, idx, v) ->
        bump idx;
        bump v
      | Mir.Ivstore (_, base, v, _) ->
        bump base;
        bump v
      | Mir.Iif (c, _, _) -> bump c
      | Mir.Iloop l ->
        bump l.Mir.lo;
        bump l.Mir.step;
        bump l.Mir.hi
      | Mir.Iwhile { cond; _ } -> bump cond
      | Mir.Iprint (_, ops) -> List.iter bump ops
      | Mir.Ibreak | Mir.Icontinue | Mir.Ireturn | Mir.Icomment _ -> ())
    func;
  List.iter (fun (r : Mir.var) -> bump (Mir.Ovar r)) func.Mir.rets;
  tbl

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
   for dropped blocks), which is the same table [read_counts] would
   rebuild on the remaining program — so the removal cascade (a def's
   only reader dies, then the def) runs without re-scanning the
   function per round. Removal is monotone (counts only decrease, and
   [keep] is anti-monotone in them), so the reached fixpoint is the
   same whichever order drops are discovered in. *)
let run (func : Mir.func) : Mir.func =
  let reads = read_counts func in
  let read vid = Hashtbl.mem reads vid in
  let drop = function
    | Mir.Ovar v -> (
      match Hashtbl.find_opt reads v.Mir.vid with
      | Some n when n > 1 -> Hashtbl.replace reads v.Mir.vid (n - 1)
      | Some _ -> Hashtbl.remove reads v.Mir.vid
      | None -> ())
    | Mir.Oconst _ -> ()
  in
  let rec forget_instr (i : Mir.instr) =
    match i.Mir.idesc with
    | Mir.Idef (_, rv) -> Rewrite.iter_operands drop rv
    | Mir.Istore (_, idx, v) ->
      drop idx;
      drop v
    | Mir.Ivstore (_, base, v, _) ->
      drop base;
      drop v
    | Mir.Iif (c, t, e) ->
      drop c;
      List.iter forget_instr t;
      List.iter forget_instr e
    | Mir.Iloop l ->
      drop l.Mir.lo;
      drop l.Mir.step;
      drop l.Mir.hi;
      List.iter forget_instr l.Mir.body
    | Mir.Iwhile { cond; cond_block; body } ->
      drop cond;
      List.iter forget_instr cond_block;
      List.iter forget_instr body
    | Mir.Iprint (_, ops) -> List.iter drop ops
    | Mir.Ibreak | Mir.Icontinue | Mir.Ireturn | Mir.Icomment _ -> ()
  in
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
     returned physically, so a no-change round rebuilds no list. A run
     that removes nothing still pays for the read-count table and the
     per-block closures: about 5 kwords per run on compile-large's
     programs (EXPERIMENTS.md, "Optimizer and inference re-scans"). *)
  let prune (block : Mir.block) : Mir.block =
    let rec go (l : Mir.block) : Mir.block =
      match l with
      | [] -> l
      | instr :: rest ->
        if keep instr then begin
          let rest' = go rest in
          if rest' == rest then l else instr :: rest'
        end
        else begin
          changed := true;
          forget_instr instr;
          go rest
        end
    in
    go block
  in
  let rec fix func n =
    changed := false;
    let func' = Rewrite.map_blocks prune func in
    if !changed && n < 20 then fix func' (n + 1) else func'
  in
  fix func 0
