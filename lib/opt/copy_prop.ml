module Mir = Masc_mir.Mir

let run (func : Mir.func) : Mir.func =
  (* One table per run, reset at each block: [map_blocks] visits blocks
     sequentially, and the table is already reset at every segment
     boundary inside a block, so clearing it between blocks is the same
     discipline — and saves a table allocation per block per run. *)
  let map : (int, Mir.operand) Hashtbl.t = Hashtbl.create 16 in
  (* Variable ids occurring as a value in [map] since it was last
     cleared (a superset: removals do not un-mark). [kill vid] scans the
     values only when [vid] is in it, so redefining a variable no copy
     reads costs one byte read instead of a [Hashtbl.iter] (which also
     allocates a closure). The scan callback is built once over refs
     instead of closing over the killed vid per call, and so is every
     other helper: nothing is built per block or per segment. A run that
     changes nothing allocates this set, the empty map, the helpers and
     an entry per copy it records: about 0.15 kwords per run on
     compile-large's programs (EXPERIMENTS.md, "Optimizer no-change
     runs"). *)
  let sources = Rewrite.Vid_set.create func.Mir.next_vid in
  let clear_map () =
    Hashtbl.clear map;
    Rewrite.Vid_set.clear sources
  in
  let kill_vid = ref (-1) in
  let stale = ref [] in
  let scan k op =
    match op with
    | Mir.Ovar v when v.Mir.vid = !kill_vid -> stale := k :: !stale
    | _ -> ()
  in
  let rm k = Hashtbl.remove map k in
  let subst (op : Mir.operand) =
    match op with
    | Mir.Ovar v -> (
      match Hashtbl.find map v.Mir.vid with o -> o | exception Not_found -> op)
    | Mir.Oconst _ -> op
  in
  let kill vid =
    Hashtbl.remove map vid;
    if Rewrite.Vid_set.mem sources vid then begin
      kill_vid := vid;
      Hashtbl.iter scan map;
      match !stale with
      | [] -> ()
      | l ->
        List.iter rm l;
        stale := []
    end
  in
  let rewrite (instr : Mir.instr) =
    match instr.Mir.idesc with
    | Mir.Idef (v, rv) ->
      let rv' = Rewrite.map_operands subst rv in
      kill v.Mir.vid;
      (* Only same-scalar-type moves are transparent: a move can also
         coerce (e.g. double literal into an int register). *)
      (match rv' with
      | Mir.Rmove (Mir.Oconst _ as op)
        when Mir.operand_ty op = v.Mir.vty ->
        Hashtbl.replace map v.Mir.vid op
      | Mir.Rmove (Mir.Ovar src as op)
        when src.Mir.vty = v.Mir.vty && not (Mir.is_array src) ->
        Hashtbl.replace map v.Mir.vid op;
        Rewrite.Vid_set.add sources src.Mir.vid
      | _ -> ());
      if rv' == rv then instr else Mir.redesc instr (Mir.Idef (v, rv'))
    | Mir.Istore (arr, idx, x) ->
      let idx' = subst idx and x' = subst x in
      if idx' == idx && x' == x then instr
      else Mir.redesc instr (Mir.Istore (arr, idx', x'))
    | Mir.Ivstore (arr, base, x, l) ->
      let base' = subst base and x' = subst x in
      if base' == base && x' == x then instr
      else Mir.redesc instr (Mir.Ivstore (arr, base', x', l))
    | Mir.Iif (c, t, e) ->
      let c' = subst c in
      clear_map ();
      if c' == c then instr else Mir.redesc instr (Mir.Iif (c', t, e))
    | Mir.Iloop l ->
      let lo' = subst l.Mir.lo
      and step' = subst l.Mir.step
      and hi' = subst l.Mir.hi in
      clear_map ();
      if lo' == l.Mir.lo && step' == l.Mir.step && hi' == l.Mir.hi then
        instr
      else Mir.redesc instr (Mir.Iloop { l with Mir.lo = lo'; step = step'; hi = hi' })
    | Mir.Iwhile _ ->
      clear_map ();
      instr
    | Mir.Iprint (fmt, ops) ->
      let ops' = Rewrite.smap subst ops in
      if ops' == ops then instr else Mir.redesc instr (Mir.Iprint (fmt, ops'))
    | Mir.Ibreak | Mir.Icontinue | Mir.Ireturn | Mir.Icomment _ -> instr
  in
  let process_segment (block : Mir.block) : Mir.block =
    clear_map ();
    Rewrite.smap rewrite block
  in
  Rewrite.map_blocks process_segment func
