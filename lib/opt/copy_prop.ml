module Mir = Masc_mir.Mir

(* Per-run cost: one [Rewrite.Vid_map] from a copy's target to the
   operand it copies. A lookup is a byte read and two array reads; a
   miss allocates nothing and raises nothing. Redefining a variable
   unbinds it, and scans the bindings only when one of them reads it.
   The map and every helper are built once per run, never per block or
   per segment. A run that changes nothing takes about 40% of the time
   per instruction it took with a polymorphic [Hashtbl], on
   compile-large's optimized MIR (EXPERIMENTS.md, "CSE and copy-prop on
   vid-keyed tables"). *)
let run (func : Mir.func) : Mir.func =
  (* One table per run, reset at each block: [map_blocks] visits blocks
     sequentially, and the table is already reset at every segment
     boundary inside a block, so clearing it between blocks is the same
     discipline. *)
  let map = Rewrite.Vid_map.create func.Mir.next_vid in
  let clear_map () = Rewrite.Vid_map.clear map in
  let subst (op : Mir.operand) =
    match op with
    | Mir.Ovar v when Rewrite.Vid_map.mem map v.Mir.vid ->
      Rewrite.Vid_map.get map v.Mir.vid
    | Mir.Ovar _ | Mir.Oconst _ -> op
  in
  let kill vid =
    Rewrite.Vid_map.remove map vid;
    Rewrite.Vid_map.remove_reading map vid
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
        when Mir.equal_ty (Mir.operand_ty op) v.Mir.vty ->
        Rewrite.Vid_map.set map v.Mir.vid op
      | Mir.Rmove (Mir.Ovar src as op)
        when Mir.equal_ty src.Mir.vty v.Mir.vty && not (Mir.is_array src) ->
        Rewrite.Vid_map.set map v.Mir.vid op
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
