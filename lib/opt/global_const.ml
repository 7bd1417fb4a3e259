module Mir = Masc_mir.Mir

let propagate (func : Mir.func) : Mir.func =
  (* Count all definitions (anywhere) per variable. *)
  let def_counts = Hashtbl.create 32 in
  let bump vid =
    Hashtbl.replace def_counts vid
      (1 + (try Hashtbl.find def_counts vid with Not_found -> 0))
  in
  Rewrite.iter_instrs
    (fun i ->
      match i.Mir.idesc with
      | Mir.Idef (v, _) -> bump v.Mir.vid
      | Mir.Iloop l -> bump l.Mir.ivar.Mir.vid
      | Mir.Istore _ | Mir.Ivstore _ | Mir.Iif _ | Mir.Iwhile _ | Mir.Ibreak
      | Mir.Icontinue | Mir.Ireturn | Mir.Iprint _ | Mir.Icomment _ ->
        ())
    func;
  (* Top-level single-def constants. *)
  let consts : (int, Mir.const) Hashtbl.t = Hashtbl.create 16 in
  List.iter
    (fun (i : Mir.instr) ->
      match i.Mir.idesc with
      | Mir.Idef (v, Mir.Rmove (Mir.Oconst c))
        when (try Hashtbl.find def_counts v.Mir.vid = 1 with Not_found -> false)
             && v.Mir.vty = Mir.operand_ty (Mir.Oconst c) ->
        Hashtbl.replace consts v.Mir.vid c
      | _ -> ())
    func.Mir.body;
  if Hashtbl.length consts = 0 then func
  else begin
    let subst (op : Mir.operand) =
      match op with
      | Mir.Ovar v -> (
        match Hashtbl.find consts v.Mir.vid with
        | c -> Mir.Oconst c
        | exception Not_found -> op)
      | Mir.Oconst _ -> op
    in
    (* Built once per run: a lambda inside [rewrite] would be a closure
       per block. *)
    let rewrite_instr (instr : Mir.instr) =
      match instr.Mir.idesc with
      | Mir.Idef (v, rv) ->
        let rv' = Rewrite.map_operands subst rv in
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
        if c' == c then instr else Mir.redesc instr (Mir.Iif (c', t, e))
      | Mir.Iloop l ->
        let lo' = subst l.Mir.lo
        and step' = subst l.Mir.step
        and hi' = subst l.Mir.hi in
        if lo' == l.Mir.lo && step' == l.Mir.step && hi' == l.Mir.hi then
          instr
        else Mir.redesc instr (Mir.Iloop { l with Mir.lo = lo'; step = step'; hi = hi' })
      | Mir.Iwhile { cond_block; cond; body } ->
        let cond' = subst cond in
        if cond' == cond then instr
        else Mir.redesc instr (Mir.Iwhile { cond_block; cond = cond'; body })
      | Mir.Iprint (fmt, ops) ->
        let ops' = Rewrite.smap subst ops in
        if ops' == ops then instr else Mir.redesc instr (Mir.Iprint (fmt, ops'))
      | Mir.Ibreak | Mir.Icontinue | Mir.Ireturn | Mir.Icomment _ ->
        instr
    in
    let rewrite (block : Mir.block) : Mir.block =
      Rewrite.smap rewrite_instr block
    in
    Rewrite.map_blocks rewrite func
  end

let run (func : Mir.func) : Mir.func =
  (* Cheap gate: without a top-level constant move of matching type
     there is nothing to propagate, and the def-count table — the only
     allocation of a clean run — is never built. *)
  let candidate =
    List.exists
      (fun (i : Mir.instr) ->
        match i.Mir.idesc with
        | Mir.Idef (v, Mir.Rmove (Mir.Oconst c)) ->
          v.Mir.vty = Mir.operand_ty (Mir.Oconst c)
        | _ -> false)
      func.Mir.body
  in
  if candidate then propagate func else func
