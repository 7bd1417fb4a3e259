module Mir = Masc_mir.Mir

let run (func : Mir.func) : Mir.func =
  (* available: rvalue -> variable holding its value; subst: variables
     replaced by an earlier equivalent, applied to later operands so
     chained expressions keep matching. One set of tables per run,
     reset at each block ([map_blocks] visits blocks sequentially and
     the tables are reset at every in-block segment boundary anyway). *)
  let available : (Mir.rvalue, Mir.var) Hashtbl.t = Hashtbl.create 16 in
  (* last store per array: enables store-to-load forwarding *)
  let store_avail : (int, Mir.operand * Mir.operand) Hashtbl.t =
    Hashtbl.create 8
  in
  let subst_map : (int, Mir.operand) Hashtbl.t = Hashtbl.create 16 in
  (* Every variable id occurring in the three tables since they were
     last cleared: holder, operands and load base of an [available]
     entry, stored index and value of a [store_avail] entry, key and
     value of a [subst_map] entry. Entries are removed without
     un-marking, so this is a superset, which is all [kill] needs: a
     vid outside it cannot make any entry stale. Most defs target a
     fresh temporary nothing mentions yet, so most kills stop at one
     byte read instead of scanning every available entry (each
     [Hashtbl.iter] also allocates a closure). Every helper below is
     built once per run. A run that changes nothing still allocates
     this set and a hash-table bucket per cacheable def and per store:
     about 2.8–3.7 kwords per run on compile-large's programs
     (EXPERIMENTS.md, "Optimizer no-change runs"). *)
  let mentioned = Rewrite.Vid_set.create func.Mir.next_vid in
  let mention = Rewrite.Vid_set.add mentioned in
  let mention_op = Rewrite.Vid_set.add_operand mentioned in
  let clear_tables () =
    Hashtbl.clear available;
    Hashtbl.clear store_avail;
    Hashtbl.clear subst_map;
    Rewrite.Vid_set.clear mentioned
  in
  (* The scan callbacks are built once here over [kill_vid]/accumulator
     refs instead of closing over the killed vid per call. *)
  let kill_vid = ref (-1) in
  let is_kill = function
    | Mir.Ovar v -> v.Mir.vid = !kill_vid
    | Mir.Oconst _ -> false
  in
  let stale_rvs = ref [] in
  let scan_avail rv (v : Mir.var) =
    if v.Mir.vid = !kill_vid || Rewrite.reads_var !kill_vid rv then
      stale_rvs := rv :: !stale_rvs
  in
  let scan_loads rv _ =
    match rv with
    | Mir.Rload _ | Mir.Rvload _ -> stale_rvs := rv :: !stale_rvs
    | _ -> ()
  in
  let stale_arrs = ref [] in
  let scan_stores arr (idx, x) =
    if is_kill idx || is_kill x then stale_arrs := arr :: !stale_arrs
  in
  let stale_subst = ref [] in
  let scan_subst k op =
    match op with
    | Mir.Ovar v when v.Mir.vid = !kill_vid -> stale_subst := k :: !stale_subst
    | _ -> ()
  in
  let rm_avail rv = Hashtbl.remove available rv in
  let rm_store arr = Hashtbl.remove store_avail arr in
  let rm_subst k = Hashtbl.remove subst_map k in
  let subst (op : Mir.operand) =
    match op with
    | Mir.Ovar v -> (
      match Hashtbl.find subst_map v.Mir.vid with
      | o -> o
      | exception Not_found -> op)
    | Mir.Oconst _ -> op
  in
  let cacheable = function
    | Mir.Rbin _ | Mir.Runop _ | Mir.Rmath _ | Mir.Rcomplex _
    | Mir.Rload _ | Mir.Rvload _ | Mir.Rvbroadcast _ | Mir.Rvreduce _ ->
      true
    | Mir.Rmove _ | Mir.Rintrin _ -> false
  in
  let kill vid =
    if Rewrite.Vid_set.mem mentioned vid then begin
      kill_vid := vid;
      Hashtbl.iter scan_avail available;
      (match !stale_rvs with
      | [] -> ()
      | l ->
        List.iter rm_avail l;
        stale_rvs := []);
      Hashtbl.iter scan_stores store_avail;
      (match !stale_arrs with
      | [] -> ()
      | l ->
        List.iter rm_store l;
        stale_arrs := []);
      Hashtbl.remove subst_map vid;
      Hashtbl.iter scan_subst subst_map;
      match !stale_subst with
      | [] -> ()
      | l ->
        List.iter rm_subst l;
        stale_subst := []
    end
  in
  let remember rv (v : Mir.var) =
    if cacheable rv then begin
      Hashtbl.replace available rv v;
      mention v.Mir.vid;
      Rewrite.Vid_set.add_reads mentioned rv
    end
  in
  let kill_loads () =
    Hashtbl.iter scan_loads available;
    match !stale_rvs with
    | [] -> ()
    | l ->
      List.iter rm_avail l;
      stale_rvs := []
  in
  let rewrite (instr : Mir.instr) =
    match instr.Mir.idesc with
    | Mir.Idef (v, rv) -> (
      let rv' = Rewrite.map_operands subst rv in
      (* store-to-load forwarding *)
      let rv' =
        match rv' with
        | Mir.Rload (arr, idx) -> (
          match Hashtbl.find store_avail arr.Mir.vid with
          | sidx, x when sidx = idx -> Mir.Rmove x
          | _ -> rv'
          | exception Not_found -> rv')
        | _ -> rv'
      in
      match Hashtbl.find available rv' with
      | exception Not_found ->
        kill v.Mir.vid;
        remember rv' v;
        if rv' == rv then instr else Mir.redesc instr (Mir.Idef (v, rv'))
      | prior
        when prior.Mir.vid <> v.Mir.vid && prior.Mir.vty = v.Mir.vty ->
        kill v.Mir.vid;
        Hashtbl.replace subst_map v.Mir.vid (Mir.Ovar prior);
        mention v.Mir.vid;
        mention prior.Mir.vid;
        Mir.redesc instr (Mir.Idef (v, Mir.Rmove (Mir.Ovar prior)))
      | _ ->
        kill v.Mir.vid;
        remember rv' v;
        if rv' == rv then instr else Mir.redesc instr (Mir.Idef (v, rv')))
    | Mir.Istore (arr, idx, x) ->
      kill_loads ();
      let idx' = subst idx and x' = subst x in
      Hashtbl.replace store_avail arr.Mir.vid (idx', x');
      mention_op idx';
      mention_op x';
      if idx' == idx && x' == x then instr
      else Mir.redesc instr (Mir.Istore (arr, idx', x'))
    | Mir.Ivstore (arr, base, x, l) ->
      kill_loads ();
      Hashtbl.remove store_avail arr.Mir.vid;
      let base' = subst base and x' = subst x in
      if base' == base && x' == x then instr
      else Mir.redesc instr (Mir.Ivstore (arr, base', x', l))
    | Mir.Iif _ | Mir.Iloop _ | Mir.Iwhile _ ->
      clear_tables ();
      instr
    | Mir.Iprint (fmt, ops) ->
      let ops' = Rewrite.smap subst ops in
      if ops' == ops then instr else Mir.redesc instr (Mir.Iprint (fmt, ops'))
    | Mir.Ibreak | Mir.Icontinue | Mir.Ireturn | Mir.Icomment _ -> instr
  in
  let process (block : Mir.block) : Mir.block =
    clear_tables ();
    Rewrite.smap rewrite block
  in
  Rewrite.map_blocks process func
