module Mir = Masc_mir.Mir
module Isa = Masc_asip.Isa
module Cost = Masc_asip.Cost_model
module V = Value

type xvalue = Exec.xvalue = Xscalar of Value.scalar | Xarray of Value.scalar array

type result = Exec.result = {
  rets : xvalue list;
  cycles : int;
  dyn_instrs : int;
  histogram : (string * int) list;
  output : string;
}

exception Runtime_error = Exec.Runtime_error

let fail = Exec.fail
let render_format = Exec.render_format

(* ------------------------------------------------------------------ *)
(* The fast path: compile the function once into a closure-threaded    *)
(* plan (slot-resolved variables, memoized static costs) and execute   *)
(* it. See Plan for the machinery; callers that simulate the same      *)
(* function repeatedly should build the plan once via Plan.compile (or *)
(* use Masc.Compiler, which caches it per compilation).                *)
(* ------------------------------------------------------------------ *)

let run ?max_cycles ?fuel ?max_alloc_bytes ~isa ~mode (f : Mir.func)
    (args : xvalue list) : result =
  Plan.execute ?max_cycles ?fuel ?max_alloc_bytes (Plan.compile ~isa ~mode f)
    args

(* ------------------------------------------------------------------ *)
(* The legacy tree-walking interpreter, kept as the executable         *)
(* reference semantics: the differential test in test/test_vm.ml runs  *)
(* every kernel on every target and mode through both paths and        *)
(* demands bit-identical results.                                      *)
(* ------------------------------------------------------------------ *)

(* A register holds a scalar, a vector register a lane buffer of its
   width (the form the plan engine and the C hold one in), an array its
   elements. *)
type cell = Creg of V.scalar ref | Cvec of float array | Carr of V.scalar array

type state = {
  isa : Isa.t;
  mode : Cost.mode;
  cells : (int, cell) Hashtbl.t;
  mutable cycles : int;
  mutable dyn : int;
  max_cycles : int;
  fuel : int;
  floc : string;  (* simulated function name, for trap reports *)
  hist : (string, int) Hashtbl.t;
  out : Buffer.t;
  prof : Masc_obs.Profile.t option;
  guard_on : bool;  (* deadline armed at entry, pre-decided *)
}

(* Every charge names the source line it belongs to, so when profiling
   is on the per-line and per-class attributions are exact partitions
   of the total cycle count — no residue bucket, no sampling. *)
let charge st line cls cycles =
  st.cycles <- st.cycles + cycles;
  st.dyn <- st.dyn + 1;
  (match Hashtbl.find_opt st.hist cls with
  | Some c -> Hashtbl.replace st.hist cls (c + cycles)
  | None -> Hashtbl.replace st.hist cls cycles);
  (match st.prof with
  | Some p ->
    Masc_obs.Profile.add_line p line ~cycles ~instrs:1;
    Masc_obs.Profile.add_class p cls ~cycles ~instrs:1
  | None -> ());
  (* Same cancellation points as the plan engine (Plan.charge), at the
     same steps, so the differential contract holds under deadlines
     too. *)
  if st.guard_on && st.dyn land Exec.guard_mask = 0 then
    Masc_fault.Cancel.check ();
  if st.dyn > st.fuel then
    Exec.raise_trap
      ~kind:(Exec.Fuel_exhausted { fuel = st.fuel })
      ~loc:st.floc ~steps_executed:st.dyn;
  if st.cycles > st.max_cycles then
    Exec.raise_trap
      ~kind:(Exec.Cycle_limit { max_cycles = st.max_cycles })
      ~loc:st.floc ~steps_executed:st.dyn

let cell st (v : Mir.var) =
  match Hashtbl.find_opt st.cells v.Mir.vid with
  | Some c -> c
  | None ->
    (* Lazily create cells: registers start at zero, a vector register
       at zero lanes of its width as the C declares it, arrays
       zero-filled. *)
    let c =
      match v.Mir.vty with
      | Mir.Tscalar { Mir.lanes; _ } when lanes > 1 ->
        Cvec (Array.make lanes 0.0)
      | Mir.Tscalar sty -> Creg (ref (V.coerce sty (V.Si 0)))
      | Mir.Tarray (sty, n) -> Carr (Array.make n (V.coerce sty (V.Si 0)))
    in
    Hashtbl.replace st.cells v.Mir.vid c;
    c

(* The entry check admits a vector only where the C has one, so a
   scalar position reads a register, a vector position a vector
   register, and a def's rvalue gives its target's lanes. The failures
   below are for MIR that skipped it. *)
let unchecked what = fail "%s in MIR the entry check refuses" what

let reg st v =
  match cell st v with
  | Creg r -> r
  | Cvec _ | Carr _ -> unchecked "non-scalar register operand"

let arr st v =
  match cell st v with
  | Carr a -> a
  | Creg _ | Cvec _ -> unchecked "register used as an array"

let vreg st (op : Mir.operand) =
  match op with
  | Mir.Ovar v -> (
    match cell st v with
    | Cvec x -> x
    | Creg _ | Carr _ -> unchecked "scalar where a vector is expected")
  | Mir.Oconst _ -> unchecked "constant where a vector is expected"

let eval_scalar st (op : Mir.operand) : V.scalar =
  match op with
  | Mir.Ovar v -> !(reg st v)
  | Mir.Oconst (Mir.Cf f) -> V.Sf f
  | Mir.Oconst (Mir.Ci i) -> V.Si i
  | Mir.Oconst (Mir.Cb b) -> V.Sb b
  | Mir.Oconst (Mir.Cc z) -> V.Sc z

let index_of st op n what =
  let i = V.to_int (eval_scalar st op) in
  if i < 0 || i >= n then fail "%s index %d out of bounds [0, %d)" what i n;
  i

(* One SIMD lane or reduction step: [V.binop] on two [Sf] lanes, so the
   tree-walker stays the reference for the plan engine's unboxed [lane]
   (min/max are OCaml's, NaN order included). *)
let lane op x y = V.to_float (V.binop op (V.Sf x) (V.Sf y))

(* Horizontal reduction, left to right from lane 0. *)
let fold_lanes op (x : float array) =
  let acc = ref x.(0) in
  for i = 1 to Array.length x - 1 do
    acc := lane op !acc x.(i)
  done;
  V.Sf !acc

let intrin st name =
  match Isa.find_named st.isa name with
  | None -> fail "target %s has no intrinsic %s" st.isa.Isa.tname name
  | Some desc -> desc.Isa.kind

(* A def into a scalar register. *)
let eval_rvalue st (rv : Mir.rvalue) : V.scalar =
  match rv with
  | Mir.Rbin (op, a, b) ->
    let x = eval_scalar st a in
    let y = eval_scalar st b in
    V.binop op x y
  | Mir.Runop (op, a) -> V.unop op (eval_scalar st a)
  | Mir.Rmath (name, args) -> V.math name (List.map (eval_scalar st) args)
  | Mir.Rcomplex (re, im) ->
    V.Sc
      { Complex.re = V.to_float (eval_scalar st re);
        im = V.to_float (eval_scalar st im) }
  | Mir.Rload (a, idx) ->
    let arr = arr st a in
    arr.(index_of st idx (Array.length arr) a.Mir.vname)
  | Mir.Rmove a -> eval_scalar st a
  | Mir.Rvreduce (r, a) -> fold_lanes (Exec.vreduce_op r) (vreg st a)
  | Mir.Rintrin (name, args) -> (
    let c op = V.to_complex (eval_scalar st op) in
    match (intrin st name, args) with
    | Isa.Kcmul, [ a; b ] -> V.Sc (Complex.mul (c a) (c b))
    | Isa.Kcadd, [ a; b ] -> V.Sc (Complex.add (c a) (c b))
    | Isa.Kcmac, [ acc; a; b ] ->
      V.Sc (Complex.add (c acc) (Complex.mul (c a) (c b)))
    | kind, [ a ] -> (
      match Exec.reduce_kind_op kind with
      | Some op -> fold_lanes op (vreg st a)
      | None -> unchecked name)
    | _ -> unchecked name)
  | Mir.Rvload _ | Mir.Rvbroadcast _ -> unchecked "vector rvalue"

(* A def into a vector register: the rvalue's lanes into its buffer. *)
let eval_lanes st (rv : Mir.rvalue) (dst : float array) =
  let n = Array.length dst in
  match rv with
  | Mir.Rmove a -> Array.blit (vreg st a) 0 dst 0 n
  | Mir.Rvload (a, base, _) ->
    let arr = arr st a in
    let b = index_of st base (Array.length arr) a.Mir.vname in
    if b + n > Array.length arr then
      fail "vector load past end of %s" a.Mir.vname;
    for k = 0 to n - 1 do
      dst.(k) <- V.to_float arr.(b + k)
    done
  | Mir.Rvbroadcast (a, _) -> Array.fill dst 0 n (V.to_float (eval_scalar st a))
  | Mir.Rintrin (name, args) -> (
    match (intrin st name, args) with
    | Isa.Kmac, [ acc; a; b ] ->
      let z = vreg st acc and x = vreg st a and y = vreg st b in
      for k = 0 to n - 1 do
        dst.(k) <- lane Mir.Badd z.(k) (lane Mir.Bmul x.(k) y.(k))
      done
    | kind, [ a; b ] -> (
      match Exec.simd_kind_op kind with
      | Some op ->
        let x = vreg st a and y = vreg st b in
        for k = 0 to n - 1 do
          dst.(k) <- lane op x.(k) y.(k)
        done
      | None -> unchecked name)
    | _ -> unchecked name)
  | Mir.Rbin _ | Mir.Runop _ | Mir.Rmath _ | Mir.Rcomplex _ | Mir.Rload _
  | Mir.Rvreduce _ ->
    unchecked "scalar rvalue"

let class_of_rvalue = Cost.class_of_rvalue

let rec exec_block st (block : Mir.block) = List.iter (exec_instr st) block

and exec_instr st (instr : Mir.instr) =
  let line = Mir.line_of instr in
  match instr.Mir.idesc with
  | Mir.Idef (v, rv) ->
    (match cell st v with
    | Cvec dst -> eval_lanes st rv dst
    | Creg r -> r := V.coerce (Mir.elem_ty v) (eval_rvalue st rv)
    | Carr _ -> unchecked "def of an array");
    let cost = Cost.def_cost st.isa st.mode rv in
    charge st line (class_of_rvalue rv) cost;
    (match (st.prof, rv) with
    | Some p, Mir.Rintrin (name, _) ->
      Masc_obs.Profile.add_intrin p name ~cycles:cost ~instrs:1
    | _ -> ())
  | Mir.Istore (a, idx, x) ->
    let arr = arr st a in
    let i = index_of st idx (Array.length arr) a.Mir.vname in
    let s = eval_scalar st x in
    let sty = Mir.elem_ty a in
    arr.(i) <- V.coerce sty s;
    charge st line "mem"
      (Cost.store_cost st.isa st.mode
         ~cplx:(sty.Mir.cplx = Masc_sema.Mtype.Complex))
  | Mir.Ivstore (a, base, x, lanes) ->
    let arr = arr st a in
    let b = index_of st base (Array.length arr) a.Mir.vname in
    if b + lanes > Array.length arr then
      fail "vector store past end of %s" a.Mir.vname;
    let x = vreg st x in
    for k = 0 to lanes - 1 do
      arr.(b + k) <- V.Sf x.(k)
    done;
    charge st line "simd" (Cost.vstore_cost st.isa)
  | Mir.Iif (c, then_b, else_b) ->
    charge st line "branch" (Cost.branch_cost st.isa);
    if V.to_bool (eval_scalar st c) then exec_block st then_b
    else exec_block st else_b
  | Mir.Iloop { ivar; lo; step; hi; body } ->
    let lo_v = eval_scalar st lo in
    let step_v = eval_scalar st step in
    let hi_v = eval_scalar st hi in
    let int_loop =
      match (lo_v, step_v, hi_v) with
      | (V.Si _ | V.Sb _), (V.Si _ | V.Sb _), (V.Si _ | V.Sb _) -> true
      | _ -> false
    in
    let iv = reg st ivar in
    let continue_loop v =
      if int_loop then
        if V.to_int step_v >= 0 then V.to_int v <= V.to_int hi_v
        else V.to_int v >= V.to_int hi_v
      else if V.to_float step_v >= 0.0 then V.to_float v <= V.to_float hi_v
      else V.to_float v >= V.to_float hi_v
    in
    let next v =
      if int_loop then V.Si (V.to_int v + V.to_int step_v)
      else V.Sf (V.to_float v +. V.to_float step_v)
    in
    let rec go v =
      if continue_loop v then begin
        iv := v;
        charge st line "loop" (Cost.loop_iter_cost st.isa);
        (try exec_block st body with Exec.Continue_exc -> ());
        go (next v)
      end
    in
    (try go lo_v with Exec.Break_exc -> ());
    charge st line "branch" (Cost.branch_cost st.isa)
  | Mir.Iwhile { cond_block; cond; body } ->
    let rec go () =
      exec_block st cond_block;
      charge st line "branch" (Cost.branch_cost st.isa);
      if V.to_bool (eval_scalar st cond) then begin
        (try exec_block st body with Exec.Continue_exc -> ());
        go ()
      end
    in
    (try go () with Exec.Break_exc -> ())
  | Mir.Ibreak -> raise Exec.Break_exc
  | Mir.Icontinue -> raise Exec.Continue_exc
  | Mir.Ireturn -> raise Exec.Return_exc
  | Mir.Iprint (fmt, ops) ->
    let flat =
      List.concat_map
        (fun op ->
          match op with
          | Mir.Ovar v when Mir.is_array v -> Array.to_list (arr st v)
          | _ -> [ eval_scalar st op ])
        ops
    in
    (match fmt with
    | Some f -> Buffer.add_string st.out (render_format f flat)
    | None ->
      List.iter
        (fun s -> Buffer.add_string st.out (Format.asprintf "%a " V.pp_scalar s))
        flat;
      Buffer.add_char st.out '\n')
  | Mir.Icomment text ->
    if String.length text >= 6 && String.sub text 0 6 = "inline" then
      charge st line "call" (Cost.call_boundary_cost st.isa st.mode)

let run_tree ?(max_cycles = 4_000_000_000) ?(fuel = Exec.default_fuel)
    ?(max_alloc_bytes = Exec.default_max_alloc_bytes) ?profile ~isa ~mode
    (f : Mir.func) (args : xvalue list) : result =
  ignore (Exec.check_entry ~isa f);
  if List.length args <> List.length f.Mir.params then
    fail "%s expects %d arguments, received %d" f.Mir.name
      (List.length f.Mir.params) (List.length args);
  Exec.check_alloc ~loc:f.Mir.name ~cap_bytes:max_alloc_bytes
    (Exec.array_bytes_of_func f);
  let st =
    { isa; mode; cells = Hashtbl.create 64; cycles = 0; dyn = 0; max_cycles;
      fuel; floc = f.Mir.name; hist = Hashtbl.create 16;
      out = Buffer.create 256; prof = profile;
      guard_on = Masc_fault.Cancel.armed () }
  in
  List.iter2
    (fun (p : Mir.var) arg ->
      match (p.Mir.vty, arg) with
      | Mir.Tscalar sty, Xscalar s ->
        Hashtbl.replace st.cells p.Mir.vid
          (Creg (ref (V.coerce sty s)))
      | Mir.Tarray (sty, n), Xarray a ->
        if Array.length a <> n then
          fail "argument %s: expected %d elements, received %d" p.Mir.vname n
            (Array.length a);
        Hashtbl.replace st.cells p.Mir.vid (Carr (Array.map (V.coerce sty) a))
      | Mir.Tscalar _, Xarray _ | Mir.Tarray _, Xscalar _ ->
        fail "argument %s: scalar/array mismatch" p.Mir.vname)
    f.Mir.params args;
  (try exec_block st f.Mir.body with Exec.Return_exc -> ());
  let rets =
    List.map
      (fun (r : Mir.var) ->
        match cell st r with
        | Carr a -> Xarray (Array.copy a)
        | Creg _ | Cvec _ -> Xscalar !(reg st r))
      f.Mir.rets
  in
  { rets; cycles = st.cycles; dyn_instrs = st.dyn;
    histogram =
      Hashtbl.fold (fun k v acc -> (k, v) :: acc) st.hist []
      |> List.sort (fun (_, a) (_, b) -> compare b a);
    output = Buffer.contents st.out }

let xarray_of_floats a = Xarray (Array.map (fun f -> V.Sf f) a)
let xarray_of_complex a = Xarray (Array.map (fun z -> V.Sc z) a)
