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

type cell = Creg of Value.t ref | Carr of Value.scalar array

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
        Creg (ref (Value.Vector (Array.make lanes (V.Sf 0.0))))
      | Mir.Tscalar sty -> Creg (ref (Value.Scalar (V.coerce sty (V.Si 0))))
      | Mir.Tarray (sty, n) -> Carr (Array.make n (V.coerce sty (V.Si 0)))
    in
    Hashtbl.replace st.cells v.Mir.vid c;
    c

let reg st v =
  match cell st v with
  | Creg r -> r
  | Carr _ -> fail "variable %s.%d used as a register" v.Mir.vname v.Mir.vid

let arr st v =
  match cell st v with
  | Carr a -> a
  | Creg _ -> fail "variable %s.%d used as an array" v.Mir.vname v.Mir.vid

let eval_operand st (op : Mir.operand) : Value.t =
  match op with
  | Mir.Ovar v -> !(reg st v)
  | Mir.Oconst (Mir.Cf f) -> Value.Scalar (V.Sf f)
  | Mir.Oconst (Mir.Ci i) -> Value.Scalar (V.Si i)
  | Mir.Oconst (Mir.Cb b) -> Value.Scalar (V.Sb b)
  | Mir.Oconst (Mir.Cc z) -> Value.Scalar (V.Sc z)

(* The entry check admits a vector only where the C has one, so a
   register read in a scalar position holds a scalar, and lane-wise
   operands are vectors of one width. *)
let scalar_of_value = function
  | Value.Scalar s -> s
  | Value.Vector _ -> fail "vector value used where a scalar was expected"

let eval_scalar st op = scalar_of_value (eval_operand st op)

let index_of st op n what =
  let s = eval_scalar st op in
  let i = V.to_int s in
  if i < 0 || i >= n then fail "%s index %d out of bounds [0, %d)" what i n;
  i

let lanewise2 f a b =
  match (a, b) with
  | Value.Vector x, Value.Vector y -> Value.Vector (Array.map2 f x y)
  | _ -> fail "lane-wise operation on a scalar"

let lanewise3 f a b c =
  match (a, b, c) with
  | Value.Vector x, Value.Vector y, Value.Vector z ->
    Value.Vector (Array.init (Array.length x) (fun i -> f x.(i) y.(i) z.(i)))
  | _ -> fail "lane-wise operation on a scalar"

(* Horizontal reduction, left to right from lane 0. *)
let fold_lanes combine (v : Value.t) =
  match v with
  | Value.Vector x ->
    let acc = ref x.(0) in
    for i = 1 to Array.length x - 1 do
      acc := combine !acc x.(i)
    done;
    Value.Scalar !acc
  | Value.Scalar _ -> fail "reduction of a scalar"

let eval_intrin st name (args : Value.t list) : Value.t =
  match Isa.find_named st.isa name with
  | None -> fail "target %s has no intrinsic %s" st.isa.Isa.tname name
  | Some desc -> (
    let c v = V.to_complex (scalar_of_value v) in
    match (desc.Isa.kind, args) with
    | Isa.Ksimd_add, [ a; b ] -> lanewise2 (V.binop Mir.Badd) a b
    | Isa.Ksimd_sub, [ a; b ] -> lanewise2 (V.binop Mir.Bsub) a b
    | Isa.Ksimd_mul, [ a; b ] -> lanewise2 (V.binop Mir.Bmul) a b
    | Isa.Ksimd_div, [ a; b ] -> lanewise2 (V.binop Mir.Bdiv) a b
    | Isa.Ksimd_min, [ a; b ] -> lanewise2 (V.binop Mir.Bmin) a b
    | Isa.Ksimd_max, [ a; b ] -> lanewise2 (V.binop Mir.Bmax) a b
    | Isa.Kmac, [ acc; a; b ] ->
      lanewise3
        (fun acc a b -> V.binop Mir.Badd acc (V.binop Mir.Bmul a b))
        acc a b
    | Isa.Kcmul, [ a; b ] -> Value.Scalar (V.Sc (Complex.mul (c a) (c b)))
    | Isa.Kcadd, [ a; b ] -> Value.Scalar (V.Sc (Complex.add (c a) (c b)))
    | Isa.Kcmac, [ acc; a; b ] ->
      Value.Scalar (V.Sc (Complex.add (c acc) (Complex.mul (c a) (c b))))
    | Isa.Kreduce_add, [ a ] -> fold_lanes (V.binop Mir.Badd) a
    | Isa.Kreduce_min, [ a ] -> fold_lanes (V.binop Mir.Bmin) a
    | Isa.Kreduce_max, [ a ] -> fold_lanes (V.binop Mir.Bmax) a
    | _ -> fail "%s: operands the entry check refuses" name)

let class_of_rvalue = Cost.class_of_rvalue

let coerce_value (sty : Mir.scalar_ty) (v : Value.t) =
  match v with
  | Value.Scalar s -> Value.Scalar (V.coerce sty s)
  | Value.Vector x -> Value.Vector (Array.map (V.coerce sty) x)

let eval_rvalue st (rv : Mir.rvalue) : Value.t =
  match rv with
  | Mir.Rbin (op, a, b) ->
    let x = eval_scalar st a in
    let y = eval_scalar st b in
    Value.Scalar (V.binop op x y)
  | Mir.Runop (op, a) -> Value.Scalar (V.unop op (eval_scalar st a))
  | Mir.Rmath (name, args) ->
    Value.Scalar (V.math name (List.map (eval_scalar st) args))
  | Mir.Rcomplex (re, im) ->
    Value.Scalar
      (V.Sc
         { Complex.re = V.to_float (eval_scalar st re);
           im = V.to_float (eval_scalar st im) })
  | Mir.Rload (a, idx) ->
    let arr = arr st a in
    let i = index_of st idx (Array.length arr) a.Mir.vname in
    Value.Scalar arr.(i)
  | Mir.Rmove a -> eval_operand st a
  | Mir.Rvload (a, base, lanes) ->
    let arr = arr st a in
    let b = index_of st base (Array.length arr) a.Mir.vname in
    if b + lanes > Array.length arr then
      fail "vector load past end of %s" a.Mir.vname;
    Value.Vector (Array.sub arr b lanes)
  | Mir.Rvbroadcast (a, lanes) ->
    let s = eval_scalar st a in
    Value.Vector (Array.make lanes s)
  | Mir.Rvreduce (r, a) ->
    let combine =
      match r with
      | Mir.Vsum -> V.binop Mir.Badd
      | Mir.Vprod -> V.binop Mir.Bmul
      | Mir.Vmin -> V.binop Mir.Bmin
      | Mir.Vmax -> V.binop Mir.Bmax
    in
    fold_lanes combine (eval_operand st a)
  | Mir.Rintrin (name, args) ->
    eval_intrin st name (List.map (eval_operand st) args)

let rec exec_block st (block : Mir.block) = List.iter (exec_instr st) block

and exec_instr st (instr : Mir.instr) =
  let line = Mir.line_of instr in
  match instr.Mir.idesc with
  | Mir.Idef (v, rv) ->
    let value = eval_rvalue st rv in
    let cost = Cost.def_cost st.isa st.mode rv in
    charge st line (class_of_rvalue rv) cost;
    (match (st.prof, rv) with
    | Some p, Mir.Rintrin (name, _) ->
      Masc_obs.Profile.add_intrin p name ~cycles:cost ~instrs:1
    | _ -> ());
    let sty = Mir.elem_ty v in
    reg st v := coerce_value sty value
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
    (match eval_operand st x with
    | Value.Vector vec when Array.length vec = lanes ->
      let sty = Mir.elem_ty a in
      Array.iteri (fun k s -> arr.(b + k) <- V.coerce sty s) vec
    | Value.Vector _ -> fail "vector store width mismatch"
    | Value.Scalar _ -> fail "vector store of a scalar");
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
        iv := Value.Scalar v;
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
          (Creg (ref (Value.Scalar (V.coerce sty s))))
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
        | Creg v -> Xscalar (scalar_of_value !v)
        | Carr a -> Xarray (Array.copy a))
      f.Mir.rets
  in
  { rets; cycles = st.cycles; dyn_instrs = st.dyn;
    histogram =
      Hashtbl.fold (fun k v acc -> (k, v) :: acc) st.hist []
      |> List.sort (fun (_, a) (_, b) -> compare b a);
    output = Buffer.contents st.out }

let xarray_of_floats a = Xarray (Array.map (fun f -> V.Sf f) a)
let xarray_of_complex a = Xarray (Array.map (fun z -> V.Sc z) a)
