(* Closure-threaded execution plans over typed unboxed storage.

   [compile] walks a MIR function ONCE and produces a program of OCaml
   closures ([state -> unit]): variables resolved to slots, static
   costs memoized, intrinsics pre-resolved. Every variable's static
   [Mir.scalar_ty] selects a monomorphic unboxed bank at plan time —

   - real-double scalars live in a flat [float array] register bank,
     ints in [int array], bools in [bool array], complex scalars as
     re/im pairs in a [float array];
   - real-double vector registers get a per-register [float array]
     lane buffer (with a boxed escape slot for the rare value whose
     runtime shape defies the declared type);
   - arrays are typed banks chosen by element type, complex ones
     interleaved re/im;
   - rvalues compile to type-specialized producers, and the hot
     definitions fuse read, combine, charge and write into one closure
     that reads the banks through inlined views (see [fview]), so a
     real-double [Rbin Badd] is a raw [( +. )] on unboxed loads — no
     tag test, no [to_float], no allocation;
   - only the shapes the benchmark kernels run are typed: every other
     rvalue, write and store goes through the boxed [Value] operations
     the tree-walker itself uses.

   Plans are built from verified MIR: [compile] starts with the entry
   check both engines share ({!Exec.check_entry}), whose rules make a
   scalar's declared type its runtime representation. Every def's
   rvalue gives its target's lanes, so no scalar slot ever receives a
   vector; a loop's induction variable is a real scalar in its bounds'
   promoted base and the body never defines it, so the tree-walker's
   raw induction writes land in the slot's own representation; arrays
   are never registers nor registers arrays. Boxed values appear only
   in the vector escape slot and at the argument/return boundary (see
   Store).

   Execution is bit-identical to the reference tree-walker
   ({!Interp.run_tree}): same results, cycles, dynamic instruction
   counts, output, error messages, and even the same histogram ordering
   (the class histogram is rebuilt through an identically-populated
   [Hashtbl] so fold order matches). The differential tests in
   [test/test_vm.ml] enforce this over every kernel, target and mode,
   and over every fused shape. *)

module Mir = Masc_mir.Mir
module Isa = Masc_asip.Isa
module Cost = Masc_asip.Cost_model
module MT = Masc_sema.Mtype
module V = Value
open Exec

(* ---------------- runtime state ---------------- *)

type state = {
  fregs : float array;  (* real-double scalar registers *)
  iregs : int array;  (* int scalar registers *)
  bregs : bool array;  (* bool scalar registers *)
  cregs : float array;  (* complex scalar registers, re/im interleaved *)
  vbufs : float array array;  (* vector registers: unboxed lane buffers *)
  vboxs : Value.t option array;  (* Some v: boxed escape overrides vbufs *)
  farrs : float array array;  (* real-double arrays *)
  iarrs : int array array;  (* int arrays *)
  barrs : bool array array;  (* bool arrays *)
  carrs : float array array;  (* complex arrays, re/im interleaved *)
  mutable cycles : int;
  mutable dyn : int;
  max_cycles : int;
  fuel : int;
  floc : string;  (* simulated function name, for trap reports *)
  hist : int array;  (* cycles charged, by interned class id *)
  seen : bool array;  (* class id charged at least once *)
  mutable order : int list;  (* class ids, reverse first-charge order *)
  out : Buffer.t;
  guard_on : bool;  (* deadline armed at entry, pre-decided *)
}

let charge st cls cycles =
  st.cycles <- st.cycles + cycles;
  st.dyn <- st.dyn + 1;
  if not (Array.unsafe_get st.seen cls) then begin
    Array.unsafe_set st.seen cls true;
    st.order <- cls :: st.order
  end;
  Array.unsafe_set st.hist cls (Array.unsafe_get st.hist cls + cycles);
  (* Cooperative cancellation rides the fuel accounting: when a request
     deadline is armed, test it every guard_mask+1 steps. Off (the
     default) this costs one bool load per instruction. *)
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

(* ---------------- slots and plan-time environment ---------------- *)

type rslot =
  | Rf of int  (* fregs *)
  | Ri of int  (* iregs *)
  | Rb of int  (* bregs *)
  | Rc of int  (* cregs pair at 2s / 2s+1 *)
  | Rv of int * int  (* vbufs/vboxs slot, declared lanes *)

type abank = AKf | AKi | AKb | AKc

type aslot = { bank : abank; aidx : int; alen : int }
type slot = Sreg of rslot | Sarr of aslot

type env = {
  isa : Isa.t;
  mode : Cost.mode;
  slots : (int, slot) Hashtbl.t;  (* vid -> slot *)
  cls_ids : (string, int) Hashtbl.t;
  mutable cls_rev : string list;  (* reversed interned class names *)
  mutable ncls : int;
  (* Register banks are extended past the variable slots with pooled
     constants (so every typed operand is a bank index and reads
     compile to raw array loads) and with shadow slots (private loop
     counters). [nfx]/[nix]/[nbx]/[ncx] are the next free indices;
     [*init] records the constant initializers for [execute]. *)
  mutable nfx : int;
  mutable nix : int;
  mutable nbx : int;
  mutable ncx : int;  (* in re/im pairs *)
  fdedup : (int64, int) Hashtbl.t;  (* keyed by bits: keep -0.0, NaN *)
  idedup : (int, int) Hashtbl.t;
  bdedup : (bool, int) Hashtbl.t;
  cdedup : (int64 * int64, int) Hashtbl.t;
  mutable finit : (int * float) list;
  mutable iinit : (int * int) list;
  mutable binit : (int * bool) list;
  mutable cinit : (int * Complex.t) list;
}

let fconst env f =
  let key = Int64.bits_of_float f in
  match Hashtbl.find_opt env.fdedup key with
  | Some i -> i
  | None ->
    let i = env.nfx in
    env.nfx <- i + 1;
    Hashtbl.add env.fdedup key i;
    env.finit <- (i, f) :: env.finit;
    i

let iconst env n =
  match Hashtbl.find_opt env.idedup n with
  | Some i -> i
  | None ->
    let i = env.nix in
    env.nix <- i + 1;
    Hashtbl.add env.idedup n i;
    env.iinit <- (i, n) :: env.iinit;
    i

let bconst env b =
  match Hashtbl.find_opt env.bdedup b with
  | Some i -> i
  | None ->
    let i = env.nbx in
    env.nbx <- i + 1;
    Hashtbl.add env.bdedup b i;
    env.binit <- (i, b) :: env.binit;
    i

let cconst env (z : Complex.t) =
  let key = (Int64.bits_of_float z.Complex.re, Int64.bits_of_float z.Complex.im)
  in
  match Hashtbl.find_opt env.cdedup key with
  | Some i -> i
  | None ->
    let i = env.ncx in
    env.ncx <- i + 1;
    Hashtbl.add env.cdedup key i;
    env.cinit <- (i, z) :: env.cinit;
    i

(* A private fregs slot, used as an unboxed float loop counter. *)
let fshadow env =
  let i = env.nfx in
  env.nfx <- i + 1;
  i

(* [Exec.check_entry] guarantees every variable is declared, and that
   arrays and registers are never confused: an array is never a
   register operand, def target or loop variable, a register never a
   load/store base. *)
let reg_slot env (v : Mir.var) =
  match Hashtbl.find env.slots v.Mir.vid with
  | Sreg r -> r
  | Sarr _ -> invalid_arg "Plan: array used as a register in unverified MIR"

let arr_slot env (v : Mir.var) =
  match Hashtbl.find env.slots v.Mir.vid with
  | Sarr a -> a
  | Sreg _ -> invalid_arg "Plan: register used as an array in unverified MIR"

let class_id env name =
  match Hashtbl.find_opt env.cls_ids name with
  | Some i -> i
  | None ->
    let i = env.ncls in
    Hashtbl.add env.cls_ids name i;
    env.cls_rev <- name :: env.cls_rev;
    env.ncls <- i + 1;
    i

(* ---------------- operand readers ---------------- *)

(* A compiled operand: its static runtime representation plus the bank
   index to read it from. The constructor IS the type — [Of] operands
   always read [Sf]-represented values from [st.fregs], so conversions
   compile to raw float-array loads (constants included, via the pool).
   Keeping indices rather than reader closures matters: a closure of
   type [state -> float] boxes its result on every call (no flambda),
   while an [Array.unsafe_get] on a float array inlined into the
   consuming closure stays unboxed. *)
type oper =
  | Of of int  (* st.fregs index *)
  | Oi of int  (* st.iregs index *)
  | Ob of int  (* st.bregs index *)
  | Oc of int  (* st.cregs pair index: re at 2i, im at 2i+1 *)
  | Ov of int * int  (* vector register slot, declared lanes *)

(* Boxed views of a vector register. *)
let vreg_value st s =
  match Array.unsafe_get st.vboxs s with
  | Some v -> v
  | None ->
    Value.Vector (Array.map (fun f -> V.Sf f) (Array.unsafe_get st.vbufs s))

let vreg_scalar st s =
  match Array.unsafe_get st.vboxs s with
  | Some (Value.Scalar x) -> x
  | Some (Value.Vector _) | None ->
    fail "vector value used where a scalar was expected"

let oper_of env (op : Mir.operand) : oper =
  match op with
  | Mir.Oconst (Mir.Cf f) -> Of (fconst env f)
  | Mir.Oconst (Mir.Ci i) -> Oi (iconst env i)
  | Mir.Oconst (Mir.Cb b) -> Ob (bconst env b)
  | Mir.Oconst (Mir.Cc z) -> Oc (cconst env z)
  | Mir.Ovar v -> (
    match reg_slot env v with
    | Rf s -> Of s
    | Ri s -> Oi s
    | Rb s -> Ob s
    | Rc s -> Oc s
    | Rv (s, l) -> Ov (s, l))

let real_scalar = function
  | Of _ | Oi _ | Ob _ -> true
  | Oc _ | Ov _ -> false

let int_like = function Oi _ | Ob _ -> true | Of _ | Oc _ | Ov _ -> false

(* Inlined bank views. A fused definition reads its operands through
   these instead of [state -> float] closures: a closure call boxes its
   float result (there is no flambda), while these views inline into
   the consuming closure as one switch on a plan-time tag and one raw
   load, so nothing is boxed. The tag is 0 for a float, 1 for an int,
   2 for a bool and 3 for a complex register; real operands read as
   [V.to_float]/[V.to_complex] convert them. *)
let view_tag = function
  | Of i -> Some (0, i)
  | Oi i -> Some (1, i)
  | Ob i -> Some (2, i)
  | Oc s -> Some (3, s)
  | Ov _ -> None

let[@inline always] fview st t i =
  match t with
  | 0 -> Array.unsafe_get st.fregs i
  | 1 -> float_of_int (Array.unsafe_get st.iregs i)
  | _ -> if Array.unsafe_get st.bregs i then 1.0 else 0.0

let[@inline always] cre st t i =
  if t = 3 then Array.unsafe_get st.cregs (2 * i) else fview st t i

let[@inline always] cim st t i =
  if t = 3 then Array.unsafe_get st.cregs ((2 * i) + 1) else 0.0

let[@inline always] cwrite st d re im =
  Array.unsafe_set st.cregs (2 * d) re;
  Array.unsafe_set st.cregs ((2 * d) + 1) im

(* The float operator of one SIMD lane or one reduction step, over a
   plan-time [Mir.binop] (add, sub, mul, div, min or max). Like [fview]
   it inlines into the consuming loop as one switch and one float
   instruction; a [float -> float -> float] closure would box both
   arguments and the result on every lane. [min]/[max] spell out
   [Stdlib.min]/[max] at float type, which is what [V.binop] applies to
   two [Sf] lanes, so NaN and signed-zero lanes agree with it. *)
let[@inline always] lane op x y =
  match op with
  | Mir.Badd -> x +. y
  | Mir.Bsub -> x -. y
  | Mir.Bmul -> x *. y
  | Mir.Bdiv -> x /. y
  | Mir.Bmin -> if x <= y then x else y
  | _ -> if x >= y then x else y

(* Fold of an unboxed lane buffer with [lane op], left to right from
   lane 0, as [V.binop] folds boxed lanes. *)
let[@inline always] fold_lanes op (x : float array) =
  let acc = ref (Array.unsafe_get x 0) in
  for i = 1 to Array.length x - 1 do
    acc := lane op !acc (Array.unsafe_get x i)
  done;
  !acc

(* Typed conversions mirroring [V.to_float]/[to_int]/[to_bool]/
   [to_complex] exactly, including exception messages. *)
let f_read (o : oper) : state -> float =
  match o with
  | Of i -> fun st -> Array.unsafe_get st.fregs i
  | Oi i -> fun st -> float_of_int (Array.unsafe_get st.iregs i)
  | Ob i -> fun st -> if Array.unsafe_get st.bregs i then 1.0 else 0.0
  | Oc s ->
    fun st ->
      if Array.unsafe_get st.cregs ((2 * s) + 1) = 0.0 then
        Array.unsafe_get st.cregs (2 * s)
      else invalid_arg "Value.to_float: complex with non-zero imaginary part"
  | Ov (s, _) -> fun st -> V.to_float (vreg_scalar st s)

let i_read (o : oper) : state -> int =
  match o with
  | Oi i -> fun st -> Array.unsafe_get st.iregs i
  | Of i ->
    fun st -> int_of_float (Float.round (Array.unsafe_get st.fregs i))
  | Ob i -> fun st -> if Array.unsafe_get st.bregs i then 1 else 0
  | Oc _ -> fun _ -> invalid_arg "Value.to_int: complex"
  | Ov (s, _) -> fun st -> V.to_int (vreg_scalar st s)

let b_read (o : oper) : state -> bool =
  match o with
  | Ob i -> fun st -> Array.unsafe_get st.bregs i
  | Oi i -> fun st -> Array.unsafe_get st.iregs i <> 0
  | Of i -> fun st -> Array.unsafe_get st.fregs i <> 0.0
  | Oc s ->
    fun st ->
      Complex.norm
        { Complex.re = Array.unsafe_get st.cregs (2 * s);
          im = Array.unsafe_get st.cregs ((2 * s) + 1) }
      <> 0.0
  | Ov (s, _) -> fun st -> V.to_bool (vreg_scalar st s)

let c_read (o : oper) : state -> Complex.t =
  match o with
  | Oc s ->
    fun st ->
      { Complex.re = Array.unsafe_get st.cregs (2 * s);
        im = Array.unsafe_get st.cregs ((2 * s) + 1) }
  | Of i -> fun st -> { Complex.re = Array.unsafe_get st.fregs i; im = 0.0 }
  | Oi i ->
    fun st ->
      { Complex.re = float_of_int (Array.unsafe_get st.iregs i); im = 0.0 }
  | Ob i ->
    fun st ->
      { Complex.re = (if Array.unsafe_get st.bregs i then 1.0 else 0.0);
        im = 0.0 }
  | Ov (s, _) -> fun st -> V.to_complex (vreg_scalar st s)

(* Boxed scalar view; raises "vector value used..." like the
   tree-walker's [eval_scalar] when the operand holds a vector. *)
let s_read (o : oper) : state -> Value.scalar =
  match o with
  | Of i -> fun st -> V.Sf (Array.unsafe_get st.fregs i)
  | Oi i -> fun st -> V.Si (Array.unsafe_get st.iregs i)
  | Ob i -> fun st -> V.Sb (Array.unsafe_get st.bregs i)
  | Oc s ->
    fun st ->
      V.Sc
        { Complex.re = Array.unsafe_get st.cregs (2 * s);
          im = Array.unsafe_get st.cregs ((2 * s) + 1) }
  | Ov (s, _) -> fun st -> vreg_scalar st s

(* Boxed value view; never raises. *)
let v_read (o : oper) : state -> Value.t =
  match o with
  | Of i -> fun st -> Value.Scalar (V.Sf (Array.unsafe_get st.fregs i))
  | Oi i -> fun st -> Value.Scalar (V.Si (Array.unsafe_get st.iregs i))
  | Ob i -> fun st -> Value.Scalar (V.Sb (Array.unsafe_get st.bregs i))
  | Oc s ->
    fun st ->
      Value.Scalar
        (V.Sc
           { Complex.re = Array.unsafe_get st.cregs (2 * s);
             im = Array.unsafe_get st.cregs ((2 * s) + 1) })
  | Ov (s, _) -> fun st -> vreg_value st s

(* Boxed element view of a typed array bank (printing, returns, and
   generic vector-load fallbacks). *)
let boxed_elem (a : aslot) : state -> int -> Value.scalar =
  let k = a.aidx in
  match a.bank with
  | AKf ->
    fun st i -> V.Sf (Array.unsafe_get (Array.unsafe_get st.farrs k) i)
  | AKi ->
    fun st i -> V.Si (Array.unsafe_get (Array.unsafe_get st.iarrs k) i)
  | AKb ->
    fun st i -> V.Sb (Array.unsafe_get (Array.unsafe_get st.barrs k) i)
  | AKc ->
    fun st i ->
      let ca = Array.unsafe_get st.carrs k in
      V.Sc
        { Complex.re = Array.unsafe_get ca (2 * i);
          im = Array.unsafe_get ca ((2 * i) + 1) }

(* Coercing store of a boxed scalar into a typed array bank, identical
   to [arr.(i) <- V.coerce sty s] on the tree-walker's boxed array. *)
let set_elem (a : aslot) : state -> int -> Value.scalar -> unit =
  let k = a.aidx in
  match a.bank with
  | AKf ->
    fun st i s ->
      Array.unsafe_set (Array.unsafe_get st.farrs k) i (V.to_float s)
  | AKi ->
    fun st i s ->
      Array.unsafe_set (Array.unsafe_get st.iarrs k) i (Store.coerce_int_exn s)
  | AKb ->
    fun st i s ->
      Array.unsafe_set (Array.unsafe_get st.barrs k) i (V.to_bool s)
  | AKc ->
    fun st i s ->
      let z = V.to_complex s in
      let ca = Array.unsafe_get st.carrs k in
      Array.unsafe_set ca (2 * i) z.Complex.re;
      Array.unsafe_set ca ((2 * i) + 1) z.Complex.im

let boxed_array (a : aslot) : state -> Value.scalar array =
  let k = a.aidx in
  match a.bank with
  | AKf -> fun st -> Store.scalars_of_floats st.farrs.(k)
  | AKi -> fun st -> Store.scalars_of_ints st.iarrs.(k)
  | AKb -> fun st -> Store.scalars_of_bools st.barrs.(k)
  | AKc -> fun st -> Store.scalars_of_complex st.carrs.(k)

(* Index evaluation with bounds check. *)
let index_fn env op ~len ~what : state -> int =
  let g = i_read (oper_of env op) in
  fun st ->
    let i = g st in
    if i < 0 || i >= len then
      fail "%s index %d out of bounds [0, %d)" what i len;
    i

(* ---------------- rvalue producers ---------------- *)

(* A compiled vector-producing rvalue. [vgen] is the self-contained
   exact boxed evaluation (used whenever the fast path is off); the
   fast path runs [vready] (no side effects), then [vcheck] (raises
   exactly the pre-charge eval failures, e.g. bounds), then [vfill]
   into the destination lane buffer. [vfill] must be coercion-safe:
   only reached when every element is a real float. *)
type vprod = {
  vlanes : int;
  vready : state -> bool;
  vcheck : state -> unit;
  vfill : state -> float array -> unit;
  vgen : state -> Value.t;
}

type prod =
  | Pf of (state -> float)
  | Pi of (state -> int)
  | Pb of (state -> bool)
  | Pc of (state -> Complex.t)
  | Pv of vprod
  | Pg of (state -> Value.t)

let gen_of_prod = function
  | Pf f -> fun st -> Value.Scalar (V.Sf (f st))
  | Pi f -> fun st -> Value.Scalar (V.Si (f st))
  | Pb f -> fun st -> Value.Scalar (V.Sb (f st))
  | Pc f -> fun st -> Value.Scalar (V.Sc (f st))
  | Pv vp -> vp.vgen
  | Pg f -> f

let unboxed st s =
  match Array.unsafe_get st.vboxs s with None -> true | Some _ -> false

(* Typed binary ops, statically dispatched on the operands' runtime
   representations as [V.binop] promotes them: int add, sub and mul
   when both sides are int-like (Si/Sb), IEEE comparisons of two real
   scalars. Every other operator and operand mix takes [V.binop]
   boxed. *)
let compile_rbin env op a b : prod =
  let oa = oper_of env a and ob = oper_of env b in
  let ints = int_like oa && int_like ob
  and reals = real_scalar oa && real_scalar ob in
  let pi f =
    let xa = i_read oa and xb = i_read ob in
    Pi (fun st -> let x = xa st in let y = xb st in f x y)
  in
  match op with
  | Mir.Badd when ints -> pi ( + )
  | Mir.Bsub when ints -> pi ( - )
  | Mir.Bmul when ints -> pi ( * )
  | (Mir.Blt | Mir.Ble | Mir.Bgt | Mir.Bge | Mir.Beq | Mir.Bne) when reals ->
    (* compared through the views: a [float -> float -> bool] closure
       would box both operands *)
    let ta, ia = Option.get (view_tag oa)
    and tb, ib = Option.get (view_tag ob) in
    Pb
      (fun st ->
        let x = fview st ta ia and y = fview st tb ib in
        match op with
        | Mir.Blt -> x < y
        | Mir.Ble -> x <= y
        | Mir.Bgt -> x > y
        | Mir.Bge -> x >= y
        | Mir.Beq -> x = y
        | _ -> x <> y)
  | _ ->
    let vb = V.binop op in
    let fa = v_read oa and fb = v_read ob in
    Pg
      (fun st ->
        let va = fa st in
        let vbv = fb st in
        lanewise2 vb va vbv)

let compile_runop env op a : prod =
  match (op, oper_of env a) with
  | Mir.Uneg, (Oi _ as o) ->
    let f = i_read o in
    Pi (fun st -> -f st)
  | Mir.Ure, (Oc _ as o) ->
    let f = c_read o in
    Pf (fun st -> (f st).Complex.re)
  | Mir.Uim, (Oc _ as o) ->
    let f = c_read o in
    Pf (fun st -> (f st).Complex.im)
  | Mir.Uconj, (Oc _ as o) ->
    let f = c_read o in
    Pc (fun st -> Complex.conj (f st))
  | _, oa ->
    let u = V.unop op in
    let fa = v_read oa in
    Pg
      (fun st ->
        match fa st with
        | Value.Scalar x -> Value.Scalar (u x)
        | Value.Vector x -> Value.Vector (Array.map u x))

(* One or two real scalar arguments of a [Builtins] float function
   call it unboxed; every other call takes [V.math] boxed. *)
let compile_rmath env name args : prod =
  let opers = List.map (oper_of env) args in
  match
    ( opers,
      Masc_sema.Builtins.float_fn name,
      Masc_sema.Builtins.float_fn2 name )
  with
  | [ o ], Some fn, _ when real_scalar o ->
    let g = f_read o in
    Pf (fun st -> fn (g st))
  | [ oa; ob ], _, Some fn when real_scalar oa && real_scalar ob ->
    let ga = f_read oa and gb = f_read ob in
    Pf (fun st -> let x = ga st in let y = gb st in fn x y)
  | _ ->
    let gs = List.map s_read opers in
    Pg (fun st -> Value.Scalar (V.math name (List.map (fun g -> g st) gs)))

(* Horizontal reduction of a vector operand (the [Rvreduce] rvalue and
   the reduce_add/min/max intrinsics). An unboxed lane buffer folds with
   [lane]; boxed lanes fold with [V.binop], which on two [Sf] lanes is
   the same float operation. [compile_fdef] fuses the unboxed case into
   a float register write. *)
let reduce_prod op (o : oper) ~err : prod =
  let combine_s = V.binop op in
  let fold_boxed x =
    let acc = ref x.(0) in
    for i = 1 to Array.length x - 1 do
      acc := combine_s !acc x.(i)
    done;
    !acc
  in
  match o with
  | Ov (s, _) ->
    Pf
      (fun st ->
        match Array.unsafe_get st.vboxs s with
        | None -> fold_lanes op (Array.unsafe_get st.vbufs s)
        (* boxed escape lanes are always [Sf] (write coercion) *)
        | Some (Value.Vector x) -> V.to_float (fold_boxed x)
        | Some (Value.Scalar _) -> fail "%s" err)
  | o ->
    let fa = v_read o in
    Pg
      (fun st ->
        match fa st with
        | Value.Vector x -> Value.Scalar (fold_boxed x)
        | Value.Scalar _ -> fail "%s" err)

let vreduce_op = function
  | Mir.Vsum -> Mir.Badd
  | Mir.Vprod -> Mir.Bmul
  | Mir.Vmin -> Mir.Bmin
  | Mir.Vmax -> Mir.Bmax

let reduce_kind_op = function
  | Isa.Kreduce_add -> Some Mir.Badd
  | Isa.Kreduce_min -> Some Mir.Bmin
  | Isa.Kreduce_max -> Some Mir.Bmax
  | _ -> None

let compile_intrin env name args : prod =
  let opers = List.map (oper_of env) args in
  let vreads = List.map v_read opers in
  (* The tree-walker evaluates every operand (left to right) before
     looking at the intrinsic, so failure closures must do the same. *)
  let eval_all_then k =
    Pg
      (fun st ->
        let vals = List.map (fun f -> f st) vreads in
        k vals)
  in
  let failure msg = eval_all_then (fun _ -> raise (Runtime_error msg)) in
  match Isa.find_named env.isa name with
  | None ->
    failure
      (Printf.sprintf "target %s has no intrinsic %s" env.isa.Isa.tname name)
  | Some desc -> (
    let generic_bin2 op =
      match vreads with
      | [ fa; fb ] ->
        let f = V.binop op in
        Pg
          (fun st ->
            let va = fa st in
            let vbv = fb st in
            lanewise2 f va vbv)
      | _ -> failure (Printf.sprintf "%s expects 2 operands" name)
    in
    (* SIMD binary op on two unboxed vector registers of equal declared
       width: a raw float loop. Any other shape (boxed escape, width
       mismatch, scalar operand) takes the exact boxed path. *)
    let simd2 op =
      match opers with
      | [ Ov (sa, la); Ov (sb, lb) ] when la = lb -> (
        match vreads with
        | [ fa; fb ] ->
          let f = V.binop op in
          Pv
            { vlanes = la;
              vready = (fun st -> unboxed st sa && unboxed st sb);
              vcheck = (fun _ -> ());
              vfill =
                (fun st dst ->
                  let a = Array.unsafe_get st.vbufs sa in
                  let b = Array.unsafe_get st.vbufs sb in
                  for k = 0 to la - 1 do
                    Array.unsafe_set dst k
                      (lane op (Array.unsafe_get a k) (Array.unsafe_get b k))
                  done);
              vgen =
                (fun st ->
                  let va = fa st in
                  let vbv = fb st in
                  lanewise2 f va vbv) }
        | _ -> assert false)
      | _ -> generic_bin2 op
    in
    match desc.Isa.kind with
    | Isa.Ksimd_add -> simd2 Mir.Badd
    | Isa.Ksimd_sub -> simd2 Mir.Bsub
    | Isa.Ksimd_mul -> simd2 Mir.Bmul
    | Isa.Ksimd_div -> simd2 Mir.Bdiv
    | Isa.Ksimd_min -> simd2 Mir.Bmin
    | Isa.Ksimd_max -> simd2 Mir.Bmax
    | Isa.Kmac -> (
      (* binop Bmul (Sf a) (Sf b) = Sf (a *. b), then binop Badd on two
         Sf is Sf (+.): the unboxed lane below is the same float op
         sequence. *)
      let mac acc a b = V.binop Mir.Badd acc (V.binop Mir.Bmul a b) in
      match opers with
      | [ Ov (sacc, l0); Ov (sa, l1); Ov (sb, l2) ] when l0 = l1 && l1 = l2
        -> (
        match vreads with
        | [ facc; fa; fb ] ->
          Pv
            { vlanes = l0;
              vready =
                (fun st -> unboxed st sacc && unboxed st sa && unboxed st sb);
              vcheck = (fun _ -> ());
              vfill =
                (fun st dst ->
                  let acc = Array.unsafe_get st.vbufs sacc in
                  let a = Array.unsafe_get st.vbufs sa in
                  let b = Array.unsafe_get st.vbufs sb in
                  for k = 0 to l0 - 1 do
                    Array.unsafe_set dst k
                      (Array.unsafe_get acc k
                      +. (Array.unsafe_get a k *. Array.unsafe_get b k))
                  done);
              vgen =
                (fun st ->
                  let vacc = facc st in
                  let va = fa st in
                  let vbv = fb st in
                  lanewise3 mac vacc va vbv) }
        | _ -> assert false)
      | _ -> (
        match vreads with
        | [ facc; fa; fb ] ->
          Pg
            (fun st ->
              let vacc = facc st in
              let va = fa st in
              let vbv = fb st in
              lanewise3 mac vacc va vbv)
        | _ -> failure "mac expects 3 operands"))
    | (Isa.Kcmul | Isa.Kcadd | Isa.Kcmac) as kind -> (
      (* A complex-register target is fused in [compile_cdef] for cadd
         and cmul on register operands; every other shape converts each
         operand boxed, as the tree-walker does. *)
      let to_c v = V.to_complex (scalar_of_value v) in
      let f2 = if kind = Isa.Kcmul then Complex.mul else Complex.add in
      match (kind, vreads) with
      | Isa.Kcmac, [ fc; fa; fb ] ->
        Pg
          (fun st ->
            let vc = fc st in
            let va = fa st in
            let vb = fb st in
            Value.Scalar
              (V.Sc (Complex.add (to_c vc) (Complex.mul (to_c va) (to_c vb)))))
      | Isa.Kcmac, _ -> failure "cmac expects 3 operands"
      | _, [ fa; fb ] ->
        Pg
          (fun st ->
            let va = fa st in
            let vb = fb st in
            Value.Scalar (V.Sc (f2 (to_c va) (to_c vb))))
      | _ ->
        failure
          (if kind = Isa.Kcmul then "cmul expects 2 operands"
           else "cadd expects 2 operands"))
    | Isa.Kload | Isa.Kstore | Isa.Kbroadcast ->
      failure
        (Printf.sprintf "%s: memory intrinsics are expressed as Rvload/Ivstore"
           name)
    | (Isa.Kreduce_add | Isa.Kreduce_min | Isa.Kreduce_max) as kind -> (
      match opers with
      | [ o ] ->
        reduce_prod (Option.get (reduce_kind_op kind)) o
          ~err:"reduce expects one vector operand"
      | _ -> failure "reduce expects one vector operand"))

let compile_rvalue env (rv : Mir.rvalue) : prod =
  match rv with
  | Mir.Rbin (op, a, b) -> compile_rbin env op a b
  | Mir.Runop (op, a) -> compile_runop env op a
  | Mir.Rmath (name, args) -> compile_rmath env name args
  | Mir.Rcomplex (re, im) ->
    let gre = s_read (oper_of env re) and gim = s_read (oper_of env im) in
    Pg
      (fun st ->
        Value.Scalar
          (V.Sc { Complex.re = V.to_float (gre st); im = V.to_float (gim st) }))
  | Mir.Rload (a, idx) ->
    let aslot = arr_slot env a in
    let gi = index_fn env idx ~len:aslot.alen ~what:a.Mir.vname in
    let elem = boxed_elem aslot in
    Pg (fun st -> Value.Scalar (elem st (gi st)))
  | Mir.Rmove a -> (
    match oper_of env a with
    | Oi _ as o -> Pi (i_read o)
    | o -> Pg (v_read o))
  | Mir.Rvload (a, base, lanes) -> (
    let aslot = arr_slot env a in
    let len = aslot.alen and k = aslot.aidx and name = a.Mir.vname in
    let gb = index_fn env base ~len ~what:name in
    let check st =
      let b = gb st in
      if b + lanes > len then fail "vector load past end of %s" name;
      b
    in
    match aslot.bank with
    | AKf ->
      Pv
        { vlanes = lanes;
          vready = (fun _ -> true);
          vcheck = (fun st -> ignore (check st));
          vfill =
            (fun st dst ->
              Array.blit (Array.unsafe_get st.farrs k) (gb st) dst 0 lanes);
          vgen =
            (fun st ->
              let b = check st in
              let arr = Array.unsafe_get st.farrs k in
              Value.Vector
                (Array.init lanes (fun j ->
                     V.Sf (Array.unsafe_get arr (b + j))))) }
    | _ ->
      let elem = boxed_elem aslot in
      Pg
        (fun st ->
          let b = check st in
          Value.Vector (Array.init lanes (fun j -> elem st (b + j)))))
  | Mir.Rvbroadcast (a, lanes) -> (
    match oper_of env a with
    | (Of _ | Oi _ | Ob _) as o ->
      let t, i = Option.get (view_tag o) and gs = s_read o in
      Pv
        { vlanes = lanes;
          vready = (fun _ -> true);
          vcheck = (fun _ -> ());
          (* a raw loop: [Array.fill] would box the float *)
          vfill =
            (fun st dst ->
              let x = fview st t i in
              for k = 0 to lanes - 1 do
                Array.unsafe_set dst k x
              done);
          vgen = (fun st -> Value.Vector (Array.make lanes (gs st))) }
    | o ->
      let gs = s_read o in
      Pg (fun st -> Value.Vector (Array.make lanes (gs st))))
  | Mir.Rvreduce (r, a) ->
    reduce_prod (vreduce_op r) (oper_of env a) ~err:"vreduce of a scalar"
  | Mir.Rintrin (name, args) -> compile_intrin env name args

(* Generic (coercing) write into a vector register: unbox into the lane
   buffer when the coerced value is a full-width vector, otherwise park
   it in the boxed escape slot. [sty] is the declared element type
   (always real-double for vector slots). *)
let write_vreg st d lanes sty v =
  match coerce_value sty v with
  | Value.Scalar _ as c -> st.vboxs.(d) <- Some c
  | Value.Vector xs as c ->
    if Array.length xs = lanes then begin
      let buf = Array.unsafe_get st.vbufs d in
      for k = 0 to lanes - 1 do
        buf.(k) <- V.to_float xs.(k)
      done;
      st.vboxs.(d) <- None
    end
    else st.vboxs.(d) <- Some c

(* ---------------- fused definitions ---------------- *)

(* Complex-typed registers live as re/im pairs in [st.cregs], but the
   generic producer protocol routes every complex rvalue through a
   boxed [Complex.t], allocating on each evaluation. For the shapes
   that dominate complex kernels (FFT butterflies: complex array
   load, move, add/sub/mul, and the cmul/cadd intrinsics) the
   whole def is a pure register/array read chain, so we fuse it into
   one closure that moves floats between banks through the inlined
   views. Anything whose evaluation order or failure behaviour could
   observably differ from the tree-walker returns [None] and takes the
   generic path. Formulas are spelled out to match
   [Complex.add]/[Complex.sub]/[Complex.mul] term-for-term so results
   stay bit-identical. *)
let compile_cdef env d rv cls cost : (state -> unit) option =
  let views ops =
    let ts = List.map (fun o -> view_tag (oper_of env o)) ops in
    if List.mem None ts then None else Some (List.map Option.get ts)
  in
  (* The fused formula and its operand views, or [None]. A binop fuses
     when one side is statically complex (then [V.binop] takes its
     complex branch at runtime); the complex intrinsics convert every
     operand with [V.to_complex], so any typed scalar mix fuses. *)
  let formula =
    match rv with
    | Mir.Rbin (((Mir.Badd | Mir.Bsub | Mir.Bmul) as op), a, b) -> (
      match views [ a; b ] with
      | Some ([ (ta, _); (tb, _) ] as vs) when ta = 3 || tb = 3 ->
        let form =
          match op with Mir.Badd -> `Add | Mir.Bsub -> `Sub | _ -> `Mul
        in
        Some (form, vs)
      | _ -> None)
    | Mir.Rintrin (name, args) -> (
      match Isa.find_named env.isa name with
      | None -> None
      | Some desc -> (
        let form =
          match desc.Isa.kind with
          | Isa.Kcadd -> Some `Add
          | Isa.Kcmul -> Some `Mul
          | _ -> None
        in
        match (form, views args) with
        | Some form, Some vs -> Some (form, vs)
        | _ -> None))
    | _ -> None
  in
  match (formula, rv) with
  | Some (`Add, [ (ta, ia); (tb, ib) ]), _ ->
    Some
      (fun st ->
        let ar = cre st ta ia and ai = cim st ta ia in
        let br = cre st tb ib and bi = cim st tb ib in
        charge st cls cost;
        cwrite st d (ar +. br) (ai +. bi))
  | Some (`Sub, [ (ta, ia); (tb, ib) ]), _ ->
    Some
      (fun st ->
        let ar = cre st ta ia and ai = cim st ta ia in
        let br = cre st tb ib and bi = cim st tb ib in
        charge st cls cost;
        cwrite st d (ar -. br) (ai -. bi))
  | Some (`Mul, [ (ta, ia); (tb, ib) ]), _ ->
    Some
      (fun st ->
        let ar = cre st ta ia and ai = cim st ta ia in
        let br = cre st tb ib and bi = cim st tb ib in
        charge st cls cost;
        cwrite st d ((ar *. br) -. (ai *. bi)) ((ar *. bi) +. (ai *. br)))
  | Some _, _ -> None (* wrong arity: the generic path reports it *)
  | None, Mir.Rload (a, idx) -> (
    let aslot = arr_slot env a in
    match aslot.bank with
    | AKc ->
      let gi = index_fn env idx ~len:aslot.alen ~what:a.Mir.vname in
      let k = aslot.aidx in
      Some
        (fun st ->
          let i = gi st in
          let ca = Array.unsafe_get st.carrs k in
          let re = Array.unsafe_get ca (2 * i) in
          let im = Array.unsafe_get ca ((2 * i) + 1) in
          charge st cls cost;
          cwrite st d re im)
    | AKf | AKi | AKb -> None)
  | None, Mir.Rmove o -> (
    match view_tag (oper_of env o) with
    | Some (t, i) ->
      Some
        (fun st ->
          let re = cre st t i and im = cim st t i in
          charge st cls cost;
          cwrite st d re im)
    | None -> None)
  | None, Mir.Runop (Mir.Uconj, o) -> (
    (* only a complex register: [V.unop Uconj] returns a real operand
       unchanged, whose imaginary part is then +0.0, not -0.0 *)
    match oper_of env o with
    | Oc s ->
      Some
        (fun st ->
          let re = Array.unsafe_get st.cregs (2 * s) in
          let im = Array.unsafe_get st.cregs ((2 * s) + 1) in
          charge st cls cost;
          cwrite st d re (-.im))
    | _ -> None)
  | None, Mir.Rcomplex (ore, oim) -> (
    (* Only real register views qualify: they cannot raise, so the
       tree-walker's unspecified record-field evaluation order is not
       observable. *)
    match views [ ore; oim ] with
    | Some [ (ta, ia); (tb, ib) ] when ta < 3 && tb < 3 ->
      Some
        (fun st ->
          let re = fview st ta ia and im = fview st tb ib in
          charge st cls cost;
          cwrite st d re im)
    | _ -> None)
  | None, _ -> None

(* Fused float definitions: for an [Idef] whose target is a Double
   register and whose rvalue's float path would otherwise hop through a
   [state -> float] closure (each call boxes its return without
   flambda), build one closure that reads the typed banks, combines
   inline, charges, and writes — zero allocation. Only shapes whose
   fused text mirrors the generic path term-for-term are taken (scalar
   [min]/[max] stay on [V.binop]'s boxed path); everything else returns
   [None]. [prod] is the rvalue's generic producer. *)
let compile_fdef env d rv prod cls cost : (state -> unit) option =
  (* A reduction of a vector register folds its unboxed lane buffer in
     place; a boxed escape value takes [reduce_prod]'s exact path. *)
  let reduce op a =
    match (oper_of env a, prod) with
    | Ov (s, _), Pf boxed ->
      Some
        (fun st ->
          let x =
            match Array.unsafe_get st.vboxs s with
            | None -> fold_lanes op (Array.unsafe_get st.vbufs s)
            | Some _ -> boxed st
          in
          charge st cls cost;
          Array.unsafe_set st.fregs d x)
    | _ -> None
  in
  match rv with
  | Mir.Rbin (op, a, b) -> (
    let oa = oper_of env a and ob = oper_of env b in
    (* Mirrors [V.binop]'s promotion: Badd/Bsub/Bmul/Bmod of two
       int-like operands are int arithmetic, which is not fused here;
       Bdiv/Bpow are float for every real operand mix. *)
    let float_op =
      match op with
      | Mir.Badd | Mir.Bsub | Mir.Bmul | Mir.Bmod ->
        not (int_like oa && int_like ob)
      | Mir.Bdiv | Mir.Bpow -> true
      | _ -> false
    in
    match (view_tag oa, view_tag ob) with
    | Some (ta, ia), Some (tb, ib) when float_op && ta < 3 && tb < 3 ->
      Some
        (fun st ->
          let x = fview st ta ia and y = fview st tb ib in
          let r =
            match op with
            | Mir.Badd -> x +. y
            | Mir.Bsub -> x -. y
            | Mir.Bmul -> x *. y
            | Mir.Bdiv -> x /. y
            | Mir.Bpow -> x ** y
            | _ -> if y = 0.0 then x else Float.rem x y
          in
          charge st cls cost;
          Array.unsafe_set st.fregs d r)
    | _ -> None)
  | Mir.Rload (a, idx) -> (
    let aslot = arr_slot env a in
    match aslot.bank with
    | AKf ->
      let gi = index_fn env idx ~len:aslot.alen ~what:a.Mir.vname in
      let k = aslot.aidx in
      Some
        (fun st ->
          let i = gi st in
          let x = Array.unsafe_get (Array.unsafe_get st.farrs k) i in
          charge st cls cost;
          Array.unsafe_set st.fregs d x)
    | AKi | AKb | AKc -> None)
  | Mir.Rmove a -> (
    match oper_of env a with
    | Of s ->
      Some
        (fun st ->
          let x = Array.unsafe_get st.fregs s in
          charge st cls cost;
          Array.unsafe_set st.fregs d x)
    | _ -> None)
  | Mir.Runop (((Mir.Ure | Mir.Uim) as u), a) -> (
    (* [V.unop] reads a real operand as the complex [x + 0i] *)
    match view_tag (oper_of env a) with
    | Some (t, i) ->
      Some
        (fun st ->
          let x = match u with Mir.Ure -> cre st t i | _ -> cim st t i in
          charge st cls cost;
          Array.unsafe_set st.fregs d x)
    | None -> None)
  | Mir.Rmath ("atan2", [ a; b ]) -> (
    (* [Builtins.float_fn2 "atan2"] is [Stdlib.atan2]; calling it by
       name keeps its arguments and result unboxed *)
    match (view_tag (oper_of env a), view_tag (oper_of env b)) with
    | Some (ta, ia), Some (tb, ib) when ta < 3 && tb < 3 ->
      Some
        (fun st ->
          let r = atan2 (fview st ta ia) (fview st tb ib) in
          charge st cls cost;
          Array.unsafe_set st.fregs d r)
    | _ -> None)
  | Mir.Rvreduce (r, a) -> reduce (vreduce_op r) a
  | Mir.Rintrin (name, [ a ]) -> (
    match Isa.find_named env.isa name with
    | Some desc ->
      Option.bind (reduce_kind_op desc.Isa.kind) (fun op -> reduce op a)
    | None -> None)
  | Mir.Runop _ | Mir.Rmath _ | Mir.Rcomplex _ | Mir.Rintrin _ | Mir.Rvload _
  | Mir.Rvbroadcast _ ->
    None

(* ---------------- instruction compilation ---------------- *)

let rec compile_block env (block : Mir.block) : state -> unit =
  match List.map (fun i -> compile_instr env i.Mir.idesc) block with
  | [] -> fun _ -> ()
  | [ f ] -> f
  | [ f1; f2 ] ->
    fun st ->
      f1 st;
      f2 st
  | [ f1; f2; f3 ] ->
    fun st ->
      f1 st;
      f2 st;
      f3 st
  | fs ->
    let a = Array.of_list fs in
    let n = Array.length a in
    fun st ->
      for i = 0 to n - 1 do
        (Array.unsafe_get a i) st
      done

and compile_instr env (desc : Mir.instr_desc) : state -> unit =
  match desc with
  | Mir.Idef (v, rv) -> (
    let prod = compile_rvalue env rv in
    let cls = class_id env (Cost.class_of_rvalue rv) in
    (* Static cost; [None] only for an intrinsic the target lacks, in
       which case the producer raises before the charge is reached. *)
    let cost_opt = Cost.def_cost_opt env.isa env.mode rv in
    let cost = match cost_opt with Some c -> c | None -> 0 in
    match reg_slot env v with
    | Rf d -> (
      let fused =
        if cost_opt = None then None else compile_fdef env d rv prod cls cost
      in
      (* Writes below follow the tree-walker's order exactly: evaluate
         the rvalue, charge, then coerce (which may raise) and write. *)
      match (fused, prod) with
      | Some f, _ -> f
      | None, Pf f ->
        fun st ->
          let x = f st in
          charge st cls cost;
          Array.unsafe_set st.fregs d x
      | None, Pi f ->
        fun st ->
          let x = f st in
          charge st cls cost;
          Array.unsafe_set st.fregs d (float_of_int x)
      | None, p ->
        let g = gen_of_prod p in
        fun st ->
          let value = g st in
          charge st cls cost;
          Array.unsafe_set st.fregs d (V.to_float (scalar_of_value value)))
    | Ri d -> (
      match prod with
      | Pi f ->
        fun st ->
          let x = f st in
          charge st cls cost;
          Array.unsafe_set st.iregs d x
      | p ->
        let g = gen_of_prod p in
        fun st ->
          let value = g st in
          charge st cls cost;
          Array.unsafe_set st.iregs d
            (Store.coerce_int_exn (scalar_of_value value)))
    | Rb d -> (
      match prod with
      | Pb f ->
        fun st ->
          let x = f st in
          charge st cls cost;
          Array.unsafe_set st.bregs d x
      | p ->
        let g = gen_of_prod p in
        fun st ->
          let value = g st in
          charge st cls cost;
          Array.unsafe_set st.bregs d (V.to_bool (scalar_of_value value)))
    | Rc d -> (
      let fused =
        if cost_opt = None then None else compile_cdef env d rv cls cost
      in
      match (fused, prod) with
      | Some f, _ -> f
      | None, Pc f ->
        fun st ->
          let z = f st in
          charge st cls cost;
          cwrite st d z.Complex.re z.Complex.im
      | None, p ->
        let g = gen_of_prod p in
        fun st ->
          let value = g st in
          charge st cls cost;
          let z = V.to_complex (scalar_of_value value) in
          cwrite st d z.Complex.re z.Complex.im)
    | Rv (d, lanes) -> (
      let sty = Mir.elem_ty v in
      match prod with
      | Pv vp when vp.vlanes = lanes ->
        fun st ->
          if vp.vready st then begin
            vp.vcheck st;
            charge st cls cost;
            vp.vfill st (Array.unsafe_get st.vbufs d);
            Array.unsafe_set st.vboxs d None
          end
          else begin
            let value = vp.vgen st in
            charge st cls cost;
            write_vreg st d lanes sty value
          end
      | p ->
        let g = gen_of_prod p in
        fun st ->
          let value = g st in
          charge st cls cost;
          write_vreg st d lanes sty value))
  | Mir.Istore (a, idx, x) -> (
    let aslot = arr_slot env a in
    let gi = index_fn env idx ~len:aslot.alen ~what:a.Mir.vname in
    let ox = oper_of env x in
    let cls = class_id env "mem" in
    let sty = Mir.elem_ty a in
    let cost =
      Cost.store_cost env.isa env.mode ~cplx:(sty.Mir.cplx = MT.Complex)
    in
    let k = aslot.aidx in
    match (aslot.bank, ox) with
    | AKf, Of s ->
      (* freg -> double bank: straight float copy, no boxing *)
      fun st ->
        let i = gi st in
        Array.unsafe_set
          (Array.unsafe_get st.farrs k)
          i
          (Array.unsafe_get st.fregs s);
        charge st cls cost
    | AKf, _ ->
      let gx = f_read ox in
      fun st ->
        let i = gi st in
        let x = gx st in
        Array.unsafe_set (Array.unsafe_get st.farrs k) i x;
        charge st cls cost
    | AKc, Oc s ->
      (* creg -> complex bank: straight float copy, no boxing *)
      fun st ->
        let i = gi st in
        let re = Array.unsafe_get st.cregs (2 * s) in
        let im = Array.unsafe_get st.cregs ((2 * s) + 1) in
        let ca = Array.unsafe_get st.carrs k in
        Array.unsafe_set ca (2 * i) re;
        Array.unsafe_set ca ((2 * i) + 1) im;
        charge st cls cost
    | _ ->
      let set = set_elem aslot and gx = s_read ox in
      fun st ->
        let i = gi st in
        let x = gx st in
        set st i x;
        charge st cls cost)
  | Mir.Ivstore (a, base, x, lanes) -> (
    let aslot = arr_slot env a in
    let len = aslot.alen and k = aslot.aidx and name = a.Mir.vname in
    let gb = index_fn env base ~len ~what:name in
    let cls = class_id env "simd" in
    let cost = Cost.vstore_cost env.isa in
    let ox = oper_of env x in
    let set = set_elem aslot in
    let store_boxed st b v =
      match v with
      | Value.Vector vec when Array.length vec = lanes ->
        for j = 0 to lanes - 1 do
          set st (b + j) (Array.unsafe_get vec j)
        done;
        charge st cls cost
      | Value.Vector _ -> fail "vector store width mismatch"
      | Value.Scalar _ -> fail "vector store of a scalar"
    in
    match (aslot.bank, ox) with
    | AKf, Ov (s, _) ->
      (* The dominant vectorized shape: unboxed register into a
         real-double array is a straight blit (the verifier pins the
         register's width to the store's). *)
      fun st ->
        let b = gb st in
        if b + lanes > len then fail "vector store past end of %s" name;
        (match Array.unsafe_get st.vboxs s with
        | None ->
          Array.blit
            (Array.unsafe_get st.vbufs s)
            0
            (Array.unsafe_get st.farrs k)
            b lanes;
          charge st cls cost
        | Some v -> store_boxed st b v)
    | _ ->
      let gx = v_read ox in
      fun st ->
        let b = gb st in
        if b + lanes > len then fail "vector store past end of %s" name;
        store_boxed st b (gx st))
  | Mir.Iif (c, then_b, else_b) ->
    let gc = b_read (oper_of env c) in
    let ft = compile_block env then_b and fe = compile_block env else_b in
    let cls = class_id env "branch" in
    let cost = Cost.branch_cost env.isa in
    fun st ->
      charge st cls cost;
      if gc st then ft st else fe st
  | Mir.Iloop { ivar; lo; step; hi; body } ->
    compile_loop env ivar lo step hi body
  | Mir.Iwhile { cond_block; cond; body } ->
    let fcond_b = compile_block env cond_block in
    let gc = b_read (oper_of env cond) in
    let fbody = compile_block env body in
    let cls = class_id env "branch" in
    let cost = Cost.branch_cost env.isa in
    fun st ->
      (try
         let continue_ = ref true in
         while !continue_ do
           fcond_b st;
           charge st cls cost;
           if gc st then (try fbody st with Continue_exc -> ())
           else continue_ := false
         done
       with Break_exc -> ())
  | Mir.Ibreak -> fun _ -> raise Break_exc
  | Mir.Icontinue -> fun _ -> raise Continue_exc
  | Mir.Ireturn -> fun _ -> raise Return_exc
  | Mir.Iprint (fmt, ops) -> (
    let fetchers =
      List.map
        (fun op ->
          match op with
          | Mir.Ovar v when Mir.is_array v ->
            let box = boxed_array (arr_slot env v) in
            fun st -> Array.to_list (box st)
          | _ ->
            let g = s_read (oper_of env op) in
            fun st -> [ g st ])
        ops
    in
    let flatten st = List.concat_map (fun fetch -> fetch st) fetchers in
    match fmt with
    | Some f -> fun st -> Buffer.add_string st.out (render_format f (flatten st))
    | None ->
      fun st ->
        List.iter
          (fun s ->
            Buffer.add_string st.out (Format.asprintf "%a " V.pp_scalar s))
          (flatten st);
        Buffer.add_char st.out '\n')
  | Mir.Icomment text ->
    if String.length text >= 6 && String.sub text 0 6 = "inline" then (
      let cls = class_id env "call" in
      let cost = Cost.call_boundary_cost env.isa env.mode in
      fun st -> charge st cls cost)
    else fun _ -> ()

and compile_loop env (ivar : Mir.var) lo step hi body : state -> unit =
  let fbody = compile_block env body in
  let lcls = class_id env "loop" in
  let lcost = Cost.loop_iter_cost env.isa in
  let bcls = class_id env "branch" in
  let bcost = Cost.branch_cost env.isa in
  let olo = oper_of env lo
  and ostep = oper_of env step
  and ohi = oper_of env hi in
  (* The entry check makes the induction variable's slot the loop's
     representation: an int slot has int/bool bounds, so the
     tree-walker's runtime [int_loop] test is true and its induction
     values are raw [Si]; a double slot has a double bound, so they are
     raw [Sf]. Both loops are fully unboxed. *)
  match reg_slot env ivar with
  | Ri iv ->
    let gl = i_read olo and gs = i_read ostep and gh = i_read ohi in
    fun st ->
      let l = gl st in
      let s = gs st in
      let h = gh st in
      (try
         if s >= 0 then begin
           let v = ref l in
           while !v <= h do
             Array.unsafe_set st.iregs iv !v;
             charge st lcls lcost;
             (try fbody st with Continue_exc -> ());
             v := !v + s
           done
         end
         else begin
           let v = ref l in
           while !v >= h do
             Array.unsafe_set st.iregs iv !v;
             charge st lcls lcost;
             (try fbody st with Continue_exc -> ());
             v := !v + s
           done
         end
       with Break_exc -> ());
      charge st bcls bcost
  | Rf iv ->
    (* The counter lives in a private shadow slot of the float bank so
       the loop never touches a boxed float. The bounds are read through
       the views, since a [state -> float] reader would box each one per
       entry. *)
    let view o = Option.get (view_tag o) in
    let tl, il = view olo and ts, is = view ostep and th, ih = view ohi in
    let sh = fshadow env in
    fun st ->
      let fr = st.fregs in
      Array.unsafe_set fr sh (fview st tl il);
      let s = fview st ts is in
      let h = fview st th ih in
      (try
         if s >= 0.0 then
           while Array.unsafe_get fr sh <= h do
             Array.unsafe_set fr iv (Array.unsafe_get fr sh);
             charge st lcls lcost;
             (try fbody st with Continue_exc -> ());
             Array.unsafe_set fr sh (Array.unsafe_get fr sh +. s)
           done
         else
           while Array.unsafe_get fr sh >= h do
             Array.unsafe_set fr iv (Array.unsafe_get fr sh);
             charge st lcls lcost;
             (try fbody st with Continue_exc -> ());
             Array.unsafe_set fr sh (Array.unsafe_get fr sh +. s)
           done
       with Break_exc -> ());
      charge st bcls bcost
  | Rb _ | Rc _ | Rv _ ->
    invalid_arg "Plan: loop variable neither int nor double in unverified MIR"

(* ---------------- whole-function plans ---------------- *)

type aspec = { alen : int; aparam : bool }

type bind =
  | Bscalar of rslot * Mir.scalar_ty * string
  | Barray of aslot * string

type t = {
  fname : string;
  nparams : int;
  binds : bind list;
  ret_slots : slot list;
  (* Bank sizes include pooled constants and loop-shadow slots past the
     variable slots; [*init] carries the constant initializers. *)
  nfregs : int;
  niregs : int;
  nbregs : int;
  ncregs : int;  (* in re/im pairs *)
  finit : (int * float) array;
  iinit : (int * int) array;
  binit : (int * bool) array;
  cinit : (int * Complex.t) array;
  vlanes : int array;  (* declared width per vector register *)
  fspecs : aspec array;
  ispecs : aspec array;
  bspecs : aspec array;
  cspecs : aspec array;
  classes : string array;  (* interned class id -> name *)
  abytes : int;  (* static array footprint, for the allocation cap *)
  body_fn : state -> unit;
}

let compile ~isa ~mode (f : Mir.func) : t =
  Exec.check_entry ~isa f;
  (* Slot assignment per bank, in first-declared order: params, rets,
     then [vars], which the entry check guarantees declares every
     variable the body names. A scalar's declared type is its bank. *)
  let slots = Hashtbl.create 64 in
  let nf = ref 0
  and ni = ref 0
  and nb = ref 0
  and nc = ref 0
  and nv = ref 0 in
  let vlanes_rev = ref [] in
  let nfa = ref 0 and nia = ref 0 and nba = ref 0 and nca = ref 0 in
  let fsp = ref [] and isp = ref [] and bsp = ref [] and csp = ref [] in
  let next r =
    let i = !r in
    incr r;
    i
  in
  let assign ~aparam (v : Mir.var) =
    if not (Hashtbl.mem slots v.Mir.vid) then
      Hashtbl.add slots v.Mir.vid
        (match v.Mir.vty with
        | Mir.Tscalar sty -> (
          match (sty.Mir.cplx, sty.Mir.base, sty.Mir.lanes) with
          | MT.Complex, _, 1 -> Sreg (Rc (next nc))
          | MT.Real, MT.Double, 1 -> Sreg (Rf (next nf))
          | MT.Real, MT.Int, 1 -> Sreg (Ri (next ni))
          | MT.Real, MT.Bool, 1 -> Sreg (Rb (next nb))
          | MT.Real, MT.Double, l ->
            vlanes_rev := l :: !vlanes_rev;
            Sreg (Rv (next nv, l))
          | _ -> invalid_arg "Plan: poison type reached the VM")
        | Mir.Tarray (sty, n) ->
          let spec = { alen = n; aparam } in
          let bank, idx =
            match (sty.Mir.cplx, sty.Mir.base) with
            | MT.Complex, _ ->
              csp := spec :: !csp;
              (AKc, next nca)
            | MT.Real, MT.Double ->
              fsp := spec :: !fsp;
              (AKf, next nfa)
            | MT.Real, MT.Int ->
              isp := spec :: !isp;
              (AKi, next nia)
            | MT.Real, MT.Bool ->
              bsp := spec :: !bsp;
              (AKb, next nba)
            | MT.Real, MT.Err ->
              invalid_arg "Plan: poison type reached the VM"
          in
          Sarr { bank; aidx = idx; alen = n })
  in
  List.iter (assign ~aparam:true) f.Mir.params;
  List.iter (assign ~aparam:false) f.Mir.rets;
  List.iter (assign ~aparam:false) f.Mir.vars;
  let env =
    { isa; mode; slots;
      cls_ids = Hashtbl.create 16; cls_rev = []; ncls = 0;
      nfx = !nf; nix = !ni; nbx = !nb; ncx = !nc;
      fdedup = Hashtbl.create 16; idedup = Hashtbl.create 16;
      bdedup = Hashtbl.create 4; cdedup = Hashtbl.create 8;
      finit = []; iinit = []; binit = []; cinit = [] }
  in
  let body_fn = compile_block env f.Mir.body in
  let binds =
    List.map
      (fun (p : Mir.var) ->
        match p.Mir.vty with
        | Mir.Tscalar sty -> Bscalar (reg_slot env p, sty, p.Mir.vname)
        | Mir.Tarray _ -> Barray (arr_slot env p, p.Mir.vname))
      f.Mir.params
  in
  { fname = f.Mir.name;
    nparams = List.length f.Mir.params;
    binds;
    ret_slots =
      List.map (fun (r : Mir.var) -> Hashtbl.find slots r.Mir.vid) f.Mir.rets;
    nfregs = env.nfx;
    niregs = env.nix;
    nbregs = env.nbx;
    ncregs = env.ncx;
    finit = Array.of_list (List.rev env.finit);
    iinit = Array.of_list (List.rev env.iinit);
    binit = Array.of_list (List.rev env.binit);
    cinit = Array.of_list (List.rev env.cinit);
    vlanes = Array.of_list (List.rev !vlanes_rev);
    fspecs = Array.of_list (List.rev !fsp);
    ispecs = Array.of_list (List.rev !isp);
    bspecs = Array.of_list (List.rev !bsp);
    cspecs = Array.of_list (List.rev !csp);
    classes = Array.of_list (List.rev env.cls_rev);
    abytes = Exec.array_bytes_of_func f;
    body_fn }

let execute ?(max_cycles = 4_000_000_000) ?(fuel = Exec.default_fuel)
    ?(max_alloc_bytes = Exec.default_max_alloc_bytes) (p : t)
    (args : xvalue list) : result =
  if List.length args <> p.nparams then
    fail "%s expects %d arguments, received %d" p.fname p.nparams
      (List.length args);
  Exec.check_alloc ~loc:p.fname ~cap_bytes:max_alloc_bytes p.abytes;
  let ncls = Array.length p.classes in
  (* Fresh typed state. Unwritten registers read as the zero of their
     declared type, like the tree-walker's lazily-created cells;
     parameter arrays are replaced whole by binding, so skip the fill. *)
  let st =
    { fregs = Array.make p.nfregs 0.0;
      iregs = Array.make p.niregs 0;
      bregs = Array.make p.nbregs false;
      cregs = Array.make (2 * p.ncregs) 0.0;
      vbufs = Array.map (fun l -> Array.make l 0.0) p.vlanes;
      vboxs = Array.map (fun _ -> Some (Value.Scalar (V.Sf 0.0))) p.vlanes;
      farrs =
        Array.map
          (fun s -> if s.aparam then [||] else Array.make s.alen 0.0)
          p.fspecs;
      iarrs =
        Array.map
          (fun s -> if s.aparam then [||] else Array.make s.alen 0)
          p.ispecs;
      barrs =
        Array.map
          (fun s -> if s.aparam then [||] else Array.make s.alen false)
          p.bspecs;
      carrs =
        Array.map
          (fun s -> if s.aparam then [||] else Array.make (2 * s.alen) 0.0)
          p.cspecs;
      cycles = 0;
      dyn = 0;
      max_cycles;
      fuel;
      floc = p.fname;
      hist = Array.make ncls 0;
      seen = Array.make ncls false;
      order = [];
      out = Buffer.create 256;
      guard_on = Masc_fault.Cancel.armed () }
  in
  Array.iter (fun (i, v) -> st.fregs.(i) <- v) p.finit;
  Array.iter (fun (i, v) -> st.iregs.(i) <- v) p.iinit;
  Array.iter (fun (i, v) -> st.bregs.(i) <- v) p.binit;
  Array.iter
    (fun (i, (z : Complex.t)) ->
      st.cregs.(2 * i) <- z.Complex.re;
      st.cregs.((2 * i) + 1) <- z.Complex.im)
    p.cinit;
  List.iter2
    (fun bind arg ->
      match (bind, arg) with
      | Bscalar (rs, sty, _), Xscalar x -> (
        match rs with
        | Rf d -> st.fregs.(d) <- V.to_float x
        | Ri d -> st.iregs.(d) <- Store.coerce_int_exn x
        | Rb d -> st.bregs.(d) <- V.to_bool x
        | Rc d ->
          let z = V.to_complex x in
          st.cregs.(2 * d) <- z.Complex.re;
          st.cregs.((2 * d) + 1) <- z.Complex.im
        | Rv (d, _) -> st.vboxs.(d) <- Some (Value.Scalar (V.coerce sty x)))
      | Barray (a, name), Xarray arr -> (
        if Array.length arr <> a.alen then
          fail "argument %s: expected %d elements, received %d" name a.alen
            (Array.length arr);
        match a.bank with
        | AKf -> st.farrs.(a.aidx) <- Store.floats_of_scalars arr
        | AKi -> st.iarrs.(a.aidx) <- Store.ints_of_scalars arr
        | AKb -> st.barrs.(a.aidx) <- Store.bools_of_scalars arr
        | AKc -> st.carrs.(a.aidx) <- Store.complex_of_scalars arr)
      | Bscalar (_, _, name), Xarray _ | Barray (_, name), Xscalar _ ->
        fail "argument %s: scalar/array mismatch" name)
    p.binds args;
  (try p.body_fn st with Return_exc -> ());
  let rets =
    List.map
      (function
        | Sreg (Rf d) -> Xscalar (V.Sf st.fregs.(d))
        | Sreg (Ri d) -> Xscalar (V.Si st.iregs.(d))
        | Sreg (Rb d) -> Xscalar (V.Sb st.bregs.(d))
        | Sreg (Rc d) ->
          Xscalar
            (V.Sc
               { Complex.re = st.cregs.(2 * d);
                 im = st.cregs.((2 * d) + 1) })
        | Sreg (Rv (d, _)) -> Xscalar (vreg_scalar st d)
        | Sarr a -> Xarray (boxed_array a st))
      p.ret_slots
  in
  (* Rebuild the class histogram through a Hashtbl populated in
     first-charge order — the exact sequence of inserts the tree-walker
     performs — so fold order, and therefore tie order after the
     by-count sort, is bit-identical to [Interp.run_tree]. *)
  let h = Hashtbl.create 16 in
  List.iter
    (fun c -> Hashtbl.replace h p.classes.(c) st.hist.(c))
    (List.rev st.order);
  { rets;
    cycles = st.cycles;
    dyn_instrs = st.dyn;
    histogram =
      Hashtbl.fold (fun k v acc -> (k, v) :: acc) h []
      |> List.sort (fun (_, a) (_, b) -> compare b a);
    output = Buffer.contents st.out }
