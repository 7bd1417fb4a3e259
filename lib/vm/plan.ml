(* Closure-threaded execution plans over typed flat storage.

   [compile] walks a MIR function ONCE and produces a program of OCaml
   closures ([state -> unit]): variables resolved to slots, static
   costs memoized, intrinsics pre-resolved. Every variable's static
   [Mir.scalar_ty] selects a monomorphic flat bank at plan time —

   - real-double scalars live in a flat [float array] register bank,
     ints in [int array], bools in [bool array], complex scalars as
     re/im pairs in a [float array];
   - real-double vector registers get a per-register [float array]
     lane buffer, the only representation a vector ever has;
   - arrays are typed banks chosen by element type, complex ones
     interleaved re/im;
   - rvalues compile to type-specialized producers, and the hot
     definitions fuse read, combine, charge and write into one closure
     that reads the banks through inlined views (see [fview]), so a
     real-double [Rbin Badd] is a plain [( +. )] on raw loads — no
     tag test, no [to_float], no allocation;
   - only the scalar shapes the benchmark kernels run are typed: every
     other scalar rvalue and store goes through the boxed
     [Value.scalar] operations the tree-walker itself uses.

   Plans are built from verified MIR, an entry check's witness
   ({!Exec.checked}), whose rules make a variable's declared type its
   runtime representation. Every def's rvalue gives its target's lanes,
   so no scalar slot ever receives a vector; a vector flows only where
   the emitted C can carry one (SIMD and mac operands, reductions,
   moves, vector stores), so every vector operand resolves to a lane
   buffer and every vector producer is one fill of its destination's;
   params and rets are never vectors; a loop's induction variable is a
   real scalar in its bounds' promoted base and the body never defines
   it, so the tree-walker's raw induction writes land in the slot's own
   representation; arrays are never registers nor registers arrays.
   Boxed values appear only on the generic scalar paths and at the
   argument/return boundary (see Store).

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
  vbufs : float array array;  (* vector registers: lane buffers *)
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

(* A scalar register slot, which is also a compiled scalar operand: its
   static runtime representation plus the bank index to read it from.
   The constructor IS the type — [Of] operands always read
   [Sf]-represented values from [st.fregs], so conversions compile to
   raw float-array loads (constants included, via the pool). Keeping
   indices rather than reader closures matters: a closure of type
   [state -> float] boxes its result on every call (no flambda), while
   an [Array.unsafe_get] on a float array inlined into the consuming
   closure is never boxed. *)
type oper =
  | Of of int  (* st.fregs index *)
  | Oi of int  (* st.iregs index *)
  | Ob of int  (* st.bregs index *)
  | Oc of int  (* st.cregs pair index: re at 2i, im at 2i+1 *)

type abank = AKf | AKi | AKb | AKc

type aslot = { bank : abank; aidx : int; alen : int }

type slot =
  | Sreg of oper  (* a scalar register *)
  | Svec of int  (* a vector register: its st.vbufs index *)
  | Sarr of aslot

type env = {
  isa : Isa.t;
  mode : Cost.mode;
  slots : (int, slot) Hashtbl.t;  (* vid -> slot *)
  cls_ids : (string, int) Hashtbl.t;
  mutable cls_rev : string list;  (* reversed interned class names *)
  mutable ncls : int;
  (* Register banks are extended past the variable slots with pooled
     constants, so every typed operand is a bank index and reads
     compile to raw array loads. [nfx]/[nix]/[nbx]/[ncx] are the next
     free indices; [*init] records the constant initializers for
     [execute]. *)
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

(* [Exec.check_entry] guarantees that the records of a vid agree, that
   arrays and registers are never confused (an array is never a
   register operand, def target or loop variable, a register never a
   load/store base), and that a vector register appears only where a
   vector is expected. *)
let unverified what = invalid_arg ("Plan: " ^ what ^ " in unverified MIR")

let arr_slot env (v : Mir.var) =
  match Hashtbl.find env.slots v.Mir.vid with
  | Sarr a -> a
  | Sreg _ | Svec _ -> unverified "register used as an array"

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

(* A scalar position: a register or a pooled constant. *)
let oper_of env (op : Mir.operand) : oper =
  match op with
  | Mir.Oconst (Mir.Cf f) -> Of (fconst env f)
  | Mir.Oconst (Mir.Ci i) -> Oi (iconst env i)
  | Mir.Oconst (Mir.Cb b) -> Ob (bconst env b)
  | Mir.Oconst (Mir.Cc z) -> Oc (cconst env z)
  | Mir.Ovar v -> (
    match Hashtbl.find env.slots v.Mir.vid with
    | Sreg o -> o
    | Svec _ -> unverified "vector register used as a scalar"
    | Sarr _ -> unverified "array used as a register")

(* A vector position: the operand's lane buffer. *)
let vbuf_of env (op : Mir.operand) : int =
  match op with
  | Mir.Ovar v -> (
    match Hashtbl.find env.slots v.Mir.vid with
    | Svec s -> s
    | Sreg _ | Sarr _ -> unverified "scalar where a vector is expected")
  | Mir.Oconst _ -> unverified "constant where a vector is expected"

let is_vector (op : Mir.operand) = (Mir.operand_sty op).Mir.lanes > 1

let real_scalar = function Of _ | Oi _ | Ob _ -> true | Oc _ -> false
let int_like = function Oi _ | Ob _ -> true | Of _ | Oc _ -> false

(* Inlined bank views. A fused definition reads its operands through
   these instead of [state -> float] closures: a closure call boxes its
   float result (there is no flambda), while these views inline into
   the consuming closure as one switch on a plan-time tag and one raw
   load, so nothing is boxed. The tag is 0 for a float, 1 for an int,
   2 for a bool and 3 for a complex register; real operands read as
   [V.to_float]/[V.to_complex] convert them. *)
let view_tag = function
  | Of i -> (0, i)
  | Oi i -> (1, i)
  | Ob i -> (2, i)
  | Oc s -> (3, s)

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

(* Fold of a lane buffer with [lane op], left to right from lane 0, as
   the tree-walker folds its boxed lanes with [V.binop]. *)
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

let i_read (o : oper) : state -> int =
  match o with
  | Oi i -> fun st -> Array.unsafe_get st.iregs i
  | Of i ->
    fun st -> int_of_float (Float.round (Array.unsafe_get st.fregs i))
  | Ob i -> fun st -> if Array.unsafe_get st.bregs i then 1 else 0
  | Oc _ -> fun _ -> invalid_arg "Value.to_int: complex"

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

(* Boxed scalar view. *)
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

(* Boxed element view of a typed array bank (generic loads). *)
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

(* A compiled rvalue. A scalar producer gives its value typed, or boxed
   ([Pg]) on the generic paths. A vector producer ([Pv]) fills its
   destination's lane buffer, raising before it writes anything where
   the tree-walker's evaluation raises (a vector load past the end);
   every lane it writes is a real double, so no coercion follows. *)
type prod =
  | Pf of (state -> float)
  | Pi of (state -> int)
  | Pb of (state -> bool)
  | Pc of (state -> Complex.t)
  | Pv of (state -> float array -> unit)
  | Pg of (state -> Value.scalar)

let gen_of_prod = function
  | Pf f -> fun st -> V.Sf (f st)
  | Pi f -> fun st -> V.Si (f st)
  | Pb f -> fun st -> V.Sb (f st)
  | Pc f -> fun st -> V.Sc (f st)
  | Pg f -> f
  | Pv _ -> unverified "vector rvalue into a scalar register"

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
    let ta, ia = view_tag oa and tb, ib = view_tag ob in
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
    let fa = s_read oa and fb = s_read ob in
    Pg (fun st -> let x = fa st in let y = fb st in vb x y)

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
    let fa = s_read oa in
    Pg (fun st -> u (fa st))

(* One or two real scalar arguments of a [Builtins] float function
   call it on raw floats; every other call takes [V.math] boxed. *)
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
    Pg (fun st -> V.math name (List.map (fun g -> g st) gs))

(* Horizontal reduction of vector register [s] (the [Rvreduce] rvalue
   and the reduce_add/min/max intrinsics): a fold of its lane buffer
   with [lane]. [compile_fdef] fuses it into a float register write. *)
let reduce_prod op s : prod =
  Pf (fun st -> fold_lanes op (Array.unsafe_get st.vbufs s))

(* An intrinsic the target has, on the operands the entry check admits
   for its kind: a SIMD op or mac over lane buffers of one width, a
   reduction of one, or a complex ISE over scalars, each operand
   converted with [V.to_complex] as the tree-walker does. *)
let compile_intrin env (desc : Isa.instr_desc) args : prod =
  match (desc.Isa.kind, args) with
  | Isa.Kmac, [ acc; a; b ] ->
    (* binop Bmul (Sf a) (Sf b) = Sf (a *. b), then binop Badd on two
       Sf is Sf (+.): the same float op sequence per lane *)
    let sacc = vbuf_of env acc and sa = vbuf_of env a and sb = vbuf_of env b in
    Pv
      (fun st dst ->
        let acc = Array.unsafe_get st.vbufs sacc in
        let a = Array.unsafe_get st.vbufs sa in
        let b = Array.unsafe_get st.vbufs sb in
        for k = 0 to Array.length dst - 1 do
          Array.unsafe_set dst k
            (Array.unsafe_get acc k
            +. (Array.unsafe_get a k *. Array.unsafe_get b k))
        done)
  | (Isa.Kcmul | Isa.Kcadd), [ a; b ] ->
    let ga = c_read (oper_of env a) and gb = c_read (oper_of env b) in
    let f = if desc.Isa.kind = Isa.Kcmul then Complex.mul else Complex.add in
    Pc (fun st -> let x = ga st in let y = gb st in f x y)
  | Isa.Kcmac, [ c; a; b ] ->
    let gc = c_read (oper_of env c)
    and ga = c_read (oper_of env a)
    and gb = c_read (oper_of env b) in
    Pc
      (fun st ->
        let z = gc st in
        let x = ga st in
        let y = gb st in
        Complex.add z (Complex.mul x y))
  | kind, [ a ] -> (
    match Exec.reduce_kind_op kind with
    | Some op -> reduce_prod op (vbuf_of env a)
    | None -> unverified ("intrinsic " ^ desc.Isa.iname ^ " on one operand"))
  | kind, [ a; b ] -> (
    match Exec.simd_kind_op kind with
    | Some op ->
      let sa = vbuf_of env a and sb = vbuf_of env b in
      Pv
        (fun st dst ->
          let a = Array.unsafe_get st.vbufs sa in
          let b = Array.unsafe_get st.vbufs sb in
          for k = 0 to Array.length dst - 1 do
            Array.unsafe_set dst k
              (lane op (Array.unsafe_get a k) (Array.unsafe_get b k))
          done)
    | None -> unverified ("intrinsic " ^ desc.Isa.iname ^ " on two operands"))
  | _ -> unverified ("intrinsic " ^ desc.Isa.iname ^ " with these operands")

let compile_rvalue env (rv : Mir.rvalue) : prod =
  match rv with
  | Mir.Rbin (op, a, b) -> compile_rbin env op a b
  | Mir.Runop (op, a) -> compile_runop env op a
  | Mir.Rmath (name, args) -> compile_rmath env name args
  | Mir.Rcomplex (re, im) ->
    let gre = s_read (oper_of env re) and gim = s_read (oper_of env im) in
    Pg
      (fun st ->
        V.Sc { Complex.re = V.to_float (gre st); im = V.to_float (gim st) })
  | Mir.Rload (a, idx) ->
    let aslot = arr_slot env a in
    let gi = index_fn env idx ~len:aslot.alen ~what:a.Mir.vname in
    let elem = boxed_elem aslot in
    Pg (fun st -> elem st (gi st))
  | Mir.Rmove a when is_vector a ->
    (* CSE turns two equal vector loads into a load and a move *)
    let s = vbuf_of env a in
    Pv
      (fun st dst ->
        Array.blit (Array.unsafe_get st.vbufs s) 0 dst 0 (Array.length dst))
  | Mir.Rmove a -> (
    match oper_of env a with
    | Oi _ as o -> Pi (i_read o)
    | o -> Pg (s_read o))
  | Mir.Rvload (a, base, lanes) ->
    let aslot = arr_slot env a in
    if aslot.bank <> AKf then unverified "vector load from a non-double array";
    let len = aslot.alen and k = aslot.aidx and name = a.Mir.vname in
    let gb = index_fn env base ~len ~what:name in
    Pv
      (fun st dst ->
        let b = gb st in
        if b + lanes > len then fail "vector load past end of %s" name;
        Array.blit (Array.unsafe_get st.farrs k) b dst 0 lanes)
  | Mir.Rvbroadcast (a, _) ->
    let t, i =
      match oper_of env a with
      | Oc _ -> unverified "broadcast of a complex scalar"
      | o -> view_tag o
    in
    (* a raw loop: [Array.fill] would box the float *)
    Pv
      (fun st dst ->
        let x = fview st t i in
        for k = 0 to Array.length dst - 1 do
          Array.unsafe_set dst k x
        done)
  | Mir.Rvreduce (r, a) -> reduce_prod (Exec.vreduce_op r) (vbuf_of env a)
  | Mir.Rintrin (name, args) -> (
    match Isa.find_named env.isa name with
    | Some desc -> compile_intrin env desc args
    | None -> invalid_arg ("Plan: no producer for absent intrinsic " ^ name))

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
  let views ops = List.map (fun o -> view_tag (oper_of env o)) ops in
  (* The fused formula and its operand views, or [None]. A binop fuses
     when one side is statically complex (then [V.binop] takes its
     complex branch at runtime); the complex intrinsics convert every
     operand with [V.to_complex], so any typed scalar mix fuses. *)
  let formula =
    match rv with
    | Mir.Rbin (((Mir.Badd | Mir.Bsub | Mir.Bmul) as op), a, b) -> (
      match views [ a; b ] with
      | [ (ta, _); (tb, _) ] as vs when ta = 3 || tb = 3 ->
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
        match form with
        | Some form -> Some (form, views args)
        | None -> None))
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
  | Some _, _ -> None
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
  | None, Mir.Rmove o ->
    let t, i = view_tag (oper_of env o) in
    Some
      (fun st ->
        let re = cre st t i and im = cim st t i in
        charge st cls cost;
        cwrite st d re im)
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
    | [ (ta, ia); (tb, ib) ] when ta < 3 && tb < 3 ->
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
   [None]. *)
let compile_fdef env d rv cls cost : (state -> unit) option =
  (* A reduction of a vector register folds its lane buffer in place. *)
  let reduce op a =
    let s = vbuf_of env a in
    Some
      (fun st ->
        let x = fold_lanes op (Array.unsafe_get st.vbufs s) in
        charge st cls cost;
        Array.unsafe_set st.fregs d x)
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
    | (ta, ia), (tb, ib) when float_op && ta < 3 && tb < 3 ->
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
    let t, i = view_tag (oper_of env a) in
    Some
      (fun st ->
        let x = match u with Mir.Ure -> cre st t i | _ -> cim st t i in
        charge st cls cost;
        Array.unsafe_set st.fregs d x))
  | Mir.Rmath ("atan2", [ a; b ]) -> (
    (* [Builtins.float_fn2 "atan2"] is [Stdlib.atan2]; calling it by
       name keeps its arguments and result out of boxes *)
    match (view_tag (oper_of env a), view_tag (oper_of env b)) with
    | (ta, ia), (tb, ib) when ta < 3 && tb < 3 ->
      Some
        (fun st ->
          let r = atan2 (fview st ta ia) (fview st tb ib) in
          charge st cls cost;
          Array.unsafe_set st.fregs d r)
    | _ -> None)
  | Mir.Rvreduce (r, a) -> reduce (Exec.vreduce_op r) a
  | Mir.Rintrin (name, [ a ]) -> (
    match Isa.find_named env.isa name with
    | Some desc ->
      Option.bind (Exec.reduce_kind_op desc.Isa.kind) (fun op -> reduce op a)
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
  | Mir.Idef (_, Mir.Rintrin (name, _))
    when Isa.find_named env.isa name = None ->
    (* A run-time error, raised where the tree-walker raises it: after
       reading the operands, which cannot fail, and before the charge. *)
    let msg =
      Printf.sprintf "target %s has no intrinsic %s" env.isa.Isa.tname name
    in
    fun _ -> raise (Runtime_error msg)
  | Mir.Idef (v, rv) -> (
    let prod = compile_rvalue env rv in
    let cls = class_id env (Cost.class_of_rvalue rv) in
    let cost = Cost.def_cost env.isa env.mode rv in
    (* Writes below follow the tree-walker's order exactly: evaluate the
       rvalue, charge, then coerce (which may raise) and write. A
       vector fill writes before the charge, which is unobservable: a
       charge only ever raises a trap that ends the run. *)
    match Hashtbl.find env.slots v.Mir.vid with
    | Sreg (Of d) -> (
      match (compile_fdef env d rv cls cost, prod) with
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
          let s = g st in
          charge st cls cost;
          Array.unsafe_set st.fregs d (V.to_float s))
    | Sreg (Oi d) -> (
      match prod with
      | Pi f ->
        fun st ->
          let x = f st in
          charge st cls cost;
          Array.unsafe_set st.iregs d x
      | p ->
        let g = gen_of_prod p in
        fun st ->
          let s = g st in
          charge st cls cost;
          Array.unsafe_set st.iregs d (Store.coerce_int_exn s))
    | Sreg (Ob d) -> (
      match prod with
      | Pb f ->
        fun st ->
          let x = f st in
          charge st cls cost;
          Array.unsafe_set st.bregs d x
      | p ->
        let g = gen_of_prod p in
        fun st ->
          let s = g st in
          charge st cls cost;
          Array.unsafe_set st.bregs d (V.to_bool s))
    | Sreg (Oc d) -> (
      match (compile_cdef env d rv cls cost, prod) with
      | Some f, _ -> f
      | None, Pc f ->
        fun st ->
          let z = f st in
          charge st cls cost;
          cwrite st d z.Complex.re z.Complex.im
      | None, p ->
        let g = gen_of_prod p in
        fun st ->
          let s = g st in
          charge st cls cost;
          let z = V.to_complex s in
          cwrite st d z.Complex.re z.Complex.im)
    | Svec d -> (
      match prod with
      | Pv fill ->
        fun st ->
          fill st (Array.unsafe_get st.vbufs d);
          charge st cls cost
      | Pf _ | Pi _ | Pb _ | Pc _ | Pg _ ->
        unverified "scalar rvalue into a vector register")
    | Sarr _ -> unverified "def of an array")
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
  | Mir.Ivstore (a, base, x, lanes) ->
    let aslot = arr_slot env a in
    if aslot.bank <> AKf then unverified "vector store to a non-double array";
    let len = aslot.alen and k = aslot.aidx and name = a.Mir.vname in
    let gb = index_fn env base ~len ~what:name in
    let cls = class_id env "simd" in
    let cost = Cost.vstore_cost env.isa in
    let s = vbuf_of env x in
    (* a straight blit: the verifier pins the register's width to the
       store's *)
    fun st ->
      let b = gb st in
      if b + lanes > len then fail "vector store past end of %s" name;
      Array.blit (Array.unsafe_get st.vbufs s) 0 (Array.unsafe_get st.farrs k)
        b lanes;
      charge st cls cost
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
     raw [Sf]. Neither loop boxes anything. *)
  match Hashtbl.find env.slots ivar.Mir.vid with
  | Sreg (Oi iv) ->
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
  | Sreg (Of iv) ->
    (* The counter is a local [float ref], as the int loop's is an
       [int ref]: it never escapes, so the native compiler keeps it a
       raw float, and the variable keeps the last value the loop
       assigned it. The bounds are read through the views, since a
       [state -> float] reader would box each one per entry. *)
    let tl, il = view_tag olo and ts, is = view_tag ostep
    and th, ih = view_tag ohi in
    fun st ->
      let l = fview st tl il in
      let s = fview st ts is in
      let h = fview st th ih in
      (try
         if s >= 0.0 then begin
           let v = ref l in
           while !v <= h do
             Array.unsafe_set st.fregs iv !v;
             charge st lcls lcost;
             (try fbody st with Continue_exc -> ());
             v := !v +. s
           done
         end
         else begin
           let v = ref l in
           while !v >= h do
             Array.unsafe_set st.fregs iv !v;
             charge st lcls lcost;
             (try fbody st with Continue_exc -> ());
             v := !v +. s
           done
         end
       with Break_exc -> ());
      charge st bcls bcost
  | Sreg (Ob _ | Oc _) | Svec _ | Sarr _ ->
    unverified "loop variable neither int nor double"

(* ---------------- whole-function plans ---------------- *)

type aspec = { alen : int; aparam : bool }

type bind = Bscalar of oper * string | Barray of aslot * string

type t = {
  fname : string;
  nparams : int;
  binds : bind list;
  rets : (state -> xvalue) list;
  (* Bank sizes include pooled constants past the variable slots;
     [*init] carries the constant initializers. *)
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

let of_checked ~mode ({ Exec.func = f; isa } : Exec.checked) : t =
  (* Slot assignment per bank: params, rets, then the function's other
     variables in ascending vid order ([Mir.iter_vars]), which the entry
     check guarantees agree on each vid's type. A scalar's type is its
     bank. *)
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
          | MT.Complex, _, 1 -> Sreg (Oc (next nc))
          | MT.Real, MT.Double, 1 -> Sreg (Of (next nf))
          | MT.Real, MT.Int, 1 -> Sreg (Oi (next ni))
          | MT.Real, MT.Bool, 1 -> Sreg (Ob (next nb))
          | MT.Real, MT.Double, l ->
            vlanes_rev := l :: !vlanes_rev;
            Svec (next nv)
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
  Mir.iter_vars (assign ~aparam:false) f;
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
        match Hashtbl.find slots p.Mir.vid with
        | Sreg o -> Bscalar (o, p.Mir.vname)
        | Sarr a -> Barray (a, p.Mir.vname)
        | Svec _ -> unverified "vector parameter")
      f.Mir.params
  in
  let ret (r : Mir.var) =
    match Hashtbl.find slots r.Mir.vid with
    | Sreg o ->
      let g = s_read o in
      fun st -> Xscalar (g st)
    | Sarr a ->
      let g = boxed_array a in
      fun st -> Xarray (g st)
    | Svec _ -> unverified "vector return"
  in
  { fname = f.Mir.name;
    nparams = List.length f.Mir.params;
    binds;
    rets = List.map ret f.Mir.rets;
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

let compile ~isa ~mode f = of_checked ~mode (Exec.check_entry ~isa f)

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
      | Bscalar (o, _), Xscalar x -> (
        match o with
        | Of d -> st.fregs.(d) <- V.to_float x
        | Oi d -> st.iregs.(d) <- Store.coerce_int_exn x
        | Ob d -> st.bregs.(d) <- V.to_bool x
        | Oc d ->
          let z = V.to_complex x in
          st.cregs.(2 * d) <- z.Complex.re;
          st.cregs.((2 * d) + 1) <- z.Complex.im)
      | Barray (a, name), Xarray arr -> (
        if Array.length arr <> a.alen then
          fail "argument %s: expected %d elements, received %d" name a.alen
            (Array.length arr);
        match a.bank with
        | AKf -> st.farrs.(a.aidx) <- Store.floats_of_scalars arr
        | AKi -> st.iarrs.(a.aidx) <- Store.ints_of_scalars arr
        | AKb -> st.barrs.(a.aidx) <- Store.bools_of_scalars arr
        | AKc -> st.carrs.(a.aidx) <- Store.complex_of_scalars arr)
      | Bscalar (_, name), Xarray _ | Barray (_, name), Xscalar _ ->
        fail "argument %s: scalar/array mismatch" name)
    p.binds args;
  (try p.body_fn st with Return_exc -> ());
  let rets = List.map (fun ret -> ret st) p.rets in
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
