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
     tag test, no [to_float], no allocation.

   A conservative demotion pass keeps this sound against adversarial
   MIR: any scalar variable that could dynamically receive a vector
   value (the verifier does not constrain def-target lanes), and any
   loop induction variable whose runtime representation is not
   statically forced (the tree-walker writes induction values RAW,
   without coercion to the declared type), falls back to a boxed
   [Value.t] register. Boxed values appear only there and at the
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
  vbufs : float array array;  (* vector registers: unboxed lane buffers *)
  vboxs : Value.t option array;  (* Some v: boxed escape overrides vbufs *)
  gregs : Value.t array;  (* demoted registers: boxed, fully general *)
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
  | Rg of int  (* gregs: boxed *)

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

let slot_of env (v : Mir.var) =
  match Hashtbl.find_opt env.slots v.Mir.vid with
  | Some s -> s
  | None -> assert false (* the numbering pre-pass visited every var *)

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
  | Og of (state -> Value.t)  (* boxed: demoted regs, array-as-reg errors *)

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
    match slot_of env v with
    | Sreg (Rf s) -> Of s
    | Sreg (Ri s) -> Oi s
    | Sreg (Rb s) -> Ob s
    | Sreg (Rc s) -> Oc s
    | Sreg (Rv (s, l)) -> Ov (s, l)
    | Sreg (Rg s) -> Og (fun st -> Array.unsafe_get st.gregs s)
    | Sarr _ ->
      let msg =
        Printf.sprintf "variable %s.%d used as a register" v.Mir.vname
          v.Mir.vid
      in
      Og (fun _ -> raise (Runtime_error msg)))

let typed_scalar = function
  | Of _ | Oi _ | Ob _ | Oc _ -> true
  | Ov _ | Og _ -> false

let int_like = function Oi _ | Ob _ -> true | Of _ | Oc _ | Ov _ | Og _ -> false
let is_oc = function Oc _ -> true | _ -> false

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
  | Ov _ | Og _ -> None

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
  | Og f -> fun st -> V.to_float (scalar_of_value (f st))

let i_read (o : oper) : state -> int =
  match o with
  | Oi i -> fun st -> Array.unsafe_get st.iregs i
  | Of i ->
    fun st -> int_of_float (Float.round (Array.unsafe_get st.fregs i))
  | Ob i -> fun st -> if Array.unsafe_get st.bregs i then 1 else 0
  | Oc _ -> fun _ -> invalid_arg "Value.to_int: complex"
  | Ov (s, _) -> fun st -> V.to_int (vreg_scalar st s)
  | Og f -> fun st -> V.to_int (scalar_of_value (f st))

(* [V.coerce] into an Int slot: same as [i_read] except for the
   complex error message (see Store.coerce_int_exn). *)
let ci_read (o : oper) : state -> int =
  match o with
  | Oc _ -> fun _ -> invalid_arg "Value.coerce: complex into int"
  | Ov (s, _) -> fun st -> Store.coerce_int_exn (vreg_scalar st s)
  | Og f -> fun st -> Store.coerce_int_exn (scalar_of_value (f st))
  | o -> i_read o

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
  | Og f -> fun st -> V.to_bool (scalar_of_value (f st))

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
  | Og f -> fun st -> V.to_complex (scalar_of_value (f st))

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
  | Og f -> fun st -> scalar_of_value (f st)

(* Boxed value view; never raises except for array-as-register. *)
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
  | Og f -> f

(* Array operand: typed slot, or the runtime failure the tree-walker
   would produce. *)
let arr_ref env (v : Mir.var) : (aslot, string) Stdlib.result =
  match slot_of env v with
  | Sarr a -> Ok a
  | Sreg _ ->
    Error
      (Printf.sprintf "variable %s.%d used as an array" v.Mir.vname v.Mir.vid)

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

let float_fast = function
  | Mir.Badd -> Some ( +. )
  | Mir.Bsub -> Some ( -. )
  | Mir.Bmul -> Some ( *. )
  | Mir.Bdiv -> Some ( /. )
  | _ -> None

(* Per-lane fast path: [V.binop] on two real-double lanes reduces by
   definition to [Sf (f x y)] with the raw float operator ([fop] in
   Value), so matching the [Sf] constructors first is bit-identical and
   skips the complex/int-like dispatch chain. *)
let lane2_fast op =
  let g = V.binop op in
  match float_fast op with
  | Some f -> (
    fun a b ->
      match (a, b) with V.Sf x, V.Sf y -> V.Sf (f x y) | _ -> g a b)
  | None -> g

(* Scalar binary ops, statically dispatched on the operands' runtime
   representations. Mirrors [V.binop]'s promotion rules exactly:
   complex when either side is complex; int ops when both sides are
   int-like (Si/Sb); float otherwise; Bdiv/Bpow always float;
   comparisons through [compare] on floats. *)
let compile_rbin env op a b : prod =
  let oa = oper_of env a and ob = oper_of env b in
  if typed_scalar oa && typed_scalar ob then begin
    if is_oc oa || is_oc ob then begin
      let za = c_read oa and zb = c_read ob in
      let c2 f = Pc (fun st -> let x = za st in let y = zb st in f x y) in
      match op with
      | Mir.Badd -> c2 Complex.add
      | Mir.Bsub -> c2 Complex.sub
      | Mir.Bmul -> c2 Complex.mul
      | Mir.Bdiv -> c2 Complex.div
      | Mir.Bpow -> c2 Complex.pow
      | Mir.Beq -> Pb (fun st -> let x = za st in let y = zb st in x = y)
      | Mir.Bne -> Pb (fun st -> let x = za st in let y = zb st in x <> y)
      | Mir.Bmin | Mir.Bmax | Mir.Blt | Mir.Ble | Mir.Bgt | Mir.Bge
      | Mir.Band | Mir.Bor | Mir.Bmod | Mir.Bidiv ->
        Pg
          (fun st ->
            let _ = za st in
            let _ = zb st in
            invalid_arg "Value.binop: operation undefined on complex values")
    end
    else begin
      let fa = f_read oa and fb = f_read ob in
      let pf f = Pf (fun st -> let x = fa st in let y = fb st in f x y) in
      let cmp f =
        Pb (fun st -> let x = fa st in let y = fb st in f (compare x y) 0)
      in
      let pbool f =
        let ba = b_read oa and bb = b_read ob in
        Pb (fun st -> let x = ba st in let y = bb st in f x y)
      in
      let idiv () =
        let xa = i_read oa and xb = i_read ob in
        Pi
          (fun st ->
            let x = xa st in
            let y = xb st in
            if y = 0 then invalid_arg "Value.binop: integer division by zero"
            else x / y)
      in
      if int_like oa && int_like ob then begin
        let xa = i_read oa and xb = i_read ob in
        let pi f = Pi (fun st -> let x = xa st in let y = xb st in f x y) in
        match op with
        | Mir.Badd -> pi ( + )
        | Mir.Bsub -> pi ( - )
        | Mir.Bmul -> pi ( * )
        | Mir.Bdiv -> pf ( /. )
        | Mir.Bpow -> pf ( ** )
        | Mir.Bidiv -> idiv ()
        | Mir.Bmod ->
          Pi
            (fun st ->
              let x = xa st in
              let y = xb st in
              if y = 0 then x else ((x mod y) + y) mod y)
        | Mir.Bmin -> pi min
        | Mir.Bmax -> pi max
        | Mir.Blt -> cmp ( < )
        | Mir.Ble -> cmp ( <= )
        | Mir.Bgt -> cmp ( > )
        | Mir.Bge -> cmp ( >= )
        | Mir.Beq -> cmp ( = )
        | Mir.Bne -> cmp ( <> )
        | Mir.Band -> pbool ( && )
        | Mir.Bor -> pbool ( || )
      end
      else begin
        match op with
        | Mir.Badd -> pf ( +. )
        | Mir.Bsub -> pf ( -. )
        | Mir.Bmul -> pf ( *. )
        | Mir.Bdiv -> pf ( /. )
        | Mir.Bpow -> pf ( ** )
        | Mir.Bidiv -> idiv ()
        | Mir.Bmod ->
          pf (fun x y -> if y = 0.0 then x else Float.rem x y)
        | Mir.Bmin -> pf min
        | Mir.Bmax -> pf max
        | Mir.Blt -> cmp ( < )
        | Mir.Ble -> cmp ( <= )
        | Mir.Bgt -> cmp ( > )
        | Mir.Bge -> cmp ( >= )
        | Mir.Beq -> cmp ( = )
        | Mir.Bne -> cmp ( <> )
        | Mir.Band -> pbool ( && )
        | Mir.Bor -> pbool ( || )
      end
    end
  end
  else begin
    (* Vector or demoted operands: boxed lane-wise path. *)
    let vb = lane2_fast op in
    let fa = v_read oa and fb = v_read ob in
    Pg
      (fun st ->
        let va = fa st in
        let vbv = fb st in
        lanewise2 vb va vbv)
  end

let compile_runop env op a : prod =
  match oper_of env a with
  | (Og _ | Ov _) as oa ->
    let u = V.unop op in
    let fa = v_read oa in
    Pg
      (fun st ->
        match fa st with
        | Value.Scalar x -> Value.Scalar (u x)
        | Value.Vector x -> Value.Vector (Array.map u x))
  | Of _ as o -> (
    let f = f_read o in
    match op with
    | Mir.Uneg -> Pf (fun st -> -.(f st))
    | Mir.Unot -> Pb (fun st -> not (f st <> 0.0))
    | Mir.Uabs -> Pf (fun st -> Float.abs (f st))
    | Mir.Ure | Mir.Uconj -> Pf f
    | Mir.Uim ->
      Pf
        (fun st ->
          let _ = f st in
          0.0))
  | Oi _ as o -> (
    let f = i_read o in
    match op with
    | Mir.Uneg -> Pi (fun st -> -f st)
    | Mir.Unot -> Pb (fun st -> not (f st <> 0))
    | Mir.Uabs -> Pi (fun st -> abs (f st))
    | Mir.Ure -> Pf (fun st -> float_of_int (f st))
    | Mir.Uim ->
      Pf
        (fun st ->
          let _ = f st in
          0.0)
    | Mir.Uconj -> Pi f)
  | Ob _ as o -> (
    let f = b_read o in
    match op with
    | Mir.Uneg -> Pi (fun st -> if f st then -1 else 0)
    | Mir.Unot -> Pb (fun st -> not (f st))
    | Mir.Uabs -> Pi (fun st -> if f st then 1 else 0)
    | Mir.Ure -> Pf (fun st -> if f st then 1.0 else 0.0)
    | Mir.Uim ->
      Pf
        (fun st ->
          let _ = f st in
          0.0)
    | Mir.Uconj -> Pb f)
  | Oc _ as o -> (
    let f = c_read o in
    match op with
    | Mir.Uneg -> Pc (fun st -> Complex.neg (f st))
    | Mir.Unot -> Pb (fun st -> not (Complex.norm (f st) <> 0.0))
    | Mir.Uabs -> Pf (fun st -> Complex.norm (f st))
    | Mir.Ure -> Pf (fun st -> (f st).Complex.re)
    | Mir.Uim -> Pf (fun st -> (f st).Complex.im)
    | Mir.Uconj -> Pc (fun st -> Complex.conj (f st)))

let compile_rmath env name args : prod =
  let opers = List.map (oper_of env) args in
  if not (List.for_all typed_scalar opers) then begin
    let gs = List.map s_read opers in
    Pg (fun st -> Value.Scalar (V.math name (List.map (fun g -> g st) gs)))
  end
  else
    match opers with
    | [ (Oc _ as o) ] -> (
      let f = c_read o in
      match name with
      | "exp" -> Pc (fun st -> Complex.exp (f st))
      | "sqrt" -> Pc (fun st -> Complex.sqrt (f st))
      | "log" -> Pc (fun st -> Complex.log (f st))
      | "cos" ->
        Pc
          (fun st ->
            let z = f st in
            let iz = Complex.mul Complex.i z in
            Complex.div
              (Complex.add (Complex.exp iz) (Complex.exp (Complex.neg iz)))
              { Complex.re = 2.0; im = 0.0 })
      | "sin" ->
        Pc
          (fun st ->
            let z = f st in
            let iz = Complex.mul Complex.i z in
            Complex.div
              (Complex.sub (Complex.exp iz) (Complex.exp (Complex.neg iz)))
              { Complex.re = 0.0; im = 2.0 })
      | _ ->
        let msg = Printf.sprintf "Value.math: %s on complex" name in
        Pg
          (fun st ->
            let _ = f st in
            invalid_arg msg))
    | [ o ] -> (
      let g = f_read o in
      match Masc_sema.Builtins.float_fn name with
      | Some fn -> Pf (fun st -> fn (g st))
      | None ->
        let msg = Printf.sprintf "Value.math: unknown function %s" name in
        Pg
          (fun st ->
            let _ = g st in
            invalid_arg msg))
    | [ oa; ob ] -> (
      match Masc_sema.Builtins.float_fn2 name with
      | Some fn ->
        let ga = f_read oa and gb = f_read ob in
        Pf (fun st -> let x = ga st in let y = gb st in fn x y)
      | None ->
        let ga = s_read oa and gb = s_read ob in
        let msg = Printf.sprintf "Value.math: unknown function %s" name in
        Pg
          (fun st ->
            let _ = ga st in
            let _ = gb st in
            invalid_arg msg))
    | os ->
      let gs = List.map s_read os in
      Pg
        (fun st ->
          List.iter (fun g -> ignore (g st)) gs;
          invalid_arg "Value.math: bad arity")

(* Horizontal reduction of a vector operand (the [Rvreduce] rvalue and
   the reduce_add/min/max intrinsics). An unboxed lane buffer folds with
   the raw float operator; boxed lanes fold with [V.binop], which on two
   [Sf] lanes is the same float operation. *)
let reduce_prod op (o : oper) ~err : prod =
  let combine_s = lane2_fast op in
  let fold_boxed x =
    let acc = ref x.(0) in
    for i = 1 to Array.length x - 1 do
      acc := combine_s !acc x.(i)
    done;
    !acc
  in
  match o with
  | Ov (s, _) ->
    let combine_f : float -> float -> float =
      match op with
      | Mir.Badd -> ( +. )
      | Mir.Bmul -> ( *. )
      | Mir.Bmin -> min
      | _ -> max
    in
    Pf
      (fun st ->
        match Array.unsafe_get st.vboxs s with
        | None ->
          let x = Array.unsafe_get st.vbufs s in
          let acc = ref (Array.unsafe_get x 0) in
          for i = 1 to Array.length x - 1 do
            acc := combine_f !acc (Array.unsafe_get x i)
          done;
          !acc
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
        let f = lane2_fast op in
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
    let simd2 op fop =
      match opers with
      | [ Ov (sa, la); Ov (sb, lb) ] when la = lb -> (
        match vreads with
        | [ fa; fb ] ->
          let f = lane2_fast op in
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
                      (fop (Array.unsafe_get a k) (Array.unsafe_get b k))
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
    | Isa.Ksimd_add -> simd2 Mir.Badd ( +. )
    | Isa.Ksimd_sub -> simd2 Mir.Bsub ( -. )
    | Isa.Ksimd_mul -> simd2 Mir.Bmul ( *. )
    | Isa.Ksimd_div -> simd2 Mir.Bdiv ( /. )
    (* [V.binop Bmin] on two [Sf] lanes is [Sf (Stdlib.min x y)]. *)
    | Isa.Ksimd_min -> simd2 Mir.Bmin min
    | Isa.Ksimd_max -> simd2 Mir.Bmax max
    | Isa.Kmac -> (
      (* binop Bmul (Sf a) (Sf b) = Sf (a *. b), then binop Badd on two
         Sf is Sf (+.): the fused lane below is the same float op
         sequence. *)
      let mac acc a b =
        match (acc, a, b) with
        | V.Sf acc, V.Sf x, V.Sf y -> V.Sf (acc +. (x *. y))
        | _ -> V.binop Mir.Badd acc (V.binop Mir.Bmul a b)
      in
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
      (* Complex ISEs into a non-complex target or from vector/boxed
         operands; a complex-register target is fused in [compile_cdef]. *)
      let to_c v = V.to_complex (scalar_of_value v) in
      let f2 = if kind = Isa.Kcmul then Complex.mul else Complex.add in
      let typed = List.for_all typed_scalar opers in
      match (kind, opers, vreads) with
      | Isa.Kcmac, [ oc; oa; ob ], _ when typed ->
        let zc = c_read oc and za = c_read oa and zb = c_read ob in
        Pc
          (fun st ->
            let c = zc st in
            let x = za st in
            let y = zb st in
            Complex.add c (Complex.mul x y))
      | Isa.Kcmac, _, [ fc; fa; fb ] ->
        Pg
          (fun st ->
            let vc = fc st in
            let va = fa st in
            let vb = fb st in
            Value.Scalar
              (V.Sc (Complex.add (to_c vc) (Complex.mul (to_c va) (to_c vb)))))
      | Isa.Kcmac, _, _ -> failure "cmac expects 3 operands"
      | _, [ oa; ob ], _ when typed ->
        let za = c_read oa and zb = c_read ob in
        Pc (fun st -> let x = za st in let y = zb st in f2 x y)
      | _, _, [ fa; fb ] ->
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
    | Isa.Kreduce_add | Isa.Kreduce_min | Isa.Kreduce_max -> (
      let op =
        match desc.Isa.kind with
        | Isa.Kreduce_add -> Mir.Badd
        | Isa.Kreduce_min -> Mir.Bmin
        | _ -> Mir.Bmax
      in
      match opers with
      | [ o ] -> reduce_prod op o ~err:"reduce expects one vector operand"
      | _ -> failure "reduce expects one vector operand"))

let compile_rvalue env (rv : Mir.rvalue) : prod =
  match rv with
  | Mir.Rbin (op, a, b) -> compile_rbin env op a b
  | Mir.Runop (op, a) -> compile_runop env op a
  | Mir.Rmath (name, args) -> compile_rmath env name args
  | Mir.Rcomplex (re, im) ->
    let gre = f_read (oper_of env re) and gim = f_read (oper_of env im) in
    Pc (fun st -> { Complex.re = gre st; im = gim st })
  | Mir.Rload (a, idx) -> (
    match arr_ref env a with
    | Error msg -> Pg (fun _ -> raise (Runtime_error msg))
    | Ok aslot -> (
      let gi = index_fn env idx ~len:aslot.alen ~what:a.Mir.vname in
      let k = aslot.aidx in
      match aslot.bank with
      | AKf ->
        Pf
          (fun st ->
            let i = gi st in
            Array.unsafe_get (Array.unsafe_get st.farrs k) i)
      | AKi ->
        Pi
          (fun st ->
            let i = gi st in
            Array.unsafe_get (Array.unsafe_get st.iarrs k) i)
      | AKb ->
        Pb
          (fun st ->
            let i = gi st in
            Array.unsafe_get (Array.unsafe_get st.barrs k) i)
      | AKc ->
        Pc
          (fun st ->
            let i = gi st in
            let ca = Array.unsafe_get st.carrs k in
            { Complex.re = Array.unsafe_get ca (2 * i);
              im = Array.unsafe_get ca ((2 * i) + 1) })))
  | Mir.Rmove a -> (
    match oper_of env a with
    | Of _ as o -> Pf (f_read o)
    | Oi _ as o -> Pi (i_read o)
    | Ob _ as o -> Pb (b_read o)
    | Oc _ as o -> Pc (c_read o)
    | Og f -> Pg f
    | Ov (s, l) ->
      Pv
        { vlanes = l;
          vready = (fun st -> unboxed st s);
          vcheck = (fun _ -> ());
          vfill =
            (fun st dst ->
              Array.blit (Array.unsafe_get st.vbufs s) 0 dst 0 l);
          vgen = (fun st -> vreg_value st s) })
  | Mir.Rvload (a, base, lanes) -> (
    match arr_ref env a with
    | Error msg -> Pg (fun _ -> raise (Runtime_error msg))
    | Ok aslot -> (
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
            Value.Vector (Array.init lanes (fun j -> elem st (b + j))))))
  | Mir.Rvbroadcast (a, lanes) -> (
    match oper_of env a with
    | (Of _ | Oi _ | Ob _) as o ->
      let gf = f_read o and gs = s_read o in
      Pv
        { vlanes = lanes;
          vready = (fun _ -> true);
          vcheck = (fun _ -> ());
          vfill = (fun st dst -> Array.fill dst 0 lanes (gf st));
          vgen = (fun st -> Value.Vector (Array.make lanes (gs st))) }
    | o ->
      let gs = s_read o in
      Pg (fun st -> Value.Vector (Array.make lanes (gs st))))
  | Mir.Rvreduce (r, a) ->
    let op =
      match r with
      | Mir.Vsum -> Mir.Badd
      | Mir.Vprod -> Mir.Bmul
      | Mir.Vmin -> Mir.Bmin
      | Mir.Vmax -> Mir.Bmax
    in
    reduce_prod op (oper_of env a) ~err:"vreduce of a scalar"
  | Mir.Rintrin (name, args) -> compile_intrin env name args

(* Write-side coercion with an identity fast path for boxed registers:
   when the value is already a scalar of the declared representation,
   [coerce] would rebuild an equal value — skip the allocation. *)
let coerce_fast (sty : Mir.scalar_ty) : Value.t -> Value.t =
  match (sty.Mir.cplx, sty.Mir.base) with
  | MT.Complex, _ -> (
    function Value.Scalar (V.Sc _) as v -> v | v -> coerce_value sty v)
  | MT.Real, MT.Double -> (
    function Value.Scalar (V.Sf _) as v -> v | v -> coerce_value sty v)
  | MT.Real, MT.Int -> (
    function Value.Scalar (V.Si _) as v -> v | v -> coerce_value sty v)
  | MT.Real, MT.Bool -> (
    function Value.Scalar (V.Sb _) as v -> v | v -> coerce_value sty v)
  | MT.Real, MT.Err ->
    fun _ -> invalid_arg "Plan: poison type reached the VM"

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
   load, move, add/sub/mul, and the cmul/cmac/cadd intrinsics) the
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
          | Isa.Kcmac -> Some `Mac
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
  | Some (`Mac, [ (tc, ic); (ta, ia); (tb, ib) ]), _ ->
    Some
      (fun st ->
        let cr = cre st tc ic and ci = cim st tc ic in
        let ar = cre st ta ia and ai = cim st ta ia in
        let br = cre st tb ib and bi = cim st tb ib in
        charge st cls cost;
        cwrite st d
          (cr +. ((ar *. br) -. (ai *. bi)))
          (ci +. ((ar *. bi) +. (ai *. br))))
  | Some _, _ -> None (* wrong arity: the generic path reports it *)
  | None, Mir.Rload (a, idx) -> (
    match arr_ref env a with
    | Ok aslot when aslot.bank = AKc ->
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
    | _ -> None)
  | None, Mir.Rmove o -> (
    match view_tag (oper_of env o) with
    | Some (t, i) ->
      Some
        (fun st ->
          let re = cre st t i and im = cim st t i in
          charge st cls cost;
          cwrite st d re im)
    | None -> None)
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
   fused text mirrors the generic path term-for-term are taken
   ([min]/[max] keep their polymorphic-compare semantics, so they stay
   on the closure path); everything else returns [None]. *)
let compile_fdef env d rv cls cost : (state -> unit) option =
  match rv with
  | Mir.Rbin (op, a, b) -> (
    let oa = oper_of env a and ob = oper_of env b in
    (* Mirrors [compile_rbin]'s static promotion: Badd/Bsub/Bmul/Bmod of
       two int-like operands produce an unboxed [Pi] already; the float
       branch is what needs fusing. Bdiv/Bpow are float in both
       branches. *)
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
    match arr_ref env a with
    | Error _ -> None
    | Ok aslot -> (
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
      | AKi | AKb | AKc -> None))
  | Mir.Rmove a -> (
    match oper_of env a with
    | Of s ->
      Some
        (fun st ->
          let x = Array.unsafe_get st.fregs s in
          charge st cls cost;
          Array.unsafe_set st.fregs d x)
    | _ -> None)
  | Mir.Runop (op, a) -> (
    match oper_of env a with
    | Of s -> (
      match op with
      | Mir.Uneg ->
        Some
          (fun st ->
            let x = -.Array.unsafe_get st.fregs s in
            charge st cls cost;
            Array.unsafe_set st.fregs d x)
      | Mir.Uabs ->
        Some
          (fun st ->
            let x = Float.abs (Array.unsafe_get st.fregs s) in
            charge st cls cost;
            Array.unsafe_set st.fregs d x)
      | Mir.Ure | Mir.Uconj ->
        Some
          (fun st ->
            let x = Array.unsafe_get st.fregs s in
            charge st cls cost;
            Array.unsafe_set st.fregs d x)
      | Mir.Unot | Mir.Uim -> None)
    | _ -> None)
  | Mir.Rmath _ | Mir.Rcomplex _ | Mir.Rintrin _ | Mir.Rvload _
  | Mir.Rvbroadcast _ | Mir.Rvreduce _ ->
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
    let sty = Mir.elem_ty v in
    match slot_of env v with
    | Sarr _ ->
      (* the tree-walker fails when it fetches the target as a register,
         after evaluating and charging *)
      let g = gen_of_prod prod in
      let msg =
        Printf.sprintf "variable %s.%d used as a register" v.Mir.vname
          v.Mir.vid
      in
      fun st ->
        let _value = g st in
        charge st cls cost;
        raise (Runtime_error msg)
    | Sreg (Rf d) -> (
      let fused =
        if cost_opt = None then None else compile_fdef env d rv cls cost
      in
      match fused with
      | Some f -> f
      | None -> (
      (* Writes below follow the tree-walker's order exactly: evaluate
         the rvalue, charge, then coerce (which may raise) and write. *)
      match prod with
      | Pf f ->
        fun st ->
          let x = f st in
          charge st cls cost;
          Array.unsafe_set st.fregs d x
      | Pi f ->
        fun st ->
          let x = f st in
          charge st cls cost;
          Array.unsafe_set st.fregs d (float_of_int x)
      | Pb f ->
        fun st ->
          let x = f st in
          charge st cls cost;
          Array.unsafe_set st.fregs d (if x then 1.0 else 0.0)
      | Pc f ->
        fun st ->
          let z = f st in
          charge st cls cost;
          if z.Complex.im = 0.0 then Array.unsafe_set st.fregs d z.Complex.re
          else
            invalid_arg "Value.to_float: complex with non-zero imaginary part"
      | (Pv _ | Pg _) as p ->
        let g = gen_of_prod p in
        fun st ->
          let value = g st in
          charge st cls cost;
          Array.unsafe_set st.fregs d (V.to_float (scalar_of_value value))))
    | Sreg (Ri d) -> (
      match prod with
      | Pi f ->
        fun st ->
          let x = f st in
          charge st cls cost;
          Array.unsafe_set st.iregs d x
      | Pf f ->
        fun st ->
          let x = f st in
          charge st cls cost;
          Array.unsafe_set st.iregs d (int_of_float (Float.round x))
      | Pb f ->
        fun st ->
          let x = f st in
          charge st cls cost;
          Array.unsafe_set st.iregs d (if x then 1 else 0)
      | Pc f ->
        fun st ->
          let _z = f st in
          charge st cls cost;
          invalid_arg "Value.coerce: complex into int"
      | (Pv _ | Pg _) as p ->
        let g = gen_of_prod p in
        fun st ->
          let value = g st in
          charge st cls cost;
          Array.unsafe_set st.iregs d
            (Store.coerce_int_exn (scalar_of_value value)))
    | Sreg (Rb d) -> (
      match prod with
      | Pb f ->
        fun st ->
          let x = f st in
          charge st cls cost;
          Array.unsafe_set st.bregs d x
      | Pf f ->
        fun st ->
          let x = f st in
          charge st cls cost;
          Array.unsafe_set st.bregs d (x <> 0.0)
      | Pi f ->
        fun st ->
          let x = f st in
          charge st cls cost;
          Array.unsafe_set st.bregs d (x <> 0)
      | Pc f ->
        fun st ->
          let z = f st in
          charge st cls cost;
          Array.unsafe_set st.bregs d (Complex.norm z <> 0.0)
      | (Pv _ | Pg _) as p ->
        let g = gen_of_prod p in
        fun st ->
          let value = g st in
          charge st cls cost;
          Array.unsafe_set st.bregs d (V.to_bool (scalar_of_value value)))
    | Sreg (Rc d) -> (
      let fused =
        if cost_opt = None then None else compile_cdef env d rv cls cost
      in
      match fused with
      | Some f -> f
      | None -> (
      match prod with
      | Pc f ->
        fun st ->
          let z = f st in
          charge st cls cost;
          cwrite st d z.Complex.re z.Complex.im
      | Pf f ->
        fun st ->
          let x = f st in
          charge st cls cost;
          cwrite st d x 0.0
      | Pi f ->
        fun st ->
          let x = f st in
          charge st cls cost;
          cwrite st d (float_of_int x) 0.0
      | Pb f ->
        fun st ->
          let x = f st in
          charge st cls cost;
          cwrite st d (if x then 1.0 else 0.0) 0.0
      | (Pv _ | Pg _) as p ->
        let g = gen_of_prod p in
        fun st ->
          let value = g st in
          charge st cls cost;
          let z = V.to_complex (scalar_of_value value) in
          cwrite st d z.Complex.re z.Complex.im))
    | Sreg (Rv (d, lanes)) -> (
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
          write_vreg st d lanes sty value)
    | Sreg (Rg d) ->
      let g = gen_of_prod prod in
      let co = coerce_fast sty in
      fun st ->
        let value = g st in
        charge st cls cost;
        Array.unsafe_set st.gregs d (co value))
  | Mir.Istore (a, idx, x) -> (
    match arr_ref env a with
    | Error msg -> fun _ -> raise (Runtime_error msg)
    | Ok aslot -> (
      let gi = index_fn env idx ~len:aslot.alen ~what:a.Mir.vname in
      let ox = oper_of env x in
      let cls = class_id env "mem" in
      let sty = Mir.elem_ty a in
      let cost =
        Cost.store_cost env.isa env.mode ~cplx:(sty.Mir.cplx = MT.Complex)
      in
      let k = aslot.aidx in
      match aslot.bank with
      | AKf -> (
        match ox with
        | Of s ->
          (* freg -> double bank: straight float copy, no boxing *)
          fun st ->
            let i = gi st in
            Array.unsafe_set
              (Array.unsafe_get st.farrs k)
              i
              (Array.unsafe_get st.fregs s);
            charge st cls cost
        | _ ->
          let gx = f_read ox in
          fun st ->
            let i = gi st in
            let x = gx st in
            Array.unsafe_set (Array.unsafe_get st.farrs k) i x;
            charge st cls cost)
      | AKi ->
        let gx = ci_read ox in
        fun st ->
          let i = gi st in
          let x = gx st in
          Array.unsafe_set (Array.unsafe_get st.iarrs k) i x;
          charge st cls cost
      | AKb ->
        let gx = b_read ox in
        fun st ->
          let i = gi st in
          let x = gx st in
          Array.unsafe_set (Array.unsafe_get st.barrs k) i x;
          charge st cls cost
      | AKc -> (
        match ox with
        | Oc s ->
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
          let gx = c_read ox in
          fun st ->
            let i = gi st in
            let z = gx st in
            let ca = Array.unsafe_get st.carrs k in
            Array.unsafe_set ca (2 * i) z.Complex.re;
            Array.unsafe_set ca ((2 * i) + 1) z.Complex.im;
            charge st cls cost)))
  | Mir.Ivstore (a, base, x, lanes) -> (
    match arr_ref env a with
    | Error msg -> fun _ -> raise (Runtime_error msg)
    | Ok aslot -> (
      let len = aslot.alen and k = aslot.aidx and name = a.Mir.vname in
      let gb = index_fn env base ~len ~what:name in
      let cls = class_id env "simd" in
      let cost = Cost.vstore_cost env.isa in
      let ox = oper_of env x in
      (* Elementwise coercing store into the typed bank, identical to
         [arr.(b+k) <- V.coerce sty vec.(k)] on the boxed bank. *)
      let set_elem : state -> int -> Value.scalar -> unit =
        match aslot.bank with
        | AKf ->
          fun st i s ->
            Array.unsafe_set (Array.unsafe_get st.farrs k) i (V.to_float s)
        | AKi ->
          fun st i s ->
            Array.unsafe_set
              (Array.unsafe_get st.iarrs k)
              i
              (Store.coerce_int_exn s)
        | AKb ->
          fun st i s ->
            Array.unsafe_set (Array.unsafe_get st.barrs k) i (V.to_bool s)
        | AKc ->
          fun st i s ->
            let z = V.to_complex s in
            let ca = Array.unsafe_get st.carrs k in
            Array.unsafe_set ca (2 * i) z.Complex.re;
            Array.unsafe_set ca ((2 * i) + 1) z.Complex.im
      in
      let store_boxed st b v =
        match v with
        | Value.Vector vec when Array.length vec = lanes ->
          for j = 0 to lanes - 1 do
            set_elem st (b + j) (Array.unsafe_get vec j)
          done;
          charge st cls cost
        | Value.Vector _ -> fail "vector store width mismatch"
        | Value.Scalar _ -> fail "vector store of a scalar"
      in
      match (aslot.bank, ox) with
      | AKf, Ov (s, vl) ->
        (* The dominant vectorized shape: unboxed register into a
           real-double array is a straight blit. *)
        fun st ->
          let b = gb st in
          if b + lanes > len then fail "vector store past end of %s" name;
          (match Array.unsafe_get st.vboxs s with
          | None ->
            if vl = lanes then begin
              Array.blit
                (Array.unsafe_get st.vbufs s)
                0
                (Array.unsafe_get st.farrs k)
                b lanes;
              charge st cls cost
            end
            else fail "vector store width mismatch"
          | Some v -> store_boxed st b v)
      | _ ->
        let gx = v_read ox in
        fun st ->
          let b = gb st in
          if b + lanes > len then fail "vector store past end of %s" name;
          store_boxed st b (gx st)))
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
          | Mir.Ovar v when Mir.is_array v -> (
            match arr_ref env v with
            | Ok aslot ->
              let box = boxed_array aslot in
              fun st -> Array.to_list (box st)
            | Error msg -> fun _ -> raise (Runtime_error msg))
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
  let ivslot = slot_of env ivar in
  let olo = oper_of env lo
  and ostep = oper_of env step
  and ohi = oper_of env hi in
  (* Static loop representation; must agree with the demotion pass in
     [compile], which keeps an induction variable typed only when its
     slot matches this classification. *)
  let rep = function
    | Oi _ | Ob _ -> `I
    | Of _ -> `F
    | Oc _ | Ov _ | Og _ -> `X
  in
  let static_rep =
    match (rep olo, rep ostep, rep ohi) with
    | `I, `I, `I -> `Int
    | (`I | `F), (`I | `F), (`I | `F) -> `Float
    | _ -> `Dyn
  in
  match (ivslot, static_rep) with
  | Sreg (Ri iv), `Int ->
    (* All three bounds are statically Si/Sb, so the tree-walker's
       runtime [int_loop] test is true and induction values are raw
       [Si] — matching the variable's Int slot. Fully unboxed. *)
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
  | Sreg (Rf iv), `Float ->
    (* At least one bound is statically Sf, so [int_loop] is false and
       induction values are raw [Sf] — matching the Double slot. The
       counter lives in a private shadow slot of the float bank so the
       loop never touches a boxed float: body writes to the induction
       register cannot perturb iteration (the tree-walker advances from
       its own saved value too). *)
    let gl = f_read olo and gs = f_read ostep and gh = f_read ohi in
    let sh = fshadow env in
    fun st ->
      let fr = st.fregs in
      Array.unsafe_set fr sh (gl st);
      let s = gs st in
      let h = gh st in
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
  | ivslot, _ ->
    (* General path: boxed bounds, runtime int/float dispatch, raw
       boxed induction writes. The demotion pass guarantees the
       induction variable is a boxed register (or an array, which
       fails at runtime exactly like the tree-walker). *)
    let glo = s_read olo
    and gstep = s_read ostep
    and ghi = s_read ohi in
    let iv_write =
      match ivslot with
      | Sreg (Rg s) -> fun st v -> Array.unsafe_set st.gregs s v
      | Sreg _ -> assert false (* demotion pass keeps typed ivars out *)
      | Sarr _ ->
        let msg =
          Printf.sprintf "variable %s.%d used as a register" ivar.Mir.vname
            ivar.Mir.vid
        in
        fun _ _ -> raise (Runtime_error msg)
    in
    fun st ->
      let lo_v = glo st in
      let step_v = gstep st in
      let hi_v = ghi st in
      let int_loop =
        match (lo_v, step_v, hi_v) with
        | (V.Si _ | V.Sb _), (V.Si _ | V.Sb _), (V.Si _ | V.Sb _) -> true
        | _ -> false
      in
      (* the tree-walker fetches the induction register before the first
         bound test, so an array induction variable fails even for
         zero-trip loops *)
      (match ivslot with
      | Sarr _ -> iv_write st (Value.Scalar lo_v)
      | Sreg _ -> ());
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
          iv_write st (Value.Scalar v);
          charge st lcls lcost;
          (try fbody st with Continue_exc -> ());
          go (next v)
        end
      in
      (try go lo_v with Break_exc -> ());
      charge st bcls bcost

(* ---------------- whole-function plans ---------------- *)

(* Static representation of a scalar variable, from the demotion
   analysis: a typed kind guarantees the variable's runtime value is
   always a scalar of that representation. *)
type vkind = KF | KI | KB | KC | KV of int | KG

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
  ginit : Value.t array;  (* initial boxed register file *)
  fspecs : aspec array;
  ispecs : aspec array;
  bspecs : aspec array;
  cspecs : aspec array;
  classes : string array;  (* interned class id -> name *)
  abytes : int;  (* static array footprint, for the allocation cap *)
  body_fn : state -> unit;
}

let compile ~isa ~mode (f : Mir.func) : t =
  (* Variable collection pre-pass: params, rets, declared vars, then a
     defensive body walk (the tree-walker materializes cells lazily for
     any vid it meets, so the plan must cover the same set). *)
  let seen_vars = Hashtbl.create 64 in
  let var_order = ref [] in
  let add (v : Mir.var) =
    if not (Hashtbl.mem seen_vars v.Mir.vid) then begin
      Hashtbl.add seen_vars v.Mir.vid ();
      var_order := v :: !var_order
    end
  in
  let scan_op = function Mir.Ovar v -> add v | Mir.Oconst _ -> () in
  let scan_rvalue = function
    | Mir.Rbin (_, a, b) ->
      scan_op a;
      scan_op b
    | Mir.Runop (_, a) | Mir.Rmove a | Mir.Rvbroadcast (a, _)
    | Mir.Rvreduce (_, a) ->
      scan_op a
    | Mir.Rmath (_, ops) | Mir.Rintrin (_, ops) -> List.iter scan_op ops
    | Mir.Rcomplex (re, im) ->
      scan_op re;
      scan_op im
    | Mir.Rload (a, idx) ->
      add a;
      scan_op idx
    | Mir.Rvload (a, base, _) ->
      add a;
      scan_op base
  in
  let rec scan_block b = List.iter scan_instr b
  and scan_instr i =
    match i.Mir.idesc with
    | Mir.Idef (v, rv) ->
      add v;
      scan_rvalue rv
    | Mir.Istore (a, idx, x) ->
      add a;
      scan_op idx;
      scan_op x
    | Mir.Ivstore (a, base, x, _) ->
      add a;
      scan_op base;
      scan_op x
    | Mir.Iif (c, t, e) ->
      scan_op c;
      scan_block t;
      scan_block e
    | Mir.Iloop { ivar; lo; step; hi; body } ->
      add ivar;
      scan_op lo;
      scan_op step;
      scan_op hi;
      scan_block body
    | Mir.Iwhile { cond_block; cond; body } ->
      scan_block cond_block;
      scan_op cond;
      scan_block body
    | Mir.Iprint (_, ops) -> List.iter scan_op ops
    | Mir.Ibreak | Mir.Icontinue | Mir.Ireturn | Mir.Icomment _ -> ()
  in
  List.iter add f.Mir.params;
  List.iter add f.Mir.rets;
  List.iter add f.Mir.vars;
  scan_block f.Mir.body;
  let vars = List.rev !var_order in
  (* Initial kinds from the declared types. *)
  let kinds : (int, vkind) Hashtbl.t = Hashtbl.create 64 in
  List.iter
    (fun (v : Mir.var) ->
      match v.Mir.vty with
      | Mir.Tscalar sty ->
        let k =
          match (sty.Mir.cplx, sty.Mir.base, sty.Mir.lanes) with
          | MT.Complex, _, 1 -> KC
          | MT.Real, MT.Double, 1 -> KF
          | MT.Real, MT.Int, 1 -> KI
          | MT.Real, MT.Bool, 1 -> KB
          | MT.Real, MT.Double, n when n > 1 -> KV n
          | _ -> KG
        in
        Hashtbl.replace kinds v.Mir.vid k
      | Mir.Tarray _ -> ())
    vars;
  (* Demotion fixpoint. A typed slot must ALWAYS hold its declared
     representation, but the tree-walker has two escape hatches: def
     targets may receive vector values (the verifier does not check
     def-target lanes), and loop induction variables are written raw,
     without coercion. Demote to a boxed register any scalar whose defs
     could produce a vector given current kinds, and any induction
     variable whose loop representation is not statically forced to
     match its slot. Demotion makes a variable's reads generic, which
     can invalidate earlier conclusions — iterate to fixpoint (kinds
     move monotonically toward KG, so this terminates). *)
  let changed = ref true in
  let demote vid =
    match Hashtbl.find_opt kinds vid with
    | Some KG | None -> ()
    | Some _ ->
      Hashtbl.replace kinds vid KG;
      changed := true
  in
  let op_pv = function
    | Mir.Oconst _ -> false
    | Mir.Ovar v -> (
      match Hashtbl.find_opt kinds v.Mir.vid with
      | Some (KV _) | Some KG -> true
      | _ -> false)
  in
  let rv_pv = function
    | Mir.Rbin (_, a, b) -> op_pv a || op_pv b
    | Mir.Runop (_, a) | Mir.Rmove a -> op_pv a
    | Mir.Rintrin (_, ops) -> List.exists op_pv ops
    | Mir.Rvload _ | Mir.Rvbroadcast _ -> true
    | Mir.Rmath _ | Mir.Rcomplex _ | Mir.Rload _ | Mir.Rvreduce _ -> false
  in
  let bound_rep = function
    | Mir.Oconst (Mir.Ci _) | Mir.Oconst (Mir.Cb _) -> `I
    | Mir.Oconst (Mir.Cf _) -> `F
    | Mir.Oconst (Mir.Cc _) -> `X
    | Mir.Ovar v -> (
      match Hashtbl.find_opt kinds v.Mir.vid with
      | Some KI | Some KB -> `I
      | Some KF -> `F
      | _ -> `X)
  in
  let rec demote_block b = List.iter demote_instr b
  and demote_instr i =
    match i.Mir.idesc with
    | Mir.Idef (v, rv) -> (
      match Hashtbl.find_opt kinds v.Mir.vid with
      | Some (KF | KI | KB | KC) when rv_pv rv -> demote v.Mir.vid
      | _ -> ())
    | Mir.Iloop { ivar; lo; step; hi; body } ->
      (match Hashtbl.find_opt kinds ivar.Mir.vid with
      | None -> () (* array induction variable: runtime error path *)
      | Some k ->
        let lrep =
          match (bound_rep lo, bound_rep step, bound_rep hi) with
          | `I, `I, `I -> `Int
          | (`I | `F), (`I | `F), (`I | `F) -> `Float
          | _ -> `Dyn
        in
        let ok =
          match (k, lrep) with
          | KI, `Int | KF, `Float | KG, _ -> true
          | _ -> false
        in
        if not ok then demote ivar.Mir.vid);
      demote_block body
    | Mir.Iif (_, t, e) ->
      demote_block t;
      demote_block e
    | Mir.Iwhile { cond_block; body; _ } ->
      demote_block cond_block;
      demote_block body
    | Mir.Istore _ | Mir.Ivstore _ | Mir.Ibreak | Mir.Icontinue | Mir.Ireturn
    | Mir.Iprint _ | Mir.Icomment _ ->
      ()
  in
  while !changed do
    changed := false;
    demote_block f.Mir.body
  done;
  (* Slot assignment per bank, in first-seen order. *)
  let slots = Hashtbl.create 64 in
  let param_vids = Hashtbl.create 8 in
  List.iter
    (fun (p : Mir.var) -> Hashtbl.replace param_vids p.Mir.vid ())
    f.Mir.params;
  let nf = ref 0
  and ni = ref 0
  and nb = ref 0
  and nc = ref 0
  and ng = ref 0
  and nv = ref 0 in
  let vlanes_rev = ref [] and ginit_rev = ref [] in
  let nfa = ref 0 and nia = ref 0 and nba = ref 0 and nca = ref 0 in
  let fsp = ref [] and isp = ref [] and bsp = ref [] and csp = ref [] in
  List.iter
    (fun (v : Mir.var) ->
      match v.Mir.vty with
      | Mir.Tscalar sty -> (
        match Hashtbl.find kinds v.Mir.vid with
        | KF ->
          Hashtbl.add slots v.Mir.vid (Sreg (Rf !nf));
          incr nf
        | KI ->
          Hashtbl.add slots v.Mir.vid (Sreg (Ri !ni));
          incr ni
        | KB ->
          Hashtbl.add slots v.Mir.vid (Sreg (Rb !nb));
          incr nb
        | KC ->
          Hashtbl.add slots v.Mir.vid (Sreg (Rc !nc));
          incr nc
        | KV l ->
          Hashtbl.add slots v.Mir.vid (Sreg (Rv (!nv, l)));
          vlanes_rev := l :: !vlanes_rev;
          incr nv
        | KG ->
          Hashtbl.add slots v.Mir.vid (Sreg (Rg !ng));
          ginit_rev := Value.Scalar (V.coerce sty (V.Si 0)) :: !ginit_rev;
          incr ng)
      | Mir.Tarray (sty, n) ->
        let spec = { alen = n; aparam = Hashtbl.mem param_vids v.Mir.vid } in
        let bank, idx =
          match (sty.Mir.cplx, sty.Mir.base) with
          | MT.Complex, _ ->
            csp := spec :: !csp;
            let i = !nca in
            incr nca;
            (AKc, i)
          | MT.Real, MT.Double ->
            fsp := spec :: !fsp;
            let i = !nfa in
            incr nfa;
            (AKf, i)
          | MT.Real, MT.Int ->
            isp := spec :: !isp;
            let i = !nia in
            incr nia;
            (AKi, i)
          | MT.Real, MT.Bool ->
            bsp := spec :: !bsp;
            let i = !nba in
            incr nba;
            (AKb, i)
          | MT.Real, MT.Err ->
            invalid_arg "Plan: poison type reached the VM"
        in
        Hashtbl.add slots v.Mir.vid (Sarr { bank; aidx = idx; alen = n }))
    vars;
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
        match (slot_of env p, p.Mir.vty) with
        | Sreg rs, Mir.Tscalar sty -> Bscalar (rs, sty, p.Mir.vname)
        | Sarr a, Mir.Tarray _ -> Barray (a, p.Mir.vname)
        | _ -> assert false)
      f.Mir.params
  in
  { fname = f.Mir.name;
    nparams = List.length f.Mir.params;
    binds;
    ret_slots = List.map (slot_of env) f.Mir.rets;
    nfregs = env.nfx;
    niregs = env.nix;
    nbregs = env.nbx;
    ncregs = env.ncx;
    finit = Array.of_list (List.rev env.finit);
    iinit = Array.of_list (List.rev env.iinit);
    binit = Array.of_list (List.rev env.binit);
    cinit = Array.of_list (List.rev env.cinit);
    vlanes = Array.of_list (List.rev !vlanes_rev);
    ginit = Array.of_list (List.rev !ginit_rev);
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
      gregs = Array.copy p.ginit;
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
        | Rv (d, _) -> st.vboxs.(d) <- Some (Value.Scalar (V.coerce sty x))
        | Rg d -> st.gregs.(d) <- Value.Scalar (V.coerce sty x))
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
        | Sreg (Rg d) -> Xscalar (scalar_of_value st.gregs.(d))
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
