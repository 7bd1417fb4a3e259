module Mir = Masc_mir.Mir

type mode = Proposed | Coder

let mode_name = function Proposed -> "proposed" | Coder -> "coder-baseline"

let is_complex_op (op : Mir.operand) =
  match Mir.operand_ty op with
  | Mir.Tscalar s | Mir.Tarray (s, _) -> s.Mir.cplx = Masc_sema.Mtype.Complex

let access_extra (c : Isa.costs) = function
  | Proposed -> 0
  | Coder -> c.Isa.bounds_check + c.Isa.descriptor

(* Complex scalar arithmetic without ISEs, open-coded on the FPU. *)
let cplx_fallback (c : Isa.costs) (op : Mir.binop) =
  match op with
  | Mir.Badd | Mir.Bsub -> 2 * c.Isa.alu
  | Mir.Bmul -> (4 * c.Isa.alu) + (2 * c.Isa.alu)  (* 4 mul + 2 add *)
  | Mir.Bdiv -> (2 * c.Isa.fdiv) + (6 * c.Isa.alu)
  | Mir.Bpow -> 2 * c.Isa.pow_fn
  | Mir.Beq | Mir.Bne -> 2 * c.Isa.alu
  | Mir.Bmod | Mir.Bidiv | Mir.Bmin | Mir.Bmax | Mir.Blt | Mir.Ble | Mir.Bgt
  | Mir.Bge | Mir.Band | Mir.Bor ->
    2 * c.Isa.alu

let real_bin_cost (c : Isa.costs) (op : Mir.binop) =
  match op with
  | Mir.Bdiv -> c.Isa.fdiv
  | Mir.Bpow -> c.Isa.pow_fn
  | Mir.Bmod -> c.Isa.fdiv
  | Mir.Badd | Mir.Bsub | Mir.Bmul | Mir.Bidiv | Mir.Bmin | Mir.Bmax
  | Mir.Blt | Mir.Ble | Mir.Bgt | Mir.Bge | Mir.Beq | Mir.Bne | Mir.Band
  | Mir.Bor ->
    c.Isa.alu

let ise_latency isa kind fallback =
  match Isa.find isa kind with
  | Some i -> i.Isa.latency
  | None -> fallback

let def_cost (isa : Isa.t) mode (rv : Mir.rvalue) =
  let c = isa.Isa.costs in
  match rv with
  | Mir.Rbin (op, a, b) ->
    (* Complex arithmetic in plain Rbin form is always open-coded; only a
       selected Rintrin gets ISE latency. The idiom-selection pass is
       therefore what delivers the complex-arithmetic speedup. *)
    if is_complex_op a || is_complex_op b then cplx_fallback c op
    else real_bin_cost c op
  | Mir.Runop (op, a) -> (
    match op with
    | Mir.Uabs when is_complex_op a -> c.Isa.math_fn  (* hypot *)
    | Mir.Uconj | Mir.Uneg when is_complex_op a -> 2 * c.Isa.alu
    | Mir.Uneg | Mir.Unot | Mir.Uabs | Mir.Ure | Mir.Uim | Mir.Uconj ->
      c.Isa.alu)
  | Mir.Rmath (name, _) ->
    let base = match name with "pow" -> c.Isa.pow_fn | _ -> c.Isa.math_fn in
    (* MATLAB Coder wraps math calls in guarded rt_*_snf shims (NaN and
       domain checks around e.g. atan2, mod); charge the guards. *)
    (match mode with Proposed -> base | Coder -> base + (2 * c.Isa.branch))
  | Mir.Rcomplex _ -> c.Isa.alu
  | Mir.Rload (arr, _) ->
    (* Complex elements: the proposed compiler guarantees contiguous
       aligned re/im pairs and reads them through the same wide memory
       port the SIMD loads use (one access); descriptor-based baseline
       code performs two separate scalar accesses. *)
    let words =
      if (Mir.elem_ty arr).Mir.cplx = Masc_sema.Mtype.Complex then
        match mode with Proposed -> 1 | Coder -> 2
      else 1
    in
    (words * c.Isa.load) + access_extra c mode
  | Mir.Rmove _ -> 0
  | Mir.Rvload _ -> ise_latency isa Isa.Kload c.Isa.load
  | Mir.Rvbroadcast _ -> ise_latency isa Isa.Kbroadcast c.Isa.alu
  | Mir.Rvreduce (r, _) ->
    let kind =
      match r with
      | Mir.Vsum | Mir.Vprod -> Isa.Kreduce_add
      | Mir.Vmin -> Isa.Kreduce_min
      | Mir.Vmax -> Isa.Kreduce_max
    in
    ise_latency isa kind (3 * c.Isa.alu)
  | Mir.Rintrin (name, _) -> (
    match Isa.find_named isa name with
    | Some i -> i.Isa.latency
    | None ->
      invalid_arg
        (Printf.sprintf "cost model: target %s has no intrinsic %s"
           isa.Isa.tname name))

(* Histogram class of an rvalue: a static property of the instruction
   shape (and operand types), never of runtime values — so the simulator
   can resolve it once per static instruction. *)
let class_of_rvalue (rv : Mir.rvalue) =
  match rv with
  | Mir.Rbin (_, a, b) ->
    if is_complex_op a || is_complex_op b then "complex" else "alu"
  | Mir.Runop _ -> "alu"
  | Mir.Rmath _ -> "math"
  | Mir.Rcomplex _ -> "complex"
  | Mir.Rload _ -> "mem"
  | Mir.Rmove _ -> "move"
  | Mir.Rvload _ | Mir.Rvbroadcast _ | Mir.Rvreduce _ -> "simd"
  | Mir.Rintrin (name, _) ->
    if String.length name > 0 && name.[0] = 'c' then "complex-ise" else "simd"

let store_cost (isa : Isa.t) mode ~cplx =
  let c = isa.Isa.costs in
  let words =
    if cplx then match mode with Proposed -> 1 | Coder -> 2 else 1
  in
  (words * c.Isa.store) + access_extra c mode

let vstore_cost (isa : Isa.t) =
  ise_latency isa Isa.Kstore isa.Isa.costs.Isa.store

let loop_iter_cost (isa : Isa.t) = isa.Isa.costs.Isa.loop_overhead
let branch_cost (isa : Isa.t) = isa.Isa.costs.Isa.branch

let call_boundary_cost (isa : Isa.t) = function
  | Proposed -> 0
  | Coder -> isa.Isa.costs.Isa.call_overhead
