module MT = Masc_sema.Mtype
open Mir

exception Violation of string

let fail fmt = Printf.ksprintf (fun s -> raise (Violation s)) fmt

let operand_lanes (op : operand) = (operand_sty op).lanes

(* Lanes an rvalue produces, where the MIR alone decides it; an
   [Rintrin]'s depends on the target (the [intrin_lanes] hook). *)
let rvalue_lanes (rv : rvalue) =
  match rv with
  | Rbin (_, a, b) -> max (operand_lanes a) (operand_lanes b)
  | Runop (_, a) | Rmove a -> operand_lanes a
  | Rvload (_, _, lanes) | Rvbroadcast (_, lanes) -> lanes
  | Rvreduce _ | Rmath _ | Rcomplex _ | Rload _ | Rintrin _ -> 1

(* Is [vid] the induction variable of an enclosing loop? *)
let rec is_ivar vid = function
  | [] -> false
  | (v : var) :: rest -> v.vid = vid || is_ivar vid rest

let check ?intrin_lanes (func : func) =
  let declared = Hashtbl.create 64 in
  List.iter
    (fun v ->
      Hashtbl.replace declared v.vid v;
      match v.vty with
      | Tscalar { lanes; base = MT.Double; cplx = MT.Real } when lanes > 1 -> ()
      | Tscalar { lanes; _ } when lanes > 1 ->
        failwith
          (Printf.sprintf
             "MIR verify (%s): vector register %s.%d is not real double"
             func.name v.vname v.vid)
      | Tscalar _ | Tarray _ -> ())
    func.vars;
  (* [find] rather than [find_opt]: no option box per operand. *)
  let check_declared (v : var) =
    match Hashtbl.find declared v.vid with
    | v' when v' == v || v' = v -> ()
    | _ ->
      fail "variable %s.%d conflicts with another declaration" v.vname v.vid
    | exception Not_found ->
      fail "variable %s.%d is not declared in the function" v.vname v.vid
  in
  let scalar_operand what (op : operand) =
    match op with
    | Ovar v ->
      check_declared v;
      if is_array v then
        fail "%s: array variable %s.%d used as a scalar operand" what v.vname
          v.vid
    | Oconst _ -> ()
  in
  let index_operand what (op : operand) =
    scalar_operand what op;
    match op with
    | Ovar v -> (
      match elem_ty v with
      | { cplx = MT.Complex; _ } -> fail "%s: complex index" what
      | _ -> ())
    | Oconst (Ci _) -> ()
    | Oconst (Cf f) when Float.is_integer f -> ()
    | Oconst _ -> fail "%s: non-integral constant index" what
  in
  let array_operand what (v : var) =
    check_declared v;
    if not (is_array v) then
      fail "%s: scalar variable %s.%d used as an array" what v.vname v.vid
  in
  let rec scalar_operands what = function
    | [] -> ()
    | op :: rest ->
      scalar_operand what op;
      scalar_operands what rest
  in
  (* A loop bound is a real lanes-1 scalar; [true] when it is int-like. *)
  let int_bound (op : operand) =
    scalar_operand "loop bound" op;
    match operand_sty op with
    | { cplx = MT.Real; lanes = 1; base = MT.Int | MT.Bool } -> true
    | { cplx = MT.Real; lanes = 1; base = MT.Double } -> false
    | _ -> fail "loop bound is not a real scalar"
  in
  (* Constant operand labels only: the per-def context string is added
     by the [Idef] case when a check actually fails, so the all-clear
     path — every def of every compile — formats nothing. *)
  let check_rvalue (rv : rvalue) =
    let what = "def" in
    match rv with
    | Rbin (_, a, b) ->
      scalar_operand what a;
      scalar_operand what b;
      let la = operand_lanes a and lb = operand_lanes b in
      if la <> lb && la <> 1 && lb <> 1 then
        fail "%s: mixed vector widths %d and %d" what la lb
    | Runop (_, a) -> scalar_operand what a
    | Rmath (_, args) -> scalar_operands what args
    | Rcomplex (a, b) ->
      scalar_operand what a;
      scalar_operand what b
    | Rload (arr, idx) ->
      array_operand what arr;
      index_operand what idx
    | Rmove a -> scalar_operand what a
    | Rvload (arr, base, lanes) ->
      array_operand what arr;
      index_operand what base;
      if lanes < 2 then fail "%s: vector load with %d lanes" what lanes
    | Rvbroadcast (a, lanes) ->
      scalar_operand what a;
      if lanes < 2 then fail "%s: broadcast with %d lanes" what lanes
    | Rvreduce (_, a) ->
      scalar_operand what a;
      if operand_lanes a < 2 then fail "%s: reduce of a scalar" what
    | Rintrin (_, args) -> scalar_operands what args
  in
  (* [ivars]: induction variables of the enclosing counted loops. *)
  let rec check_block ~in_loop ~ivars (b : block) =
    match b with
    | [] -> ()
    | i :: rest ->
      check_instr ~in_loop ~ivars i;
      check_block ~in_loop ~ivars rest
  and check_instr ~in_loop ~ivars (i : instr) =
    match i.idesc with
    | Idef (v, rv) ->
      check_declared v;
      if is_array v then
        fail "def target %s.%d is an array variable" v.vname v.vid;
      if is_ivar v.vid ivars then
        fail "loop variable %s.%d is defined in the loop body" v.vname
          v.vid;
      (try check_rvalue rv
       with Violation msg ->
         fail "def of %s.%d: %s" v.vname v.vid msg);
      let target = (elem_ty v).lanes in
      let lanes =
        match (rv, intrin_lanes) with
        | Rintrin (name, args), Some lanes_of_intrin -> (
          match lanes_of_intrin name args with
          | Some l -> l
          | None -> target)
        | Rintrin _, None -> target
        | _ -> rvalue_lanes rv
      in
      if lanes <> target then
        fail "def of %s.%d: rvalue lanes %d but target has %d" v.vname
          v.vid lanes target
    | Istore (arr, idx, x) ->
      array_operand "store" arr;
      index_operand "store" idx;
      scalar_operand "store" x
    | Ivstore (arr, base, x, lanes) ->
      array_operand "vstore" arr;
      index_operand "vstore" base;
      scalar_operand "vstore" x;
      if operand_lanes x <> lanes then
        fail "vstore: value lanes %d but store lanes %d" (operand_lanes x)
          lanes
    | Iif (c, t, e) ->
      scalar_operand "if condition" c;
      check_block ~in_loop ~ivars t;
      check_block ~in_loop ~ivars e
    | Iloop l ->
      let iv = l.ivar in
      check_declared iv;
      if is_array iv then fail "loop variable is an array";
      if is_ivar iv.vid ivars then
        fail "loop variable %s.%d is defined in the loop body" iv.vname
          iv.vid;
      (* The variable counts in the promoted base of its bounds, as
         the emitted C's [for] does: int when every bound is int or
         bool, double when any is double (for t = 0:0.1:1). *)
      let int_lo = int_bound l.lo in
      let int_step = int_bound l.step in
      let int_hi = int_bound l.hi in
      let base =
        if int_lo && int_step && int_hi then MT.Int else MT.Double
      in
      (match iv.vty with
      | Tscalar { cplx = MT.Real; lanes = 1; base = b } when b = base -> ()
      | _ ->
        fail "loop variable %s.%d is not a real %s scalar like its bounds"
          iv.vname iv.vid
          (if base = MT.Int then "int" else "double"));
      check_block ~in_loop:true ~ivars:(iv :: ivars) l.body
    | Iwhile { cond_block; cond; body } ->
      check_block ~in_loop ~ivars cond_block;
      scalar_operand "while condition" cond;
      check_block ~in_loop:true ~ivars body
    | Ibreak -> if not in_loop then fail "break outside of a loop"
    | Icontinue -> if not in_loop then fail "continue outside of a loop"
    | Ireturn -> ()
    | Iprint (_, ops) ->
      List.iter
        (fun op ->
          match op with
          | Ovar v -> check_declared v
          | Oconst _ -> ())
        ops
    | Icomment _ -> ()
  in
  List.iter check_declared func.params;
  List.iter check_declared func.rets;
  try check_block ~in_loop:false ~ivars:[] func.body
  with Violation msg -> failwith (Printf.sprintf "MIR verify (%s): %s" func.name msg)

let check_result f =
  match check f with
  | () -> Ok ()
  | exception Failure msg -> Error msg
