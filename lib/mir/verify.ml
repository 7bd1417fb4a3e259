module MT = Masc_sema.Mtype
open Mir

exception Violation of string

let fail fmt = Printf.ksprintf (fun s -> raise (Violation s)) fmt

type intrin_shape =
  | Lanewise of int
  | Reduce
  | Scalars of int
  | Memory
  | Absent

let operand_lanes (op : operand) = (operand_sty op).lanes

let rec operands check what = function
  | [] -> ()
  | op :: rest ->
    check what op;
    operands check what rest

let arity name n args =
  if List.length args <> n then
    fail "intrinsic %s takes %d operands, given %d" name n (List.length args)

(* Is [vid] the induction variable of an enclosing loop? *)
let rec is_ivar vid = function
  | [] -> false
  | (v : var) :: rest -> v.vid = vid || is_ivar vid rest

let check ?intrin (func : func) =
  (* A function's variables are the ones it mentions, so each is
     declared by construction; the records of one vid must agree, and a
     vector register must be real double. *)
  let conflict _ (v : var) =
    fail "variable %s.%d conflicts with another declaration" v.vname v.vid
  in
  let check_var (v : var) =
    match v.vty with
    | Tscalar { lanes; base = MT.Double; cplx = MT.Real } when lanes > 1 -> ()
    | Tscalar { lanes; _ } when lanes > 1 ->
      fail "vector register %s.%d is not real double" v.vname v.vid
    | Tscalar _ | Tarray _ -> ()
  in
  (* A register operand of any width: a non-array variable or a
     constant. *)
  let reg_operand what (op : operand) =
    match op with
    | Ovar v ->
      if is_array v then
        fail "%s: array variable %s.%d used as a scalar operand" what v.vname
          v.vid
    | Oconst _ -> ()
  in
  (* A scalar position: a lanes-1 register operand. In the emitted C a
     vector register is a struct only intrinsics, loads, stores and
     broadcasts touch. *)
  let scalar_operand what (op : operand) =
    reg_operand what op;
    match op with
    | Ovar v when (elem_ty v).lanes > 1 ->
      fail "%s: vector register %s.%d used as a scalar" what v.vname v.vid
    | Ovar _ | Oconst _ -> ()
  in
  let complex_operand what (op : operand) =
    scalar_operand what op;
    if (operand_sty op).cplx <> MT.Complex then
      fail "%s: real operand where a complex one is expected" what
  in
  let vector_operand what (op : operand) =
    reg_operand what op;
    if operand_lanes op < 2 then fail "%s: scalar where a vector is expected" what
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
    if not (is_array v) then
      fail "%s: scalar variable %s.%d used as an array" what v.vname v.vid
  in
  (* The base of a vector load or store: a real-double array, the only
     element type a C vector register can be loaded from. *)
  let vector_array what (v : var) lanes =
    array_operand what v;
    (match elem_ty v with
    | { base = MT.Double; cplx = MT.Real; _ } -> ()
    | _ -> fail "%s: %s.%d is not a real double array" what v.vname v.vid);
    if lanes < 2 then fail "%s with %d lanes" what lanes
  in
  (* [Lanewise n]: [n] vector operands of the first one's width. *)
  let rec same_width what lanes = function
    | [] -> ()
    | op :: rest ->
      vector_operand what op;
      if operand_lanes op <> lanes then
        fail "%s: mixed vector widths %d and %d" what lanes (operand_lanes op);
      same_width what lanes rest
  in
  (* Lanes intrinsic [name] gives from [args] on the target, [target]
     when the target does not decide it. *)
  let intrin_result name args ~target =
    match intrin with
    | None ->
      operands reg_operand name args;
      target
    | Some shape_of -> (
      match shape_of name with
      | Lanewise n -> (
        arity name n args;
        match args with
        | a :: _ ->
          let lanes = operand_lanes a in
          same_width name lanes args;
          lanes
        | [] -> target)
      | Reduce ->
        arity name 1 args;
        operands vector_operand name args;
        1
      | Scalars n ->
        arity name n args;
        operands complex_operand name args;
        1
      | Memory ->
        fail "%s: memory intrinsics are expressed as Rvload/Ivstore" name
      | Absent ->
        operands reg_operand name args;
        target)
  in
  (* An array prints whole; any other print operand is one scalar. *)
  let print_operand what (op : operand) =
    match op with
    | Ovar v when is_array v -> ()
    | Ovar _ | Oconst _ -> scalar_operand what op
  in
  (* A loop bound is a real lanes-1 scalar; [true] when it is int-like. *)
  let int_bound (op : operand) =
    scalar_operand "loop bound" op;
    match operand_sty op with
    | { cplx = MT.Real; base = MT.Int | MT.Bool; _ } -> true
    | { cplx = MT.Real; base = MT.Double; _ } -> false
    | _ -> fail "loop bound is not a real scalar"
  in
  (* Constant operand labels only: the per-def context string is added
     by the [Idef] case when a check actually fails, so the all-clear
     path — every def of every compile — formats nothing. Returns the
     lanes the rvalue gives. *)
  let check_rvalue (rv : rvalue) ~target =
    let what = "def" in
    match rv with
    | Rbin (_, a, b) | Rcomplex (a, b) ->
      scalar_operand what a;
      scalar_operand what b;
      1
    | Runop (_, a) ->
      scalar_operand what a;
      1
    | Rmath (_, args) ->
      operands scalar_operand what args;
      1
    | Rload (arr, idx) ->
      array_operand what arr;
      index_operand what idx;
      1
    | Rmove a ->
      reg_operand what a;
      operand_lanes a
    | Rvload (arr, base, lanes) ->
      vector_array "vector load" arr lanes;
      index_operand what base;
      lanes
    | Rvbroadcast (a, lanes) ->
      scalar_operand what a;
      if (operand_sty a).cplx = MT.Complex then
        fail "%s: broadcast of a complex scalar" what;
      if lanes < 2 then fail "%s: broadcast with %d lanes" what lanes;
      lanes
    | Rvreduce (_, a) ->
      reg_operand what a;
      if operand_lanes a < 2 then fail "%s: reduce of a scalar" what;
      1
    | Rintrin (name, args) -> intrin_result name args ~target
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
      if is_array v then
        fail "def target %s.%d is an array variable" v.vname v.vid;
      if is_ivar v.vid ivars then
        fail "loop variable %s.%d is defined in the loop body" v.vname
          v.vid;
      let target = (elem_ty v).lanes in
      let lanes =
        try check_rvalue rv ~target
        with Violation msg -> fail "def of %s.%d: %s" v.vname v.vid msg
      in
      if lanes <> target then
        fail "def of %s.%d: rvalue lanes %d but target has %d" v.vname
          v.vid lanes target
    | Istore (arr, idx, x) ->
      array_operand "store" arr;
      index_operand "store" idx;
      scalar_operand "store" x
    | Ivstore (arr, base, x, lanes) ->
      vector_array "vstore" arr lanes;
      index_operand "vstore" base;
      reg_operand "vstore" x;
      if operand_lanes x <> lanes then
        fail "vstore: value lanes %d but store lanes %d" (operand_lanes x)
          lanes
    | Iif (c, t, e) ->
      scalar_operand "if condition" c;
      check_block ~in_loop ~ivars t;
      check_block ~in_loop ~ivars e
    | Iloop l ->
      let iv = l.ivar in
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
    | Iprint (_, ops) -> operands print_operand "print" ops
    | Icomment _ -> ()
  in
  (* The C signature passes scalars and arrays only. *)
  let boundary what (v : var) =
    if (elem_ty v).lanes > 1 then
      fail "%s %s.%d is a vector register" what v.vname v.vid
  in
  try
    iter_vars ~conflict check_var func;
    List.iter (boundary "parameter") func.params;
    List.iter (boundary "return") func.rets;
    check_block ~in_loop:false ~ivars:[] func.body
  with Violation msg -> failwith (Printf.sprintf "MIR verify (%s): %s" func.name msg)
