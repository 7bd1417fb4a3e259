open Masc_frontend
module T = Masc_sema.Tast
module MT = Masc_sema.Mtype
module BI = Masc_sema.Builtins
module B = Mir.Builder

let err span fmt = Diag.error Lower span fmt

(* Memo table keyed by physical identity of typed-AST nodes; used to hand
   hoisted scalars and materialized arrays to the per-element emitter. *)
module H = Hashtbl.Make (struct
  type t = T.texpr

  let equal = ( == )
  let hash = Hashtbl.hash
end)

type prepared = Pscalar of Mir.operand | Parray of Mir.var

type frame = {
  prog : T.program;
  b : B.t;
  vars : (string, Mir.var) Hashtbl.t;
  decls : (string * MT.t) list;
}

let iconst n = Mir.Oconst (Mir.Ci n)
let fconst f = Mir.Oconst (Mir.Cf f)

(* Result element type of a binary operation. *)
let rbin_sty (op : Mir.binop) a b =
  let sa = Mir.operand_sty a and sb = Mir.operand_sty b in
  let base = MT.promote_base sa.Mir.base sb.Mir.base in
  let base = if base = MT.Bool then MT.Int else base in
  let cplx = MT.promote_cplx sa.Mir.cplx sb.Mir.cplx in
  let lanes = max sa.Mir.lanes sb.Mir.lanes in
  match op with
  | Mir.Badd | Mir.Bsub | Mir.Bmul | Mir.Bmin | Mir.Bmax | Mir.Bmod ->
    { Mir.base; cplx; lanes }
  | Mir.Bdiv | Mir.Bpow -> { Mir.base = MT.Double; cplx; lanes }
  | Mir.Bidiv -> { Mir.base = MT.Int; cplx = MT.Real; lanes }
  | Mir.Blt | Mir.Ble | Mir.Bgt | Mir.Bge | Mir.Beq | Mir.Bne | Mir.Band
  | Mir.Bor ->
    { Mir.base = MT.Bool; cplx = MT.Real; lanes }

let runop_sty (op : Mir.unop) a =
  let s = Mir.operand_sty a in
  match op with
  | Mir.Uneg -> { s with Mir.base = (if s.Mir.base = MT.Bool then MT.Int else s.Mir.base) }
  | Mir.Unot -> { s with Mir.base = MT.Bool }
  | Mir.Uabs ->
    { s with
      Mir.cplx = MT.Real;
      base = (if s.Mir.base = MT.Bool then MT.Int else s.Mir.base) }
  | Mir.Ure | Mir.Uim -> { s with Mir.cplx = MT.Real; base = MT.Double }
  | Mir.Uconj -> s

(* Constant-folding definition helpers keep the generated IR small where
   index arithmetic uses literal constants. *)
let def frame ?(hint = "t") (rv : Mir.rvalue) (sty : Mir.scalar_ty) :
    Mir.operand =
  let folded =
    match rv with
    | Mir.Rmove op -> Some op
    | Mir.Rbin (op, Mir.Oconst (Mir.Ci x), Mir.Oconst (Mir.Ci y)) -> (
      match op with
      | Mir.Badd -> Some (iconst (x + y))
      | Mir.Bsub -> Some (iconst (x - y))
      | Mir.Bmul -> Some (iconst (x * y))
      | Mir.Bidiv when y <> 0 -> Some (iconst (x / y))
      | Mir.Bmod when y <> 0 -> Some (iconst (x mod y))
      | Mir.Bdiv | Mir.Bpow | Mir.Bmin | Mir.Bmax | Mir.Blt | Mir.Ble
      | Mir.Bgt | Mir.Bge | Mir.Beq | Mir.Bne | Mir.Band | Mir.Bor | Mir.Bidiv
      | Mir.Bmod ->
        None)
    | Mir.Rbin (Mir.Badd, a, Mir.Oconst (Mir.Ci 0))
    | Mir.Rbin (Mir.Badd, Mir.Oconst (Mir.Ci 0), a)
    | Mir.Rbin (Mir.Bsub, a, Mir.Oconst (Mir.Ci 0))
    | Mir.Rbin (Mir.Bmul, a, Mir.Oconst (Mir.Ci 1))
    | Mir.Rbin (Mir.Bmul, Mir.Oconst (Mir.Ci 1), a) ->
      Some a
    | _ -> None
  in
  match folded with
  | Some op -> op
  | None ->
    let v = B.fresh_var frame.b ~hint (Mir.Tscalar sty) in
    B.emit frame.b (Mir.Idef (v, rv));
    Mir.Ovar v

let bin frame op a b = def frame (Mir.Rbin (op, a, b)) (rbin_sty op a b)
let un frame op a = def frame (Mir.Runop (op, a)) (runop_sty op a)

(* i - 1: 1-based to 0-based *)
let to0 frame op = bin frame Mir.Bsub op (iconst 1)

let get_var frame name =
  match Hashtbl.find_opt frame.vars name with
  | Some v -> v
  | None -> (
    match List.assoc_opt name frame.decls with
    | Some mty ->
      let v = B.fresh_var frame.b ~hint:name (Mir.ty_of_mtype mty) in
      Hashtbl.replace frame.vars name v;
      v
    | None -> invalid_arg ("Lower.get_var: unknown variable " ^ name))

let array_len (v : Mir.var) =
  match v.Mir.vty with
  | Mir.Tarray (_, n) -> n
  | Mir.Tscalar _ -> invalid_arg "array_len: scalar"

(* Emit a counted loop [for k = 0 .. n-1] with a fresh induction var.
   The loop instruction itself carries the span that was current when
   the loop was requested, not whatever the last body statement set —
   the profiler attributes loop overhead to the originating line. *)
let counted_loop frame n (body : Mir.operand -> unit) =
  let loc = B.current_loc frame.b in
  let ivar = B.fresh_var frame.b ~hint:"k" (Mir.Tscalar Mir.int_sty) in
  let block = B.nested frame.b (fun () -> body (Mir.Ovar ivar)) in
  B.set_loc frame.b loc;
  B.emit frame.b
    (Mir.Iloop
       { Mir.ivar; lo = iconst 0; step = iconst 1; hi = iconst (n - 1);
         body = block })

let zero_of (sty : Mir.scalar_ty) =
  match (sty.Mir.cplx, sty.Mir.base) with
  | MT.Complex, _ -> Mir.Oconst (Mir.Cc Complex.zero)
  | MT.Real, MT.Int -> iconst 0
  | MT.Real, MT.Bool -> Mir.Oconst (Mir.Cb false)
  | MT.Real, MT.Double -> fconst 0.0
  | MT.Real, MT.Err -> invalid_arg "Lower.zero_of: poison type reached lowering"

let one_of (sty : Mir.scalar_ty) =
  match (sty.Mir.cplx, sty.Mir.base) with
  | MT.Complex, _ -> Mir.Oconst (Mir.Cc Complex.one)
  | MT.Real, MT.Int -> iconst 1
  | MT.Real, MT.Bool -> Mir.Oconst (Mir.Cb true)
  | MT.Real, MT.Double -> fconst 1.0
  | MT.Real, MT.Err -> invalid_arg "Lower.one_of: poison type reached lowering"

(* Does a typed expression reference variable [name]? Used to detect
   read/write overlap in whole-array assignment and reads of a loop
   variable after its loop. Plain recursion, so a query allocates
   nothing. *)
let rec refs_var name (e : T.texpr) =
  match e.T.edesc with
  | T.Tvar v -> String.equal v name
  | T.Tindex (v, _, idx) -> String.equal v name || refs_idx name idx
  | T.Tnum _ | T.Timag _ | T.Tbool _ -> false
  | T.Trange (a, Some s, b) ->
    refs_var name a || refs_var name s || refs_var name b
  | T.Trange (a, None, b) | T.Tbinop (_, a, b) ->
    refs_var name a || refs_var name b
  | T.Tunop (_, a) | T.Ttranspose (_, a) -> refs_var name a
  | T.Tbuiltin (_, args) | T.Tcall (_, args) -> refs_any name args
  | T.Tmatrix rows -> refs_rows name rows

and refs_any name = function
  | [] -> false
  | e :: tl -> refs_var name e || refs_any name tl

and refs_rows name = function
  | [] -> false
  | row :: tl -> refs_any name row || refs_rows name tl

and refs_idx name = function
  | [] -> false
  | i :: tl ->
    (match i with
    | T.Tidx_scalar e | T.Tidx_range { lo = e; _ } | T.Tidx_gather (e, _) ->
      refs_var name e
    | T.Tidx_colon _ -> false)
    || refs_idx name tl

(* Which parameters of an instance body are written (stores, assignments,
   multi-assignment targets)? Such parameters cannot alias caller arrays. *)
let mutated_names (body : T.tblock) : (string, unit) Hashtbl.t =
  let tbl = Hashtbl.create 8 in
  let rec stmt (s : T.tstmt) =
    match s.T.sdesc with
    | T.Tassign (n, _) | T.Tstore (n, _, _, _) -> Hashtbl.replace tbl n ()
    | T.Tmulti (ns, _) -> List.iter (fun n -> Hashtbl.replace tbl n ()) ns
    | T.Tif (arms, els) ->
      List.iter (fun (_, blk) -> List.iter stmt blk) arms;
      List.iter stmt els
    | T.Tfor (n, _, blk) ->
      Hashtbl.replace tbl n ();
      List.iter stmt blk
    | T.Twhile (_, blk) -> List.iter stmt blk
    | T.Tprint _ | T.Tbreak | T.Tcontinue | T.Treturn -> ()
  in
  List.iter stmt body;
  tbl

(* Does [body] assign the scalar [name]: an assignment, a
   multi-assignment target or a nested loop's variable? *)
let rec assigns name (body : T.tblock) =
  List.exists
    (fun (s : T.tstmt) ->
      match s.T.sdesc with
      | T.Tassign (n, _) | T.Tstore (n, _, _, _) -> n = name
      | T.Tmulti (ns, _) -> List.mem name ns
      | T.Tfor (n, _, blk) -> n = name || assigns name blk
      | T.Tif (arms, els) ->
        List.exists (fun (_, blk) -> assigns name blk) arms || assigns name els
      | T.Twhile (_, blk) -> assigns name blk
      | T.Tprint _ | T.Tbreak | T.Tcontinue | T.Treturn -> false)
    body

let rec contains_return (body : T.tblock) =
  List.exists
    (fun (s : T.tstmt) ->
      match s.T.sdesc with
      | T.Treturn -> true
      | T.Tif (arms, els) ->
        List.exists (fun (_, blk) -> contains_return blk) arms
        || contains_return els
      | T.Tfor (_, _, blk) | T.Twhile (_, blk) -> contains_return blk
      | T.Tassign _ | T.Tstore _ | T.Tmulti _ | T.Tprint _ | T.Tbreak
      | T.Tcontinue ->
        false)
    body

(* ---------- loop variables read after their loop ---------- *)

(* Where control goes once a statement is done: on through the rest of
   a block, back to the head of the enclosing loop, or to the end of the
   function, whose outputs the caller reads. *)
type cont =
  | Then of T.tblock * cont
  | Again of T.tstmt_desc * cont  (* the loop, and where it exits to *)
  | Exit of (string * MT.t) list

(* What running a block does to [name]'s incoming value: reads it on
   some path, overwrites it on every path first, or neither. A [break],
   [continue] or [return] counts as a read, which only costs a loop its
   direct counter. *)
type fate = Read | Killed | Through

let rec block_fate name (b : T.tblock) =
  match b with
  | [] -> Through
  | s :: rest -> (
    match stmt_fate name s.T.sdesc with
    | Through -> block_fate name rest
    | (Read | Killed) as f -> f)

and stmt_fate name d =
  match d with
  | T.Tassign (_, e) | T.Tmulti (_, e) when refs_var name e -> Read
  | T.Tassign (n, _) -> if String.equal n name then Killed else Through
  | T.Tmulti (ns, _) -> if List.mem name ns then Killed else Through
  | T.Tstore (_, _, idx, e) ->
    if refs_idx name idx || refs_var name e then Read else Through
  | T.Tif (arms, els) -> arms_fate name arms els
  | T.Tfor (_, T.Titer_range (lo, Some e, hi), _)
    when refs_var name lo || refs_var name e || refs_var name hi ->
    Read
  | T.Tfor (_, T.Titer_range (e, None, hi), _)
    when refs_var name e || refs_var name hi ->
    Read
  | T.Tfor (_, T.Titer_vector e, _) when refs_var name e -> Read
  | T.Tfor _ | T.Twhile _ -> if head_reads name d then Read else Through
  | T.Tprint (_, es) -> if refs_any name es then Read else Through
  | T.Tbreak | T.Tcontinue | T.Treturn -> Read

(* An [if]: a condition or a branch may read; every branch must
   overwrite for the [if] to. *)
and arms_fate name arms els =
  match arms with
  | [] -> block_fate name els
  | (c, _) :: _ when refs_var name c -> Read
  | (_, b) :: rest -> (
    match (block_fate name b, arms_fate name rest els) with
    | Read, _ | _, Read -> Read
    | Killed, Killed -> Killed
    | _ -> Through)

(* Does the head of loop [d] read [name] before the loop exits? A [for]
   over [name] assigns it before each iteration; any other loop reads
   it in its condition or on a path through its body. A loop may run no
   iteration, so it overwrites nothing for certain. *)
and head_reads name d =
  match d with
  | T.Tfor (v, _, body) ->
    (not (String.equal v name)) && block_fate name body = Read
  | T.Twhile (c, body) -> refs_var name c || block_fate name body = Read
  | _ -> false

(* Is [name] read before it is overwritten once control reaches [k]? *)
let rec live name = function
  | Exit outs -> List.mem_assoc name outs
  | Then (b, k) -> (
    match block_fate name b with
    | Read -> true
    | Killed -> false
    | Through -> live name k)
  | Again (d, k) -> head_reads name d || live name k

(* ---------- element-wise machinery ---------- *)

(* Is a node transparent for per-element evaluation (no materialization)? *)
let transparent (e : T.texpr) =
  match e.T.edesc with
  | T.Tvar _ -> true
  | T.Trange _ -> true
  | T.Tindex _ -> true
  | T.Tunop _ -> true
  | T.Ttranspose _ -> true
  | T.Tbinop (op, a, b) -> (
    match op with
    | Ast.Add | Ast.Sub | Ast.Emul | Ast.Ediv | Ast.Eldiv | Ast.Epow | Ast.Lt
    | Ast.Le | Ast.Gt | Ast.Ge | Ast.Eq | Ast.Ne | Ast.And | Ast.Or ->
      true
    | Ast.Mul | Ast.Div | Ast.Ldiv ->
      (* scalar-scaled forms are element-wise *)
      MT.is_scalar a.T.ety || MT.is_scalar b.T.ety
    | Ast.Pow | Ast.Andand | Ast.Oror -> false)
  | T.Tbuiltin (b, args) -> (
    match b with
    | BI.Unary_math _ | BI.Abs | BI.Real_part | BI.Imag_part | BI.Conj
    | BI.Angle | BI.Binary_math _ | BI.Complex_make ->
      true
    | BI.Min_max _ -> List.length args = 2
    | BI.Flip _ | BI.Repmat -> true
    | BI.Reduction _ | BI.Dot | BI.Zeros | BI.Ones | BI.Eye | BI.Length
    | BI.Numel | BI.Size | BI.Pi | BI.Linspace | BI.Norm | BI.Cumsum
    | BI.Any | BI.All | BI.Var_std _ | BI.Sort | BI.Disp | BI.Fprintf ->
      false)
  | T.Tnum _ | T.Timag _ | T.Tbool _ | T.Tmatrix _ | T.Tcall _ -> false

(* Infer types a variable per program point, but its MIR variable has
   the join of all its bindings: after [k = 1i; k = 2] a read of [k] is
   real while [k] is complex. Such a read, [op] of expression [e], takes
   the real part, so the expression computes in the type Infer gave
   it. *)
let real_read frame (e : T.texpr) (op : Mir.operand) : Mir.operand =
  if e.T.ety.MT.cplx = MT.Real && (Mir.operand_sty op).Mir.cplx = MT.Complex
  then un frame Mir.Ure op
  else op

let rec lower_scalar frame (e : T.texpr) : Mir.operand =
  let span = e.T.espan in
  match e.T.edesc with
  | T.Tnum f ->
    if e.T.ety.MT.base = MT.Int && Float.is_integer f then iconst (int_of_float f)
    else fconst f
  | T.Timag f -> Mir.Oconst (Mir.Cc { Complex.re = 0.0; im = f })
  | T.Tbool b -> Mir.Oconst (Mir.Cb b)
  | T.Tvar name ->
    let v = get_var frame name in
    if Mir.is_array v then
      (* A 1x1 view of an array variable cannot happen: shapes are static. *)
      err span "internal: scalar read of array variable %s" name
    else real_read frame e (Mir.Ovar v)
  | T.Tunop (op, a) ->
    let oa = lower_scalar frame a in
    lower_unop frame op oa
  | T.Tbinop (op, a, b) when MT.is_scalar a.T.ety && MT.is_scalar b.T.ety ->
    let oa = lower_scalar frame a in
    let ob = lower_scalar frame b in
    lower_binop frame span op oa ob
  | T.Tbinop (Ast.Mul, a, b) ->
    (* row * col inner product yielding a scalar *)
    let va = lower_array_value frame a in
    let vb = lower_array_value frame b in
    inner_product frame ~conj_a:false va vb
  | T.Tbinop (op, _, _) ->
    err span "internal: '%s' on arrays cannot yield a scalar"
      (Ast.binop_name op)
  | T.Ttranspose (kind, a) ->
    let oa = lower_scalar frame a in
    if kind = Ast.Ctranspose && (Mir.operand_sty oa).Mir.cplx = MT.Complex then
      un frame Mir.Uconj oa
    else oa
  | T.Tindex (name, arr_mty, idx) ->
    let arr = get_var frame name in
    let lin = scalar_index frame arr_mty idx in
    real_read frame e (def frame (Mir.Rload (arr, lin)) (Mir.elem_ty arr))
  | T.Tbuiltin (b, args) -> lower_scalar_builtin frame span b args
  | T.Tcall (inst, args) -> (
    match lower_call frame inst args with
    | op :: _ -> op
    | [] -> err span "function used as a value returns nothing")
  | T.Trange _ -> err span "internal: range is not scalar"
  | T.Tmatrix [ [ x ] ] -> lower_scalar frame x
  | T.Tmatrix _ -> err span "internal: matrix literal is not scalar"

and lower_unop frame op oa =
  match op with
  | Ast.Uneg -> un frame Mir.Uneg oa
  | Ast.Uplus -> oa
  | Ast.Unot -> un frame Mir.Unot oa

and lower_binop frame span op oa ob =
  let simple mop = bin frame mop oa ob in
  match op with
  | Ast.Add -> simple Mir.Badd
  | Ast.Sub -> simple Mir.Bsub
  | Ast.Mul | Ast.Emul -> simple Mir.Bmul
  | Ast.Div | Ast.Ediv -> simple Mir.Bdiv
  | Ast.Ldiv | Ast.Eldiv -> bin frame Mir.Bdiv ob oa
  | Ast.Pow | Ast.Epow -> simple Mir.Bpow
  | Ast.Lt -> simple Mir.Blt
  | Ast.Le -> simple Mir.Ble
  | Ast.Gt -> simple Mir.Bgt
  | Ast.Ge -> simple Mir.Bge
  | Ast.Eq -> simple Mir.Beq
  | Ast.Ne -> simple Mir.Bne
  | Ast.And | Ast.Andand -> simple Mir.Band
  | Ast.Or | Ast.Oror -> simple Mir.Bor
  |> fun result ->
  ignore span;
  result

(* 1-based scalar indices -> 0-based linear (column-major). *)
and scalar_index frame (arr_mty : MT.t) (idx : T.tindex list) : Mir.operand =
  match idx with
  | [ T.Tidx_scalar i ] ->
    let oi = lower_scalar frame i in
    to0 frame oi
  | [ T.Tidx_scalar i; T.Tidx_scalar j ] ->
    let oi = to0 frame (lower_scalar frame i) in
    let oj = to0 frame (lower_scalar frame j) in
    let scaled = bin frame Mir.Bmul oj (iconst arr_mty.MT.rows) in
    bin frame Mir.Badd scaled oi
  | _ -> invalid_arg "scalar_index: not a scalar index"

and lower_scalar_builtin frame span (b : BI.t) (args : T.texpr list) :
    Mir.operand =
  match (b, args) with
  | BI.Pi, [] -> fconst Float.pi
  | BI.Length, [ a ] ->
    iconst (max a.T.ety.MT.rows a.T.ety.MT.cols)
  | BI.Numel, [ a ] -> iconst (MT.numel a.T.ety)
  | BI.Size, [ a; _ ] | BI.Size, [ a ] ->
    (* As a scalar expression only size(x, d); size(x) is 1x2. *)
    (match args with
    | [ a2; d ] -> (
      ignore a2;
      match d.T.edesc with
      | T.Tnum 1.0 -> iconst a.T.ety.MT.rows
      | T.Tnum 2.0 -> iconst a.T.ety.MT.cols
      | _ -> err span "size dimension must be the literal 1 or 2")
    | _ -> err span "internal: size as scalar requires a dimension")
  | (BI.Unary_math _ | BI.Abs | BI.Real_part | BI.Imag_part | BI.Conj
    | BI.Angle), [ a ]
    when MT.is_scalar a.T.ety ->
    let oa = lower_scalar frame a in
    scalar_math frame span b [ oa ]
  | (BI.Binary_math _ | BI.Complex_make), [ a; b2 ]
    when MT.is_scalar a.T.ety && MT.is_scalar b2.T.ety ->
    let oa = lower_scalar frame a in
    let ob = lower_scalar frame b2 in
    scalar_math frame span b [ oa; ob ]
  | BI.Min_max mm, [ a; b2 ] when MT.is_scalar a.T.ety && MT.is_scalar b2.T.ety
    ->
    let oa = lower_scalar frame a in
    let ob = lower_scalar frame b2 in
    bin frame (match mm with `Min -> Mir.Bmin | `Max -> Mir.Bmax) oa ob
  (* Degenerate 1x1 "vectors": these builtins are identities or simple
     scalar forms. *)
  | (BI.Sort | BI.Cumsum | BI.Flip _), [ a ] when MT.is_scalar a.T.ety ->
    lower_scalar frame a
  | BI.Min_max _, [ a ] when MT.is_scalar a.T.ety -> lower_scalar frame a
  | BI.Norm, [ a ] when MT.is_scalar a.T.ety ->
    un frame Mir.Uabs (lower_scalar frame a)
  | (BI.Any | BI.All), [ a ] when MT.is_scalar a.T.ety ->
    let x = lower_scalar frame a in
    bin frame Mir.Bne x (zero_of (Mir.operand_sty x))
  | BI.Dot, [ a; b2 ] when MT.is_scalar a.T.ety && MT.is_scalar b2.T.ety ->
    let oa = lower_scalar frame a in
    let ob = lower_scalar frame b2 in
    let oa =
      if (Mir.operand_sty oa).Mir.cplx = MT.Complex then un frame Mir.Uconj oa
      else oa
    in
    bin frame Mir.Bmul oa ob
  | BI.Min_max mm, [ a ] ->
    let va = lower_array_value frame a in
    let mop = match mm with `Min -> Mir.Bmin | `Max -> Mir.Bmax in
    reduce_array frame ~init:`First ~combine:(fun acc x -> Mir.Rbin (mop, acc, x)) va
  | BI.Reduction r, [ a ] when MT.is_vector a.T.ety ->
    lower_vector_reduction frame r a
  | BI.Dot, [ a; b2 ] ->
    let va = lower_array_value frame a in
    let vb = lower_array_value frame b2 in
    let conj_a = (Mir.elem_ty va).Mir.cplx = MT.Complex in
    inner_product frame ~conj_a va vb
  | BI.Norm, [ a ] ->
    (* Euclidean norm: sqrt of the sum of squared magnitudes. *)
    let va = lower_array_value frame a in
    let n = array_len va in
    let sty = Mir.elem_ty va in
    let acc = B.fresh_var frame.b ~hint:"acc" (Mir.Tscalar Mir.double_sty) in
    B.emit frame.b (Mir.Idef (acc, Mir.Rmove (fconst 0.0)));
    counted_loop frame n (fun k ->
        let x = def frame (Mir.Rload (va, k)) sty in
        let m =
          if sty.Mir.cplx = MT.Complex then un frame Mir.Uabs x else x
        in
        let sq = bin frame Mir.Bmul m m in
        B.emit frame.b (Mir.Idef (acc, Mir.Rbin (Mir.Badd, Mir.Ovar acc, sq))));
    def frame (Mir.Rmath ("sqrt", [ Mir.Ovar acc ])) Mir.double_sty
  | (BI.Any | BI.All), [ a ] ->
    let is_any = b = BI.Any in
    let memo = prepare frame a in
    let n = MT.numel a.T.ety in
    let acc = B.fresh_var frame.b ~hint:"acc" (Mir.Tscalar Mir.bool_sty) in
    B.emit frame.b
      (Mir.Idef (acc, Mir.Rmove (Mir.Oconst (Mir.Cb (not is_any)))));
    counted_loop frame n (fun k ->
        let x = elem frame memo a k in
        let nz = bin frame Mir.Bne x (zero_of (Mir.operand_sty x)) in
        let op = if is_any then Mir.Bor else Mir.Band in
        B.emit frame.b (Mir.Idef (acc, Mir.Rbin (op, Mir.Ovar acc, nz))));
    Mir.Ovar acc
  | BI.Var_std which, [ a ] ->
    (* Two-pass sample variance: sum((x - mean)^2) / (n - 1). *)
    let va = lower_array_value frame a in
    let n = array_len va in
    let sty = Mir.elem_ty va in
    let sum = B.fresh_var frame.b ~hint:"sum" (Mir.Tscalar Mir.double_sty) in
    B.emit frame.b (Mir.Idef (sum, Mir.Rmove (fconst 0.0)));
    counted_loop frame n (fun k ->
        let x = def frame (Mir.Rload (va, k)) sty in
        B.emit frame.b (Mir.Idef (sum, Mir.Rbin (Mir.Badd, Mir.Ovar sum, x))));
    let mean = bin frame Mir.Bdiv (Mir.Ovar sum) (iconst n) in
    let acc = B.fresh_var frame.b ~hint:"acc" (Mir.Tscalar Mir.double_sty) in
    B.emit frame.b (Mir.Idef (acc, Mir.Rmove (fconst 0.0)));
    counted_loop frame n (fun k ->
        let x = def frame (Mir.Rload (va, k)) sty in
        let d = bin frame Mir.Bsub x mean in
        let sq = bin frame Mir.Bmul d d in
        B.emit frame.b (Mir.Idef (acc, Mir.Rbin (Mir.Badd, Mir.Ovar acc, sq))));
    let variance = bin frame Mir.Bdiv (Mir.Ovar acc) (iconst (n - 1)) in
    (match which with
    | `Var -> variance
    | `Std -> def frame (Mir.Rmath ("sqrt", [ variance ])) Mir.double_sty)
  | _ ->
    err span "internal: builtin not lowerable as a scalar here"

and scalar_math frame span (b : BI.t) (ops : Mir.operand list) : Mir.operand =
  match (b, ops) with
  | BI.Unary_math name, [ a ] ->
    let sty = Mir.operand_sty a in
    if sty.Mir.cplx = MT.Complex then
      (* Complex math functions: supported ones handled by the simulator
         and the C runtime; they keep the complex type. *)
      def frame (Mir.Rmath (name, [ a ])) { sty with Mir.base = MT.Double }
    else def frame (Mir.Rmath (name, [ a ])) Mir.double_sty
  | BI.Abs, [ a ] -> un frame Mir.Uabs a
  | BI.Real_part, [ a ] -> un frame Mir.Ure a
  | BI.Imag_part, [ a ] -> un frame Mir.Uim a
  | BI.Conj, [ a ] -> un frame Mir.Uconj a
  | BI.Angle, [ a ] ->
    let re = un frame Mir.Ure a in
    let im = un frame Mir.Uim a in
    def frame (Mir.Rmath ("atan2", [ im; re ])) Mir.double_sty
  | BI.Binary_math name, [ a; b2 ] ->
    def frame (Mir.Rmath (name, [ a; b2 ])) Mir.double_sty
  | BI.Complex_make, [ re; im ] ->
    def frame (Mir.Rcomplex (re, im)) Mir.complex_sty
  | _ -> err span "internal: bad scalar math arity"

(* Reduce a materialized array with a binary combine. [init] is either the
   first element or an explicit operand. *)
and reduce_array frame ~init ~combine (src : Mir.var) : Mir.operand =
  let n = array_len src in
  let sty = Mir.elem_ty src in
  let acc = B.fresh_var frame.b ~hint:"acc" (Mir.Tscalar sty) in
  (match init with
  | `First -> B.emit frame.b (Mir.Idef (acc, Mir.Rload (src, iconst 0)))
  | `Op op -> B.emit frame.b (Mir.Idef (acc, Mir.Rmove op)));
  let lo = match init with `First -> 1 | `Op _ -> 0 in
  let ivar = B.fresh_var frame.b ~hint:"k" (Mir.Tscalar Mir.int_sty) in
  let body =
    B.nested frame.b (fun () ->
        let x = def frame (Mir.Rload (src, Mir.Ovar ivar)) sty in
        B.emit frame.b (Mir.Idef (acc, combine (Mir.Ovar acc) x)))
  in
  B.emit frame.b
    (Mir.Iloop
       { Mir.ivar; lo = iconst lo; step = iconst 1; hi = iconst (n - 1); body });
  Mir.Ovar acc

and lower_vector_reduction frame (r : BI.reduction) (a : T.texpr) : Mir.operand
    =
  (* sum/prod/mean over a vector expression: evaluated element-wise without
     materializing when transparent. *)
  let n = MT.numel a.T.ety in
  let memo = prepare frame a in
  let sty = Mir.scalar_of_mtype (MT.with_shape a.T.ety 1 1) in
  let sty =
    { sty with Mir.base = (if sty.Mir.base = MT.Bool then MT.Int else sty.Mir.base) }
  in
  let acc_sty =
    match r with BI.Rmean -> { sty with Mir.base = MT.Double } | _ -> sty
  in
  let acc = B.fresh_var frame.b ~hint:"acc" (Mir.Tscalar acc_sty) in
  let init =
    match r with
    | BI.Rsum | BI.Rmean -> zero_of acc_sty
    | BI.Rprod -> one_of acc_sty
    | BI.Rmax | BI.Rmin -> zero_of acc_sty
  in
  (match r with
  | BI.Rsum | BI.Rmean | BI.Rprod ->
    B.emit frame.b (Mir.Idef (acc, Mir.Rmove init))
  | BI.Rmax | BI.Rmin ->
    (* Initialize with element 0 to avoid sentinel values. *)
    let x0 = elem frame memo a (iconst 0) in
    B.emit frame.b (Mir.Idef (acc, Mir.Rmove x0)));
  let lo = match r with BI.Rmax | BI.Rmin -> 1 | _ -> 0 in
  let ivar = B.fresh_var frame.b ~hint:"k" (Mir.Tscalar Mir.int_sty) in
  let body =
    B.nested frame.b (fun () ->
        let x = elem frame memo a (Mir.Ovar ivar) in
        let rv =
          match r with
          | BI.Rsum | BI.Rmean -> Mir.Rbin (Mir.Badd, Mir.Ovar acc, x)
          | BI.Rprod -> Mir.Rbin (Mir.Bmul, Mir.Ovar acc, x)
          | BI.Rmax -> Mir.Rbin (Mir.Bmax, Mir.Ovar acc, x)
          | BI.Rmin -> Mir.Rbin (Mir.Bmin, Mir.Ovar acc, x)
        in
        B.emit frame.b (Mir.Idef (acc, rv)))
  in
  B.emit frame.b
    (Mir.Iloop
       { Mir.ivar; lo = iconst lo; step = iconst 1; hi = iconst (n - 1); body });
  match r with
  | BI.Rmean -> bin frame Mir.Bdiv (Mir.Ovar acc) (iconst n)
  | _ -> Mir.Ovar acc

and inner_product frame ~conj_a (va : Mir.var) (vb : Mir.var) : Mir.operand =
  let n = array_len va in
  let sa = Mir.elem_ty va and sb = Mir.elem_ty vb in
  let cplx = MT.promote_cplx sa.Mir.cplx sb.Mir.cplx in
  let acc_sty = { Mir.base = MT.Double; cplx; lanes = 1 } in
  let acc = B.fresh_var frame.b ~hint:"acc" (Mir.Tscalar acc_sty) in
  B.emit frame.b (Mir.Idef (acc, Mir.Rmove (zero_of acc_sty)));
  counted_loop frame n (fun k ->
      let xa = def frame (Mir.Rload (va, k)) sa in
      let xa = if conj_a then un frame Mir.Uconj xa else xa in
      let xb = def frame (Mir.Rload (vb, k)) sb in
      let prod = bin frame Mir.Bmul xa xb in
      B.emit frame.b (Mir.Idef (acc, Mir.Rbin (Mir.Badd, Mir.Ovar acc, prod))));
  Mir.Ovar acc

(* ---------- preparation (hoisting) and per-element evaluation ---------- *)

and prepare frame (e : T.texpr) : prepared H.t =
  let memo = H.create 16 in
  let rec walk (e : T.texpr) =
    if MT.is_scalar e.T.ety then H.replace memo e (Pscalar (lower_scalar frame e))
    else if transparent e then begin
      match e.T.edesc with
      | T.Tvar name -> H.replace memo e (Parray (get_var frame name))
      | T.Tindex (_, _, idx) ->
        List.iter
          (function
            | T.Tidx_scalar s ->
              H.replace memo s (Pscalar (lower_scalar frame s))
            | T.Tidx_range { lo; _ } ->
              H.replace memo lo (Pscalar (lower_scalar frame lo))
            | T.Tidx_colon _ -> ()
            | T.Tidx_gather (g, _) ->
              H.replace memo g (Parray (lower_array_value frame g)))
          idx
      | T.Trange (lo, step, _) ->
        H.replace memo lo (Pscalar (lower_scalar frame lo));
        Option.iter
          (fun s -> H.replace memo s (Pscalar (lower_scalar frame s)))
          step
      | T.Tunop (_, a) | T.Ttranspose (_, a) -> walk a
      | T.Tbinop (_, a, b) ->
        walk a;
        walk b
      | T.Tbuiltin (_, args) -> List.iter walk args
      | T.Tnum _ | T.Timag _ | T.Tbool _ | T.Tmatrix _ | T.Tcall _ -> ()
    end
    else H.replace memo e (Parray (lower_array_value frame e))
  in
  walk e;
  memo

(* Element [k] (0-based, column-major) of array expression [e], evaluated
   inside a loop body. Scalars and opaque arrays were hoisted by
   [prepare]. *)
and elem frame (memo : prepared H.t) (e : T.texpr) (k : Mir.operand) :
    Mir.operand =
  match H.find_opt memo e with
  | Some (Pscalar op) -> op
  | Some (Parray v) when not (transparent e) || is_tvar e ->
    real_read frame e (def frame (Mir.Rload (v, k)) (Mir.elem_ty v))
  | Some (Parray _) | None -> (
    match e.T.edesc with
    | T.Tvar _ -> assert false (* covered above *)
    | T.Trange (lo, step, _) ->
      let olo = memo_scalar memo lo in
      let ostep =
        match step with Some s -> memo_scalar memo s | None -> iconst 1
      in
      let scaled = bin frame Mir.Bmul k ostep in
      bin frame Mir.Badd olo scaled
    | T.Tunop (op, a) ->
      let x = elem frame memo a k in
      lower_unop frame op x
    | T.Ttranspose (kind, a) ->
      let src_rows = a.T.ety.MT.rows and src_cols = a.T.ety.MT.cols in
      let k' =
        if src_rows = 1 || src_cols = 1 then k
        else begin
          (* result dims: (src_cols, src_rows); k = i + j*src_cols with
             result row i, col j; source element (j, i). *)
          let i = bin frame Mir.Bmod k (iconst src_cols) in
          let j = bin frame Mir.Bidiv k (iconst src_cols) in
          let scaled = bin frame Mir.Bmul i (iconst src_rows) in
          bin frame Mir.Badd scaled j
        end
      in
      let x = elem frame memo a k' in
      if kind = Ast.Ctranspose && (Mir.operand_sty x).Mir.cplx = MT.Complex then
        un frame Mir.Uconj x
      else x
    | T.Tbinop (op, a, b) ->
      let xa =
        if MT.is_scalar a.T.ety then memo_scalar memo a else elem frame memo a k
      in
      let xb =
        if MT.is_scalar b.T.ety then memo_scalar memo b else elem frame memo b k
      in
      lower_binop frame e.T.espan op xa xb
    | T.Tindex (name, arr_mty, idx) ->
      let arr = get_var frame name in
      let lin = slice_index frame memo arr_mty idx e.T.ety k in
      def frame (Mir.Rload (arr, lin)) (Mir.elem_ty arr)
    | T.Tbuiltin (b, args) -> (
      match (b, args) with
      | (BI.Unary_math _ | BI.Abs | BI.Real_part | BI.Imag_part | BI.Conj
        | BI.Angle), [ a ] ->
        let x =
          if MT.is_scalar a.T.ety then memo_scalar memo a
          else elem frame memo a k
        in
        scalar_math frame e.T.espan b [ x ]
      | BI.Flip which, [ a ] ->
        (* element k of the flip maps to a mirrored source element *)
        let rows = a.T.ety.MT.rows and cols = a.T.ety.MT.cols in
        let k' =
          if MT.is_vector a.T.ety then
            (* fliplr on a row / flipud on a column mirror the vector;
               the other orientation is the identity *)
            let mirrors =
              match which with
              | `LR -> rows = 1
              | `UD -> cols = 1
            in
            if mirrors then
              bin frame Mir.Bsub (iconst (MT.numel a.T.ety - 1)) k
            else k
          else begin
            let i = bin frame Mir.Bmod k (iconst rows) in
            let j = bin frame Mir.Bidiv k (iconst rows) in
            let i', j' =
              match which with
              | `UD -> (bin frame Mir.Bsub (iconst (rows - 1)) i, j)
              | `LR -> (i, bin frame Mir.Bsub (iconst (cols - 1)) j)
            in
            bin frame Mir.Badd (bin frame Mir.Bmul j' (iconst rows)) i'
          end
        in
        elem frame memo a k'
      | BI.Repmat, [ a; _; _ ] ->
        let rows = a.T.ety.MT.rows and cols = a.T.ety.MT.cols in
        let res_rows = e.T.ety.MT.rows in
        let k' =
          if rows = 1 && cols = 1 then iconst 0
          else begin
            let i = bin frame Mir.Bmod k (iconst res_rows) in
            let j = bin frame Mir.Bidiv k (iconst res_rows) in
            let i' = bin frame Mir.Bmod i (iconst rows) in
            let j' = bin frame Mir.Bmod j (iconst cols) in
            bin frame Mir.Badd (bin frame Mir.Bmul j' (iconst rows)) i'
          end
        in
        elem frame memo a k'
      | (BI.Binary_math _ | BI.Complex_make), [ a; b2 ] ->
        let xa =
          if MT.is_scalar a.T.ety then memo_scalar memo a
          else elem frame memo a k
        in
        let xb =
          if MT.is_scalar b2.T.ety then memo_scalar memo b2
          else elem frame memo b2 k
        in
        scalar_math frame e.T.espan b [ xa; xb ]
      | BI.Min_max mm, [ a; b2 ] ->
        let xa =
          if MT.is_scalar a.T.ety then memo_scalar memo a
          else elem frame memo a k
        in
        let xb =
          if MT.is_scalar b2.T.ety then memo_scalar memo b2
          else elem frame memo b2 k
        in
        bin frame (match mm with `Min -> Mir.Bmin | `Max -> Mir.Bmax) xa xb
      | _ -> err e.T.espan "internal: unexpected builtin in element context")
    | T.Tnum _ | T.Timag _ | T.Tbool _ | T.Tmatrix _ | T.Tcall _ ->
      err e.T.espan "internal: unexpected node in element context")

and is_tvar (e : T.texpr) =
  match e.T.edesc with T.Tvar _ -> true | _ -> false

and memo_scalar memo (e : T.texpr) =
  match H.find_opt memo e with
  | Some (Pscalar op) -> op
  | Some (Parray _) | None ->
    invalid_arg "Lower.memo_scalar: scalar was not hoisted"

(* Linear source index for element [k] of a slice read/write. *)
and slice_index frame memo (arr_mty : MT.t) (idx : T.tindex list)
    (res_mty : MT.t) (k : Mir.operand) : Mir.operand =
  let map_one (t : T.tindex) (pos : Mir.operand) : Mir.operand =
    match t with
    | T.Tidx_scalar s -> to0 frame (memo_scalar memo s)
    | T.Tidx_colon _ -> pos
    | T.Tidx_range { lo; step; _ } ->
      let olo = to0 frame (memo_scalar memo lo) in
      let scaled = bin frame Mir.Bmul pos (iconst step) in
      bin frame Mir.Badd olo scaled
    | T.Tidx_gather (g, _) -> (
      match H.find_opt memo g with
      | Some (Parray gv) ->
        let gval = def frame (Mir.Rload (gv, pos)) (Mir.elem_ty gv) in
        to0 frame gval
      | Some (Pscalar _) | None ->
        invalid_arg "slice_index: gather index not materialized")
  in
  match idx with
  | [ one ] -> map_one one k
  | [ ri; ci ] ->
    let res_rows = res_mty.MT.rows and res_cols = res_mty.MT.cols in
    let i, j =
      if res_rows = 1 then (iconst 0, k)
      else if res_cols = 1 then (k, iconst 0)
      else
        ( bin frame Mir.Bmod k (iconst res_rows),
          bin frame Mir.Bidiv k (iconst res_rows) )
    in
    let row = map_one ri i in
    let col = map_one ci j in
    let scaled = bin frame Mir.Bmul col (iconst arr_mty.MT.rows) in
    bin frame Mir.Badd scaled row
  | _ -> invalid_arg "slice_index: bad index arity"

(* ---------- array-valued expressions ---------- *)

(* Materialize an array-valued expression; returns the variable and
   whether it aliases a program variable (true = shared storage). *)
and lower_array frame (e : T.texpr) : Mir.var * bool =
  let span = e.T.espan in
  let n = MT.numel e.T.ety in
  let fresh_dst () =
    B.fresh_var frame.b ~hint:"arr"
      (Mir.Tarray (Mir.scalar_of_mtype (MT.with_shape e.T.ety 1 1), n))
  in
  match e.T.edesc with
  | T.Tvar name -> (get_var frame name, true)
  | T.Tcall (inst, args) -> (
    match lower_call frame inst args with
    | Mir.Ovar v :: _ when Mir.is_array v -> (v, false)
    | _ -> err span "internal: call did not return an array")
  | T.Tmatrix rows ->
    let dst = fresh_dst () in
    lower_matrix_literal frame dst e.T.ety rows;
    (dst, false)
  | T.Tbuiltin (BI.Zeros, _) | T.Tbuiltin (BI.Ones, _) ->
    let dst = fresh_dst () in
    let fill =
      match e.T.edesc with
      | T.Tbuiltin (BI.Zeros, _) -> fconst 0.0
      | _ -> fconst 1.0
    in
    counted_loop frame n (fun k -> B.emit frame.b (Mir.Istore (dst, k, fill)));
    (dst, false)
  | T.Tbuiltin (BI.Eye, _) ->
    let dst = fresh_dst () in
    let rows = e.T.ety.MT.rows in
    counted_loop frame n (fun k ->
        let i = bin frame Mir.Bmod k (iconst rows) in
        let j = bin frame Mir.Bidiv k (iconst rows) in
        let eqv = bin frame Mir.Beq i j in
        let one = fconst 1.0 and zero = fconst 0.0 in
        (* select via if *)
        let cell = B.fresh_var frame.b ~hint:"e" (Mir.Tscalar Mir.double_sty) in
        let then_b =
          B.nested frame.b (fun () ->
              B.emit frame.b (Mir.Idef (cell, Mir.Rmove one)))
        in
        let else_b =
          B.nested frame.b (fun () ->
              B.emit frame.b (Mir.Idef (cell, Mir.Rmove zero)))
        in
        B.emit frame.b (Mir.Iif (eqv, then_b, else_b));
        B.emit frame.b (Mir.Istore (dst, k, Mir.Ovar cell)));
    (dst, false)
  | T.Tbuiltin (BI.Linspace, [ lo; hi; _ ]) ->
    let dst = fresh_dst () in
    let olo = lower_scalar frame lo in
    let ohi = lower_scalar frame hi in
    let span_v = bin frame Mir.Bsub ohi olo in
    let stepv =
      if n > 1 then bin frame Mir.Bdiv span_v (iconst (n - 1)) else fconst 0.0
    in
    counted_loop frame n (fun k ->
        let scaled = bin frame Mir.Bmul stepv k in
        let v = bin frame Mir.Badd olo scaled in
        B.emit frame.b (Mir.Istore (dst, k, v)));
    (dst, false)
  | T.Tbuiltin (BI.Reduction r, [ a ]) when not (MT.is_vector a.T.ety) ->
    (* column-wise reduction of a matrix -> row vector *)
    let va = lower_array_value frame a in
    let dst = fresh_dst () in
    let rows = a.T.ety.MT.rows and cols = a.T.ety.MT.cols in
    let sty = Mir.elem_ty va in
    counted_loop frame cols (fun j ->
        let acc_sty =
          match r with
          | BI.Rmean -> { sty with Mir.base = MT.Double }
          | _ -> sty
        in
        let acc = B.fresh_var frame.b ~hint:"acc" (Mir.Tscalar acc_sty) in
        let init =
          match r with
          | BI.Rsum | BI.Rmean -> zero_of acc_sty
          | BI.Rprod -> one_of acc_sty
          | BI.Rmax | BI.Rmin -> zero_of acc_sty
        in
        let col_base = bin frame Mir.Bmul j (iconst rows) in
        (match r with
        | BI.Rmax | BI.Rmin ->
          let x0 = def frame (Mir.Rload (va, col_base)) sty in
          B.emit frame.b (Mir.Idef (acc, Mir.Rmove x0))
        | _ -> B.emit frame.b (Mir.Idef (acc, Mir.Rmove init)));
        let lo = match r with BI.Rmax | BI.Rmin -> 1 | _ -> 0 in
        let ivar = B.fresh_var frame.b ~hint:"i" (Mir.Tscalar Mir.int_sty) in
        let body =
          B.nested frame.b (fun () ->
              let lin = bin frame Mir.Badd col_base (Mir.Ovar ivar) in
              let x = def frame (Mir.Rload (va, lin)) sty in
              let rv =
                match r with
                | BI.Rsum | BI.Rmean -> Mir.Rbin (Mir.Badd, Mir.Ovar acc, x)
                | BI.Rprod -> Mir.Rbin (Mir.Bmul, Mir.Ovar acc, x)
                | BI.Rmax -> Mir.Rbin (Mir.Bmax, Mir.Ovar acc, x)
                | BI.Rmin -> Mir.Rbin (Mir.Bmin, Mir.Ovar acc, x)
              in
              B.emit frame.b (Mir.Idef (acc, rv)))
        in
        B.emit frame.b
          (Mir.Iloop
             { Mir.ivar; lo = iconst lo; step = iconst 1;
               hi = iconst (rows - 1); body });
        let result =
          match r with
          | BI.Rmean -> bin frame Mir.Bdiv (Mir.Ovar acc) (iconst rows)
          | _ -> Mir.Ovar acc
        in
        B.emit frame.b (Mir.Istore (dst, j, result)));
    (dst, false)
  | T.Tbuiltin (BI.Cumsum, [ a ]) ->
    let dst = fresh_dst () in
    let memo = prepare frame a in
    let sty = Mir.scalar_of_mtype (MT.with_shape e.T.ety 1 1) in
    let acc = B.fresh_var frame.b ~hint:"acc" (Mir.Tscalar sty) in
    B.emit frame.b (Mir.Idef (acc, Mir.Rmove (zero_of sty)));
    counted_loop frame n (fun k ->
        let x = elem frame memo a k in
        B.emit frame.b (Mir.Idef (acc, Mir.Rbin (Mir.Badd, Mir.Ovar acc, x)));
        B.emit frame.b (Mir.Istore (dst, k, Mir.Ovar acc)));
    (dst, false)
  | T.Tbuiltin (BI.Sort, [ a ]) ->
    (* insertion sort on a fresh copy *)
    let src = lower_array_value frame a in
    let dst = fresh_dst () in
    copy_array frame ~dst ~src;
    let sty = Mir.elem_ty dst in
    let key = B.fresh_var frame.b ~hint:"key" (Mir.Tscalar sty) in
    let j = B.fresh_var frame.b ~hint:"j" (Mir.Tscalar Mir.int_sty) in
    let cont = B.fresh_var frame.b ~hint:"cont" (Mir.Tscalar Mir.bool_sty) in
    let ivar = B.fresh_var frame.b ~hint:"i" (Mir.Tscalar Mir.int_sty) in
    let body =
      B.nested frame.b (fun () ->
          B.emit frame.b (Mir.Idef (key, Mir.Rload (dst, Mir.Ovar ivar)));
          B.emit frame.b
            (Mir.Idef (j, Mir.Rbin (Mir.Bsub, Mir.Ovar ivar, iconst 1)));
          B.emit frame.b (Mir.Idef (cont, Mir.Rmove (Mir.Oconst (Mir.Cb true))));
          let cond_block = [] in
          let while_body =
            B.nested frame.b (fun () ->
                let jn = bin frame Mir.Bge (Mir.Ovar j) (iconst 0) in
                let inner =
                  B.nested frame.b (fun () ->
                      let x = def frame (Mir.Rload (dst, Mir.Ovar j)) sty in
                      let gt = bin frame Mir.Bgt x (Mir.Ovar key) in
                      let shift =
                        B.nested frame.b (fun () ->
                            let j1 =
                              bin frame Mir.Badd (Mir.Ovar j) (iconst 1)
                            in
                            B.emit frame.b (Mir.Istore (dst, j1, x));
                            B.emit frame.b
                              (Mir.Idef
                                 (j, Mir.Rbin (Mir.Bsub, Mir.Ovar j, iconst 1))))
                      in
                      let stop =
                        B.nested frame.b (fun () ->
                            B.emit frame.b
                              (Mir.Idef
                                 (cont, Mir.Rmove (Mir.Oconst (Mir.Cb false)))))
                      in
                      B.emit frame.b (Mir.Iif (gt, shift, stop)))
                in
                let stop =
                  B.nested frame.b (fun () ->
                      B.emit frame.b
                        (Mir.Idef (cont, Mir.Rmove (Mir.Oconst (Mir.Cb false)))))
                in
                B.emit frame.b (Mir.Iif (jn, inner, stop)))
          in
          B.emit frame.b
            (Mir.Iwhile { cond_block; cond = Mir.Ovar cont; body = while_body });
          let j1 = bin frame Mir.Badd (Mir.Ovar j) (iconst 1) in
          B.emit frame.b (Mir.Istore (dst, j1, Mir.Ovar key)))
    in
    B.emit frame.b
      (Mir.Iloop
         { Mir.ivar; lo = iconst 1; step = iconst 1; hi = iconst (n - 1); body });
    (dst, false)
  | T.Tbinop (Ast.Mul, a, b)
    when (not (MT.is_scalar a.T.ety)) && not (MT.is_scalar b.T.ety) ->
    (* matrix multiply *)
    let va = lower_array_value frame a in
    let vb = lower_array_value frame b in
    let dst = fresh_dst () in
    lower_matmul frame ~dst ~va ~vb ~m:a.T.ety.MT.rows ~inner:a.T.ety.MT.cols
      ~n2:b.T.ety.MT.cols;
    (dst, false)
  | _ when transparent e ->
    let dst = fresh_dst () in
    let memo = prepare frame e in
    counted_loop frame n (fun k ->
        let v = elem frame memo e k in
        B.emit frame.b (Mir.Istore (dst, k, v)));
    (dst, false)
  | _ -> err span "internal: cannot lower this array expression"

and lower_array_value frame e = fst (lower_array frame e)

and lower_matmul frame ~dst ~va ~vb ~m ~inner ~n2 =
  let sa = Mir.elem_ty va and sb = Mir.elem_ty vb in
  let cplx = MT.promote_cplx sa.Mir.cplx sb.Mir.cplx in
  let acc_sty = { Mir.base = MT.Double; cplx; lanes = 1 } in
  counted_loop frame n2 (fun j ->
      counted_loop frame m (fun i ->
          let acc = B.fresh_var frame.b ~hint:"acc" (Mir.Tscalar acc_sty) in
          B.emit frame.b (Mir.Idef (acc, Mir.Rmove (zero_of acc_sty)));
          counted_loop frame inner (fun t ->
              (* a(i,t): t*m + i;  b(t,j): j*inner + t *)
              let ai = bin frame Mir.Badd (bin frame Mir.Bmul t (iconst m)) i in
              let bi =
                bin frame Mir.Badd (bin frame Mir.Bmul j (iconst inner)) t
              in
              let xa = def frame (Mir.Rload (va, ai)) sa in
              let xb = def frame (Mir.Rload (vb, bi)) sb in
              let prod = bin frame Mir.Bmul xa xb in
              B.emit frame.b
                (Mir.Idef (acc, Mir.Rbin (Mir.Badd, Mir.Ovar acc, prod))));
          let di = bin frame Mir.Badd (bin frame Mir.Bmul j (iconst m)) i in
          B.emit frame.b (Mir.Istore (dst, di, Mir.Ovar acc))))

and lower_matrix_literal frame dst (mty : MT.t) (rows : T.texpr list list) =
  let total_rows = mty.MT.rows in
  let r0 = ref 0 in
  List.iter
    (fun row ->
      let row_height =
        match row with
        | [] -> 0
        | e :: _ -> e.T.ety.MT.rows
      in
      let c0 = ref 0 in
      List.iter
        (fun (e : T.texpr) ->
          let er = e.T.ety.MT.rows and ec = e.T.ety.MT.cols in
          if MT.is_scalar e.T.ety then begin
            let v = lower_scalar frame e in
            let lin = (!c0 * total_rows) + !r0 in
            B.emit frame.b (Mir.Istore (dst, iconst lin, v))
          end
          else begin
            let memo = prepare frame e in
            counted_loop frame (er * ec) (fun k ->
                let v = elem frame memo e k in
                (* element (i, j) of the sub-block, column-major *)
                let i =
                  if er = 1 then iconst 0 else bin frame Mir.Bmod k (iconst er)
                in
                let j =
                  if er = 1 then k
                  else if ec = 1 then iconst 0
                  else bin frame Mir.Bidiv k (iconst er)
                in
                let drow = bin frame Mir.Badd i (iconst !r0) in
                let dcol = bin frame Mir.Badd j (iconst !c0) in
                let lin =
                  bin frame Mir.Badd
                    (bin frame Mir.Bmul dcol (iconst total_rows))
                    drow
                in
                B.emit frame.b (Mir.Istore (dst, lin, v)))
          end;
          c0 := !c0 + ec)
        row;
      r0 := !r0 + row_height)
    rows

(* ---------- calls (inlining) ---------- *)

and lower_call frame (inst_idx : int) (args : T.texpr list) : Mir.operand list =
  let inst = frame.prog.T.instances.(inst_idx) in
  let tf = inst.T.inst_func in
  if contains_return tf.T.tbody then
    err Loc.dummy
      "early 'return' inside called function '%s' is not supported by \
       inlining; restructure with if/else"
      tf.T.tname;
  let mutated = mutated_names tf.T.tbody in
  let callee =
    { prog = frame.prog; b = frame.b; vars = Hashtbl.create 16;
      decls = tf.T.tparams @ tf.T.trets @ tf.T.tlocals }
  in
  B.emit frame.b (Mir.Icomment (Printf.sprintf "inline %s" inst.T.inst_name));
  List.iter2
    (fun (pname, pmty) (arg : T.texpr) ->
      if MT.is_scalar pmty then begin
        let op = lower_scalar frame arg in
        let pv = get_var callee pname in
        B.emit frame.b (Mir.Idef (pv, Mir.Rmove op))
      end
      else begin
        let src, shared = lower_array frame arg in
        if (not shared) || not (Hashtbl.mem mutated pname) then
          (* Alias: fresh temporaries and read-only params share storage. *)
          Hashtbl.replace callee.vars pname src
        else begin
          let pv = get_var callee pname in
          copy_array callee ~dst:pv ~src
        end
      end)
    tf.T.tparams args;
  (* Callee statements set their own spans; restore the call site's so
     glue emitted after the inlined body is attributed to the caller. *)
  let call_loc = B.current_loc frame.b in
  lower_block callee ~k:(Exit tf.T.trets) tf.T.tbody;
  B.set_loc frame.b call_loc;
  List.map
    (fun (rname, _) ->
      let rv = get_var callee rname in
      Mir.Ovar rv)
    tf.T.trets

and copy_array frame ~dst ~src =
  let n = array_len dst in
  counted_loop frame n (fun k ->
      let v = def frame (Mir.Rload (src, k)) (Mir.elem_ty src) in
      B.emit frame.b (Mir.Istore (dst, k, v)))

(* ---------- statements ---------- *)

(* [k]: where control goes after [block]. *)
and lower_block frame ~k (block : T.tblock) =
  match block with
  | [] -> ()
  | stmt :: rest ->
    lower_stmt frame ~rest ~k stmt;
    lower_block frame ~k rest

and lower_stmt frame ~rest ~k (stmt : T.tstmt) =
  let span = stmt.T.sspan in
  (* Every instruction emitted for this statement — including glue such
     as bounds defs and inlined-call copies — inherits its span, which
     is what the simulator profiler attributes cycles to. *)
  B.set_loc frame.b span;
  lower_stmt_desc frame ~rest ~k span stmt.T.sdesc

(* Once the statement is done, control goes on to the rest of its block,
   [rest], and then to [k]. *)
and lower_stmt_desc frame ~rest ~k span sdesc =
  match sdesc with
  | T.Tassign (name, rhs) ->
    let dst = get_var frame name in
    if Mir.is_array dst then begin
      if refs_var name rhs then begin
        (* Possible read/write overlap: compute into a temp first. *)
        let tmp, shared = lower_array frame rhs in
        assert (not shared || is_tvar rhs);
        copy_array frame ~dst ~src:tmp
      end
      else
        match rhs.T.edesc with
        | T.Tbuiltin (((BI.Zeros | BI.Ones) as b), _) ->
          (* Fill the destination directly: no temporary. *)
          let fill =
            match b with BI.Zeros -> fconst 0.0 | _ -> fconst 1.0
          in
          let n = array_len dst in
          counted_loop frame n (fun k ->
              B.emit frame.b (Mir.Istore (dst, k, fill)))
        | T.Tvar _ | T.Tcall _ | T.Tmatrix _
        | T.Tbuiltin ((BI.Eye | BI.Linspace | BI.Reduction _), _)
        | T.Tbinop (Ast.Mul, _, _) ->
          let src, shared = lower_array frame rhs in
          if shared || src != dst then copy_array frame ~dst ~src
        | _ when transparent rhs ->
          (* Element-wise directly into the destination. *)
          let n = array_len dst in
          let memo = prepare frame rhs in
          counted_loop frame n (fun k ->
              let v = elem frame memo rhs k in
              B.emit frame.b (Mir.Istore (dst, k, v)))
        | _ ->
          let src, _ = lower_array frame rhs in
          copy_array frame ~dst ~src
    end
    else begin
      let op = lower_scalar frame rhs in
      B.emit frame.b (Mir.Idef (dst, Mir.Rmove op))
    end
  | T.Tstore (name, arr_mty, idx, rhs) ->
    let arr = get_var frame name in
    let all_scalar =
      List.for_all
        (function T.Tidx_scalar _ -> true | _ -> false)
        idx
    in
    if all_scalar then begin
      let v = lower_scalar frame rhs in
      let lin = scalar_index frame (store_mty arr_mty arr) idx in
      B.emit frame.b (Mir.Istore (arr, lin, v))
    end
    else begin
      (* Slice store: loop over the target extent. *)
      let memo_idx = prepare_indices frame idx in
      let target_rows, target_cols = extents_of arr_mty idx in
      let n = target_rows * target_cols in
      let res_mty = MT.with_shape arr_mty target_rows target_cols in
      if MT.is_scalar rhs.T.ety then begin
        let v = lower_scalar frame rhs in
        counted_loop frame n (fun k ->
            let lin = slice_index frame memo_idx arr_mty idx res_mty k in
            B.emit frame.b (Mir.Istore (arr, lin, v)))
      end
      else if refs_var name rhs then begin
        let tmp, _ = lower_array frame rhs in
        counted_loop frame n (fun k ->
            let v = def frame (Mir.Rload (tmp, k)) (Mir.elem_ty tmp) in
            let lin = slice_index frame memo_idx arr_mty idx res_mty k in
            B.emit frame.b (Mir.Istore (arr, lin, v)))
      end
      else begin
        let memo = prepare frame rhs in
        counted_loop frame n (fun k ->
            let v = elem frame memo rhs k in
            let lin = slice_index frame memo_idx arr_mty idx res_mty k in
            B.emit frame.b (Mir.Istore (arr, lin, v)))
      end
    end
  | T.Tmulti (targets, rhs) -> (
    match rhs.T.edesc with
    | T.Tcall (inst, args) ->
      let rets = lower_call frame inst args in
      List.iteri
        (fun i name ->
          if i < List.length rets then begin
            let src = List.nth rets i in
            let dst = get_var frame name in
            if Mir.is_array dst then begin
              match src with
              | Mir.Ovar sv -> copy_array frame ~dst ~src:sv
              | Mir.Oconst _ -> assert false
            end
            else B.emit frame.b (Mir.Idef (dst, Mir.Rmove src))
          end)
        targets
    | T.Tbuiltin (BI.Size, [ a ]) ->
      let dims = [ a.T.ety.MT.rows; a.T.ety.MT.cols ] in
      List.iteri
        (fun i name ->
          if i < 2 then begin
            let dst = get_var frame name in
            B.emit frame.b
              (Mir.Idef (dst, Mir.Rmove (iconst (List.nth dims i))))
          end)
        targets
    | T.Tbuiltin (BI.Min_max mm, [ a ]) ->
      (* [m, i] = max(x): track value and 1-based position. *)
      let va = lower_array_value frame a in
      let n = array_len va in
      let sty = Mir.elem_ty va in
      let best = B.fresh_var frame.b ~hint:"best" (Mir.Tscalar sty) in
      let best_i = B.fresh_var frame.b ~hint:"besti" (Mir.Tscalar Mir.int_sty) in
      B.emit frame.b (Mir.Idef (best, Mir.Rload (va, iconst 0)));
      B.emit frame.b (Mir.Idef (best_i, Mir.Rmove (iconst 1)));
      let ivar = B.fresh_var frame.b ~hint:"k" (Mir.Tscalar Mir.int_sty) in
      let body =
        B.nested frame.b (fun () ->
            let x = def frame (Mir.Rload (va, Mir.Ovar ivar)) sty in
            let cmp = match mm with `Min -> Mir.Blt | `Max -> Mir.Bgt in
            let better = bin frame cmp x (Mir.Ovar best) in
            let update =
              B.nested frame.b (fun () ->
                  B.emit frame.b (Mir.Idef (best, Mir.Rmove x));
                  let pos = bin frame Mir.Badd (Mir.Ovar ivar) (iconst 1) in
                  B.emit frame.b (Mir.Idef (best_i, Mir.Rmove pos)))
            in
            B.emit frame.b (Mir.Iif (better, update, [])))
      in
      B.emit frame.b
        (Mir.Iloop
           { Mir.ivar; lo = iconst 1; step = iconst 1; hi = iconst (n - 1);
             body });
      List.iteri
        (fun i name ->
          let dst = get_var frame name in
          let src = if i = 0 then Mir.Ovar best else Mir.Ovar best_i in
          if i < 2 then B.emit frame.b (Mir.Idef (dst, Mir.Rmove src)))
        targets
    | _ -> err span "internal: unsupported multi-assignment right-hand side")
  | T.Tif (arms, els) ->
    let after = Then (rest, k) in
    let rec build = function
      | [] -> lower_block frame ~k:after els
      | (cond, body) :: rest ->
        let c = lower_scalar frame cond in
        let then_b =
          B.nested frame.b (fun () -> lower_block frame ~k:after body)
        in
        let else_b = B.nested frame.b (fun () -> build rest) in
        (* Branch overhead belongs to the if line, not the last line of
           a lowered arm. *)
        B.set_loc frame.b span;
        B.emit frame.b (Mir.Iif (c, then_b, else_b))
    in
    build arms
  | T.Tfor (var, iter, body) -> (
    let after = Then (rest, k) in
    match iter with
    | T.Titer_range (lo, step, hi) ->
      let olo = lower_scalar frame lo in
      let ostep =
        match step with Some s -> lower_scalar frame s | None -> iconst 1
      in
      let ohi = lower_scalar frame hi in
      let var_v = get_var frame var in
      (* A loop counts in its bounds' promoted base, as the emitted C's
         [for] does. When the variable's own type differs, the body
         assigns it (C would then count on from the assigned value), or
         it is read after the loop (C leaves it at [hi + step], or at
         [lo] after no iteration, where the simulators leave the last
         value it took, or the one it came in with), count a fresh
         variable instead and begin each iteration with the coerced
         [var = counter]. A body that never assigns the variable reads
         the counter itself: Infer types the loop variable by its range
         there, whatever its type elsewhere. *)
      let int_bound op =
        match (Mir.operand_sty op).Mir.base with
        | MT.Int | MT.Bool -> true
        | MT.Double | MT.Err -> false
      in
      let counted =
        if int_bound olo && int_bound ostep && int_bound ohi then Mir.int_sty
        else Mir.double_sty
      in
      let assigned = assigns var body in
      let direct =
        (not assigned)
        && (match var_v.Mir.vty with
           | Mir.Tscalar s -> s = counted
           | Mir.Tarray _ -> false)
        && not (live var after)
      in
      let ivar =
        if direct then var_v
        else B.fresh_var frame.b ~hint:var (Mir.Tscalar counted)
      in
      let blk =
        B.nested frame.b (fun () ->
            if not direct then begin
              B.emit frame.b (Mir.Idef (var_v, Mir.Rmove (Mir.Ovar ivar)));
              if not assigned then Hashtbl.replace frame.vars var ivar
            end;
            lower_block frame ~k:(Again (sdesc, after)) body;
            Hashtbl.replace frame.vars var var_v)
      in
      (* Loop overhead belongs to the for line. *)
      B.set_loc frame.b span;
      B.emit frame.b
        (Mir.Iloop { Mir.ivar; lo = olo; step = ostep; hi = ohi; body = blk })
    | T.Titer_vector vec ->
      let vv = lower_array_value frame vec in
      let n = array_len vv in
      let xvar = get_var frame var in
      B.set_loc frame.b span;
      counted_loop frame n (fun k ->
          B.emit frame.b (Mir.Idef (xvar, Mir.Rload (vv, k)));
          lower_block frame ~k:(Again (sdesc, after)) body))
  | T.Twhile (cond, body) ->
    let after = Then (rest, k) in
    let cond_block, c =
      B.nested_with frame.b (fun () -> lower_scalar frame cond)
    in
    let blk =
      B.nested frame.b (fun () ->
          lower_block frame ~k:(Again (sdesc, after)) body)
    in
    B.set_loc frame.b span;
    B.emit frame.b (Mir.Iwhile { cond_block; cond = c; body = blk })
  | T.Tprint (fmt, args) ->
    let ops =
      List.map
        (fun (a : T.texpr) ->
          if MT.is_scalar a.T.ety then lower_scalar frame a
          else Mir.Ovar (lower_array_value frame a))
        args
    in
    B.emit frame.b (Mir.Iprint (fmt, ops))
  | T.Tbreak -> B.emit frame.b Mir.Ibreak
  | T.Tcontinue -> B.emit frame.b Mir.Icontinue
  | T.Treturn -> B.emit frame.b Mir.Ireturn

and store_mty (arr_mty : MT.t) (arr : Mir.var) : MT.t =
  ignore arr;
  arr_mty

and prepare_indices frame (idx : T.tindex list) : prepared H.t =
  let memo = H.create 8 in
  List.iter
    (function
      | T.Tidx_scalar s -> H.replace memo s (Pscalar (lower_scalar frame s))
      | T.Tidx_range { lo; _ } ->
        H.replace memo lo (Pscalar (lower_scalar frame lo))
      | T.Tidx_colon _ -> ()
      | T.Tidx_gather (g, _) ->
        H.replace memo g (Parray (lower_array_value frame g)))
    idx;
  memo

and extents_of (arr_mty : MT.t) (idx : T.tindex list) : int * int =
  let ext = function
    | T.Tidx_scalar _ -> None
    | T.Tidx_colon n -> Some n
    | T.Tidx_range { count; _ } -> Some count
    | T.Tidx_gather (_, n) -> Some n
  in
  match idx with
  | [ one ] -> (
    match ext one with
    | None -> (1, 1)
    | Some n -> if arr_mty.MT.rows = 1 then (1, n) else (n, 1))
  | [ r; c ] ->
    ( (match ext r with None -> 1 | Some n -> n),
      match ext c with None -> 1 | Some n -> n )
  | _ -> invalid_arg "extents_of"

(* ---------- entry point ---------- *)

let lower_program (prog : T.program) : Mir.func =
  let inst = prog.T.instances.(prog.T.entry) in
  let tf = inst.T.inst_func in
  let b = B.create tf.T.tname in
  let frame =
    { prog; b; vars = Hashtbl.create 16;
      decls = tf.T.tparams @ tf.T.trets @ tf.T.tlocals }
  in
  let params = List.map (fun (p, _) -> get_var frame p) tf.T.tparams in
  lower_block frame ~k:(Exit tf.T.trets) tf.T.tbody;
  let rets = List.map (fun (r, _) -> get_var frame r) tf.T.trets in
  B.finish b ~params ~rets
