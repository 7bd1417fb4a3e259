open Masc_frontend
module Smap = Map.Make (String)

type env = Info.t Smap.t

let err span fmt = Diag.error Sema span fmt

(* ---------- constant folding on abstract values ---------- *)

let fold_unop (op : Ast.unop) (c : Info.const) : Info.const option =
  match (op, c) with
  | Ast.Uneg, Info.Cint n -> Some (Info.Cint (-n))
  | Ast.Uneg, Info.Cfloat f -> Some (Info.Cfloat (-.f))
  | Ast.Uplus, c -> Some c
  | Ast.Unot, Info.Cbool b -> Some (Info.Cbool (not b))
  | Ast.Unot, Info.Cint n -> Some (Info.Cbool (n = 0))
  | Ast.Unot, Info.Cfloat f -> Some (Info.Cbool (f = 0.0))
  | Ast.Uneg, Info.Cbool _ -> None

let as_float = function
  | Info.Cint n -> float_of_int n
  | Info.Cfloat f -> f
  | Info.Cbool b -> if b then 1.0 else 0.0

let fold_binop (op : Ast.binop) a b : Info.const option =
  let int_op f =
    match (a, b) with
    | Info.Cint x, Info.Cint y -> Some (Info.Cint (f x y))
    | _ -> None
  in
  let float_op f = Some (Info.Cfloat (f (as_float a) (as_float b))) in
  let cmp_op f = Some (Info.Cbool (f (compare (as_float a) (as_float b)) 0)) in
  match op with
  | Ast.Add -> ( match int_op ( + ) with Some c -> Some c | None -> float_op ( +. ))
  | Ast.Sub -> ( match int_op ( - ) with Some c -> Some c | None -> float_op ( -. ))
  | Ast.Mul | Ast.Emul -> (
    match int_op ( * ) with Some c -> Some c | None -> float_op ( *. ))
  | Ast.Div | Ast.Ediv ->
    if as_float b = 0.0 then None else float_op ( /. )
  | Ast.Ldiv | Ast.Eldiv ->
    if as_float a = 0.0 then None else Some (Info.Cfloat (as_float b /. as_float a))
  | Ast.Pow | Ast.Epow -> float_op ( ** )
  | Ast.Lt -> cmp_op ( < )
  | Ast.Le -> cmp_op ( <= )
  | Ast.Gt -> cmp_op ( > )
  | Ast.Ge -> cmp_op ( >= )
  | Ast.Eq -> cmp_op ( = )
  | Ast.Ne -> cmp_op ( <> )
  | Ast.And | Ast.Andand ->
    Some (Info.Cbool (as_float a <> 0.0 && as_float b <> 0.0))
  | Ast.Or | Ast.Oror ->
    Some (Info.Cbool (as_float a <> 0.0 || as_float b <> 0.0))

(* ---------- affine analysis of integer scalar expressions ----------

   Used to compute static slice lengths: the length of [x(i : i+m-1)] is
   [m] even though [i] is dynamic, because the affine difference of the
   endpoints is constant. *)

module Affine = struct
  (* value = const + sum of coeff*var *)
  type t = { const : int; terms : int Smap.t }

  let of_const n = { const = n; terms = Smap.empty }
  let of_var v = { const = 0; terms = Smap.singleton v 1 }

  let combine f a b =
    let terms =
      Smap.merge
        (fun _ x y ->
          let v = f (Option.value x ~default:0) (Option.value y ~default:0) in
          if v = 0 then None else Some v)
        a.terms b.terms
    in
    { const = f a.const b.const; terms }

  let add = combine ( + )
  let sub = combine ( - )

  let scale k a =
    if k = 0 then of_const 0
    else { const = k * a.const; terms = Smap.map (fun c -> k * c) a.terms }

  let to_const a = if Smap.is_empty a.terms then Some a.const else None

  let diff_const a b = to_const (sub a b)
end

(* ---------- contexts ---------- *)

type ctx = {
  program : Ast.program;
  memo : (string * Info.t list, int * Info.t list) Hashtbl.t;
      (* (name, arg infos) -> instance index, return infos *)
  insts : (int, Tast.instance) Hashtbl.t;
  mutable next_inst : int;
  in_progress : (string, unit) Hashtbl.t;
  sink : Diag.sink;
}

(* Per-function elaboration state: accumulates the final declared type of
   every variable (join over all bindings; shape changes are errors). *)
type fctx = {
  ctx : ctx;
  fname : string;
  mutable decls : Mtype.t Smap.t;
}

(* Internally the checker raises on each error ([err] above); under an
   accumulating sink the raise is caught at a recovery point — a binop
   operand or a statement boundary — recorded, and the failed node is
   poisoned with {!Mtype.error} so checking continues on its siblings. *)
let recovering fctx =
  match fctx.ctx.sink with Diag.Ctx _ -> true | Diag.Raise -> false

let record_recovered fctx phase span msg =
  Diag.report fctx.ctx.sink Diag.Severity.Error phase span "%s" msg

let record_binding fctx name (ty : Mtype.t) span =
  match Smap.find_opt name fctx.decls with
  | None -> fctx.decls <- Smap.add name ty fctx.decls
  | Some prev -> (
    match Mtype.join prev ty with
    | Some joined -> fctx.decls <- Smap.add name joined fctx.decls
    | None ->
      err span
        "variable '%s' changes shape from %s to %s; the static-shape subset \
         requires a fixed shape per variable"
        name (Mtype.to_string prev) (Mtype.to_string ty))

(* [Info.join x x] is [x] except that it drops a NaN constant (NaN is
   not equal to itself), so only a binding [b] shares physically with
   [a] and whose constant is not a NaN can skip the join. *)
let join_is_identity (info : Info.t) =
  match info.Info.const with
  | Some (Info.Cfloat f) -> not (Float.is_nan f)
  | Some (Info.Cint _ | Info.Cbool _) | None -> true

(* The join of two environments: [a]'s bindings, overridden by [b]'s
   where [b] binds a name [a] lacks or differs from [a]. Folding over
   [b] from [a] rebuilds only the paths to changed names, so a loop
   fixpoint step allocates for what its body rebound, and a step that
   changed nothing gets [a] itself back. When several names have
   incompatible shapes, the greatest one is reported. *)
let join_env span (a : env) (b : env) : env =
  let conflict = ref None in
  let joined =
    Smap.fold
      (fun name iy acc ->
        match Smap.find name a with
        | exception Not_found -> Smap.add name iy acc
        | ix when ix == iy && join_is_identity ix -> acc
        | ix -> (
          match Info.join ix iy with
          | Some j when j = ix -> acc
          | Some j -> Smap.add name j acc
          | None ->
            conflict := Some (name, ix, iy);
            acc))
      b a
  in
  match !conflict with
  | None -> joined
  | Some (name, ix, iy) ->
    err span "variable '%s' has shape %s on one path and %s on another" name
      (Mtype.to_string ix.Info.ty)
      (Mtype.to_string iy.Info.ty)

(* A converged fixpoint step gets [a] back from [join_env] itself; a
   step that bound a new name differs in size. Neither allocates. *)
let env_equal (a : env) (b : env) =
  a == b
  || Smap.cardinal a = Smap.cardinal b
     && Smap.equal (fun x y -> x == y || x = y) a b

(* ---------- expressions ---------- *)

let mk ty desc span : Tast.texpr = { Tast.ety = ty; edesc = desc; espan = span }

let num_info f =
  if Float.is_integer f && Float.abs f < 1e15 then
    { Info.ty = Mtype.int_; const = Some (Info.Cint (int_of_float f)) }
  else { Info.ty = Mtype.double; const = Some (Info.Cfloat f) }

(* Arithmetic treats bool as int. *)
let arith_base = function
  | Mtype.Bool -> Mtype.Int
  | (Mtype.Int | Mtype.Double | Mtype.Err) as b -> b

let range_count span ~lo ~step ~hi =
  if step = 0 then err span "range step must be non-zero";
  let n = ((hi - lo) / step) + 1 in
  max n 0

(* end_dims: dimension sizes that the 'end' keyword resolves to, innermost
   index context only. *)
let rec elab_expr (fctx : fctx) (env : env) ?end_dim (e : Ast.expr) :
    Info.t * Tast.texpr =
  let span = e.Ast.span in
  match e.Ast.desc with
  | Ast.Num f ->
    let info = num_info f in
    (info, mk info.Info.ty (Tast.Tnum f) span)
  | Ast.Imag f ->
    (Info.of_ty Mtype.complex, mk Mtype.complex (Tast.Timag f) span)
  | Ast.Bool b -> (Info.cbool b, mk Mtype.bool_ (Tast.Tbool b) span)
  | Ast.Str _ ->
    err span "strings are only supported as fprintf format arguments"
  | Ast.Var name -> (
    match Smap.find_opt name env with
    | Some info -> (info, mk info.Info.ty (Tast.Tvar name) span)
    | None -> (
      match Builtins.lookup name with
      | Some Builtins.Pi ->
        let info = Info.cfloat Float.pi in
        (info, mk Mtype.double (Tast.Tnum Float.pi) span)
      | Some _ | None -> (
        match end_dim with
        | Some _ | None -> err span "undefined variable '%s'" name)))
  | Ast.End_marker -> (
    match end_dim with
    | Some d ->
      let info = Info.cint d in
      (info, mk Mtype.int_ (Tast.Tnum (float_of_int d)) span)
    | None -> err span "'end' is only valid inside an index expression")
  | Ast.Colon -> err span "':' is only valid inside an index expression"
  | Ast.Unop (op, a) ->
    let ia, ta = elab_expr fctx env ?end_dim a in
    elab_unop fctx op ia ta span
  | Ast.Binop (op, a, b) ->
    let ia, ta = elab_operand fctx env ?end_dim a in
    let ib, tb = elab_operand fctx env ?end_dim b in
    elab_binop op ia ta ib tb span
  | Ast.Transpose (kind, a) ->
    let ia, ta = elab_expr fctx env ?end_dim a in
    let ty = ia.Info.ty in
    let rty = Mtype.with_shape ty ty.Mtype.cols ty.Mtype.rows in
    ( { Info.ty = rty; const = ia.Info.const },
      mk rty (Tast.Ttranspose (kind, ta)) span )
  | Ast.Range (lo, step, hi) ->
    (* A range used as a value: its length must be static. *)
    let ilo, tlo = elab_expr fctx env ?end_dim lo in
    let istep, tstep =
      match step with
      | None -> (Info.cint 1, None)
      | Some s ->
        let i, t = elab_expr fctx env ?end_dim s in
        (i, Some t)
    in
    let ihi, thi = elab_expr fctx env ?end_dim hi in
    List.iter
      (fun (i : Info.t) ->
        if not (Mtype.is_scalar i.Info.ty) then
          err span "range endpoints must be scalars")
      [ ilo; istep; ihi ];
    let count =
      match (Info.int_const ilo, Info.int_const istep, Info.int_const ihi) with
      | Some lo, Some step, Some hi -> range_count span ~lo ~step ~hi
      | _ -> (
        (* Affine fallback handles i : i+m-1 with dynamic i. *)
        match
          ( affine_of fctx env ?end_dim lo,
            Info.int_const istep,
            affine_of fctx env ?end_dim hi )
        with
        | Some alo, Some step, Some ahi -> (
          match Affine.diff_const ahi alo with
          | Some d -> range_count span ~lo:0 ~step ~hi:d
          | None ->
            err span
              "range length is not a compile-time constant (static-shape \
               subset)")
        | _ ->
          err span
            "range length is not a compile-time constant (static-shape subset)")
    in
    let base =
      Mtype.promote_base
        (arith_base ilo.Info.ty.Mtype.base)
        (Mtype.promote_base
           (arith_base istep.Info.ty.Mtype.base)
           (arith_base ihi.Info.ty.Mtype.base))
    in
    let ty = Mtype.row_vector base count in
    (Info.of_ty ty, mk ty (Tast.Trange (tlo, tstep, thi)) span)
  | Ast.Matrix rows -> elab_matrix fctx env ?end_dim rows span
  | Ast.Apply (name, args) -> elab_apply fctx env ?end_dim name args span

(* A binop operand: under an accumulating sink a failure is recorded and
   the operand poisoned, so the sibling operand still gets checked. *)
and elab_operand fctx env ?end_dim (e : Ast.expr) =
  match elab_expr fctx env ?end_dim e with
  | r -> r
  | exception Diag.Error (phase, span, msg) when recovering fctx ->
    record_recovered fctx phase span msg;
    (Info.of_ty Mtype.error, mk Mtype.error (Tast.Tnum 0.) span)

and elab_unop fctx op (ia : Info.t) ta span =
  ignore fctx;
  let ty = ia.Info.ty in
  if Mtype.is_error ty then
    (Info.of_ty Mtype.error, mk Mtype.error (Tast.Tunop (op, ta)) span)
  else
  let rty =
    match op with
    | Ast.Uneg | Ast.Uplus -> { ty with Mtype.base = arith_base ty.Mtype.base }
    | Ast.Unot ->
      if ty.Mtype.cplx = Mtype.Complex then
        err span "'~' is not defined on complex values";
      { ty with Mtype.base = Mtype.Bool }
  in
  let const =
    match ia.Info.const with Some c -> fold_unop op c | None -> None
  in
  ({ Info.ty = rty; const }, mk rty (Tast.Tunop (op, ta)) span)

and elab_binop op (ia : Info.t) ta (ib : Info.t) tb span =
  let tya = ia.Info.ty and tyb = ib.Info.ty in
  if Mtype.is_error tya || Mtype.is_error tyb then
    (* Cascade suppression: one diagnostic per root cause — operations on
       an already-poisoned operand stay silently poisoned. *)
    (Info.of_ty Mtype.error, mk Mtype.error (Tast.Tbinop (op, ta, tb)) span)
  else
  let broadcast_or_err () =
    match Mtype.broadcast tya tyb with
    | Some (rows, cols) -> (rows, cols)
    | None ->
      err span "operand shapes %s and %s do not match for '%s'"
        (Mtype.to_string tya) (Mtype.to_string tyb) (Ast.binop_name op)
  in
  let promoted_base = Mtype.promote_base (arith_base tya.Mtype.base) (arith_base tyb.Mtype.base) in
  let promoted_cplx = Mtype.promote_cplx tya.Mtype.cplx tyb.Mtype.cplx in
  let rty =
    match op with
    | Ast.Add | Ast.Sub | Ast.Emul ->
      let rows, cols = broadcast_or_err () in
      Mtype.matrix ~cplx:promoted_cplx promoted_base rows cols
    | Ast.Mul ->
      if Mtype.is_scalar tya || Mtype.is_scalar tyb then begin
        let rows, cols = broadcast_or_err () in
        Mtype.matrix ~cplx:promoted_cplx promoted_base rows cols
      end
      else if tya.Mtype.cols = tyb.Mtype.rows then
        Mtype.matrix ~cplx:promoted_cplx
          (Mtype.promote_base promoted_base Mtype.Double)
          tya.Mtype.rows tyb.Mtype.cols
      else
        err span "inner dimensions do not agree for '*': %s times %s"
          (Mtype.to_string tya) (Mtype.to_string tyb)
    | Ast.Ediv | Ast.Eldiv ->
      let rows, cols = broadcast_or_err () in
      Mtype.matrix ~cplx:promoted_cplx Mtype.Double rows cols
    | Ast.Div ->
      if Mtype.is_scalar tyb then
        Mtype.matrix ~cplx:promoted_cplx Mtype.Double tya.Mtype.rows
          tya.Mtype.cols
      else err span "matrix right-division is not supported (scalar divisor only)"
    | Ast.Ldiv ->
      if Mtype.is_scalar tya then
        Mtype.matrix ~cplx:promoted_cplx Mtype.Double tyb.Mtype.rows
          tyb.Mtype.cols
      else err span "matrix left-division is not supported (scalar divisor only)"
    | Ast.Pow | Ast.Epow ->
      if op = Ast.Pow && not (Mtype.is_scalar tya && Mtype.is_scalar tyb) then
        err span "matrix power is not supported; use '.^'";
      let rows, cols = broadcast_or_err () in
      Mtype.matrix ~cplx:promoted_cplx Mtype.Double rows cols
    | Ast.Lt | Ast.Le | Ast.Gt | Ast.Ge ->
      if promoted_cplx = Mtype.Complex then
        err span "ordering comparison is not defined on complex values";
      let rows, cols = broadcast_or_err () in
      Mtype.matrix Mtype.Bool rows cols
    | Ast.Eq | Ast.Ne ->
      let rows, cols = broadcast_or_err () in
      Mtype.matrix Mtype.Bool rows cols
    | Ast.And | Ast.Or ->
      let rows, cols = broadcast_or_err () in
      Mtype.matrix Mtype.Bool rows cols
    | Ast.Andand | Ast.Oror ->
      if not (Mtype.is_scalar tya && Mtype.is_scalar tyb) then
        err span "'%s' requires scalar operands" (Ast.binop_name op);
      Mtype.bool_
  in
  let const =
    match (ia.Info.const, ib.Info.const) with
    | Some ca, Some cb when Mtype.is_scalar rty -> fold_binop op ca cb
    | _ -> None
  in
  ({ Info.ty = rty; const }, mk rty (Tast.Tbinop (op, ta, tb)) span)

and elab_matrix fctx env ?end_dim rows span =
  if rows = [] then err span "empty matrices are not supported";
  let elab_row row =
    let infos = List.map (fun e -> elab_expr fctx env ?end_dim e) row in
    let heights =
      List.map (fun ((i : Info.t), _) -> i.Info.ty.Mtype.rows) infos
    in
    let h = match heights with [] -> 1 | h :: _ -> h in
    if List.exists (fun x -> x <> h) heights then
      err span "matrix row elements have inconsistent heights";
    let w =
      List.fold_left (fun acc ((i : Info.t), _) -> acc + i.Info.ty.Mtype.cols) 0 infos
    in
    (h, w, infos)
  in
  let elaborated = List.map elab_row rows in
  let widths = List.map (fun (_, w, _) -> w) elaborated in
  let w = match widths with [] -> 0 | w :: _ -> w in
  if List.exists (fun x -> x <> w) widths then
    err span "matrix rows have inconsistent widths";
  let h = List.fold_left (fun acc (rh, _, _) -> acc + rh) 0 elaborated in
  let all_infos = List.concat_map (fun (_, _, infos) -> infos) elaborated in
  let base =
    List.fold_left
      (fun acc ((i : Info.t), _) -> Mtype.promote_base acc i.Info.ty.Mtype.base)
      Mtype.Bool all_infos
  in
  let cplx =
    List.fold_left
      (fun acc ((i : Info.t), _) -> Mtype.promote_cplx acc i.Info.ty.Mtype.cplx)
      Mtype.Real all_infos
  in
  let ty = Mtype.matrix ~cplx base h w in
  let texprs = List.map (fun (_, _, infos) -> List.map snd infos) elaborated in
  (Info.of_ty ty, mk ty (Tast.Tmatrix texprs) span)

and affine_of fctx env ?end_dim (e : Ast.expr) : Affine.t option =
  match e.Ast.desc with
  | Ast.Num f when Float.is_integer f -> Some (Affine.of_const (int_of_float f))
  | Ast.End_marker -> (
    match end_dim with Some d -> Some (Affine.of_const d) | None -> None)
  | Ast.Var v -> (
    match Smap.find_opt v env with
    | Some info -> (
      match Info.int_const info with
      | Some n -> Some (Affine.of_const n)
      | None ->
        if
          Mtype.is_scalar info.Info.ty
          && info.Info.ty.Mtype.cplx = Mtype.Real
        then Some (Affine.of_var v)
        else None)
    | None -> None)
  | Ast.Binop (Ast.Add, a, b) -> (
    match (affine_of fctx env ?end_dim a, affine_of fctx env ?end_dim b) with
    | Some x, Some y -> Some (Affine.add x y)
    | _ -> None)
  | Ast.Binop (Ast.Sub, a, b) -> (
    match (affine_of fctx env ?end_dim a, affine_of fctx env ?end_dim b) with
    | Some x, Some y -> Some (Affine.sub x y)
    | _ -> None)
  | Ast.Binop (Ast.Mul, a, b) -> (
    match (affine_of fctx env ?end_dim a, affine_of fctx env ?end_dim b) with
    | Some x, Some y -> (
      match (Affine.to_const x, Affine.to_const y) with
      | Some k, _ -> Some (Affine.scale k y)
      | _, Some k -> Some (Affine.scale k x)
      | None, None -> None)
    | _ -> None)
  | Ast.Unop (Ast.Uneg, a) -> (
    match affine_of fctx env ?end_dim a with
    | Some x -> Some (Affine.scale (-1) x)
    | None -> None)
  | Ast.Unop ((Ast.Uplus | Ast.Unot), _)
  | Ast.Num _ | Ast.Imag _ | Ast.Str _ | Ast.Bool _ | Ast.Colon | Ast.Range _
  | Ast.Binop _ | Ast.Transpose _ | Ast.Apply _ | Ast.Matrix _ ->
    None

(* Elaborate one index argument against a dimension of size [dim]. *)
and elab_index_arg fctx env ~dim (e : Ast.expr) : Tast.tindex * int option =
  (* Returns the typed index and its extent: None = scalar, Some n = slice
     of length n. *)
  let span = e.Ast.span in
  match e.Ast.desc with
  | Ast.Colon -> (Tast.Tidx_colon dim, Some dim)
  | Ast.Range (lo, step, hi) ->
    let _, tlo = elab_expr fctx env ~end_dim:dim lo in
    let istep =
      match step with
      | None -> 1
      | Some s -> (
        let is, _ = elab_expr fctx env ~end_dim:dim s in
        match Info.int_const is with
        | Some k -> k
        | None -> err span "slice step must be a compile-time constant")
    in
    let count =
      match
        (affine_of fctx env ~end_dim:dim lo, affine_of fctx env ~end_dim:dim hi)
      with
      | Some alo, Some ahi -> (
        match Affine.diff_const ahi alo with
        | Some d -> range_count span ~lo:0 ~step:istep ~hi:d
        | None -> err span "slice length is not a compile-time constant")
      | _ -> err span "slice length is not a compile-time constant"
    in
    (Tast.Tidx_range { lo = tlo; step = istep; count }, Some count)
  | Ast.Num _ | Ast.Imag _ | Ast.Str _ | Ast.Bool _ | Ast.Var _
  | Ast.End_marker | Ast.Unop _ | Ast.Binop _ | Ast.Transpose _ | Ast.Apply _
  | Ast.Matrix _ ->
    let info, te = elab_expr fctx env ~end_dim:dim e in
    if Mtype.is_scalar info.Info.ty then (Tast.Tidx_scalar te, None)
    else
      (* Vector-valued index (gather): a(idx). *)
      let n = Mtype.numel info.Info.ty in
      (Tast.Tidx_gather (te, n), Some n)

and elab_apply fctx env ?end_dim name args span =
  ignore end_dim;
  match Smap.find_opt name env with
  | Some info -> elab_index_read fctx env name info args span
  | None -> (
    match Builtins.lookup name with
    | Some b -> (
      match b with
      | Builtins.Disp | Builtins.Fprintf ->
        err span "%s cannot be used as a value" name
      | Builtins.Unary_math _ | Builtins.Abs | Builtins.Binary_math _
      | Builtins.Min_max _ | Builtins.Reduction _ | Builtins.Dot
      | Builtins.Zeros | Builtins.Ones | Builtins.Eye | Builtins.Length
      | Builtins.Numel | Builtins.Size | Builtins.Real_part
      | Builtins.Imag_part | Builtins.Conj | Builtins.Angle
      | Builtins.Complex_make | Builtins.Pi | Builtins.Linspace
      | Builtins.Norm | Builtins.Cumsum | Builtins.Flip _ | Builtins.Repmat
      | Builtins.Any | Builtins.All | Builtins.Var_std _ | Builtins.Sort ->
        let arg_results = List.map (fun a -> elab_expr fctx env a) args in
        let infos = List.map fst arg_results in
        let texprs = List.map snd arg_results in
        let results = Builtins.infer b span infos in
        let info =
          match results with
          | r :: _ -> r
          | [] -> err span "%s does not produce a value" name
        in
        (info, mk info.Info.ty (Tast.Tbuiltin (b, texprs)) span))
    | None -> (
      match
        List.find_opt
          (fun (f : Ast.func) -> String.equal f.Ast.fname name)
          fctx.ctx.program.Ast.funcs
      with
      | Some _ ->
        let arg_results = List.map (fun a -> elab_expr fctx env a) args in
        let infos = List.map fst arg_results in
        let texprs = List.map snd arg_results in
        let idx, rets = instance_for fctx.ctx name infos span in
        let info =
          match rets with
          | r :: _ -> r
          | [] -> err span "function '%s' returns no value" name
        in
        (info, mk info.Info.ty (Tast.Tcall (idx, texprs)) span)
      | None -> err span "undefined function or variable '%s'" name))

and elab_index_read fctx env name (info : Info.t) args span =
  let ty = info.Info.ty in
  if args = [] then err span "'%s()' indexing requires at least one index" name;
  match args with
  | [ a ] -> (
    let dim = Mtype.numel ty in
    let tidx, extent = elab_index_arg fctx env ~dim a in
    match extent with
    | None ->
      let ety = Mtype.with_shape ty 1 1 in
      (Info.of_ty ety, mk ety (Tast.Tindex (name, ty, [ tidx ])) span)
    | Some n ->
      (* Linear slice: keeps the vector orientation; a(:) of a matrix is a
         column, which we support only for vectors to keep layouts
         static. *)
      let rty =
        if ty.Mtype.rows = 1 then Mtype.with_shape ty 1 n
        else if ty.Mtype.cols = 1 then Mtype.with_shape ty n 1
        else if n = Mtype.numel ty then Mtype.with_shape ty n 1
        else
          err span
            "linear slicing of a matrix is only supported for the full '(:)'"
      in
      (Info.of_ty rty, mk rty (Tast.Tindex (name, ty, [ tidx ])) span))
  | [ a; b ] ->
    let tidx_r, ext_r = elab_index_arg fctx env ~dim:ty.Mtype.rows a in
    let tidx_c, ext_c = elab_index_arg fctx env ~dim:ty.Mtype.cols b in
    let rows = match ext_r with None -> 1 | Some n -> n in
    let cols = match ext_c with None -> 1 | Some n -> n in
    let rty = Mtype.with_shape ty rows cols in
    (Info.of_ty rty, mk rty (Tast.Tindex (name, ty, [ tidx_r; tidx_c ])) span)
  | _ -> err span "more than two indices are not supported"

(* ---------- statements ---------- *)

and elab_block fctx (env : env) (block : Ast.block) : env * Tast.tblock =
  let env, rev_stmts =
    List.fold_left
      (fun (env, acc) stmt ->
        match elab_stmt fctx env stmt with
        | env', tstmt -> (env', tstmt :: acc)
        | exception Diag.Error (phase, span, msg) when recovering fctx ->
          record_recovered fctx phase span msg;
          (* Drop the failed statement, poison what it would have bound so
             later uses don't cascade, and keep checking the rest. *)
          (poison_targets fctx env stmt, acc))
      (env, []) block
  in
  (env, List.rev rev_stmts)

and poison_targets fctx env (stmt : Ast.stmt) =
  let poison env base =
    (* Bypass [record_binding]'s shape join (the poison type must not
       trigger a second error), but still declare the variable so the
       signature construction after the body finds every binding —
       including poisoned return variables. *)
    if not (Smap.mem base fctx.decls) then
      fctx.decls <- Smap.add base Mtype.error fctx.decls;
    Smap.add base (Info.of_ty Mtype.error) env
  in
  match stmt.Ast.sdesc with
  | Ast.Assign (lv, _) -> poison env lv.Ast.base
  | Ast.Multi_assign (lvs, _) ->
    List.fold_left (fun env (lv : Ast.lvalue) -> poison env lv.Ast.base) env lvs
  | Ast.Expr_stmt _ | Ast.If _ | Ast.For _ | Ast.While _ | Ast.Break
  | Ast.Continue | Ast.Return ->
    env

and elab_stmt fctx (env : env) (stmt : Ast.stmt) : env * Tast.tstmt =
  let span = stmt.Ast.sspan in
  let mk_stmt d : Tast.tstmt = { Tast.sdesc = d; sspan = span } in
  match stmt.Ast.sdesc with
  | Ast.Assign ({ base; indices = []; _ }, rhs) ->
    let info, te = elab_expr fctx env rhs in
    record_binding fctx base info.Info.ty span;
    (Smap.add base info env, mk_stmt (Tast.Tassign (base, te)))
  | Ast.Assign ({ base; indices; lspan }, rhs) -> (
    match Smap.find_opt base env with
    | None ->
      err lspan
        "indexed assignment to undefined variable '%s'; preallocate it with \
         zeros(...) first"
        base
    | Some arr_info when Mtype.is_error arr_info.Info.ty ->
      (* Poisoned base: the original binding already failed and was
         reported. Check the RHS for its own mistakes, then keep the
         poison without cascading. *)
      let _ = elab_expr fctx env rhs in
      (env, mk_stmt (Tast.Tassign (base, mk Mtype.error (Tast.Tnum 0.) span)))
    | Some arr_info ->
      let arr_ty = arr_info.Info.ty in
      if Mtype.is_scalar arr_ty then
        err lspan
          "indexed assignment to scalar '%s'; the static-shape subset \
           requires preallocating arrays with zeros(...)"
          base;
      let rhs_info, t_rhs = elab_expr fctx env rhs in
      (* Element writes may promote the array (real -> complex, int ->
         double); shapes never change. *)
      let promoted =
        { arr_ty with
          Mtype.base =
            Mtype.promote_base arr_ty.Mtype.base rhs_info.Info.ty.Mtype.base;
          cplx =
            Mtype.promote_cplx arr_ty.Mtype.cplx rhs_info.Info.ty.Mtype.cplx }
      in
      let tidx, target_rows, target_cols =
        match indices with
        | [ a ] -> (
          let dim = Mtype.numel arr_ty in
          let t, ext = elab_index_arg fctx env ~dim a in
          match ext with
          | None -> ([ t ], 1, 1)
          | Some n ->
            if arr_ty.Mtype.rows = 1 then ([ t ], 1, n) else ([ t ], n, 1))
        | [ a; b ] ->
          let tr, er = elab_index_arg fctx env ~dim:arr_ty.Mtype.rows a in
          let tc, ec = elab_index_arg fctx env ~dim:arr_ty.Mtype.cols b in
          ( [ tr; tc ],
            (match er with None -> 1 | Some n -> n),
            match ec with None -> 1 | Some n -> n )
        | _ -> err span "more than two indices are not supported"
      in
      let rty = rhs_info.Info.ty in
      if
        not
          (Mtype.is_scalar rty
          || (rty.Mtype.rows = target_rows && rty.Mtype.cols = target_cols)
          || Mtype.numel rty = target_rows * target_cols
             && (Mtype.is_vector rty
                && (target_rows = 1 || target_cols = 1)))
      then
        err span "cannot assign %s into a %dx%d slice" (Mtype.to_string rty)
          target_rows target_cols;
      record_binding fctx base promoted span;
      let env = Smap.add base (Info.of_ty promoted) env in
      (env, mk_stmt (Tast.Tstore (base, promoted, tidx, t_rhs))))
  | Ast.Multi_assign (lvs, rhs) -> (
    let targets =
      List.map
        (fun (lv : Ast.lvalue) ->
          if lv.Ast.indices <> [] then
            err lv.Ast.lspan "indexed targets in multi-assignment are not supported";
          lv.Ast.base)
        lvs
    in
    match rhs.Ast.desc with
    | Ast.Apply (name, args) when not (Smap.mem name env) -> (
      match Builtins.lookup name with
      | Some (Builtins.Min_max mm) when List.length args = 1 ->
        (* [m, i] = max(x): value and 1-based index. *)
        let arg_results = List.map (fun a -> elab_expr fctx env a) args in
        let infos = List.map fst arg_results in
        let results = Builtins.infer (Builtins.Min_max mm) span infos in
        let vty =
          match results with
          | r :: _ when Mtype.is_scalar r.Info.ty -> r.Info.ty
          | _ ->
            err span "[m, i] = %s(x) requires a vector argument"
              (match mm with `Min -> "min" | `Max -> "max")
        in
        let bind_infos = [ Info.of_ty vty; Info.of_ty Mtype.int_ ] in
        if List.length targets > 2 then
          err span "min/max return at most two values";
        let env =
          List.fold_left2
            (fun env name info ->
              record_binding fctx name info.Info.ty span;
              Smap.add name info env)
            env targets
            (List.filteri (fun i _ -> i < List.length targets) bind_infos)
        in
        let te =
          mk vty
            (Tast.Tbuiltin (Builtins.Min_max mm, List.map snd arg_results))
            span
        in
        (env, mk_stmt (Tast.Tmulti (targets, te)))
      | Some Builtins.Size ->
        let arg_results = List.map (fun a -> elab_expr fctx env a) args in
        let infos = List.map fst arg_results in
        let results = Builtins.infer Builtins.Size span infos in
        if List.length targets > List.length results then
          err span "size returns %d values here" (List.length results);
        let env =
          List.fold_left2
            (fun env name info ->
              record_binding fctx name info.Info.ty span;
              Smap.add name info env)
            env targets
            (List.filteri (fun i _ -> i < List.length targets) results)
        in
        let te =
          mk Mtype.int_
            (Tast.Tbuiltin (Builtins.Size, List.map snd arg_results))
            span
        in
        (env, mk_stmt (Tast.Tmulti (targets, te)))
      | Some _ -> err span "'%s' does not return multiple values" name
      | None -> (
        match
          List.find_opt
            (fun (f : Ast.func) -> String.equal f.Ast.fname name)
            fctx.ctx.program.Ast.funcs
        with
        | Some _ ->
          let arg_results = List.map (fun a -> elab_expr fctx env a) args in
          let infos = List.map fst arg_results in
          let idx, rets = instance_for fctx.ctx name infos span in
          if List.length targets > List.length rets then
            err span "function '%s' returns %d value(s) but %d are requested"
              name (List.length rets) (List.length targets);
          let used = List.filteri (fun i _ -> i < List.length targets) rets in
          let env =
            List.fold_left2
              (fun env tname info ->
                record_binding fctx tname info.Info.ty span;
                Smap.add tname info env)
              env targets used
          in
          let rty =
            match rets with r :: _ -> r.Info.ty | [] -> Mtype.double
          in
          let te = mk rty (Tast.Tcall (idx, List.map snd arg_results)) span in
          (env, mk_stmt (Tast.Tmulti (targets, te)))
        | None -> err span "undefined function '%s'" name))
    | _ -> err span "multi-assignment requires a function call on the right")
  | Ast.Expr_stmt e -> (
    match e.Ast.desc with
    | Ast.Apply (("disp" | "fprintf") as name, args) when not (Smap.mem name env)
      -> (
      match (name, args) with
      | "disp", [ a ] ->
        let _, ta = elab_expr fctx env a in
        (env, mk_stmt (Tast.Tprint (None, [ ta ])))
      | "disp", _ -> err span "disp expects exactly one argument"
      | "fprintf", { Ast.desc = Ast.Str fmt; _ } :: rest ->
        let targs = List.map (fun a -> snd (elab_expr fctx env a)) rest in
        (env, mk_stmt (Tast.Tprint (Some fmt, targs)))
      | "fprintf", _ ->
        err span "fprintf requires a literal format string"
      | _ -> assert false)
    | _ ->
      let _, te = elab_expr fctx env e in
      (env, mk_stmt (Tast.Tprint (None, [ te ])))
      (* A bare expression statement displays its value in MATLAB. *))
  | Ast.If (arms, else_block) ->
    let t_arms_and_envs =
      List.map
        (fun (cond, body) ->
          let icond, tcond = elab_expr fctx env cond in
          if not (Mtype.is_scalar icond.Info.ty) then
            err cond.Ast.span "if condition must be scalar in this subset";
          let env_arm, tbody = elab_block fctx env body in
          ((tcond, tbody), env_arm))
        arms
    in
    let env_else, t_else = elab_block fctx env else_block in
    let merged =
      List.fold_left
        (fun acc (_, env_arm) -> join_env span acc env_arm)
        env_else t_arms_and_envs
    in
    (merged, mk_stmt (Tast.Tif (List.map fst t_arms_and_envs, t_else)))
  | Ast.For (var, iter, body) ->
    let iter_t, loopvar_info =
      match iter.Ast.desc with
      | Ast.Range (lo, step, hi) ->
        let ilo, tlo = elab_expr fctx env lo in
        let istep, tstep =
          match step with
          | None -> (None, None)
          | Some s ->
            let i, t = elab_expr fctx env s in
            (Some i, Some t)
        in
        let ihi, thi = elab_expr fctx env hi in
        (* A loop counts in a real base: complex bounds have no order. *)
        let real (e : Ast.expr) (i : Info.t) =
          if i.Info.ty.Mtype.cplx = Mtype.Complex then
            err e.Ast.span "for-loop range bounds must be real"
        in
        real lo ilo;
        (match (step, istep) with Some s, Some i -> real s i | _ -> ());
        real hi ihi;
        let base =
          Mtype.promote_base
            (arith_base ilo.Info.ty.Mtype.base)
            (Mtype.promote_base
               (match istep with
               | None -> Mtype.Int
               | Some i -> arith_base i.Info.ty.Mtype.base)
               (arith_base ihi.Info.ty.Mtype.base))
        in
        (Tast.Titer_range (tlo, tstep, thi), Info.of_ty (Mtype.scalar base))
      | _ ->
        let ivec, tvec = elab_expr fctx env iter in
        if not (Mtype.is_vector ivec.Info.ty) then
          err iter.Ast.span "for iterator must be a range or a vector";
        ( Tast.Titer_vector tvec,
          Info.of_ty (Mtype.with_shape ivec.Info.ty 1 1) )
    in
    record_binding fctx var loopvar_info.Info.ty span;
    let rec fix env_in n =
      let env_body = Smap.add var loopvar_info env_in in
      let env_out, tbody = elab_stmt_body fctx env_body body in
      let joined = join_env span env_in env_out in
      if env_equal joined env_in || n > 50 then (joined, tbody)
      else fix joined (n + 1)
    in
    let env_final, tbody = fix env 0 in
    (env_final, mk_stmt (Tast.Tfor (var, iter_t, tbody)))
  | Ast.While (cond, body) ->
    let rec fix env_in n =
      let icond, tcond = elab_expr fctx env_in cond in
      if not (Mtype.is_scalar icond.Info.ty) then
        err cond.Ast.span "while condition must be scalar";
      let env_out, tbody = elab_stmt_body fctx env_in body in
      let joined = join_env span env_in env_out in
      if env_equal joined env_in || n > 50 then (joined, tcond, tbody)
      else fix joined (n + 1)
    in
    let env_final, tcond, tbody = fix env 0 in
    (env_final, mk_stmt (Tast.Twhile (tcond, tbody)))
  | Ast.Break -> (env, mk_stmt Tast.Tbreak)
  | Ast.Continue -> (env, mk_stmt Tast.Tcontinue)
  | Ast.Return -> (env, mk_stmt Tast.Treturn)

and elab_stmt_body fctx env body = elab_block fctx env body

(* ---------- functions ---------- *)

and instance_for (ctx : ctx) name (arg_infos : Info.t list) span :
    int * Info.t list =
  (* Drop constant payloads of non-scalar args from the key to keep the
     instance count small; scalar constants are kept because they can
     determine shapes inside the callee. *)
  let key = (name, arg_infos) in
  match Hashtbl.find_opt ctx.memo key with
  | Some (idx, rets) -> (idx, rets)
  | None ->
    if Hashtbl.mem ctx.in_progress name then
      err span "recursive call to '%s' is not supported" name;
    let func =
      match
        List.find_opt
          (fun (f : Ast.func) -> String.equal f.Ast.fname name)
          ctx.program.Ast.funcs
      with
      | Some f -> f
      | None -> err span "undefined function '%s'" name
    in
    if List.length func.Ast.params <> List.length arg_infos then
      err span "function '%s' expects %d argument(s) but received %d" name
        (List.length func.Ast.params)
        (List.length arg_infos);
    Hashtbl.add ctx.in_progress name ();
    let idx = ctx.next_inst in
    ctx.next_inst <- idx + 1;
    (* Reserve the slot before inferring the body so nested instances get
       distinct indices. *)
    let fctx = { ctx; fname = name; decls = Smap.empty } in
    let env =
      List.fold_left2
        (fun env p info ->
          record_binding fctx p info.Info.ty func.Ast.fspan;
          Smap.add p info env)
        Smap.empty func.Ast.params arg_infos
    in
    let env_out, tbody = elab_block fctx env func.Ast.body in
    let rets =
      List.map
        (fun r ->
          match Smap.find_opt r env_out with
          | Some info -> info
          | None ->
            err func.Ast.fspan
              "return variable '%s' of '%s' is never assigned" r name)
        func.Ast.returns
    in
    let decl_ty v =
      match Smap.find_opt v fctx.decls with
      | Some ty -> ty
      | None -> assert false
    in
    let params = List.map (fun p -> (p, decl_ty p)) func.Ast.params in
    let ret_decls = List.map (fun r -> (r, decl_ty r)) func.Ast.returns in
    let locals =
      Smap.fold
        (fun v ty acc ->
          if
            List.mem_assoc v params
            || List.exists (fun (r, _) -> String.equal r v) ret_decls
          then acc
          else (v, ty) :: acc)
        fctx.decls []
      |> List.rev
    in
    let count = Hashtbl.length ctx.memo in
    let inst_name = if count = 0 then name else Printf.sprintf "%s_%d" name idx in
    let tfunc =
      { Tast.tname = name; tparams = params; trets = ret_decls;
        tlocals = locals; tbody }
    in
    Hashtbl.replace ctx.insts idx { Tast.inst_name; inst_func = tfunc };
    Hashtbl.replace ctx.memo key (idx, rets);
    Hashtbl.remove ctx.in_progress name;
    (idx, rets)

let infer_program ?(sink = Diag.Raise) (program : Ast.program) ~entry
    ~arg_types : Tast.program =
  let ctx =
    { program; memo = Hashtbl.create 16; insts = Hashtbl.create 16;
      next_inst = 0; in_progress = Hashtbl.create 4; sink }
  in
  let arg_infos = List.map Info.of_ty arg_types in
  let entry_idx, _rets = instance_for ctx entry arg_infos Loc.dummy in
  let instances =
    Array.init ctx.next_inst (fun i -> Hashtbl.find ctx.insts i)
  in
  { Tast.instances; entry = entry_idx }

let infer_source ?(sink = Diag.Raise) src ~entry ~arg_types =
  infer_program ~sink (Parser.parse_program ~sink src) ~entry ~arg_types
