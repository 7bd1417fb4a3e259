open Masc_frontend
module Mir = Masc_mir.Mir
module Isa = Masc_asip.Isa
module Cost = Masc_asip.Cost_model
module MT = Masc_sema.Mtype

(* All text goes straight into one buffer: every writer below appends its
   piece of C and returns unit, so emitting an instruction builds no
   intermediate strings. *)

let err fmt = Diag.error Codegen Loc.dummy fmt

type env = {
  isa : Isa.t;
  mode : Cost.mode;
  buf : Buffer.t;
  mutable indent : int;
}

let str env s = Buffer.add_string env.buf s
let chr env c = Buffer.add_char env.buf c

(* Decimal digits of [i], written without an intermediate string. *)
let rec add_int b i =
  if i < 0 then
    if i = min_int then Buffer.add_string b (string_of_int i)
    else begin
      Buffer.add_char b '-';
      add_int b (-i)
    end
  else begin
    if i >= 10 then add_int b (i / 10);
    Buffer.add_char b (Char.unsafe_chr (48 + (i mod 10)))
  end

let int env i = add_int env.buf i

(* C identifier for a MIR variable: the name with non-alphanumerics
   mapped to '_', then '_' and the (unique) vid. *)
let add_name b (v : Mir.var) =
  let s = v.Mir.vname in
  for i = 0 to String.length s - 1 do
    let c = String.unsafe_get s i in
    Buffer.add_char b
      (if (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z')
          || (c >= '0' && c <= '9')
       then c
       else '_')
  done;
  Buffer.add_char b '_';
  add_int b v.Mir.vid

let c_name (v : Mir.var) =
  let b = Buffer.create (String.length v.Mir.vname + 8) in
  add_name b v;
  Buffer.contents b

let name env v = add_name env.buf v

let start_line env =
  for _ = 1 to env.indent do
    str env "  "
  done

let end_line env = chr env '\n'

let is_complex_sty (s : Mir.scalar_ty) = s.Mir.cplx = MT.Complex

let is_int_sty (s : Mir.scalar_ty) =
  (not (is_complex_sty s)) && (s.Mir.base = MT.Int || s.Mir.base = MT.Bool)

let sty_ctype env (s : Mir.scalar_ty) =
  if s.Mir.lanes > 1 then begin
    str env "masc_v";
    int env s.Mir.lanes;
    str env "f64"
  end
  else if is_complex_sty s then str env "masc_cplx"
  else
    match s.Mir.base with
    | MT.Double -> str env "double"
    | MT.Int | MT.Bool -> str env "int"
    | MT.Err -> invalid_arg "Emit.sty_ctype: poison type reached codegen"

let elem_ctype env (v : Mir.var) = sty_ctype env (Mir.elem_ty v)

(* Integral values print as "%.1f" would ("3.0", "-0.0"), other finite
   ones with "%.17g"; non-finite ones as the <math.h> macros. *)
let float_lit env f =
  if Float.is_integer f && Float.abs f < 1e15 then begin
    if Float.sign_bit f then chr env '-';
    int env (int_of_float (Float.abs f));
    str env ".0"
  end
  else if Float.is_nan f then str env "NAN"
  else if f = Float.infinity then str env "INFINITY"
  else if f = Float.neg_infinity then str env "(-INFINITY)"
  else Printf.bprintf env.buf "%.17g" f

let operand env (op : Mir.operand) =
  match op with
  | Mir.Ovar v -> name env v
  | Mir.Oconst (Mir.Cf f) -> float_lit env f
  | Mir.Oconst (Mir.Ci i) -> int env i
  | Mir.Oconst (Mir.Cb b) -> chr env (if b then '1' else '0')
  | Mir.Oconst (Mir.Cc z) ->
    str env "masc_cplx_make(";
    float_lit env z.Complex.re;
    str env ", ";
    float_lit env z.Complex.im;
    chr env ')'

(* Promotion of a real value into a complex context: the writes around
   the value, when [promote] holds. *)
let open_promote env promote = if promote then str env "masc_cplx_make("
let close_promote env promote = if promote then str env ", 0.0)"

(* An operand in a complex context, promoting reals. *)
let cplx_operand env op =
  let promote = not (is_complex_sty (Mir.operand_sty op)) in
  open_promote env promote;
  operand env op;
  close_promote env promote

let operands env args =
  List.iteri
    (fun i a ->
      if i > 0 then str env ", ";
      operand env a)
    args

let rbin env (op : Mir.binop) a b =
  let sa = Mir.operand_sty a and sb = Mir.operand_sty b in
  let complex = is_complex_sty sa || is_complex_sty sb in
  let both_int = is_int_sty sa && is_int_sty sb in
  let infix sym =
    chr env '(';
    operand env a;
    chr env ' ';
    str env sym;
    chr env ' ';
    operand env b;
    chr env ')'
  in
  let call2 f =
    str env f;
    chr env '(';
    operand env a;
    str env ", ";
    operand env b;
    chr env ')'
  in
  let ccall2 f =
    str env f;
    chr env '(';
    cplx_operand env a;
    str env ", ";
    cplx_operand env b;
    chr env ')'
  in
  if complex then
    match op with
    | Mir.Badd -> ccall2 "masc_cplx_add"
    | Mir.Bsub -> ccall2 "masc_cplx_sub"
    | Mir.Bmul -> ccall2 "masc_cplx_mul"
    | Mir.Bdiv -> ccall2 "masc_cplx_div"
    | Mir.Beq -> ccall2 "masc_cplx_eq"
    | Mir.Bne ->
      str env "(!";
      ccall2 "masc_cplx_eq";
      chr env ')'
    | Mir.Bpow | Mir.Bmod | Mir.Bidiv | Mir.Bmin | Mir.Bmax | Mir.Blt
    | Mir.Ble | Mir.Bgt | Mir.Bge | Mir.Band | Mir.Bor ->
      err "operation not defined on complex values in C emission"
  else
    match op with
    | Mir.Badd -> infix "+"
    | Mir.Bsub -> infix "-"
    | Mir.Bmul -> infix "*"
    | Mir.Bdiv ->
      if both_int then begin
        str env "((double)";
        operand env a;
        str env " / (double)";
        operand env b;
        chr env ')'
      end
      else infix "/"
    | Mir.Bidiv -> infix "/"
    | Mir.Bmod -> if both_int then call2 "masc_imod" else call2 "masc_mod"
    | Mir.Bpow -> call2 "pow"
    | Mir.Bmin -> if both_int then call2 "masc_imin" else call2 "masc_min"
    | Mir.Bmax -> if both_int then call2 "masc_imax" else call2 "masc_max"
    | Mir.Blt -> infix "<"
    | Mir.Ble -> infix "<="
    | Mir.Bgt -> infix ">"
    | Mir.Bge -> infix ">="
    | Mir.Beq -> infix "=="
    | Mir.Bne -> infix "!="
    | Mir.Band -> infix "&&"
    | Mir.Bor -> infix "||"

let runop env (op : Mir.unop) a =
  let sa = Mir.operand_sty a in
  let complex = is_complex_sty sa in
  let call f =
    str env f;
    operand env a;
    chr env ')'
  in
  match op with
  | Mir.Uneg -> if complex then call "masc_cplx_neg(" else call "(-"
  | Mir.Unot -> call "(!"
  | Mir.Uabs ->
    if complex then call "masc_cplx_abs("
    else if is_int_sty sa then call "abs("
    else call "fabs("
  | Mir.Ure ->
    if complex then begin
      operand env a;
      str env ".re"
    end
    else call "((double)"
  | Mir.Uim ->
    if complex then begin
      operand env a;
      str env ".im"
    end
    else str env "0.0"
  | Mir.Uconj -> if complex then call "masc_cplx_conj(" else operand env a

let math_call env fname args =
  let arg0_cplx =
    match args with a :: _ -> is_complex_sty (Mir.operand_sty a) | [] -> false
  in
  let f =
    if arg0_cplx then
      match fname with
      | "exp" -> "masc_cplx_exp"
      | "sqrt" -> "masc_cplx_sqrt"
      | _ -> err "math function %s on complex values is not supported in C" fname
    else
      match fname with
      | "log2" -> "masc_log2"
      | "sign" -> "masc_sign"
      | "mod" -> "masc_mod"
      | "rem" -> "fmod"
      | "round" -> "round"
      | "trunc" -> "trunc"
      | _ -> fname
  in
  str env f;
  chr env '(';
  operands env args;
  chr env ')'

(* Array access rendering per mode. *)
let array_numel (v : Mir.var) =
  match v.Mir.vty with Mir.Tarray (_, n) -> n | Mir.Tscalar _ -> 1

(* MATLAB index expressions may be double-typed (e.g. n/2 in an FFT);
   they hold exact integral values, rounded like the simulator does. *)
let index env idx =
  if is_int_sty (Mir.operand_sty idx) then operand env idx
  else begin
    str env "((int)(";
    operand env idx;
    str env " + 0.5))"
  end

let access env (arr : Mir.var) idx =
  name env arr;
  match env.mode with
  | Cost.Proposed ->
    chr env '[';
    index env idx;
    chr env ']'
  | Cost.Coder ->
    str env ".data[masc_bc(";
    index env idx;
    str env ", ";
    int env (array_numel arr);
    str env ")]"

let array_base_ptr env (arr : Mir.var) idx =
  chr env '&';
  name env arr;
  (match env.mode with
  | Cost.Proposed -> chr env '['
  | Cost.Coder -> str env ".data[");
  index env idx;
  chr env ']'

let intrin_call env kind =
  match Isa.find env.isa kind with
  | Some d ->
    str env d.Isa.iname;
    chr env '('
  | None ->
    err "target %s lacks the %s instruction required by this code"
      env.isa.Isa.tname (Isa.kind_to_string kind)

(* Whether an rvalue is complex-valued; a real one assigned into a
   complex variable is promoted. *)
let rvalue_cplx (rv : Mir.rvalue) =
  match rv with
  | Mir.Rbin (_, a, b) ->
    is_complex_sty (Mir.operand_sty a) || is_complex_sty (Mir.operand_sty b)
  | Mir.Runop ((Mir.Uneg | Mir.Uconj), a) | Mir.Rmove a ->
    is_complex_sty (Mir.operand_sty a)
  | Mir.Runop ((Mir.Uabs | Mir.Unot | Mir.Ure | Mir.Uim), _) -> false
  | Mir.Rmath (_, args) -> (
    match args with
    | a :: _ -> is_complex_sty (Mir.operand_sty a)
    | [] -> false)
  | Mir.Rload (arr, _) -> is_complex_sty (Mir.elem_ty arr)
  | Mir.Rcomplex _ | Mir.Rvload _ | Mir.Rvbroadcast _ | Mir.Rvreduce _
  | Mir.Rintrin _ ->
    true

let rvalue env (v : Mir.var) (rv : Mir.rvalue) =
  let promote = is_complex_sty (Mir.elem_ty v) && not (rvalue_cplx rv) in
  open_promote env promote;
  (match rv with
  | Mir.Rbin (op, a, b) -> rbin env op a b
  | Mir.Runop (op, a) -> runop env op a
  | Mir.Rmath (fname, args) -> math_call env fname args
  | Mir.Rcomplex (re, im) ->
    str env "masc_cplx_make(";
    operand env re;
    str env ", ";
    operand env im;
    chr env ')'
  | Mir.Rload (arr, idx) -> access env arr idx
  | Mir.Rmove a ->
    if is_int_sty (Mir.elem_ty v) && not (is_int_sty (Mir.operand_sty a)) then
      str env "(int)";
    operand env a
  | Mir.Rvload (arr, base, _) ->
    intrin_call env Isa.Kload;
    array_base_ptr env arr base;
    chr env ')'
  | Mir.Rvbroadcast (a, _) ->
    intrin_call env Isa.Kbroadcast;
    operand env a;
    chr env ')'
  | Mir.Rvreduce (r, a) ->
    intrin_call env
      (match r with
      | Mir.Vsum | Mir.Vprod -> Isa.Kreduce_add
      | Mir.Vmin -> Isa.Kreduce_min
      | Mir.Vmax -> Isa.Kreduce_max);
    operand env a;
    chr env ')'
  | Mir.Rintrin (fname, args) ->
    str env fname;
    chr env '(';
    operands env args;
    chr env ')');
  close_promote env promote

(* Format-string rendering for fprintf: the MATLAB string's characters go
   into a C literal; conversions receive casts matching operand types. *)
let c_string_literal env s =
  chr env '"';
  String.iter
    (fun c ->
      match c with
      | '"' -> str env "\\\""
      | '\n' -> str env "\\n"
      | c -> chr env c)
    s;
  chr env '"'

(* A scalar operand as a printable real: complex values print their
   real part. *)
let print_operand env op =
  operand env op;
  if is_complex_sty (Mir.operand_sty op) then str env ".re"

let rec emit_block env (block : Mir.block) =
  List.iter (emit_instr env) block

(* " {", the block one level deeper, and the closing brace's line up to
   the brace. *)
and braced env block =
  str env " {";
  end_line env;
  env.indent <- env.indent + 1;
  emit_block env block;
  env.indent <- env.indent - 1;
  start_line env;
  chr env '}'

and emit_instr env (instr : Mir.instr) =
  start_line env;
  stmt env instr.Mir.idesc;
  end_line env

and stmt env (desc : Mir.instr_desc) =
  match desc with
  | Mir.Idef (v, rv) ->
    name env v;
    str env " = ";
    rvalue env v rv;
    chr env ';'
  | Mir.Istore (arr, idx, x) ->
    access env arr idx;
    str env " = ";
    if is_complex_sty (Mir.elem_ty arr) then cplx_operand env x
    else operand env x;
    chr env ';'
  | Mir.Ivstore (arr, base, x, _) ->
    intrin_call env Isa.Kstore;
    array_base_ptr env arr base;
    str env ", ";
    operand env x;
    str env ");"
  | Mir.Iif (c, t, e) ->
    str env "if (";
    operand env c;
    chr env ')';
    braced env t;
    if e <> [] then begin
      str env " else";
      braced env e
    end
  | Mir.Iloop { ivar; lo; step; hi; body } ->
    str env "for (";
    name env ivar;
    str env " = ";
    operand env lo;
    str env "; ";
    (match step with
    | Mir.Oconst (Mir.Ci s) ->
      name env ivar;
      str env (if s > 0 then " <= " else " >= ");
      operand env hi
    | _ ->
      chr env '(';
      operand env step;
      str env " >= 0) ? (";
      name env ivar;
      str env " <= ";
      operand env hi;
      str env ") : (";
      name env ivar;
      str env " >= ";
      operand env hi;
      chr env ')');
    str env "; ";
    name env ivar;
    str env " += ";
    operand env step;
    chr env ')';
    braced env body
  | Mir.Iwhile { cond_block; cond; body } ->
    str env "for (;;) {";
    end_line env;
    env.indent <- env.indent + 1;
    emit_block env cond_block;
    start_line env;
    str env "if (!(";
    operand env cond;
    str env ")) break;";
    end_line env;
    emit_block env body;
    env.indent <- env.indent - 1;
    start_line env;
    chr env '}'
  | Mir.Ibreak -> str env "break;"
  | Mir.Icontinue -> str env "continue;"
  | Mir.Ireturn -> str env "goto masc_done;"
  | Mir.Icomment s ->
    str env "/* ";
    str env s;
    str env " */"
  | Mir.Iprint (fmt, ops) -> emit_print env fmt ops

(* One line per printed item, except that a format string with scalar
   operands is one printf; [emit_instr] frames the first and last. *)
and emit_print env fmt ops =
  let is_scalar op =
    match op with Mir.Ovar v -> not (Mir.is_array v) | Mir.Oconst _ -> true
  in
  match fmt with
  | Some f when List.for_all is_scalar ops ->
    (* Match conversions to operands, casting ints for %d. *)
    str env "printf(";
    c_string_literal env f;
    List.iter
      (fun op ->
        str env ", ";
        print_operand env op)
      ops;
    str env ");"
  | Some _ | None ->
    List.iteri
      (fun i op ->
        if i > 0 then begin
          end_line env;
          start_line env
        end;
        match op with
        | Mir.Ovar v when Mir.is_array v ->
          str env "{ int masc_pi; for (masc_pi = 0; masc_pi < ";
          int env (array_numel v);
          str env "; masc_pi++) printf(\"%g \", (double)";
          name env v;
          str env
            (match env.mode with
            | Cost.Proposed -> "[masc_pi]"
            | Cost.Coder -> ".data[masc_pi]");
          if is_complex_sty (Mir.elem_ty v) then str env ".re";
          str env "); printf(\"\\n\"); }"
        | op ->
          str env "printf(\"%g\\n\", (double)";
          print_operand env op;
          str env ");")
      ops

(* ---------- declarations and function shell ---------- *)

(* Arrays the function stores into (anywhere), to decide const-ness of
   array parameters. *)
let stored_arrays (f : Mir.func) : (int, unit) Hashtbl.t =
  let tbl = Hashtbl.create 8 in
  let rec go block =
    List.iter
      (fun (i : Mir.instr) ->
        match i.Mir.idesc with
        | Mir.Istore (arr, _, _) | Mir.Ivstore (arr, _, _, _) ->
          Hashtbl.replace tbl arr.Mir.vid ()
        | Mir.Iif (_, t, e) ->
          go t;
          go e
        | Mir.Iloop l -> go l.Mir.body
        | Mir.Iwhile { cond_block; body; _ } ->
          go cond_block;
          go body
        | Mir.Idef _ | Mir.Ibreak | Mir.Icontinue | Mir.Ireturn
        | Mir.Iprint _ | Mir.Icomment _ ->
          ())
      block
  in
  go f.Mir.body;
  tbl

(* Whether an early [return] anywhere needs the epilogue label; stops at
   the first one. *)
let rec has_return (block : Mir.block) =
  List.exists
    (fun (i : Mir.instr) ->
      match i.Mir.idesc with
      | Mir.Ireturn -> true
      | Mir.Iif (_, t, e) -> has_return t || has_return e
      | Mir.Iloop l -> has_return l.Mir.body
      | Mir.Iwhile { cond_block; body; _ } ->
        has_return cond_block || has_return body
      | Mir.Idef _ | Mir.Istore _ | Mir.Ivstore _ | Mir.Ibreak
      | Mir.Icontinue | Mir.Iprint _ | Mir.Icomment _ ->
        false)
    block

let param_decl env stored (p : Mir.var) =
  match p.Mir.vty with
  | Mir.Tscalar s ->
    sty_ctype env s;
    chr env ' ';
    name env p
  | Mir.Tarray (_, n) -> (
    match env.mode with
    | Cost.Proposed ->
      if not (Hashtbl.mem stored p.Mir.vid) then str env "const ";
      elem_ctype env p;
      chr env ' ';
      name env p;
      chr env '[';
      int env n;
      chr env ']'
    | Cost.Coder ->
      str env
        (if is_complex_sty (Mir.elem_ty p) then "masc_emx_c " else "masc_emx ");
      name env p)

let ret_decl env (r : Mir.var) =
  match r.Mir.vty with
  | Mir.Tscalar s ->
    sty_ctype env s;
    str env " *masc_out_";
    name env r
  | Mir.Tarray (_, n) ->
    elem_ctype env r;
    str env " masc_out_";
    name env r;
    chr env '[';
    int env n;
    chr env ']'

(* Declarations: every non-parameter variable the function mentions
   ([Mir.iter_vars]) up front (C89 style, as ASIP toolchains prefer). *)
let var_decl env (v : Mir.var) =
  start_line env;
  (match v.Mir.vty with
  | Mir.Tscalar s ->
    sty_ctype env s;
    chr env ' ';
    name env v;
    str env
      (if s.Mir.lanes > 1 then " = {{0.0}};"
       else if is_complex_sty s then " = {0.0, 0.0};"
       else " = 0;")
  | Mir.Tarray (_, n) -> (
    match env.mode with
    | Cost.Proposed ->
      elem_ctype env v;
      chr env ' ';
      name env v;
      chr env '[';
      int env n;
      str env "];"
    | Cost.Coder ->
      elem_ctype env v;
      chr env ' ';
      name env v;
      str env "_data[";
      int env n;
      str env "];";
      end_line env;
      start_line env;
      str env
        (if is_complex_sty (Mir.elem_ty v) then "masc_emx_c " else "masc_emx ");
      name env v;
      str env " = { ";
      name env v;
      str env "_data, ";
      int env n;
      str env ", 1 };"));
  end_line env

(* Epilogue: copy a return variable to its out-parameter. *)
let ret_copy env (r : Mir.var) =
  start_line env;
  (match r.Mir.vty with
  | Mir.Tscalar _ ->
    str env "*masc_out_";
    name env r;
    str env " = ";
    name env r;
    chr env ';'
  | Mir.Tarray (_, n) ->
    str env "{ int masc_ci; for (masc_ci = 0; masc_ci < ";
    int env n;
    str env "; masc_ci++) masc_out_";
    name env r;
    str env "[masc_ci] = ";
    name env r;
    str env
      (match env.mode with
      | Cost.Proposed -> "[masc_ci]; }"
      | Cost.Coder -> ".data[masc_ci]; }"));
  end_line env

let emit_func env (f : Mir.func) =
  let stored = stored_arrays f in
  str env "void ";
  str env f.Mir.name;
  chr env '(';
  if f.Mir.params = [] && f.Mir.rets = [] then str env "void"
  else begin
    List.iteri
      (fun i p ->
        if i > 0 then str env ", ";
        param_decl env stored p)
      f.Mir.params;
    List.iteri
      (fun i r ->
        if i > 0 || f.Mir.params <> [] then str env ", ";
        ret_decl env r)
      f.Mir.rets
  end;
  chr env ')';
  end_line env;
  chr env '{';
  end_line env;
  env.indent <- 1;
  Mir.iter_vars
    (fun (v : Mir.var) ->
      if
        not
          (List.exists
             (fun (p : Mir.var) -> p.Mir.vid = v.Mir.vid)
             f.Mir.params)
      then var_decl env v)
    f;
  start_line env;
  end_line env;
  emit_block env f.Mir.body;
  start_line env;
  end_line env;
  if has_return f.Mir.body then begin
    start_line env;
    str env "masc_done: ;";
    end_line env
  end;
  List.iter (ret_copy env) f.Mir.rets;
  env.indent <- 0;
  chr env '}';
  end_line env

(* Presize for the whole translation unit: about one declaration and one
   statement per variable. *)
let create ~isa ~mode (f : Mir.func) =
  { isa; mode; indent = 0;
    buf = Buffer.create (1024 + (64 * f.Mir.next_vid)) }

let func ~isa ~mode (f : Mir.func) : string =
  let env = create ~isa ~mode f in
  emit_func env f;
  Buffer.contents env.buf

let program ~isa ~mode (f : Mir.func) : string =
  let env = create ~isa ~mode f in
  str env "/* Generated by masc — MATLAB-to-C compiler targeting ASIPs.\n";
  str env " * target: ";
  str env isa.Isa.tname;
  str env " (";
  str env isa.Isa.description;
  str env ")\n * style:  ";
  str env (Cost.mode_name mode);
  str env "\n */\n#include \"";
  str env Runtime.header_filename;
  str env "\"\n\n";
  emit_func env f;
  Buffer.contents env.buf
