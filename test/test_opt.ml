(* Optimizer pass tests: structural effects of each pass, and the
   semantic-preservation property on random programs. *)

open Masc_sema
module Mir = Masc_mir.Mir
module I = Masc_vm.Interp
module V = Masc_vm.Value

let lower ~args src =
  Masc_mir.Lower.lower_program (Infer.infer_source src ~entry:"f" ~arg_types:args)

let instr_count f =
  let n = ref 0 in
  Masc_opt.Rewrite.iter_instrs (fun _ -> incr n) f;
  !n

let count_matching pred f =
  let n = ref 0 in
  Masc_opt.Rewrite.iter_instrs
    (fun (i : Mir.instr) -> if pred i.Mir.idesc then incr n)
    f;
  !n

let run_scalar f inputs =
  I.run ~isa:Masc_asip.Targets.scalar ~mode:Masc_asip.Cost_model.Proposed f
    inputs

let test_const_fold () =
  let f = lower ~args:[] "function y = f()\ny = 2 + 3 * 4 - 1;\nend" in
  let f' = Masc_opt.Pipeline.optimize Masc_opt.Pipeline.O1 f in
  (* after folding, the function is a single move of 13 *)
  let folded =
    count_matching
      (function
        | Mir.Idef (_, Mir.Rmove (Mir.Oconst (Mir.Ci 13))) -> true
        | _ -> false)
      f'
  in
  Alcotest.(check bool) "folded to 13" true (folded >= 1);
  let r = run_scalar f' [] in
  match r.I.rets with
  | [ I.Xscalar s ] -> Alcotest.(check bool) "value" true (V.close (V.Si 13) s)
  | _ -> Alcotest.fail "expected scalar"

let test_math_fold () =
  let f = lower ~args:[] "function y = f()\ny = sqrt(16) + cos(0);\nend" in
  let f' = Masc_opt.Pipeline.optimize Masc_opt.Pipeline.O1 f in
  let math_calls =
    count_matching
      (function Mir.Idef (_, Mir.Rmath _) -> true | _ -> false)
      f'
  in
  Alcotest.(check int) "no math calls remain" 0 math_calls

let test_dce_removes_dead () =
  let f =
    lower ~args:[ Mtype.double ]
      "function y = f(x)\ndead = x * 42;\ny = x + 1;\nend"
  in
  let f' = Masc_opt.Pipeline.optimize Masc_opt.Pipeline.O1 f in
  let mul42 =
    count_matching
      (function
        | Mir.Idef (_, Mir.Rbin (Mir.Bmul, _, Mir.Oconst (Mir.Ci 42))) -> true
        | _ -> false)
      f'
  in
  Alcotest.(check int) "dead multiply removed" 0 mul42

let test_dce_removes_dead_array () =
  let f =
    lower ~args:[ Mtype.double ]
      "function y = f(x)\ndead = zeros(1, 100);\ny = x;\nend"
  in
  let f' = Masc_opt.Pipeline.optimize Masc_opt.Pipeline.O1 f in
  let stores = count_matching (function Mir.Istore _ -> true | _ -> false) f' in
  Alcotest.(check int) "dead array fill removed" 0 stores

let test_cse_merges () =
  let f =
    lower
      ~args:[ Mtype.double; Mtype.double ]
      "function y = f(a, b)\ny = (a * b + 1) * (a * b + 1);\nend"
  in
  let f' = Masc_opt.Pipeline.optimize Masc_opt.Pipeline.O2 f in
  let muls =
    count_matching
      (function
        | Mir.Idef (_, Mir.Rbin (Mir.Bmul, _, _)) -> true
        | _ -> false)
      f'
  in
  (* a*b once, then squared once: two multiplies, not three *)
  Alcotest.(check int) "a*b computed once" 2 muls

(* Passes on hand-built MIR: [defs_after pass build] is each def's
   rvalue after one run of [pass] over the straight-line function
   [build] emits, in order. *)
let defs_after pass build =
  let module B = Mir.Builder in
  let b = B.create "k" in
  let params = build b in
  let f = pass (B.finish b ~params ~rets:[]) in
  List.filter_map
    (fun (i : Mir.instr) ->
      match i.Mir.idesc with Mir.Idef (_, rv) -> Some rv | _ -> None)
    f.Mir.body

let dvar b hint = Mir.Builder.fresh_var b ~hint (Mir.Tscalar Mir.double_sty)
let cf f = Mir.Oconst (Mir.Cf f)

let is_move_of (v : Mir.var) = function
  | Mir.Rmove (Mir.Ovar u) -> u.Mir.vid = v.Mir.vid
  | _ -> false

(* [x + 0] is [x] only for an int or bool [x]: a double [x] may be
   -0.0, and -0 + 0 = +0. Adding -0.0 and subtracting +0.0 or int 0
   are the identity on a double. *)
let test_const_fold_signed_zeros () =
  let held = ref [] in
  let defs =
    defs_after Masc_opt.Const_fold.run (fun b ->
        let t = dvar b "t" in
        let i = Mir.Builder.fresh_var b ~hint:"i" (Mir.Tscalar Mir.int_sty) in
        let ci0 = Mir.Oconst (Mir.Ci 0) in
        let emit rv = Mir.Builder.emit b (Mir.Idef (dvar b "d", rv)) in
        emit (Mir.Rbin (Mir.Badd, Mir.Ovar t, ci0));
        emit (Mir.Rbin (Mir.Badd, cf 0.0, Mir.Ovar t));
        emit (Mir.Rbin (Mir.Badd, Mir.Ovar i, ci0));
        emit (Mir.Rbin (Mir.Badd, cf (-0.0), Mir.Ovar t));
        emit (Mir.Rbin (Mir.Bsub, Mir.Ovar t, cf 0.0));
        emit (Mir.Rbin (Mir.Bsub, Mir.Ovar t, ci0));
        emit (Mir.Rbin (Mir.Bsub, Mir.Ovar t, cf (-0.0)));
        held := [ t; i ];
        [ t; i ])
  in
  match (defs, !held) with
  | [ a; b; c; d; e; f; g ], [ t; i ] ->
    let kept = function Mir.Rbin _ -> true | _ -> false in
    Alcotest.(check bool) "t + 0 kept" true (kept a);
    Alcotest.(check bool) "0.0 + t kept" true (kept b);
    Alcotest.(check bool) "i + 0 folded" true (is_move_of i c);
    Alcotest.(check bool) "-0.0 + t folded" true (is_move_of t d);
    Alcotest.(check bool) "t - 0.0 folded" true (is_move_of t e);
    Alcotest.(check bool) "t - 0 folded" true (is_move_of t f);
    Alcotest.(check bool) "t - -0.0 kept" true (kept g)
  | _ -> Alcotest.fail "unexpected defs"

let test_cse_signed_zeros () =
  let cc re im = Mir.Oconst (Mir.Cc { Complex.re; im }) in
  let defs =
    defs_after Masc_opt.Cse.run (fun b ->
        let t = dvar b "t" in
        let emit v rv = Mir.Builder.emit b (Mir.Idef (v, rv)) in
        let cty = Mir.Tscalar Mir.complex_sty in
        let c1 = Mir.Builder.fresh_var b ~hint:"c" cty in
        let c2 = Mir.Builder.fresh_var b ~hint:"c" cty in
        emit (dvar b "p") (Mir.Rbin (Mir.Bmul, Mir.Ovar t, cf 0.0));
        emit (dvar b "n") (Mir.Rbin (Mir.Bmul, Mir.Ovar t, cf (-0.0)));
        emit c1 (Mir.Rbin (Mir.Badd, Mir.Ovar t, cc 1.0 0.0));
        emit c2 (Mir.Rbin (Mir.Badd, Mir.Ovar t, cc 1.0 (-0.0)));
        [ t ])
  in
  match defs with
  | [ Mir.Rbin (Mir.Bmul, _, Mir.Oconst (Mir.Cf p));
      Mir.Rbin (Mir.Bmul, _, Mir.Oconst (Mir.Cf n));
      Mir.Rbin (Mir.Badd, _, Mir.Oconst (Mir.Cc _));
      Mir.Rbin (Mir.Badd, _, Mir.Oconst (Mir.Cc z)) ] ->
    Alcotest.(check bool) "t * 0.0 kept" false (Float.sign_bit p);
    Alcotest.(check bool) "t * -0.0 kept" true (Float.sign_bit n);
    Alcotest.(check bool) "t + (1, -0.0) kept" true (Float.sign_bit z.Complex.im)
  | _ -> Alcotest.fail "a signed-zero expression was merged"

let test_cse_same_vids_merge () =
  let held = ref [] in
  let defs =
    defs_after Masc_opt.Cse.run (fun b ->
        let t = dvar b "t" in
        (* another record of [t]'s vid: equal, not physically equal *)
        let t' = { t with Mir.vname = "t" } in
        let x = Mir.Builder.fresh_var b ~hint:"x" (Mir.Tarray (Mir.double_sty, 4)) in
        let i = Mir.Oconst (Mir.Ci 2) in
        let nan () = cf (Int64.float_of_bits (Int64.bits_of_float Float.nan)) in
        let p = dvar b "p" and l = dvar b "l" and q = dvar b "q" in
        let emit v rv = Mir.Builder.emit b (Mir.Idef (v, rv)) in
        emit p (Mir.Rbin (Mir.Bmul, Mir.Ovar t, cf 2.0));
        emit (dvar b "p2") (Mir.Rbin (Mir.Bmul, Mir.Ovar t', cf 2.0));
        emit l (Mir.Rload (x, i));
        emit (dvar b "l2") (Mir.Rload (x, i));
        emit q (Mir.Rbin (Mir.Badd, Mir.Ovar t, nan ()));
        emit (dvar b "q2") (Mir.Rbin (Mir.Badd, Mir.Ovar t', nan ()));
        held := [ p; l; q ];
        [ t; x ])
  in
  match (defs, !held) with
  | [ _; p2; _; l2; _; q2 ], [ p; l; q ] ->
    Alcotest.(check bool) "t * 2.0 merged" true (is_move_of p p2);
    Alcotest.(check bool) "x(2) merged" true (is_move_of l l2);
    Alcotest.(check bool) "t + NaN merged" true (is_move_of q q2)
  | _ -> Alcotest.fail "unexpected defs"

let test_cse_store_kills_loads () =
  let held = ref [] in
  let defs =
    defs_after Masc_opt.Cse.run (fun b ->
        let t = dvar b "t" in
        let x = Mir.Builder.fresh_var b ~hint:"x" (Mir.Tarray (Mir.double_sty, 4)) in
        let i = Mir.Oconst (Mir.Ci 2) and j = Mir.Oconst (Mir.Ci 3) in
        let l = dvar b "l" in
        let emit v rv = Mir.Builder.emit b (Mir.Idef (v, rv)) in
        emit l (Mir.Rload (x, i));
        Mir.Builder.emit b (Mir.Istore (x, j, Mir.Ovar t));
        emit (dvar b "l2") (Mir.Rload (x, i));
        emit (dvar b "s") (Mir.Rload (x, j));
        held := [ t; l ];
        [ t; x ])
  in
  match (defs, !held) with
  | [ _; l2; s ], [ t; l ] ->
    Alcotest.(check bool) "x(2) reloaded after the store" false (is_move_of l l2);
    Alcotest.(check bool) "x(2) still a load" true
      (match l2 with Mir.Rload _ -> true | _ -> false);
    Alcotest.(check bool) "x(3) forwarded from the store" true (is_move_of t s)
  | _ -> Alcotest.fail "unexpected defs"

let test_licm_hoists () =
  let f =
    lower
      ~args:[ Mtype.double; Mtype.row_vector Mtype.Double 16 ]
      "function y = f(c, x)\n\
       y = zeros(1, 16);\n\
       for i = 1:16\n\
       y(i) = x(i) * (c * 3);\n\
       end\nend"
  in
  let f' = Masc_opt.Pipeline.optimize Masc_opt.Pipeline.O2 f in
  (* the c*3 multiply must be outside every loop *)
  let in_loop = ref 0 in
  let rec scan in_l block =
    List.iter
      (fun (i : Mir.instr) ->
        match i.Mir.idesc with
        | Mir.Idef (_, Mir.Rbin (Mir.Bmul, _, Mir.Oconst (Mir.Ci 3)))
        | Mir.Idef (_, Mir.Rbin (Mir.Bmul, Mir.Oconst (Mir.Ci 3), _)) ->
          if in_l then incr in_loop
        | Mir.Iloop l -> scan true l.Mir.body
        | Mir.Iif (_, t, e) ->
          scan in_l t;
          scan in_l e
        | _ -> ())
      block
  in
  scan false f'.Mir.body;
  Alcotest.(check int) "invariant multiply hoisted" 0 !in_loop

(* Defs matching [pred] inside any loop of [f]. *)
let count_in_loops pred (f : Mir.func) =
  let n = ref 0 in
  let rec scan in_l block =
    List.iter
      (fun (i : Mir.instr) ->
        match i.Mir.idesc with
        | Mir.Idef (_, rv) -> if in_l && pred rv then incr n
        | Mir.Iloop l -> scan true l.Mir.body
        | Mir.Iif (_, t, e) ->
          scan in_l t;
          scan in_l e
        | Mir.Iwhile { cond_block; body; _ } ->
          scan true cond_block;
          scan true body
        | _ -> ())
      block
  in
  scan false f.Mir.body;
  !n

(* A chain of invariants two loops deep leaves in one licm run, so a
   second run is a no-op: the pass manager does not re-run licm after
   its own changes. O1 has no licm, so its output still holds them. *)
let test_licm_one_run () =
  let f =
    lower
      ~args:[ Mtype.double; Mtype.row_vector Mtype.Double 16 ]
      "function y = f(c, x)\n\
       y = zeros(1, 16);\n\
       for j = 1:4\n\
       for i = 1:16\n\
       t = c * 3;\n\
       u = t + 1;\n\
       v = u * 5;\n\
       y(i) = y(i) + x(i) * v;\n\
       end\n\
       end\nend"
  in
  let chain = function
    | Mir.Rbin (Mir.Bmul, _, Mir.Oconst (Mir.Ci (3 | 5)))
    | Mir.Rbin (Mir.Badd, _, Mir.Oconst (Mir.Ci 1)) ->
      true
    | _ -> false
  in
  let f1 = Masc_opt.Pipeline.optimize Masc_opt.Pipeline.O1 f in
  Alcotest.(check int) "O1 leaves the chain in the loops" 3
    (count_in_loops chain f1);
  let f2 = Masc_opt.Licm.run f1 in
  Alcotest.(check int) "one run hoists the whole chain" 0
    (count_in_loops chain f2);
  Alcotest.(check bool) "a second run is a no-op" true (Masc_opt.Licm.run f2 == f2)

(* [t] is read before its def in the body, so the first iteration sees
   the value from before the loop: hoisting [t = c * 2] would change
   [y(1)]. *)
let test_licm_read_before_def () =
  let f =
    lower
      ~args:[ Mtype.double; Mtype.row_vector Mtype.Double 8 ]
      "function y = f(c, x)\n\
       y = zeros(1, 8);\n\
       t = 0;\n\
       for i = 1:8\n\
       y(i) = t + x(i);\n\
       t = c * 2;\n\
       end\nend"
  in
  let inputs =
    [ I.Xscalar (V.Sf 5.0);
      I.xarray_of_floats (Masc_kernels.Kernels.randoms ~seed:3 8) ]
  in
  let f2 = Masc_opt.Pipeline.optimize Masc_opt.Pipeline.O2 f in
  Alcotest.(check int) "t = c * 2 stays in the loop" 1
    (count_in_loops
       (function
         | Mir.Rbin (Mir.Bmul, _, Mir.Oconst (Mir.Ci 2)) -> true
         | _ -> false)
       f2);
  match ((run_scalar f inputs).I.rets, (run_scalar f2 inputs).I.rets) with
  | [ I.Xarray a0 ], [ I.Xarray a2 ] ->
    Alcotest.(check bool) "O2 returns what O0 does" true (a0 = a2)
  | _ -> Alcotest.fail "expected one array"

(* A loop with run-time bounds may run zero times, so licm must keep a
   def whose variable is read after the loop: with [n <= 0] the loop
   never assigns [t], and [z] is [1 + y(1)], not [2c + y(1)]. Every
   level must return what the unoptimized tree-walker does, on the tree
   and on the plan, on a target with and one without SIMD. *)
let test_licm_zero_trip () =
  let source =
    "function z = f(x, n, c)\n\
     t = 1;\n\
     y = zeros(1, 8);\n\
     for i = 1:n\n\
     t = c * 2;\n\
     y(i) = x(i) * t;\n\
     end\n\
     z = t + y(1);\n\
     end"
  in
  let arg_types =
    [ Mtype.row_vector Mtype.Double 8; Mtype.int_; Mtype.double ]
  in
  let mode = Masc_asip.Cost_model.Proposed in
  let compile isa lvl =
    (Masc.Compiler.compile
       { (Masc.Compiler.proposed ~isa ()) with Masc.Compiler.opt_level = lvl }
       ~source ~entry:"f" ~arg_types)
      .Masc.Compiler.mir
  in
  List.iter
    (fun (isa : Masc_asip.Isa.t) ->
      let f0 = compile isa Masc_opt.Pipeline.O0 in
      List.iter
        (fun n ->
          let inputs =
            [ I.xarray_of_floats (Masc_kernels.Kernels.randoms ~seed:3 8);
              I.Xscalar (V.Si n); I.Xscalar (V.Sf 1.5) ]
          in
          let expected = (I.run_tree ~isa ~mode f0 inputs).I.rets in
          List.iter
            (fun (lname, lvl) ->
              let f = compile isa lvl in
              let tag engine =
                Printf.sprintf "%s n=%d %s %s" isa.Masc_asip.Isa.tname n lname
                  engine
              in
              Alcotest.(check bool) (tag "tree") true
                ((I.run_tree ~isa ~mode f inputs).I.rets = expected);
              Alcotest.(check bool) (tag "plan") true
                ((I.run ~isa ~mode f inputs).I.rets = expected))
            [ ("O0", Masc_opt.Pipeline.O0); ("O1", Masc_opt.Pipeline.O1);
              ("O2", Masc_opt.Pipeline.O2) ])
        [ -1; 0; 3; 8 ])
    [ Masc_asip.Targets.scalar; Masc_asip.Targets.dsp8 ]

let test_global_const () =
  let f =
    lower
      ~args:[ Mtype.row_vector Mtype.Double 24 ]
      "function y = f(x)\nn = length(x);\ny = 0;\nfor i = 1:n\ny = y + x(i);\nend\nend"
  in
  let f' = Masc_opt.Pipeline.optimize Masc_opt.Pipeline.O2 f in
  (* the loop bound must be the literal 24 after propagation *)
  let const_bound = ref false in
  Masc_opt.Rewrite.iter_instrs
    (fun (i : Mir.instr) ->
      match i.Mir.idesc with
      | Mir.Iloop { hi = Mir.Oconst (Mir.Ci 24); _ } -> const_bound := true
      | _ -> ())
    f';
  Alcotest.(check bool) "loop bound is a literal" true !const_bound

let test_o2_reduces_work () =
  let src =
    "function y = f(a)\n\
     n = length(a);\n\
     y = zeros(1, n);\n\
     for i = 1:n\n\
     y(i) = a(i) * 2 + a(i) * 2;\n\
     end\nend"
  in
  let f = lower ~args:[ Mtype.row_vector Mtype.Double 50 ] src in
  let o0 = run_scalar f [ I.xarray_of_floats (Masc_kernels.Kernels.randoms ~seed:9 50) ] in
  let f2 = Masc_opt.Pipeline.optimize Masc_opt.Pipeline.O2 f in
  let o2 = run_scalar f2 [ I.xarray_of_floats (Masc_kernels.Kernels.randoms ~seed:9 50) ] in
  Alcotest.(check bool)
    (Printf.sprintf "O2 (%d) cheaper than O0 (%d)" o2.I.cycles o0.I.cycles)
    true
    (o2.I.cycles < o0.I.cycles);
  (* and observably equal *)
  match (o0.I.rets, o2.I.rets) with
  | [ I.Xarray a ], [ I.Xarray b ] ->
    Array.iteri
      (fun i x ->
        if not (V.close x b.(i)) then Alcotest.failf "mismatch at %d" i)
      a
  | _ -> Alcotest.fail "expected arrays"

(* --- property: optimization preserves semantics on random programs --- *)

let gen_program : (string * int) QCheck.Gen.t =
  let open QCheck.Gen in
  let* n = int_range 4 24 in
  let* num_stmts = int_range 1 6 in
  let var i = Printf.sprintf "v%d" i in
  let rec build i acc =
    if i >= num_stmts then return (List.rev acc)
    else
      let prior = "x" :: List.init i var in
      let* src1 = oneofl prior in
      let* src2 = oneofl prior in
      let* c = int_range (-3) 9 in
      let* shape =
        oneofl
          [ Printf.sprintf "%s = %s + %s * %d;" (var i) src1 src2 c;
            Printf.sprintf "%s = %s .* %s - %d;" (var i) src1 src2 c;
            Printf.sprintf "%s = sum(%s) + %s;" (var i) src1 src2;
            Printf.sprintf "%s = %s;\nfor i = 1:%d\n%s(i) = %s(i) + %d;\nend"
              (var i) src1 n (var i) (var i) c;
            Printf.sprintf
              "if max(%s) > 0\n%s = %s + 1;\nelse\n%s = %s - 1;\nend" src1
              (var i) src1 (var i) src2 ]
      in
      build (i + 1) (shape :: acc)
  in
  let* stmts = build 0 [] in
  let body = String.concat "\n" stmts in
  let last = if num_stmts = 0 then "x" else var (num_stmts - 1) in
  return
    ( Printf.sprintf "function y = f(x)\n%s\ny = %s;\nend" body last,
      n )

let prop_opt_preserves =
  QCheck.Test.make ~count:150
    ~name:"O2 optimization preserves program results"
    (QCheck.make gen_program ~print:(fun (s, n) -> Printf.sprintf "n=%d\n%s" n s))
    (fun (src, n) ->
      let args = [ Mtype.row_vector Mtype.Double n ] in
      match lower ~args src with
      | exception Masc_frontend.Diag.Error _ -> QCheck.assume_fail ()
      | f ->
        let f2 = Masc_opt.Pipeline.optimize Masc_opt.Pipeline.O2 f in
        let inputs = [ I.xarray_of_floats (Masc_kernels.Kernels.randoms ~seed:n n) ] in
        let r0 = run_scalar f inputs in
        let r2 = run_scalar f2 inputs in
        List.for_all2
          (fun a b ->
            match (a, b) with
            | I.Xarray x, I.Xarray y ->
              Array.length x = Array.length y
              && Array.for_all2 (fun p q -> V.close p q) x y
            | I.Xscalar x, I.Xscalar y -> V.close x y
            | _ -> false)
          r0.I.rets r2.I.rets)

let prop_opt_never_slower =
  QCheck.Test.make ~count:80 ~name:"O2 never costs more cycles than O0"
    (QCheck.make gen_program ~print:(fun (s, n) -> Printf.sprintf "n=%d\n%s" n s))
    (fun (src, n) ->
      let args = [ Mtype.row_vector Mtype.Double n ] in
      match lower ~args src with
      | exception Masc_frontend.Diag.Error _ -> QCheck.assume_fail ()
      | f ->
        let f2 = Masc_opt.Pipeline.optimize Masc_opt.Pipeline.O2 f in
        let inputs = [ I.xarray_of_floats (Masc_kernels.Kernels.randoms ~seed:n n) ] in
        (run_scalar f2 inputs).I.cycles <= (run_scalar f inputs).I.cycles)

let base_suites =
  [ ( "optimizer",
      [ Alcotest.test_case "constant folding" `Quick test_const_fold;
        Alcotest.test_case "math folding" `Quick test_math_fold;
        Alcotest.test_case "dce scalars" `Quick test_dce_removes_dead;
        Alcotest.test_case "dce arrays" `Quick test_dce_removes_dead_array;
        Alcotest.test_case "cse" `Quick test_cse_merges;
        Alcotest.test_case "constant folding keeps signed zeros" `Quick
          test_const_fold_signed_zeros;
        Alcotest.test_case "cse keeps signed zeros apart" `Quick
          test_cse_signed_zeros;
        Alcotest.test_case "cse merges by vid and constant bits" `Quick
          test_cse_same_vids_merge;
        Alcotest.test_case "cse loads die at a store" `Quick
          test_cse_store_kills_loads;
        Alcotest.test_case "licm" `Quick test_licm_hoists;
        Alcotest.test_case "licm hoists chains in one run" `Quick
          test_licm_one_run;
        Alcotest.test_case "licm keeps a def read before it" `Quick
          test_licm_read_before_def;
        Alcotest.test_case "licm keeps a def a zero-trip loop skips" `Quick
          test_licm_zero_trip;
        Alcotest.test_case "global constants" `Quick test_global_const;
        Alcotest.test_case "O2 reduces cycles" `Quick test_o2_reduces_work;
        QCheck_alcotest.to_alcotest prop_opt_preserves;
        QCheck_alcotest.to_alcotest prop_opt_never_slower ] ) ]

(* --- loop fusion and pow strength reduction --- *)

let count_loops f =
  count_matching (function Mir.Iloop _ -> true | _ -> false) f

let test_fusion_merges_elementwise_chain () =
  (* y = a + b; z = y .* c produces two loops through a temp; fusion +
     store-forwarding + DCE collapse them into one loop with no temp. *)
  let src =
    "function z = f(a, b, c)\ny = a + b;\nz = y .* c;\nend"
  in
  let args = List.init 3 (fun _ -> Mtype.row_vector Mtype.Double 32) in
  let f = lower ~args src in
  let o1 = Masc_opt.Pipeline.optimize Masc_opt.Pipeline.O1 f in
  let o2 = Masc_opt.Pipeline.optimize Masc_opt.Pipeline.O2 f in
  Alcotest.(check bool)
    (Printf.sprintf "O2 has fewer loops (%d vs %d)" (count_loops o2)
       (count_loops o1))
    true
    (count_loops o2 < count_loops o1);
  (* semantics preserved *)
  let inputs =
    List.map
      (fun seed -> I.xarray_of_floats (Masc_kernels.Kernels.randoms ~seed 32))
      [ 1; 2; 3 ]
  in
  let r1 = run_scalar f inputs in
  let r2 = run_scalar o2 inputs in
  (match (r1.I.rets, r2.I.rets) with
  | [ I.Xarray a ], [ I.Xarray b ] ->
    Array.iteri
      (fun i x ->
        if not (V.close x b.(i)) then Alcotest.failf "fusion broke value %d" i)
      a
  | _ -> Alcotest.fail "expected arrays");
  Alcotest.(check bool)
    (Printf.sprintf "fused is cheaper (%d vs %d)" r2.I.cycles r1.I.cycles)
    true
    (r2.I.cycles < r1.I.cycles)

let test_fusion_respects_dependences () =
  (* The second loop reads y at a shifted index: fusing would change
     results, so the loop count must stay the same and values hold. *)
  let src =
    "function z = f(a)\n\
     y = zeros(1, 16);\n\
     z = zeros(1, 16);\n\
     for i = 1:16\ny(i) = a(i) * 2;\nend\n\
     for i = 1:16\n\
     if i > 1\nz(i) = y(i - 1);\nelse\nz(i) = 0;\nend\n\
     end\nend"
  in
  let args = [ Mtype.row_vector Mtype.Double 16 ] in
  let f = lower ~args src in
  let o2 = Masc_opt.Pipeline.optimize Masc_opt.Pipeline.O2 f in
  let inputs = [ I.xarray_of_floats (Array.init 16 float_of_int) ] in
  let r0 = run_scalar f inputs in
  let r2 = run_scalar o2 inputs in
  match (r0.I.rets, r2.I.rets) with
  | [ I.Xarray a ], [ I.Xarray b ] ->
    Array.iteri
      (fun i x ->
        if not (V.close x b.(i)) then
          Alcotest.failf "dependence broken at %d" i)
      a
  | _ -> Alcotest.fail "expected arrays"

let test_pow_strength_reduction () =
  let f = lower ~args:[ Mtype.double ] "function y = f(x)\ny = x ^ 2;\nend" in
  let f' = Masc_opt.Pipeline.optimize Masc_opt.Pipeline.O1 f in
  let pows =
    count_matching
      (function
        | Mir.Idef (_, Mir.Rbin (Mir.Bpow, _, _)) -> true
        | _ -> false)
      f'
  in
  Alcotest.(check int) "x^2 has no pow" 0 pows;
  let r = run_scalar f' [ I.Xscalar (V.Sf 7.0) ] in
  match r.I.rets with
  | [ I.Xscalar s ] -> Alcotest.(check bool) "49" true (V.close (V.Sf 49.0) s)
  | _ -> Alcotest.fail "expected scalar"

(* A straight chain of nine counted loops, built by hand so every
   rejection reason fusion has appears once:

   - L1, L2, L3 (real, 0..15): L2 reads L1's store and L3 reads both at
     the same index, so the three fuse into L1, L3 against the summary
     of L1 and L2 together;
   - L4, L5 (complex, 0..15): L4 is rejected against the real chain
     (body class) and heads a new chain that L5 joins;
   - L6, L7 (real, 0..7): L6 is rejected for its bounds; L7 defines the
     scalar [s] that L6 also defines (neither reads it), which is legal
     but leaves the chain with a variable defined twice;
   - L8, L9 (real, 0..7): L8 is rejected against that chain, which can
     no longer be summarized, and L9 joins L8.

   The fused MIR is pinned whole: the bodies in order, the induction
   variable renamed into each chain's head, and every loop's span. *)
let fusion_chain_func () =
  let module B = Mir.Builder in
  let b = B.create "chain" in
  let arr ?(sty = Mir.double_sty) name n =
    B.fresh_var b ~hint:name (Mir.Tarray (sty, n))
  in
  let x = arr "x" 16 in
  let a = arr "a" 16 and bb = arr "b" 16 and c = arr "c" 8 and d = arr "d" 8 in
  let e = arr "e" 8 and g = arr "g" 16 in
  let z = arr ~sty:Mir.complex_sty "z" 16 in
  let w = arr ~sty:Mir.complex_sty "w" 16 in
  let s = B.fresh_var b ~hint:"s" (Mir.Tscalar Mir.double_sty) in
  let ci n = Mir.Oconst (Mir.Ci n) and cf f = Mir.Oconst (Mir.Cf f) in
  let scalar hint sty = B.fresh_var b ~hint (Mir.Tscalar sty) in
  let loop line hi body =
    let ivar = scalar "i" Mir.int_sty in
    let pos = { Masc_frontend.Loc.line; col = 1; offset = 0 } in
    B.set_loc b (Masc_frontend.Loc.span pos pos);
    let i = Mir.Ovar ivar in
    let instrs = B.nested b (fun () -> body i) in
    B.emit b
      (Mir.Iloop { Mir.ivar; lo = ci 0; step = ci 1; hi = ci hi; body = instrs })
  in
  let map_into dst src op k i =
    let t = scalar "t" Mir.double_sty in
    let u = scalar "u" Mir.double_sty in
    B.emit b (Mir.Idef (t, Mir.Rload (src, i)));
    B.emit b (Mir.Idef (u, Mir.Rbin (op, Mir.Ovar t, cf k)));
    B.emit b (Mir.Istore (dst, i, Mir.Ovar u))
  in
  loop 1 15 (map_into a x Mir.Badd 1.0);
  loop 2 15 (map_into bb a Mir.Bmul 2.0);
  loop 3 15 (fun i ->
      let t = scalar "t" Mir.double_sty in
      let u = scalar "u" Mir.double_sty in
      let v = scalar "v" Mir.double_sty in
      B.emit b (Mir.Idef (t, Mir.Rload (a, i)));
      B.emit b (Mir.Idef (u, Mir.Rload (bb, i)));
      B.emit b (Mir.Idef (v, Mir.Rbin (Mir.Badd, Mir.Ovar t, Mir.Ovar u)));
      B.emit b (Mir.Istore (g, i, Mir.Ovar v)));
  loop 4 15 (fun i ->
      let t = scalar "t" Mir.double_sty in
      let zc = scalar "zc" Mir.complex_sty in
      B.emit b (Mir.Idef (t, Mir.Rload (bb, i)));
      B.emit b (Mir.Idef (zc, Mir.Rcomplex (Mir.Ovar t, cf 1.0)));
      B.emit b (Mir.Istore (z, i, Mir.Ovar zc)));
  loop 5 15 (fun i ->
      let t = scalar "zt" Mir.complex_sty in
      let p = scalar "zp" Mir.complex_sty in
      B.emit b (Mir.Idef (t, Mir.Rload (z, i)));
      B.emit b (Mir.Idef (p, Mir.Rbin (Mir.Bmul, Mir.Ovar t, Mir.Ovar t)));
      B.emit b (Mir.Istore (w, i, Mir.Ovar p)));
  loop 6 7 (fun i ->
      B.emit b (Mir.Idef (s, Mir.Rmove (cf 5.0)));
      map_into c x Mir.Bsub 3.0 i);
  loop 7 7 (fun i ->
      B.emit b (Mir.Idef (s, Mir.Rmove (cf 6.0)));
      map_into d bb Mir.Bmul 4.0 i);
  loop 8 7 (map_into e c Mir.Badd 5.0);
  loop 9 7 (fun i ->
      let t = scalar "t" Mir.double_sty in
      B.emit b (Mir.Idef (t, Mir.Rload (e, i)));
      B.emit b (Mir.Istore (d, i, Mir.Ovar t)));
  B.finish b ~params:[ x ] ~rets:[ a; bb; c; d; e; g; w; s ]

let test_fusion_chain_pinned () =
  let f = fusion_chain_func () in
  Masc_mir.Verify.check f;
  let fused = Masc_opt.Fusion.run f in
  Masc_mir.Verify.check fused;
  let lines =
    List.map
      (fun (i : Mir.instr) ->
        Printf.sprintf "line %d: %s" (Mir.line_of i)
          (Format.asprintf "%a" Masc_mir.Mir_pp.pp_instr i))
      fused.Mir.body
  in
  let expected =
    [ "line 1: for i.10 = 0 : 1 : 15 {\n\
      \  t.11 : f64 = load x.0[i.10]\n\
      \  u.12 : f64 = add t.11, 1\n\
      \  store a.1[i.10] <- u.12\n\
      \  t.14 : f64 = load a.1[i.10]\n\
      \  u.15 : f64 = mul t.14, 2\n\
      \  store b.2[i.10] <- u.15\n\
      \  t.17 : f64 = load a.1[i.10]\n\
      \  u.18 : f64 = load b.2[i.10]\n\
      \  v.19 : f64 = add t.17, u.18\n\
      \  store g.6[i.10] <- v.19\n\
       }";
      "line 4: for i.20 = 0 : 1 : 15 {\n\
      \  t.21 : f64 = load b.2[i.20]\n\
      \  zc.22 : cf64 = complex t.21, 1\n\
      \  store z.7[i.20] <- zc.22\n\
      \  zt.24 : cf64 = load z.7[i.20]\n\
      \  zp.25 : cf64 = mul zt.24, zt.24\n\
      \  store w.8[i.20] <- zp.25\n\
       }";
      "line 6: for i.26 = 0 : 1 : 7 {\n\
      \  s.9 : f64 = move 5\n\
      \  t.27 : f64 = load x.0[i.26]\n\
      \  u.28 : f64 = sub t.27, 3\n\
      \  store c.3[i.26] <- u.28\n\
      \  s.9 : f64 = move 6\n\
      \  t.30 : f64 = load b.2[i.26]\n\
      \  u.31 : f64 = mul t.30, 4\n\
      \  store d.4[i.26] <- u.31\n\
       }";
      "line 8: for i.32 = 0 : 1 : 7 {\n\
      \  t.33 : f64 = load c.3[i.32]\n\
      \  u.34 : f64 = add t.33, 5\n\
      \  store e.5[i.32] <- u.34\n\
      \  t.36 : f64 = load e.5[i.32]\n\
      \  store d.4[i.32] <- t.36\n\
       }" ]
  in
  Alcotest.(check (list string)) "fused chain" expected lines

let fusion_suites =
  [ ( "fusion+peepholes",
      [ Alcotest.test_case "fusion merges chains" `Quick
          test_fusion_merges_elementwise_chain;
        Alcotest.test_case "fusion respects dependences" `Quick
          test_fusion_respects_dependences;
        Alcotest.test_case "fusion chains pinned" `Quick
          test_fusion_chain_pinned;
        Alcotest.test_case "x^2 strength reduction" `Quick
          test_pow_strength_reduction ] ) ]

(* --- per-definition kill scans stay linear --- *)

(* One loop whose body defines [n] distinct cacheable values, each read
   once by a running sum. CSE and copy-prop kill a variable at every
   definition; a kill that scans every table entry of the segment makes
   one run quadratic in [n]. *)
let wide_loop n =
  let b = Buffer.create (n * 32) in
  Buffer.add_string b "function y = f(x)\ny = 0;\nfor i = 1:4\n";
  for k = 1 to n do
    Printf.bprintf b "t%d = x * %d + i;\ny = y + t%d;\n" k k k
  done;
  Buffer.add_string b "end\nend\n";
  lower ~args:[ Mtype.double ] (Buffer.contents b)

let minor_words_of pass f =
  ignore (pass f);
  let w0 = Gc.minor_words () in
  ignore (pass f);
  Gc.minor_words () -. w0

(* [n] elementwise statements, each one loop over the previous one's
   result: fusion merges all [n] loops into one. Re-summarizing the
   fused body after every fusion, or copying it to append the next
   body, makes one run quadratic in [n]. *)
let loop_chain n =
  let b = Buffer.create (n * 32) in
  Buffer.add_string b "function y = f(x)\nt0 = x;\n";
  for k = 1 to n do
    Printf.bprintf b "t%d = t%d .* %d + x;\n" k (k - 1) k
  done;
  Printf.bprintf b "y = t%d;\nend\n" n;
  lower ~args:[ Mtype.row_vector Mtype.Double 16 ] (Buffer.contents b)

let test_kill_scans_linear () =
  let check shape small large (name, pass) =
    let ws = minor_words_of pass small and wl = minor_words_of pass large in
    let ratio = wl /. Float.max ws 1.0 in
    if ratio > 15.0 then
      Alcotest.failf
        "%s allocates %.0f words on the large %s, %.0f on the small one: \
         %.1fx for 10x the size"
        name wl shape ws ratio
  in
  let small = wide_loop 40 and large = wide_loop 400 in
  List.iter
    (check "loop body" small large)
    [ ("cse", Masc_opt.Cse.run); ("copy-prop", Masc_opt.Copy_prop.run);
      ("dce", Masc_opt.Dce.run); ("licm", Masc_opt.Licm.run);
      ("collapse", Masc_opt.Collapse.run) ];
  check "loop chain" (loop_chain 40) (loop_chain 400)
    ("fusion", Masc_opt.Fusion.run)

(* --- no-change runs stay cheap --- *)

(* The optimized and the cleaned-up MIR of test/cli.t/large256.m
   (perfbench's generator, seed 1, program 36 of 256 statements). Every
   pass must return a fixpoint of its own stage physically, which is
   how the pass manager sees "no change", and must not allocate per
   block or per unchanged instruction doing so. Each limit is about 25%
   over the pass's count, and at least 32 words; a run that built a
   closure per block or a hash-table entry per variable exceeds it.
   CSE's available expressions live in entry arrays grown to the run's
   largest segment, not a bucket per cacheable def (8,276 and 10,812
   words per run before). The byte sets and count tables of copy-prop,
   CSE, DCE and licm are counted where they are under 256 words; above
   that they go straight to the major heap, which minor words do not
   show (EXPERIMENTS.md, "Optimizer no-change runs" and "CSE and
   copy-prop on vid-keyed tables"). *)
let no_change_limits =
  [ ("optimize", [ ("const-fold", 32); ("copy-prop", 300); ("collapse", 32);
                   ("global-const", 80); ("dce", 48); ("cse", 1950);
                   ("licm", 1150); ("fusion", 32) ]);
    ("cleanup", [ ("const-fold", 32); ("copy-prop", 43); ("cse", 910);
                  ("licm", 110); ("dce", 48) ]) ]

let test_no_change_runs_cheap () =
  let source = Gen.program ~seed:1 ~index:36 ~statements:256 in
  let c =
    Masc.Compiler.compile (Masc.Compiler.proposed ()) ~source
      ~entry:"gen036" ~arg_types:Gen.arg_types
  in
  let optimized =
    Masc_opt.Pipeline.optimize Masc_opt.Pipeline.O2 c.Masc.Compiler.mir_raw
  in
  let check stage func passes =
    let limits = List.assoc stage no_change_limits in
    List.iter
      (fun (name, pass) ->
        let limit = List.assoc name limits in
        ignore (pass func);
        let w0 = Gc.minor_words () in
        let out = pass func in
        let words = Gc.minor_words () -. w0 in
        if out != func then
          Alcotest.failf "%s: %s changed the stage's fixpoint" stage name;
        if words > float_of_int limit then
          Alcotest.failf
            "%s: a no-change %s run allocates %.0f minor words (limit %d)"
            stage name words limit)
      passes
  in
  check "optimize" optimized (Masc_opt.Pipeline.passes Masc_opt.Pipeline.O2);
  check "cleanup" c.Masc.Compiler.mir Masc.Compiler.cleanup_passes

(* The vectorizer and complex-ISE selection allocate for the code they
   emit, not per analyzed loop or per unchanged block: on the optimized
   MIR of large256.m (108 loops vectorized, 64 cmuls selected) each
   limit is about 25% over the stage's count. Their tables are built
   once per run; the use-count tables of this 1,640-variable function
   are above 256 words and so go straight to the major heap, which
   minor words do not show (EXPERIMENTS.md, "Vectorize and complex-sel
   without per-loop scaffolding"). *)
let test_vectorize_complex_sel_cheap () =
  let source = Gen.program ~seed:1 ~index:36 ~statements:256 in
  let c =
    Masc.Compiler.compile (Masc.Compiler.proposed ()) ~source
      ~entry:"gen036" ~arg_types:Gen.arg_types
  in
  let optimized =
    Masc_opt.Pipeline.optimize Masc_opt.Pipeline.O2 c.Masc.Compiler.mir_raw
  in
  let isa = Masc_asip.Targets.dsp8 in
  let words f x =
    ignore (f x);
    let w0 = Gc.minor_words () in
    let out = f x in
    (Gc.minor_words () -. w0, out)
  in
  let check stage limit w =
    if w > float_of_int limit then
      Alcotest.failf "%s allocates %.0f minor words (limit %d)" stage w limit
  in
  let wv, (vectorized, _) = words (Masc_vectorize.Vectorizer.run isa) optimized in
  check "vectorize" 63000 wv;
  let wc, _ = words (Masc_vectorize.Complex_sel.run isa) vectorized in
  check "complex-sel" 4900 wc

(* A function with nothing to vectorize or select comes back physically
   unchanged: a while loop, and a counted loop over a complex array
   whose multiply has a real operand. *)
let test_vectorize_complex_sel_share () =
  let f =
    lower
      ~args:[ Mtype.row_vector Mtype.Double 8; Mtype.int_ ]
      "function y = f(x, n)\n\
       k = 0;\ny = 0;\n\
       while k < n\ny = y + x(k + 1);\nk = k + 1;\nend\n\
       z = x * 1i;\n\
       for i = 1:8\nz(i) = z(i) * 2;\nend\n\
       y = y + real(z(n));\nend"
    |> Masc_opt.Pipeline.optimize Masc_opt.Pipeline.O2
  in
  let isa = Masc_asip.Targets.dsp8 in
  let vectorized, stats = Masc_vectorize.Vectorizer.run isa f in
  Alcotest.(check int) "no loop vectorized" 0
    (stats.Masc_vectorize.Vectorizer.map_loops
   + stats.Masc_vectorize.Vectorizer.reduction_loops);
  if vectorized != f then
    Alcotest.fail "the vectorizer rebuilt a function it did not change";
  let selected, _ = Masc_vectorize.Complex_sel.run isa f in
  if selected != f then
    Alcotest.fail "complex-ISE selection rebuilt a function it did not change"

let scaling_suites =
  [ ( "opt scaling",
      [ Alcotest.test_case "kill scans are linear" `Quick
          test_kill_scans_linear;
        Alcotest.test_case "no-change runs stay cheap" `Quick
          test_no_change_runs_cheap;
        Alcotest.test_case "vectorize and complex-sel stay cheap" `Quick
          test_vectorize_complex_sel_cheap;
        Alcotest.test_case "vectorize and complex-sel share" `Quick
          test_vectorize_complex_sel_share ] ) ]

let suites = base_suites @ fusion_suites @ scaling_suites
