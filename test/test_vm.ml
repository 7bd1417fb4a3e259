(* Simulator unit tests: scalar value semantics, intrinsic execution,
   error behaviour, histogram and verification. *)

module Mir = Masc_mir.Mir
module I = Masc_vm.Interp
module V = Masc_vm.Value
module T = Masc_asip.Targets

let test_value_coercions () =
  Alcotest.(check bool) "int to float" true (V.to_float (V.Si 3) = 3.0);
  Alcotest.(check bool) "bool to int" true (V.to_int (V.Sb true) = 1);
  Alcotest.(check bool) "float rounds to int" true (V.to_int (V.Sf 2.6) = 3);
  Alcotest.(check bool) "coerce to complex" true
    (V.coerce Mir.complex_sty (V.Sf 2.0) = V.Sc { Complex.re = 2.0; im = 0.0 });
  Alcotest.(check bool) "coerce to bool" true
    (V.coerce Mir.bool_sty (V.Sf 0.0) = V.Sb false);
  match V.coerce Mir.int_sty (V.Sc Complex.one) with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "complex into int must fail"

let test_int_rounding () =
  (* Both conversion paths into an int use MATLAB round-half-away-from-
     zero semantics; assignment coercion must agree with operand
     conversion on every value, including the .5 ties. *)
  Alcotest.(check bool) "coerce rounds 2.7 up" true
    (V.coerce Mir.int_sty (V.Sf 2.7) = V.Si 3);
  Alcotest.(check bool) "coerce rounds -2.5 away from zero" true
    (V.coerce Mir.int_sty (V.Sf (-2.5)) = V.Si (-3));
  Alcotest.(check bool) "coerce rounds 2.5 away from zero" true
    (V.coerce Mir.int_sty (V.Sf 2.5) = V.Si 3);
  Alcotest.(check bool) "coerce rounds -2.4 toward zero" true
    (V.coerce Mir.int_sty (V.Sf (-2.4)) = V.Si (-2));
  List.iter
    (fun f ->
      Alcotest.(check int)
        (Printf.sprintf "to_int and coerce agree on %g" f)
        (V.to_int (V.Sf f))
        (match V.coerce Mir.int_sty (V.Sf f) with
        | V.Si n -> n
        | _ -> Alcotest.fail "coerce into int must yield Si"))
    [ 2.7; -2.7; 2.5; -2.5; 0.5; -0.5; 1.49999; -1.49999; 0.0; 1e9 ]

let test_value_binops () =
  let f op a b = V.binop op a b in
  Alcotest.(check bool) "int add stays int" true (f Mir.Badd (V.Si 2) (V.Si 3) = V.Si 5);
  Alcotest.(check bool) "div always float" true
    (f Mir.Bdiv (V.Si 3) (V.Si 4) = V.Sf 0.75);
  Alcotest.(check bool) "idiv" true (f Mir.Bidiv (V.Si 7) (V.Si 2) = V.Si 3);
  Alcotest.(check bool) "matlab mod sign" true
    (f Mir.Bmod (V.Si (-7)) (V.Si 5) = V.Si 3);
  Alcotest.(check bool) "complex add" true
    (f Mir.Badd (V.Sc Complex.one) (V.Sf 1.0) = V.Sc { Complex.re = 2.0; im = 0.0 });
  Alcotest.(check bool) "comparison" true (f Mir.Blt (V.Si 1) (V.Sf 1.5) = V.Sb true);
  match f Mir.Blt (V.Sc Complex.one) (V.Si 1) with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "ordering on complex must fail"

let test_value_math () =
  Alcotest.(check (float 1e-12)) "sqrt" 3.0 (V.to_float (V.math "sqrt" [ V.Sf 9.0 ]));
  Alcotest.(check (float 1e-12)) "atan2" (Float.pi /. 4.0)
    (V.to_float (V.math "atan2" [ V.Sf 1.0; V.Sf 1.0 ]));
  (match V.math "exp" [ V.Sc { Complex.re = 0.0; im = Float.pi } ] with
  | V.Sc z -> Alcotest.(check (float 1e-12)) "exp(i pi)" (-1.0) z.Complex.re
  | _ -> Alcotest.fail "complex exp");
  match V.math "nonsense" [ V.Sf 1.0 ] with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "unknown math must fail"

(* Build a tiny MIR function by hand to exercise the interpreter
   surface directly. *)
let hand_built_vector_function () =
  let arr = { Mir.vname = "a"; vid = 0; vty = Mir.Tarray (Mir.double_sty, 8) } in
  let out = { Mir.vname = "y"; vid = 1; vty = Mir.Tarray (Mir.double_sty, 8) } in
  let vec_ty = Mir.Tscalar { Mir.base = Masc_sema.Mtype.Double; cplx = Masc_sema.Mtype.Real; lanes = 8 } in
  let v1 = { Mir.vname = "v"; vid = 2; vty = vec_ty } in
  let v2 = { Mir.vname = "w"; vid = 3; vty = vec_ty } in
  let body =
    List.map Mir.instr
      [ Mir.Idef (v1, Mir.Rvload (arr, Mir.Oconst (Mir.Ci 0), 8));
        Mir.Idef (v2, Mir.Rintrin ("vadd_f64x8", [ Mir.Ovar v1; Mir.Ovar v1 ]));
        Mir.Ivstore (out, Mir.Oconst (Mir.Ci 0), Mir.Ovar v2, 8) ]
  in
  { Mir.name = "vecfn"; params = [ arr ]; rets = [ out ]; body; next_vid = 4 }

let test_vector_execution () =
  let f = hand_built_vector_function () in
  Masc_mir.Verify.check f;
  let input = I.xarray_of_floats (Array.init 8 float_of_int) in
  let r = I.run ~isa:T.dsp8 ~mode:Masc_asip.Cost_model.Proposed f [ input ] in
  match r.I.rets with
  | [ I.Xarray a ] ->
    Array.iteri
      (fun i s ->
        Alcotest.(check (float 0.0))
          (Printf.sprintf "lane %d" i)
          (2.0 *. float_of_int i)
          (V.to_float s))
      a
  | _ -> Alcotest.fail "expected one array"

let test_missing_intrinsic_fails () =
  let f = hand_built_vector_function () in
  let input = I.xarray_of_floats (Array.init 8 float_of_int) in
  match I.run ~isa:T.scalar ~mode:Masc_asip.Cost_model.Proposed f [ input ] with
  | exception I.Runtime_error _ -> ()
  | _ -> Alcotest.fail "scalar target must reject vector intrinsics"

let test_bounds_checking () =
  let arr = { Mir.vname = "a"; vid = 0; vty = Mir.Tarray (Mir.double_sty, 4) } in
  let y = { Mir.vname = "y"; vid = 1; vty = Mir.Tscalar Mir.double_sty } in
  let f =
    { Mir.name = "oob"; params = [ arr ]; rets = [ y ]; next_vid = 2;
      body = [ Mir.instr (Mir.Idef (y, Mir.Rload (arr, Mir.Oconst (Mir.Ci 9)))) ] }
  in
  let input = I.xarray_of_floats [| 1.; 2.; 3.; 4. |] in
  match I.run ~isa:T.scalar ~mode:Masc_asip.Cost_model.Proposed f [ input ] with
  | exception I.Runtime_error msg ->
    Alcotest.(check bool) "mentions bounds" true
      (String.length msg > 0)
  | _ -> Alcotest.fail "expected out-of-bounds error"

let test_cycle_budget () =
  let y = { Mir.vname = "y"; vid = 0; vty = Mir.Tscalar Mir.double_sty } in
  let cond = { Mir.vname = "c"; vid = 1; vty = Mir.Tscalar Mir.bool_sty } in
  (* infinite while loop *)
  let f =
    { Mir.name = "spin"; params = []; rets = [ y ]; next_vid = 2;
      body =
        [ Mir.instr
            (Mir.Iwhile
               { cond_block =
                   [ Mir.instr (Mir.Idef (cond, Mir.Rmove (Mir.Oconst (Mir.Cb true)))) ];
                 cond = Mir.Ovar cond;
                 body =
                   [ Mir.instr
                       (Mir.Idef (y, Mir.Rbin (Mir.Badd, Mir.Ovar y, Mir.Oconst (Mir.Cf 1.0)))) ] }) ] }
  in
  (match I.run ~max_cycles:10_000 ~isa:T.scalar ~mode:Masc_asip.Cost_model.Proposed f [] with
  | exception Masc_vm.Exec.Trap { kind = Masc_vm.Exec.Cycle_limit { max_cycles }; loc; steps_executed } ->
    Alcotest.(check int) "budget in trap" 10_000 max_cycles;
    Alcotest.(check string) "trap location" "spin" loc;
    Alcotest.(check bool) "made progress" true (steps_executed > 0)
  | _ -> Alcotest.fail "expected a cycle-limit trap");
  (* The fuel budget bounds dynamic instructions even when the cycle
     budget is generous: the unbounded loop terminates with a trap. *)
  (match I.run ~fuel:5_000 ~isa:T.scalar ~mode:Masc_asip.Cost_model.Proposed f [] with
  | exception Masc_vm.Exec.Trap { kind = Masc_vm.Exec.Fuel_exhausted { fuel }; steps_executed; _ } ->
    Alcotest.(check int) "fuel in trap" 5_000 fuel;
    Alcotest.(check bool) "steps past budget" true (steps_executed > 5_000)
  | _ -> Alcotest.fail "expected a fuel trap");
  (* Both back ends trap at the same step. *)
  (match I.run_tree ~fuel:5_000 ~isa:T.scalar ~mode:Masc_asip.Cost_model.Proposed f [] with
  | exception Masc_vm.Exec.Trap { kind = Masc_vm.Exec.Fuel_exhausted _; steps_executed; _ } ->
    Alcotest.(check int) "tree-walker traps at the same step" 5_001 steps_executed
  | _ -> Alcotest.fail "expected a fuel trap from the tree-walker")

let test_histogram () =
  let src = "function y = f(a)\ny = 0;\nfor i = 1:32\ny = y + a(i) * a(i);\nend\nend" in
  let f =
    Masc_mir.Lower.lower_program
      (Masc_sema.Infer.infer_source src ~entry:"f"
         ~arg_types:[ Masc_sema.Mtype.row_vector Masc_sema.Mtype.Double 32 ])
  in
  let r =
    I.run ~isa:T.scalar ~mode:Masc_asip.Cost_model.Proposed f
      [ I.xarray_of_floats (Masc_kernels.Kernels.randoms ~seed:77 32) ]
  in
  let total = List.fold_left (fun acc (_, c) -> acc + c) 0 r.I.histogram in
  Alcotest.(check int) "histogram sums to total cycles" r.I.cycles total;
  Alcotest.(check bool) "has alu class" true
    (List.mem_assoc "alu" r.I.histogram);
  Alcotest.(check bool) "has mem class" true
    (List.mem_assoc "mem" r.I.histogram);
  Alcotest.(check bool) "has loop class" true
    (List.mem_assoc "loop" r.I.histogram)

let test_verify_catches_breakage () =
  let module MT = Masc_sema.Mtype in
  let arr = { Mir.vname = "a"; vid = 0; vty = Mir.Tarray (Mir.double_sty, 4) } in
  let y = { Mir.vname = "y"; vid = 1; vty = Mir.Tscalar Mir.double_sty } in
  let vec lanes = Mir.Tscalar { Mir.base = MT.Double; cplx = MT.Real; lanes } in
  let v8 = { Mir.vname = "v"; vid = 2; vty = vec 8 } in
  let k = { Mir.vname = "k"; vid = 3; vty = Mir.Tscalar Mir.int_sty } in
  let t = { Mir.vname = "t"; vid = 4; vty = Mir.Tscalar Mir.double_sty } in
  let v4 = { Mir.vname = "w"; vid = 5; vty = vec 4 } in
  let z = { Mir.vname = "z"; vid = 6; vty = Mir.Tscalar Mir.complex_sty } in
  let ia = { Mir.vname = "ia"; vid = 7; vty = Mir.Tarray (Mir.int_sty, 8) } in
  let za =
    { Mir.vname = "za"; vid = 8; vty = Mir.Tarray (Mir.complex_sty, 8) }
  in
  let xa = { Mir.vname = "xa"; vid = 9; vty = Mir.Tarray (Mir.double_sty, 8) } in
  let one = Mir.Oconst (Mir.Ci 1) and three = Mir.Oconst (Mir.Ci 3) in
  let zero = Mir.Oconst (Mir.Ci 0) and half = Mir.Oconst (Mir.Cf 0.5) in
  let func ?(params = [ arr ]) ?(rets = [ y ]) name body =
    { Mir.name; params; rets; body = List.map Mir.instr body; next_vid = 10 }
  in
  let loop ivar ?(lo = one) ?(hi = three) body =
    Mir.Iloop { Mir.ivar; lo; step = one; hi; body = List.map Mir.instr body }
  in
  let sum iv = Mir.Idef (y, Mir.Rbin (Mir.Badd, Mir.Ovar y, Mir.Ovar iv)) in
  (* every vector case first fills v8 (and w) from an array *)
  let load8 = Mir.Idef (v8, Mir.Rvload (xa, zero, 8)) in
  let load4 = Mir.Idef (v4, Mir.Rvload (xa, zero, 4)) in
  let v = Mir.Ovar v8 in
  let as_scalar = "vector register v.2 used as a scalar" in
  (* Each case names a fragment of the message its rule raises. *)
  let cases =
    [ (* array used as scalar operand *)
      ( "used as a scalar operand",
        func "bad1"
          [ Mir.Idef
              (y, Mir.Rbin (Mir.Badd, Mir.Ovar arr, Mir.Oconst (Mir.Cf 1.0)))
          ] );
      (* two records of one vid with different types *)
      ( "y.1 conflicts with another declaration",
        let twin = { y with Mir.vty = Mir.Tscalar Mir.complex_sty } in
        func "bad2" [ Mir.Idef (y, Mir.Rmove (Mir.Ovar twin)) ] );
      (* break outside loop *)
      ("break outside", func "bad3" [ Mir.Ibreak ]);
      (* a def's rvalue lanes differ from its target's *)
      ( "rvalue lanes 8 but target has 1",
        func "def lanes" [ load8; Mir.Idef (y, Mir.Rmove v) ] );
      (* a broadcast's width differs from its target's *)
      ( "rvalue lanes 4 but target has 8",
        func "broadcast lanes"
          [ Mir.Idef (v8, Mir.Rvbroadcast (Mir.Ovar y, 4)) ] );
      (* an int loop variable with a double bound *)
      ( "k.3 is not a real double scalar",
        func "int ivar, double bound"
          [ loop k ~hi:(Mir.Oconst (Mir.Cf 3.0)) [ sum k ] ] );
      (* a double loop variable with all-int bounds *)
      ( "t.4 is not a real int scalar",
        func "double ivar, int bounds" [ loop t [ sum t ] ] );
      (* a complex bound *)
      ( "loop bound is not a real scalar",
        func "complex bound"
          [ loop t
              ~hi:(Mir.Oconst (Mir.Cc { Complex.re = 3.0; im = 1.0 }))
              [ sum t ] ] );
      (* the body defines the loop variable *)
      ( "k.3 is defined in the loop body",
        func "body defines ivar"
          [ loop k
              [ Mir.Idef (k, Mir.Rbin (Mir.Badd, Mir.Ovar k, one)); sum k ] ]
      );
      (* every scalar position takes a lanes-1 operand *)
      ( as_scalar,
        func "vector rbin operand"
          [ load8; Mir.Idef (y, Mir.Rbin (Mir.Badd, v, half)) ] );
      ( as_scalar,
        func "vector runop operand"
          [ load8; Mir.Idef (y, Mir.Runop (Mir.Uneg, v)) ] );
      ( as_scalar,
        func "vector rmath operand"
          [ load8; Mir.Idef (y, Mir.Rmath ("sqrt", [ v ])) ] );
      ( as_scalar,
        func "vector rcomplex operand"
          [ load8; Mir.Idef (z, Mir.Rcomplex (half, v)) ] );
      ( as_scalar,
        func "vector index" [ load8; Mir.Idef (y, Mir.Rload (arr, v)) ] );
      ( as_scalar,
        func "vector base" [ load8; Mir.Idef (v8, Mir.Rvload (xa, v, 8)) ] );
      ( as_scalar,
        func "vector if condition" [ load8; Mir.Iif (v, [], []) ] );
      ( as_scalar,
        func "vector while condition"
          [ load8; Mir.Iwhile { cond_block = []; cond = v; body = [] } ] );
      ( as_scalar,
        func "vector store value" [ load8; Mir.Istore (arr, zero, v) ] );
      (as_scalar, func "vector print operand" [ load8; Mir.Iprint (None, [ v ]) ]);
      ( as_scalar,
        func "vector broadcast operand"
          [ load8; Mir.Idef (v8, Mir.Rvbroadcast (v, 8)) ] );
      ( "broadcast of a complex scalar",
        func "complex broadcast"
          [ Mir.Idef (v8, Mir.Rvbroadcast (Mir.Ovar z, 8)) ] );
      (* params and rets are never vector registers *)
      ( "parameter v.2 is a vector register",
        func "vector param" ~params:[ v8 ] [] );
      ("return v.2 is a vector register", func "vector ret" ~rets:[ v8 ] []);
      (* vector loads and stores address real-double arrays, 2+ lanes *)
      ( "ia.7 is not a real double array",
        func "int vector load" [ Mir.Idef (v8, Mir.Rvload (ia, zero, 8)) ] );
      ( "za.8 is not a real double array",
        func "complex vector store" [ load8; Mir.Ivstore (za, zero, v, 8) ] );
      ( "vstore with 1 lanes",
        func "one-lane vector store" [ Mir.Ivstore (xa, zero, Mir.Ovar y, 1) ]
      ) ]
  in
  (* The intrinsic rules come from the target's descriptor kinds; only
     the entry check knows them, so the verifier alone accepts these and
     the entry check does not. *)
  let entry_cases =
    [ (* a SIMD intrinsic gives its operands' lanes *)
      ( "rvalue lanes 8 but target has 1",
        func "simd into scalar"
          [ load8; Mir.Idef (y, Mir.Rintrin ("vadd_f64x8", [ v; v ])) ] );
      (* SIMD ops take 2 vector operands of one width, mac 3 *)
      ( "intrinsic vadd_f64x8 takes 2 operands, given 1",
        func "simd arity" [ load8; Mir.Idef (v8, Mir.Rintrin ("vadd_f64x8", [ v ])) ]
      );
      ( "mixed vector widths 8 and 4",
        func "simd widths"
          [ load8; load4;
            Mir.Idef (v8, Mir.Rintrin ("vmul_f64x8", [ v; Mir.Ovar v4 ])) ] );
      ( "vsub_f64x8: scalar where a vector is expected",
        func "simd scalar operand"
          [ load8; Mir.Idef (v8, Mir.Rintrin ("vsub_f64x8", [ v; half ])) ] );
      ( "intrinsic vmac_f64x8 takes 3 operands, given 2",
        func "mac arity"
          [ load8; Mir.Idef (v8, Mir.Rintrin ("vmac_f64x8", [ v; v ])) ] );
      (* reductions take exactly one vector *)
      ( "intrinsic vredadd_f64x8 takes 1 operands, given 2",
        func "reduce arity"
          [ load8; Mir.Idef (y, Mir.Rintrin ("vredadd_f64x8", [ v; v ])) ] );
      ( "vredmax_f64x8: scalar where a vector is expected",
        func "reduce of a scalar"
          [ Mir.Idef (y, Mir.Rintrin ("vredmax_f64x8", [ Mir.Ovar t ])) ] );
      (* complex ISEs take 2 or 3 scalars *)
      ( "intrinsic cmac_f64 takes 3 operands, given 2",
        func "cmac arity"
          [ Mir.Idef (z, Mir.Rintrin ("cmac_f64", [ Mir.Ovar z; Mir.Ovar z ]))
          ] );
      ( as_scalar,
        func "cmul of a vector"
          [ load8; Mir.Idef (z, Mir.Rintrin ("cmul_f64", [ v; Mir.Ovar z ])) ]
      );
      (* ... of complex scalars, the C's masc_cplx *)
      ( "cadd_f64: real operand where a complex one is expected",
        func "cadd of a real"
          [ Mir.Idef (z, Mir.Rintrin ("cadd_f64", [ Mir.Ovar y; Mir.Ovar z ]))
          ] );
      ( "cmac_f64: real operand where a complex one is expected",
        func "cmac of a real constant"
          [ Mir.Idef (z, Mir.Rintrin ("cmac_f64", [ Mir.Ovar z; Mir.Ovar z; half ]))
          ] );
      (* memory descriptors are spelled Rvload/Ivstore/Rvbroadcast *)
      ( "vld_f64x8: memory intrinsics are expressed as Rvload/Ivstore",
        func "memory intrinsic"
          [ load8; Mir.Idef (v8, Mir.Rintrin ("vld_f64x8", [ v ])) ] ) ]
  in
  let mentions needle msg =
    let n = String.length needle and m = String.length msg in
    let rec go i = i + n <= m && (String.sub msg i n = needle || go (i + 1)) in
    go 0
  in
  let raised run =
    match run () with
    | _ -> None
    | exception Failure msg -> Some msg
  in
  List.iter
    (fun (rule, f) ->
      match raised (fun () -> Masc_mir.Verify.check f) with
      | Some msg when mentions rule msg -> ()
      | Some msg ->
        Alcotest.failf "%s rejected for another reason: %s" f.Mir.name msg
      | None -> Alcotest.failf "verifier accepted %s" f.Mir.name)
    cases;
  List.iter
    (fun (_, f) ->
      match raised (fun () -> Masc_mir.Verify.check f) with
      | None -> ()
      | Some msg ->
        Alcotest.failf "verifier alone rejected %s: %s" f.Mir.name msg)
    entry_cases;
  (* Both engines refuse each case at their shared entry check, with
     the same message, before running anything. *)
  let isa = T.dsp8 and mode = Masc_asip.Cost_model.Proposed in
  let args = [ I.xarray_of_floats (Array.make 4 1.0) ] in
  List.iter
    (fun (rule, (f : Mir.func)) ->
      match raised (fun () -> ignore (Masc_vm.Exec.check_entry ~isa f)) with
      | None -> Alcotest.failf "entry check accepted %s" f.Mir.name
      | Some msg when not (mentions rule msg) ->
        Alcotest.failf "%s rejected for another reason: %s" f.Mir.name msg
      | Some msg ->
        Alcotest.(check (option string))
          (f.Mir.name ^ ": plan raises the entry check's message")
          (Some msg)
          (raised (fun () -> I.run ~isa ~mode f args));
        Alcotest.(check (option string))
          (f.Mir.name ^ ": tree raises the entry check's message")
          (Some msg)
          (raised (fun () -> I.run_tree ~isa ~mode f args)))
    (cases @ entry_cases)

let test_print_formats () =
  let src =
    "function y = f()\n\
     y = 1;\n\
     fprintf('int %d, float %.2f, pct %%\\n', 7, 3.14159);\n\
     fprintf('%d %d\\n', 1, 2);\n\
     disp(42);\nend"
  in
  let f =
    Masc_mir.Lower.lower_program
      (Masc_sema.Infer.infer_source src ~entry:"f" ~arg_types:[])
  in
  let r = I.run ~isa:T.scalar ~mode:Masc_asip.Cost_model.Proposed f [] in
  Alcotest.(check string) "output"
    "int 7, float 3.14, pct %\n1 2\n42 \n" r.I.output

let base_suites =
  [ ( "vm",
      [ Alcotest.test_case "value coercions" `Quick test_value_coercions;
        Alcotest.test_case "int rounding semantics" `Quick test_int_rounding;
        Alcotest.test_case "value binops" `Quick test_value_binops;
        Alcotest.test_case "value math" `Quick test_value_math;
        Alcotest.test_case "vector execution" `Quick test_vector_execution;
        Alcotest.test_case "missing intrinsic" `Quick
          test_missing_intrinsic_fails;
        Alcotest.test_case "bounds checking" `Quick test_bounds_checking;
        Alcotest.test_case "cycle budget" `Quick test_cycle_budget;
        Alcotest.test_case "histogram" `Quick test_histogram;
        Alcotest.test_case "verifier catches breakage" `Quick
          test_verify_catches_breakage;
        Alcotest.test_case "print formats" `Quick test_print_formats ] ) ]

(* --- determinism and affine analysis --- *)

let test_determinism () =
  (* Identical compile+run twice: cycles, values and histogram match
     exactly (no wall-clock or randomness anywhere). *)
  let k = Masc_kernels.Kernels.fft ~n:64 () in
  let go () =
    let c =
      Masc.Compiler.compile (Masc.Compiler.proposed ())
        ~source:k.Masc_kernels.Kernels.source
        ~entry:k.Masc_kernels.Kernels.entry
        ~arg_types:k.Masc_kernels.Kernels.arg_types
    in
    Masc.Compiler.run c (k.Masc_kernels.Kernels.inputs ())
  in
  let r1 = go () and r2 = go () in
  Alcotest.(check int) "cycles equal" r1.I.cycles r2.I.cycles;
  Alcotest.(check int) "dyn instrs equal" r1.I.dyn_instrs r2.I.dyn_instrs;
  Alcotest.(check bool) "histograms equal" true (r1.I.histogram = r2.I.histogram);
  Alcotest.(check bool) "values equal" true (r1.I.rets = r2.I.rets)

let test_affine_analysis () =
  let module A = Masc_mir.Affine in
  let iv = { Mir.vname = "i"; vid = 0; vty = Mir.Tscalar Mir.int_sty } in
  let m = { Mir.vname = "m"; vid = 1; vty = Mir.Tscalar Mir.int_sty } in
  let t1 = { Mir.vname = "t"; vid = 2; vty = Mir.Tscalar Mir.int_sty } in
  let t2 = { Mir.vname = "t"; vid = 3; vty = Mir.Tscalar Mir.int_sty } in
  let defs = Hashtbl.create 4 in
  (* t1 = i - 1; t2 = t1 * 4 + m *)
  Hashtbl.replace defs t1.Mir.vid
    (Mir.Rbin (Mir.Bsub, Mir.Ovar iv, Mir.Oconst (Mir.Ci 1)));
  Hashtbl.replace defs t2.Mir.vid
    (Mir.Rbin
       ( Mir.Badd,
         Mir.Ovar
           { Mir.vname = "x"; vid = 4; vty = Mir.Tscalar Mir.int_sty },
         Mir.Ovar m ));
  Hashtbl.replace defs 4
    (Mir.Rbin (Mir.Bmul, Mir.Ovar t1, Mir.Oconst (Mir.Ci 4)));
  (match A.analyze ~ivar:iv ~defs (Mir.Ovar t1) with
  | Some a ->
    Alcotest.(check int) "coeff of i-1" 1 a.A.coeff;
    Alcotest.(check int) "const of i-1" (-1) a.A.const
  | None -> Alcotest.fail "i-1 should be affine");
  (match A.analyze ~ivar:iv ~defs (Mir.Ovar t2) with
  | Some a ->
    Alcotest.(check int) "coeff of 4(i-1)+m" 4 a.A.coeff;
    Alcotest.(check int) "const" (-4) a.A.const;
    Alcotest.(check int) "one invariant term" 1 (List.length a.A.terms)
  | None -> Alcotest.fail "4(i-1)+m should be affine");
  (* non-affine: load-dependent *)
  let arr = { Mir.vname = "a"; vid = 5; vty = Mir.Tarray (Mir.int_sty, 4) } in
  Hashtbl.replace defs 6 (Mir.Rload (arr, Mir.Ovar iv));
  match
    A.analyze ~ivar:iv ~defs
      (Mir.Ovar { Mir.vname = "g"; vid = 6; vty = Mir.Tscalar Mir.int_sty })
  with
  | None -> ()
  | Some _ -> Alcotest.fail "load-dependent index must not be affine"

let extra_suites =
  [ ( "vm extras",
      [ Alcotest.test_case "deterministic execution" `Quick test_determinism;
        Alcotest.test_case "affine analysis" `Quick test_affine_analysis ] ) ]

(* --- plan back end: differential identity against the tree-walker --- *)

let test_hex_and_recycling_formats () =
  (* %x (satellite fix: used to print decimal), %% escapes, widths, and
     MATLAB format-string recycling when more args than conversions. *)
  let src =
    "function y = f()\n\
     y = 1;\n\
     fprintf('hex %x pad %04x pct %%\\n', 255, 10);\n\
     fprintf('%x\\n', 16, 17, 18);\n\
     end"
  in
  let f =
    Masc_mir.Lower.lower_program
      (Masc_sema.Infer.infer_source src ~entry:"f" ~arg_types:[])
  in
  let r = I.run ~isa:T.scalar ~mode:Masc_asip.Cost_model.Proposed f [] in
  Alcotest.(check string) "hex output"
    "hex ff pad 000a pct %\n10\n11\n12\n" r.I.output

(* Every kernel x target x cost mode through both back ends: the
   closure-threaded plan (I.run) must be bit-identical to the legacy
   tree-walking interpreter (I.run_tree) — cycles, dynamic instruction
   count, histogram (content AND order), printed output, return values. *)
let test_plan_tree_differential () =
  let module K = Masc_kernels.Kernels in
  let targets =
    [ ("scalar", T.scalar); ("dsp4", T.dsp4); ("dsp8", T.dsp8);
      ("dsp16", T.dsp16) ]
  in
  let modes =
    [ ("proposed", Masc_asip.Cost_model.Proposed);
      ("coder", Masc_asip.Cost_model.Coder) ]
  in
  List.iter
    (fun (k : K.kernel) ->
      List.iter
        (fun (tname, isa) ->
          List.iter
            (fun (mname, mode) ->
              let tag what =
                Printf.sprintf "%s/%s/%s %s" k.K.kname tname mname what
              in
              let c =
                Masc.Compiler.compile
                  { (Masc.Compiler.proposed ~isa ()) with
                    Masc.Compiler.mode }
                  ~source:k.K.source ~entry:k.K.entry
                  ~arg_types:k.K.arg_types
              in
              let inputs = k.K.inputs () in
              let rt = I.run_tree ~isa ~mode c.Masc.Compiler.mir inputs in
              let rp = I.run ~isa ~mode c.Masc.Compiler.mir inputs in
              Alcotest.(check int) (tag "cycles") rt.I.cycles rp.I.cycles;
              Alcotest.(check int)
                (tag "dyn instrs")
                rt.I.dyn_instrs rp.I.dyn_instrs;
              Alcotest.(check bool)
                (tag "histogram (incl. order)")
                true
                (rt.I.histogram = rp.I.histogram);
              Alcotest.(check string) (tag "output") rt.I.output rp.I.output;
              Alcotest.(check bool)
                (tag "return values")
                true
                (compare rt.I.rets rp.I.rets = 0);
              (* Elementwise check through [Value.close]: redundant with
                 the exact compare above, but localizes a divergence to
                 the offending element instead of a whole-list mismatch,
                 and guards the exact check against ever being weakened
                 to an approximate one silently. *)
              List.iteri
                (fun i (xt, xp) ->
                  match (xt, xp) with
                  | I.Xscalar a, I.Xscalar b ->
                    Alcotest.(check bool)
                      (tag (Printf.sprintf "ret %d close" i))
                      true (V.close a b)
                  | I.Xarray a, I.Xarray b ->
                    Alcotest.(check int)
                      (tag (Printf.sprintf "ret %d length" i))
                      (Array.length a) (Array.length b);
                    Array.iteri
                      (fun j x ->
                        Alcotest.(check bool)
                          (tag (Printf.sprintf "ret %d elem %d close" i j))
                          true
                          (V.close x b.(j)))
                      a
                  | _ -> Alcotest.fail (tag (Printf.sprintf "ret %d shape" i)))
                (List.combine rt.I.rets rp.I.rets))
            modes)
        targets)
    (K.all ())

let test_plan_reuse () =
  (* The plan cached in a compilation is reusable: running the same
     compiled kernel twice gives identical results (state is per-run,
     not per-plan). *)
  let module K = Masc_kernels.Kernels in
  let k = K.fir ~n:128 ~m:16 () in
  let c =
    Masc.Compiler.compile (Masc.Compiler.proposed ()) ~source:k.K.source
      ~entry:k.K.entry ~arg_types:k.K.arg_types
  in
  let inputs = k.K.inputs () in
  let r1 = Masc.Compiler.run c inputs in
  let r2 = Masc.Compiler.run c inputs in
  Alcotest.(check int) "cycles equal" r1.I.cycles r2.I.cycles;
  Alcotest.(check bool) "histograms equal" true (r1.I.histogram = r2.I.histogram);
  Alcotest.(check bool) "values equal" true (compare r1.I.rets r2.I.rets = 0)

(* Bitwise view of a run's returns, so -0.0 counts. NaNs compare equal,
   as under [compare]: which payload a NaN carries depends on the
   operand order the native code generator picks, which OCaml leaves
   unspecified. *)
let ret_bits (r : I.result) =
  let fbits f =
    if Float.is_nan f then 0x7FF8000000000000L else Int64.bits_of_float f
  in
  let bits = function
    | V.Sf f -> [ fbits f ]
    | V.Sc z -> [ fbits z.Complex.re; fbits z.Complex.im ]
    | V.Si n -> [ 1L; Int64.of_int n ]
    | V.Sb b -> [ 2L; (if b then 1L else 0L) ]
  in
  List.map
    (function
      | I.Xscalar s -> bits s
      | I.Xarray a -> List.concat_map bits (Array.to_list a))
    r.I.rets

(* The plan's run [rp] must equal the tree-walker's [rt] bit for bit. *)
let check_same tag (rt : I.result) (rp : I.result) =
  Alcotest.(check int) (tag "cycles") rt.I.cycles rp.I.cycles;
  Alcotest.(check int) (tag "dyn instrs") rt.I.dyn_instrs rp.I.dyn_instrs;
  Alcotest.(check bool) (tag "histogram (incl. order)") true
    (rt.I.histogram = rp.I.histogram);
  List.iteri
    (fun i (a, b) ->
      Alcotest.(check (list int64)) (tag (Printf.sprintf "ret %d" i)) a b)
    (List.combine (ret_bits rt) (ret_bits rp))

(* Every fused definition shape the plan compiles, on operand mixes no
   paper kernel reaches: real-double arithmetic over double/int/bool
   registers and constants, complex add/sub/mul with a real operand on
   either side, complex(re, im) from int/bool, the complex ISEs on a
   complex register and constant, moves, loads, re/im/conj, atan2 and both reduction
   forms; and the vector shapes: the six SIMD binops and mac on lane
   buffers in both operand orders, and broadcasts of a double, int
   and bool register, stored to a returned array. The inputs put
   signed zeros, NaN, infinities and subnormals in the lanes, so the
   plan's lane operator is pinned to [V.binop] (min/max on -0.0 and
   NaN included). The plan must match the tree-walker bit for bit on
   each input set. *)
let fused_shapes_function () =
  let module MT = Masc_sema.Mtype in
  let nvars = ref 0 and vars = ref [] in
  let var name vty =
    incr nvars;
    let v = { Mir.vname = name; vid = !nvars; vty } in
    vars := v :: !vars;
    v
  in
  let x = var "x" (Mir.Tscalar Mir.double_sty)
  and n = var "n" (Mir.Tscalar Mir.int_sty)
  and b = var "b" (Mir.Tscalar Mir.bool_sty)
  and z = var "z" (Mir.Tscalar Mir.complex_sty)
  and xs = var "xs" (Mir.Tarray (Mir.double_sty, 8))
  and zs = var "zs" (Mir.Tarray (Mir.complex_sty, 4))
  and ws = var "ws" (Mir.Tarray (Mir.double_sty, 8)) in
  let params = [ x; n; b; z; xs; zs; ws ] in
  let reals =
    [ Mir.Ovar x; Mir.Ovar n; Mir.Ovar b; Mir.Oconst (Mir.Cf (-2.5));
      Mir.Oconst (Mir.Ci 3); Mir.Oconst (Mir.Cb true) ]
  in
  let cplx = Mir.Ovar z :: reals in
  let defs = ref [] in
  let def sty rv =
    let d = var (Printf.sprintf "t%d" !nvars) (Mir.Tscalar sty) in
    defs := Mir.instr (Mir.Idef (d, rv)) :: !defs;
    d
  in
  let pairs l = List.concat_map (fun a -> List.map (fun b -> (a, b)) l) l in
  List.iter
    (fun op ->
      List.iter
        (fun (a, c) -> ignore (def Mir.double_sty (Mir.Rbin (op, a, c))))
        (pairs reals))
    [ Mir.Badd; Mir.Bsub; Mir.Bmul; Mir.Bdiv; Mir.Bpow; Mir.Bmod ];
  List.iter
    (fun op ->
      List.iter
        (fun r ->
          ignore (def Mir.complex_sty (Mir.Rbin (op, Mir.Ovar z, r)));
          ignore (def Mir.complex_sty (Mir.Rbin (op, r, Mir.Ovar z))))
        cplx)
    [ Mir.Badd; Mir.Bsub; Mir.Bmul ];
  List.iter
    (fun (re, im) -> ignore (def Mir.complex_sty (Mir.Rcomplex (re, im))))
    (pairs reals);
  let complexes =
    [ Mir.Ovar z; Mir.Oconst (Mir.Cc { Complex.re = -2.5; im = 0.5 }) ]
  in
  List.iter
    (fun (a, c) ->
      ignore (def Mir.complex_sty (Mir.Rintrin ("cmul_f64", [ a; c ])));
      ignore (def Mir.complex_sty (Mir.Rintrin ("cadd_f64", [ a; c ])));
      List.iter
        (fun acc ->
          ignore (def Mir.complex_sty (Mir.Rintrin ("cmac_f64", [ acc; a; c ]))))
        complexes)
    (pairs complexes);
  List.iter (fun o -> ignore (def Mir.complex_sty (Mir.Rmove o))) cplx;
  ignore (def Mir.double_sty (Mir.Rmove (Mir.Ovar x)));
  List.iter
    (fun u -> ignore (def Mir.double_sty (Mir.Runop (u, Mir.Ovar x))))
    [ Mir.Uneg; Mir.Uabs; Mir.Ure; Mir.Uconj ];
  List.iter
    (fun o ->
      ignore (def Mir.double_sty (Mir.Runop (Mir.Ure, o)));
      ignore (def Mir.double_sty (Mir.Runop (Mir.Uim, o))))
    cplx;
  ignore (def Mir.complex_sty (Mir.Runop (Mir.Uconj, Mir.Ovar z)));
  List.iter
    (fun (a, c) -> ignore (def Mir.double_sty (Mir.Rmath ("atan2", [ a; c ]))))
    (pairs reals);
  ignore (def Mir.double_sty (Mir.Rload (xs, Mir.Ovar n)));
  ignore (def Mir.complex_sty (Mir.Rload (zs, Mir.Oconst (Mir.Ci 2))));
  let vec = { Mir.base = MT.Double; cplx = MT.Real; lanes = 8 } in
  let v = def vec (Mir.Rvload (xs, Mir.Oconst (Mir.Ci 0), 8))
  and w = def vec (Mir.Rvload (ws, Mir.Oconst (Mir.Ci 0), 8)) in
  List.iter
    (fun u ->
      List.iter
        (fun r -> ignore (def Mir.double_sty (Mir.Rvreduce (r, Mir.Ovar u))))
        [ Mir.Vsum; Mir.Vprod; Mir.Vmin; Mir.Vmax ];
      List.iter
        (fun name ->
          ignore (def Mir.double_sty (Mir.Rintrin (name, [ Mir.Ovar u ]))))
        [ "vredadd_f64x8"; "vredmin_f64x8"; "vredmax_f64x8" ])
    [ v; w ];
  let vecs =
    List.concat_map
      (fun name ->
        List.map
          (fun (a, c) ->
            def vec (Mir.Rintrin (name, [ Mir.Ovar a; Mir.Ovar c ])))
          [ (v, w); (w, v); (v, v) ])
      [ "vadd_f64x8"; "vsub_f64x8"; "vmul_f64x8"; "vdiv_f64x8"; "vmin_f64x8";
        "vmax_f64x8" ]
    @ List.map
        (fun (acc, a, c) ->
          def vec
            (Mir.Rintrin
               ("vmac_f64x8", [ Mir.Ovar acc; Mir.Ovar a; Mir.Ovar c ])))
        [ (v, w, v); (w, v, w) ]
    @ List.map (fun r -> def vec (Mir.Rvbroadcast (Mir.Ovar r, 8))) [ x; n; b ]
  in
  let vo = var "vo" (Mir.Tarray (Mir.double_sty, 8 * List.length vecs)) in
  List.iteri
    (fun j u ->
      defs :=
        Mir.instr (Mir.Ivstore (vo, Mir.Oconst (Mir.Ci (8 * j)), Mir.Ovar u, 8))
        :: !defs)
    vecs;
  let all_vars = List.rev !vars in
  { Mir.name = "fused"; params;
    rets =
      List.filter
        (fun v -> (not (List.memq v params)) && (Mir.elem_ty v).Mir.lanes = 1)
        all_vars;
    body = List.rev !defs; next_vid = !nvars + 1 }

let test_fused_shapes () =
  let f = fused_shapes_function () in
  ignore (Masc_vm.Exec.check_entry ~isa:T.dsp8 f);
  let c re im = V.Sc { Complex.re; im } in
  let inputs (x, n, b, z, xs, zs, ws) =
    [ I.Xscalar (V.Sf x); I.Xscalar (V.Si n); I.Xscalar (V.Sb b);
      I.Xscalar z; I.xarray_of_floats xs; I.Xarray zs; I.xarray_of_floats ws ]
  in
  let sets =
    [ ( 1.75, 2, true, c 0.5 (-1.25),
        [| 3.; -1.; 4.; 1.; -5.; 9.; 2.; -6. |],
        [| c 1. 2.; c (-3.) 0.5; c 0.25 (-8.); c 7. 7. |],
        [| 0.5; -1.; 8.; 1.; 5.; -9.; 3.; -6. |] );
      ( -0.0, 0, false, c 0. (-0.),
        [| -0.; 0.; 1e-310; -1e-310; 0.; 0.; -0.; 0. |],
        [| c 0. 0.; c (-0.) 0.; c 1e308 1e308; c 0. 1. |],
        [| 0.; -0.; -1e-310; 1e-310; -0.; 0.; -0.; 5e-324 |] );
      ( -7.5, 5, true, c Float.infinity Float.nan,
        [| 1e308; 1e308; -1e308; Float.nan; 0.5; 2.; Float.infinity; 1. |],
        [| c Float.nan 0.; c (-1.) (-1.); c 2. 3.; c 1e-300 (-1e300) |],
        [| Float.nan; 1e308; Float.neg_infinity; 1.; Float.nan; -0.;
           Float.infinity; Float.nan |] ) ]
  in
  List.iter
    (fun (mname, mode) ->
      List.iteri
        (fun k set ->
          let tag what = Printf.sprintf "dsp8/%s set %d %s" mname k what in
          let args = inputs set in
          check_same tag
            (I.run_tree ~isa:T.dsp8 ~mode f args)
            (I.run ~isa:T.dsp8 ~mode f args))
        sets)
    [ ("proposed", Masc_asip.Cost_model.Proposed);
      ("coder", Masc_asip.Cost_model.Coder) ]

(* The boxed paths beside the plan's fast paths, one instruction per
   function so that a raising shape masks no other: a definition into
   each register bank of every binary and unary operator, five math
   builtins, moves, [complex(re, im)], the complex intrinsics and a
   load from each array bank, over double/int/bool/complex registers
   and constants, plus a store of each operand kind into each array
   bank. No paper kernel reaches most of these shapes. The plan must
   match the tree-walker bit for bit, and raise the same message
   wherever the tree-walker raises. *)
let fallback_functions () =
  let var vid vname vty = { Mir.vname; vid; vty } in
  let x = var 1 "x" (Mir.Tscalar Mir.double_sty)
  and n = var 2 "n" (Mir.Tscalar Mir.int_sty)
  and b = var 3 "b" (Mir.Tscalar Mir.bool_sty)
  and z = var 4 "z" (Mir.Tscalar Mir.complex_sty)
  and xs = var 5 "xs" (Mir.Tarray (Mir.double_sty, 4))
  and ns = var 6 "ns" (Mir.Tarray (Mir.int_sty, 4))
  and bs = var 7 "bs" (Mir.Tarray (Mir.bool_sty, 4))
  and zs = var 8 "zs" (Mir.Tarray (Mir.complex_sty, 4)) in
  let params = [ x; n; b; z; xs; ns; bs; zs ] in
  let arrays = [ xs; ns; bs; zs ] in
  let func ret desc =
    { Mir.name = "fallback"; params; rets = [ ret ]; body = [ Mir.instr desc ];
      next_vid = 10 }
  in
  let operands =
    [ Mir.Ovar x; Mir.Ovar n; Mir.Ovar b; Mir.Ovar z;
      Mir.Oconst (Mir.Cf (-2.5)); Mir.Oconst (Mir.Ci 3);
      Mir.Oconst (Mir.Cb true);
      Mir.Oconst (Mir.Cc { Complex.re = 1.5; im = 0.0 }) ]
  in
  let pairs =
    List.concat_map (fun a -> List.map (fun c -> (a, c)) operands) operands
  in
  let rvalues =
    List.concat_map
      (fun op -> List.map (fun (a, c) -> Mir.Rbin (op, a, c)) pairs)
      [ Mir.Badd; Mir.Bsub; Mir.Bmul; Mir.Bdiv; Mir.Bpow; Mir.Bidiv;
        Mir.Bmod; Mir.Bmin; Mir.Bmax; Mir.Blt; Mir.Ble; Mir.Bgt; Mir.Bge;
        Mir.Beq; Mir.Bne; Mir.Band; Mir.Bor ]
    @ List.concat_map
        (fun u -> List.map (fun a -> Mir.Runop (u, a)) operands)
        [ Mir.Uneg; Mir.Unot; Mir.Uabs; Mir.Ure; Mir.Uim; Mir.Uconj ]
    @ List.concat_map
        (fun m -> List.map (fun a -> Mir.Rmath (m, [ a ])) operands)
        [ "exp"; "sqrt"; "log"; "cos"; "sin" ]
    @ List.map (fun a -> Mir.Rmove a) operands
    @ List.map (fun (a, c) -> Mir.Rcomplex (a, c)) pairs
    @ List.concat_map
        (fun (a, c) ->
          [ Mir.Rintrin ("cmul_f64", [ a; c ]);
            Mir.Rintrin ("cadd_f64", [ a; c ]);
            Mir.Rintrin ("cmac_f64", [ Mir.Ovar z; a; c ]) ])
        (List.filter
           (fun (a, c) ->
             (Mir.operand_sty a).Mir.cplx = Masc_sema.Mtype.Complex
             && (Mir.operand_sty c).Mir.cplx = Masc_sema.Mtype.Complex)
           pairs)
    @ List.concat_map
        (fun arr ->
          [ Mir.Rload (arr, Mir.Ovar n);
            Mir.Rload (arr, Mir.Oconst (Mir.Ci 1)) ])
        arrays
  in
  List.concat_map
    (fun sty ->
      List.map
        (fun rv ->
          let d = var 9 "d" (Mir.Tscalar sty) in
          func d (Mir.Idef (d, rv)))
        rvalues)
    [ Mir.double_sty; Mir.int_sty; Mir.bool_sty; Mir.complex_sty ]
  @ List.concat_map
      (fun arr ->
        List.map (fun o -> func arr (Mir.Istore (arr, Mir.Ovar n, o))) operands)
      arrays

let test_fallbacks () =
  let c re im = V.Sc { Complex.re; im } in
  let floats a = I.xarray_of_floats a in
  let sets =
    [ [ I.Xscalar (V.Sf 1.75); I.Xscalar (V.Si 2); I.Xscalar (V.Sb true);
        I.Xscalar (c 0.5 0.0); floats [| 3.; -1.; 4.; 0.5 |];
        I.Xarray [| V.Si 7; V.Si (-2); V.Si 0; V.Si 5 |];
        I.Xarray [| V.Sb true; V.Sb false; V.Sb true; V.Sb false |];
        I.Xarray [| c 1. 2.; c (-3.) 0.5; c 0.25 0.; c 7. 7. |] ];
      [ I.Xscalar (V.Sf (-0.0)); I.Xscalar (V.Si 0); I.Xscalar (V.Sb false);
        I.Xscalar (c (-0.) (-0.)); floats [| -0.; 1e-310; Float.nan; 0. |];
        I.Xarray [| V.Si 0; V.Si max_int; V.Si min_int; V.Si 1 |];
        I.Xarray [| V.Sb false; V.Sb false; V.Sb false; V.Sb true |];
        I.Xarray [| c 0. (-0.); c Float.nan 0.; c 1e308 1e308; c 0. 1. |] ];
      [ I.Xscalar (V.Sf Float.infinity); I.Xscalar (V.Si 5);
        I.Xscalar (V.Sb true); I.Xscalar (c (-2.5) 1.5);
        floats [| 1e308; -1e308; 2.; Float.neg_infinity |];
        I.Xarray [| V.Si (-4); V.Si 3; V.Si 9; V.Si 2 |];
        I.Xarray [| V.Sb true; V.Sb true; V.Sb false; V.Sb true |];
        I.Xarray [| c 1e-300 (-1e300); c (-1.) (-1.); c 2. 3.; c 4. 0. |] ] ]
  in
  let isa = T.dsp8 and mode = Masc_asip.Cost_model.Proposed in
  let outcome run =
    match run () with r -> Ok r | exception e -> Error (Printexc.to_string e)
  in
  List.iter
    (fun (f : Mir.func) ->
      let shape =
        Format.asprintf "%a" Masc_mir.Mir_pp.pp_instr (List.hd f.Mir.body)
      in
      (* every shape is verified MIR: a run that fails must fail in
         the engines, not at their shared entry check *)
      (match Masc_vm.Exec.check_entry ~isa f with
      | _ -> ()
      | exception Failure msg -> Alcotest.failf "%s: %s" shape msg);
      List.iteri
        (fun k args ->
          let tag what = Printf.sprintf "%s set %d %s" shape k what in
          match
            ( outcome (fun () -> I.run_tree ~isa ~mode f args),
              outcome (fun () -> I.run ~isa ~mode f args) )
          with
          | Ok rt, Ok rp -> check_same tag rt rp
          | Error et, Error ep -> Alcotest.(check string) (tag "error") et ep
          | Ok _, Error e ->
            Alcotest.failf "%s set %d: only the plan raised %s" shape k e
          | Error e, Ok _ ->
            Alcotest.failf "%s set %d: only the tree raised %s" shape k e)
        sets)
    (fallback_functions ())

(* Minor words one [Plan.execute] allocates on each of the 36 cases of
   the [simulate] workload: the six kernels under the proposed flow on
   scalar, dsp4, dsp8 and dsp16 and under the coder baseline, and at 4x
   size on dsp8. Each is pinned at its exact count (194,301 words in
   all), at which no vector or complex shape these cases run allocates
   per lane or per iteration; what is left is mostly the boxed
   argument/return boundary. A fused closure that boxes a float,
   or a lane operator taken as a closure, raises these while every
   differential test stays green. The width invariant says the same
   thing per kernel: a vectorized fir, matmul or xcorr allocates at most
   1.25x its scalar-target run. *)
let test_plan_allocation_pin () =
  let module K = Masc_kernels.Kernels in
  let module C = Masc.Compiler in
  let words (config : C.config) (k : K.kernel) =
    let c =
      C.compile config ~source:k.K.source ~entry:k.K.entry
        ~arg_types:k.K.arg_types
    in
    let p =
      Masc_vm.Plan.compile ~isa:config.C.isa ~mode:config.C.mode c.C.mir
    in
    let inputs = k.K.inputs () in
    ignore (Masc_vm.Plan.execute p inputs);
    let w0 = Gc.minor_words () in
    ignore (Masc_vm.Plan.execute p inputs);
    Gc.minor_words () -. w0
  in
  let check what words limit =
    if words > limit then
      Alcotest.failf "%s: %.0f minor words per run, pinned at %.0f" what words
        limit
  in
  let configs =
    [ C.proposed ~isa:T.scalar (); C.proposed ~isa:T.dsp4 ();
      C.proposed ~isa:T.dsp8 (); C.proposed ~isa:T.dsp16 ();
      C.coder_baseline () ]
  in
  let limits =
    [ ("fir", [ 4_318.; 4_371.; 4_387.; 4_419.; 4_323. ]);
      ("iir", [ 4_463.; 4_500.; 4_510.; 4_526.; 4_476. ]);
      ("fft", [ 2_535.; 2_577.; 2_577.; 2_577.; 2_563. ]);
      ("matmul", [ 4_414.; 4_478.; 4_502.; 4_550.; 4_426. ]);
      ("xcorr", [ 2_174.; 2_227.; 2_243.; 2_275.; 2_179. ]);
      ("fmdemod", [ 4_446.; 4_538.; 4_542.; 4_550.; 4_493. ]) ]
  in
  List.iter
    (fun (k : K.kernel) ->
      let counts = List.map (fun config -> words config k) configs in
      List.iter2
        (fun ((config : C.config), w) limit ->
          check
            (Printf.sprintf "%s/%s/%s" k.K.kname
               config.C.isa.Masc_asip.Isa.tname
               (if config.C.mode = Masc_asip.Cost_model.Coder then "coder"
                else "proposed"))
            w limit)
        (List.combine configs counts)
        (List.assoc k.K.kname limits);
      if List.mem k.K.kname [ "fir"; "matmul"; "xcorr" ] then
        match counts with
        | scalar :: d4 :: d8 :: d16 :: _ ->
          List.iter2
            (fun isa w ->
              check
                (Printf.sprintf "%s/%s against 1.25x scalar" k.K.kname isa)
                w (1.25 *. scalar))
            [ "dsp4"; "dsp8"; "dsp16" ] [ d4; d8; d16 ]
        | _ -> assert false)
    (K.all ());
  List.iter2
    (fun (k : K.kernel) limit ->
      check (k.K.kname ^ "-4x/dsp8")
        (words (C.proposed ~isa:T.dsp8 ()) k)
        limit)
    [ K.fir ~n:4096 (); K.iir ~n:4096 (); K.fft ~n:1024 (); K.matmul ~n:64 ();
      K.xcorr ~n:2048 (); K.fmdemod ~n:4096 () ]
    [ 16_675.; 16_798.; 5_662.; 16_790.; 8_387.; 16_830. ]

(* Comparisons follow IEEE 754, as the emitted C does: every ordered
   comparison with a NaN is false and NaN ~= NaN is true. Each bit of
   [y] is one operator, so [y] = 1 only when all six agree with C; a
   total order on floats (NaN equal to itself, below everything) reads
   46. At O2 the NaN is a folded constant, so the folder is checked
   too. *)
let test_nan_comparisons () =
  let source =
    "function y = nancmp(x)\n\
     z = x - x;\n\
     q = z / z;\n\
     y = (q ~= q) + 2 * (q == q) + 4 * (q < 1) + 8 * (q <= 1) \
     + 16 * (q > 1) + 32 * (q >= q);\n\
     end"
  in
  List.iter
    (fun (lname, lvl) ->
      let c =
        Masc.Compiler.compile
          { (Masc.Compiler.proposed ()) with Masc.Compiler.opt_level = lvl }
          ~source ~entry:"nancmp" ~arg_types:[ Masc_sema.Mtype.double ]
      in
      let inputs = [ I.Xscalar (V.Sf 3.0) ] in
      let isa = T.dsp8 and mode = Masc_asip.Cost_model.Proposed in
      let ret (r : I.result) =
        match r.I.rets with
        | [ I.Xscalar v ] -> V.to_float v
        | _ -> Alcotest.fail "expected one scalar return"
      in
      Alcotest.(check (float 0.0)) (lname ^ " tree") 1.0
        (ret (I.run_tree ~isa ~mode c.Masc.Compiler.mir inputs));
      Alcotest.(check (float 0.0)) (lname ^ " plan") 1.0
        (ret (I.run ~isa ~mode c.Masc.Compiler.mir inputs)))
    [ ("O0", Masc_opt.Pipeline.O0); ("O2", Masc_opt.Pipeline.O2) ]

(* The compile-large programs of seed 1, from the benchmark's own
   generator: every function the compiler emits for them on dsp8 and
   dsp16 passes the entry check on its target, which the compiler runs
   on its final MIR, and again on that MIR when it is handed to the
   engines. *)
let test_generated_entry_check () =
  List.iter
    (fun (isa : Masc_asip.Isa.t) ->
      List.iter
        (fun (entry, _, source) ->
          let c =
            Masc.Compiler.compile
              (Masc.Compiler.proposed ~isa ())
              ~source ~entry ~arg_types:Gen.arg_types
          in
          match Masc_vm.Exec.check_entry ~isa c.Masc.Compiler.mir with
          | _ -> ()
          | exception Failure msg ->
            Alcotest.failf "%s on %s: %s" entry isa.Masc_asip.Isa.tname msg)
        (Gen.pool ~seed:1))
    [ T.dsp8; T.dsp16 ]

(* The compiler's one check is the target's entry check. A pass that
   turns every add into a two-operand cmac leaves final MIR that the
   target-free verifier accepts. On scalar, which has no cmac, the
   entry check accepts it too and the call stays a run-time error. On
   dsp8 it is refused: [Compiler.compile] must raise the entry check's
   message rather than emit the call. *)
let test_compile_checks_target () =
  let to_cmac =
    Masc_opt.Rewrite.map_rvalues (function
      | Mir.Rbin (Mir.Badd, a, b) -> Mir.Rintrin ("cmac_f64", [ a; b ])
      | rv -> rv)
  in
  let compile isa =
    Masc.Compiler.compile ~passes:[ ("to-cmac", to_cmac) ]
      (Masc.Compiler.proposed ~isa ())
      ~source:"function y = f(x)\ny = x * 2 + 1;\nend" ~entry:"f"
      ~arg_types:[ Masc_sema.Mtype.double ]
  in
  let mir = (compile T.scalar).Masc.Compiler.mir in
  Masc_mir.Verify.check mir;
  let expected =
    match Masc_vm.Exec.check_entry ~isa:T.dsp8 mir with
    | _ -> Alcotest.fail "dsp8's entry check accepted a two-operand cmac"
    | exception Failure msg -> msg
  in
  Alcotest.(check bool) "refused for its arity" true
    (String.ends_with ~suffix:"intrinsic cmac_f64 takes 3 operands, given 2"
       expected);
  match compile T.dsp8 with
  | _ -> Alcotest.fail "compile emitted a two-operand cmac on dsp8"
  | exception Failure msg ->
    Alcotest.(check string) "compile raises the entry check's message"
      expected msg

let plan_suites =
  [ ( "vm plan",
      [ Alcotest.test_case "hex and recycling formats" `Quick
          test_hex_and_recycling_formats;
        Alcotest.test_case "plan vs tree differential" `Slow
          test_plan_tree_differential;
        Alcotest.test_case "plan reuse" `Quick test_plan_reuse;
        Alcotest.test_case "fused shapes vs tree" `Quick test_fused_shapes;
        Alcotest.test_case "fallbacks vs tree" `Quick test_fallbacks;
        Alcotest.test_case "plan allocation pin" `Quick
          test_plan_allocation_pin;
        Alcotest.test_case "IEEE NaN comparisons" `Quick test_nan_comparisons;
        Alcotest.test_case "generated programs pass the entry check" `Quick
          test_generated_entry_check;
        Alcotest.test_case "compile runs the target's entry check" `Quick
          test_compile_checks_target ] ) ]

let suites = base_suites @ extra_suites @ plan_suites
