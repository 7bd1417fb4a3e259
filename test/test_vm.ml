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
  { Mir.name = "vecfn"; params = [ arr ]; rets = [ out ];
    vars = [ arr; out; v1; v2 ]; body }

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
    { Mir.name = "oob"; params = [ arr ]; rets = [ y ]; vars = [ arr; y ];
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
    { Mir.name = "spin"; params = []; rets = [ y ]; vars = [ y; cond ];
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
  let arr = { Mir.vname = "a"; vid = 0; vty = Mir.Tarray (Mir.double_sty, 4) } in
  let y = { Mir.vname = "y"; vid = 1; vty = Mir.Tscalar Mir.double_sty } in
  let bad_cases =
    [ (* array used as scalar operand *)
      { Mir.name = "bad1"; params = [ arr ]; rets = [ y ]; vars = [ arr; y ];
        body = [ Mir.instr (Mir.Idef (y, Mir.Rbin (Mir.Badd, Mir.Ovar arr, Mir.Oconst (Mir.Cf 1.0)))) ] };
      (* undeclared variable *)
      { Mir.name = "bad2"; params = []; rets = [ y ]; vars = [ y ];
        body =
          [ Mir.instr
              (Mir.Idef (y, Mir.Rmove (Mir.Ovar { Mir.vname = "ghost"; vid = 99; vty = Mir.Tscalar Mir.double_sty }))) ] };
      (* break outside loop *)
      { Mir.name = "bad3"; params = []; rets = [ y ]; vars = [ y ];
        body = [ Mir.instr Mir.Ibreak ] } ]
  in
  List.iter
    (fun f ->
      match Masc_mir.Verify.check_result f with
      | Error _ -> ()
      | Ok () -> Alcotest.failf "verifier accepted %s" f.Mir.name)
    bad_cases

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

(* Every fused definition shape the plan compiles, on operand mixes no
   paper kernel reaches: real-double arithmetic over double/int/bool
   registers and constants, complex add/sub/mul with a real operand on
   either side, complex(re, im) from int/bool, the complex ISEs with
   mixed operands, moves, loads and both reduction forms. The plan must
   match the tree-walker bit for bit on each input set. *)
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
  and zs = var "zs" (Mir.Tarray (Mir.complex_sty, 4)) in
  let params = [ x; n; b; z; xs; zs ] in
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
  List.iter
    (fun (a, c) ->
      ignore (def Mir.complex_sty (Mir.Rintrin ("cmul_f64", [ a; c ])));
      ignore (def Mir.complex_sty (Mir.Rintrin ("cadd_f64", [ a; c ])));
      List.iter
        (fun acc ->
          ignore (def Mir.complex_sty (Mir.Rintrin ("cmac_f64", [ acc; a; c ]))))
        [ Mir.Ovar z; Mir.Ovar x; Mir.Ovar n; Mir.Ovar b ])
    (pairs cplx);
  List.iter (fun o -> ignore (def Mir.complex_sty (Mir.Rmove o))) cplx;
  ignore (def Mir.double_sty (Mir.Rmove (Mir.Ovar x)));
  List.iter
    (fun u -> ignore (def Mir.double_sty (Mir.Runop (u, Mir.Ovar x))))
    [ Mir.Uneg; Mir.Uabs; Mir.Ure; Mir.Uconj ];
  ignore (def Mir.double_sty (Mir.Rload (xs, Mir.Ovar n)));
  ignore (def Mir.complex_sty (Mir.Rload (zs, Mir.Oconst (Mir.Ci 2))));
  let v =
    def { Mir.base = MT.Double; cplx = MT.Real; lanes = 8 }
      (Mir.Rvload (xs, Mir.Oconst (Mir.Ci 0), 8))
  in
  List.iter
    (fun r -> ignore (def Mir.double_sty (Mir.Rvreduce (r, Mir.Ovar v))))
    [ Mir.Vsum; Mir.Vprod; Mir.Vmin; Mir.Vmax ];
  List.iter
    (fun name -> ignore (def Mir.double_sty (Mir.Rintrin (name, [ Mir.Ovar v ]))))
    [ "vredadd_f64x8"; "vredmin_f64x8"; "vredmax_f64x8" ];
  let all_vars = List.rev !vars in
  { Mir.name = "fused"; params;
    rets =
      List.filter
        (fun v -> (not (List.memq v params)) && (Mir.elem_ty v).Mir.lanes = 1)
        all_vars;
    vars = all_vars; body = List.rev !defs }

let test_fused_shapes () =
  let f = fused_shapes_function () in
  Masc_mir.Verify.check f;
  let c re im = V.Sc { Complex.re; im } in
  let inputs (x, n, b, z, xs, zs) =
    [ I.Xscalar (V.Sf x); I.Xscalar (V.Si n); I.Xscalar (V.Sb b);
      I.Xscalar z; I.xarray_of_floats xs; I.Xarray zs ]
  in
  let sets =
    [ ( 1.75, 2, true, c 0.5 (-1.25),
        [| 3.; -1.; 4.; 1.; -5.; 9.; 2.; -6. |],
        [| c 1. 2.; c (-3.) 0.5; c 0.25 (-8.); c 7. 7. |] );
      ( -0.0, 0, false, c 0. (-0.),
        [| -0.; 0.; 1e-310; -1e-310; 0.; 0.; 0.; 0. |],
        [| c 0. 0.; c (-0.) 0.; c 1e308 1e308; c 0. 1. |] );
      ( -7.5, 5, true, c Float.infinity Float.nan,
        [| 1e308; 1e308; -1e308; Float.nan; 0.5; 2.; Float.infinity; 1. |],
        [| c Float.nan 0.; c (-1.) (-1.); c 2. 3.; c 1e-300 (-1e300) |] ) ]
  in
  (* Bitwise view of a return, so -0.0 counts. NaNs compare equal, as
     under [compare]: which payload a NaN carries depends on the
     operand order the native code generator picks, which OCaml leaves
     unspecified. *)
  let fbits f =
    if Float.is_nan f then 0x7FF8000000000000L else Int64.bits_of_float f
  in
  let bits = function
    | V.Sf f -> [ fbits f ]
    | V.Sc z -> [ fbits z.Complex.re; fbits z.Complex.im ]
    | V.Si n -> [ 1L; Int64.of_int n ]
    | V.Sb b -> [ 2L; (if b then 1L else 0L) ]
  in
  let rets r =
    List.map
      (function
        | I.Xscalar s -> bits s
        | I.Xarray a -> List.concat_map bits (Array.to_list a))
      r.I.rets
  in
  List.iter
    (fun (mname, mode) ->
      List.iteri
        (fun k set ->
          let tag what = Printf.sprintf "dsp8/%s set %d %s" mname k what in
          let args = inputs set in
          let rt = I.run_tree ~isa:T.dsp8 ~mode f args in
          let rp = I.run ~isa:T.dsp8 ~mode f args in
          Alcotest.(check int) (tag "cycles") rt.I.cycles rp.I.cycles;
          Alcotest.(check int) (tag "dyn instrs") rt.I.dyn_instrs rp.I.dyn_instrs;
          Alcotest.(check bool) (tag "histogram (incl. order)") true
            (rt.I.histogram = rp.I.histogram);
          List.iteri
            (fun i (a, b) ->
              Alcotest.(check (list int64)) (tag (Printf.sprintf "ret %d" i)) a b)
            (List.combine (rets rt) (rets rp)))
        sets)
    [ ("proposed", Masc_asip.Cost_model.Proposed);
      ("coder", Masc_asip.Cost_model.Coder) ]

(* Minor words one [Plan.execute] allocates on three kernels (dsp8,
   proposed flow), pinned at or below the counts measured before the
   fused definitions were rewritten over inlined bank views (50,101 /
   28,257 / 27,070; 50,093 / 28,249 / 27,062 after). A fused closure that
   boxes a float — e.g. a complex write that is not inlined — raises
   these while every differential test stays green. *)
let test_plan_allocation_pin () =
  let module K = Masc_kernels.Kernels in
  List.iter
    (fun (name, (k : K.kernel), limit) ->
      let c =
        Masc.Compiler.compile (Masc.Compiler.proposed ()) ~source:k.K.source
          ~entry:k.K.entry ~arg_types:k.K.arg_types
      in
      let p =
        Masc_vm.Plan.compile ~isa:T.dsp8 ~mode:Masc_asip.Cost_model.Proposed
          c.Masc.Compiler.mir
      in
      let inputs = k.K.inputs () in
      ignore (Masc_vm.Plan.execute p inputs);
      let w0 = Gc.minor_words () in
      ignore (Masc_vm.Plan.execute p inputs);
      let words = Gc.minor_words () -. w0 in
      if words > limit then
        Alcotest.failf "%s: %.0f minor words per run, pinned at %.0f" name
          words limit)
    [ ("fir1024", K.fir ~n:1024 (), 50_101.);
      ("fft1024", K.fft ~n:1024 (), 28_257.);
      ("fmdemod", K.fmdemod (), 27_070.) ]

let plan_suites =
  [ ( "vm plan",
      [ Alcotest.test_case "hex and recycling formats" `Quick
          test_hex_and_recycling_formats;
        Alcotest.test_case "plan vs tree differential" `Slow
          test_plan_tree_differential;
        Alcotest.test_case "plan reuse" `Quick test_plan_reuse;
        Alcotest.test_case "fused shapes vs tree" `Quick test_fused_shapes;
        Alcotest.test_case "plan allocation pin" `Quick
          test_plan_allocation_pin ] ) ]

let suites = base_suites @ extra_suites @ plan_suites
