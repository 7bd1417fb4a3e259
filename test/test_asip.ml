(* ISA description parser and cost model tests. *)

module Isa = Masc_asip.Isa
module P = Masc_asip.Isa_parser
module T = Masc_asip.Targets
module Cost = Masc_asip.Cost_model
module Mir = Masc_mir.Mir

let sample =
  {|# a toy ASIP description
target toy
description "toy core for tests"
vector_width 4
cost alu 2
cost fdiv 10
cost load 3
cost loop_overhead 1
instr vadd4 simd.add lanes=4 latency=1
instr vmac4 simd.mac lanes=4 latency=2
instr cm cplx.mul latency=1
|}

let test_parse_basic () =
  let isa = P.parse sample in
  Alcotest.(check string) "name" "toy" isa.Isa.tname;
  Alcotest.(check string) "description" "toy core for tests" isa.Isa.description;
  Alcotest.(check int) "width" 4 isa.Isa.vector_width;
  Alcotest.(check int) "alu cost" 2 isa.Isa.costs.Isa.alu;
  Alcotest.(check int) "fdiv cost" 10 isa.Isa.costs.Isa.fdiv;
  Alcotest.(check int) "load cost" 3 isa.Isa.costs.Isa.load;
  Alcotest.(check int) "loop cost" 1 isa.Isa.costs.Isa.loop_overhead;
  (* unspecified costs keep defaults *)
  Alcotest.(check int) "store default" Isa.default_costs.Isa.store
    isa.Isa.costs.Isa.store;
  Alcotest.(check int) "3 instrs" 3 (List.length isa.Isa.instrs);
  match Isa.find isa Isa.Kmac with
  | Some d ->
    Alcotest.(check string) "mac name" "vmac4" d.Isa.iname;
    Alcotest.(check int) "mac lanes" 4 d.Isa.lanes;
    Alcotest.(check int) "mac latency" 2 d.Isa.latency
  | None -> Alcotest.fail "mac not found"

let test_parse_defaults () =
  let isa = P.parse sample in
  match Isa.find isa Isa.Kcmul with
  | Some d -> Alcotest.(check int) "default lanes" 1 d.Isa.lanes
  | None -> Alcotest.fail "cmul not found"

(* Whole-record comparison, printed as [.isa] text on failure. *)
let isa_t = Alcotest.testable (fun ppf t -> Format.pp_print_string ppf (P.to_text t)) ( = )

let test_roundtrip () =
  List.iter
    (fun isa ->
      Alcotest.check isa_t isa.Isa.tname isa (P.parse (P.to_text isa)))
    T.all

(* The built-in targets as [.isa] text, the way they were written before
   they became records: each must parse to its record. *)
let scalar_text =
  {|# Plain scalar load/store core (no ISEs); DSP-class single-cycle ALU.
target scalar
description "scalar RISC-style core without custom instructions"
vector_width 0
cost alu 1
cost fdiv 8
cost math_fn 20
cost pow_fn 30
cost load 1
cost store 1
cost loop_overhead 2
cost branch 2
cost bounds_check 2
cost descriptor 1
cost call_overhead 20
|}

let dsp_text ~name ~width ~simd ~cplx =
  let header =
    Printf.sprintf
      {|target %s
description "DSP ASIP, %d-lane f64 SIMD%s%s"
vector_width %d
cost alu 1
cost fdiv 8
cost math_fn 20
cost pow_fn 30
cost load 1
cost store 1
cost loop_overhead 2
cost branch 2
cost bounds_check 2
cost descriptor 1
cost call_overhead 20
|}
      name width
      (if simd then "" else " (SIMD ISEs disabled)")
      (if cplx then ", complex-arithmetic ISEs" else "")
      (if simd then width else 0)
  in
  let simd_instr mnemonic kind latency =
    Printf.sprintf "instr %s_f64x%d %s lanes=%d latency=%d\n" mnemonic width
      kind width latency
  in
  let simd_instrs =
    if not simd then ""
    else
      String.concat ""
        [ simd_instr "vadd" "simd.add" 1; simd_instr "vsub" "simd.sub" 1;
          simd_instr "vmul" "simd.mul" 1; simd_instr "vdiv" "simd.div" 8;
          simd_instr "vmin" "simd.min" 1;
          simd_instr "vmax" "simd.max" 1; simd_instr "vmac" "simd.mac" 1;
          simd_instr "vld" "simd.load" 1; simd_instr "vst" "simd.store" 1;
          simd_instr "vsplat" "simd.broadcast" 1;
          simd_instr "vredadd" "simd.reduce_add" 3;
          simd_instr "vredmin" "simd.reduce_min" 3;
          simd_instr "vredmax" "simd.reduce_max" 3 ]
  in
  let cplx_instrs =
    if not cplx then ""
    else
      {|instr cmul_f64 cplx.mul lanes=1 latency=1
instr cmac_f64 cplx.mac lanes=1 latency=1
instr cadd_f64 cplx.add lanes=1 latency=1
|}
  in
  header ^ simd_instrs ^ cplx_instrs

let test_builtin_texts () =
  List.iter
    (fun (text, isa) -> Alcotest.check isa_t isa.Isa.tname isa (P.parse text))
    [ (scalar_text, T.scalar);
      (dsp_text ~name:"dsp4" ~width:4 ~simd:true ~cplx:true, T.dsp4);
      (dsp_text ~name:"dsp8" ~width:8 ~simd:true ~cplx:true, T.dsp8);
      (dsp_text ~name:"dsp16" ~width:16 ~simd:true ~cplx:true, T.dsp16);
      ( dsp_text ~name:"dsp8_simd_only" ~width:8 ~simd:true ~cplx:false,
        T.dsp8_simd_only );
      ( dsp_text ~name:"dsp8_cplx_only" ~width:8 ~simd:false ~cplx:true,
        T.dsp8_cplx_only ) ]

let test_parse_errors () =
  let expect_error src =
    match P.parse src with
    | exception Masc_frontend.Diag.Error (Masc_frontend.Diag.Codegen, _, _) ->
      ()
    | _ -> Alcotest.failf "expected parse error on %S" src
  in
  expect_error "vector_width 4\n";
  (* no target *)
  expect_error "target t\ninstr foo bogus.kind\n";
  expect_error "target t\ncost nonsense 3\n";
  expect_error "target t\nvector_width four\n";
  expect_error "target t\ninstr v simd.add lanes=x\n";
  expect_error "target t\nbanana split\n";
  (* a known directive with the wrong arity names the directive *)
  List.iter
    (fun (src, msg) ->
      match P.parse src with
      | exception Masc_frontend.Diag.Error (_, _, m) ->
        Alcotest.(check string) src msg m
      | _ -> Alcotest.failf "expected parse error on %S" src)
    [ ("target t\nvector_width 4 8\n",
       "directive 'vector_width' takes 1 argument, found 2");
      ("target t\ncost alu\n", "directive 'cost' takes 2 arguments, found 1");
      ("target t1 extra\n", "directive 'target' takes 1 argument, found 2") ]

let test_builtin_targets () =
  Alcotest.(check int) "dsp8 width" 8 T.dsp8.Isa.vector_width;
  Alcotest.(check int) "dsp4 width" 4 T.dsp4.Isa.vector_width;
  Alcotest.(check int) "dsp16 width" 16 T.dsp16.Isa.vector_width;
  Alcotest.(check int) "scalar width" 0 T.scalar.Isa.vector_width;
  Alcotest.(check bool) "dsp8 has mac" true (Isa.has T.dsp8 Isa.Kmac);
  Alcotest.(check bool) "dsp8 has cmul" true (Isa.has T.dsp8 Isa.Kcmul);
  Alcotest.(check bool) "simd-only lacks cmul" false
    (Isa.has T.dsp8_simd_only Isa.Kcmul);
  Alcotest.(check bool) "cplx-only lacks simd" false
    (Isa.has T.dsp8_cplx_only Isa.Ksimd_add);
  Alcotest.(check bool) "cplx-only has cmul" true
    (Isa.has T.dsp8_cplx_only Isa.Kcmul)

let test_cost_model_modes () =
  let dv = { Mir.vname = "a"; vid = 0; vty = Mir.Tarray (Mir.double_sty, 8) } in
  let load = Mir.Rload (dv, Mir.Oconst (Mir.Ci 0)) in
  let p = Cost.def_cost T.scalar Cost.Proposed load in
  let c = Cost.def_cost T.scalar Cost.Coder load in
  Alcotest.(check bool)
    (Printf.sprintf "coder access dearer (%d vs %d)" c p)
    true (c > p);
  (* complex multiply: open-coded Rbin vs selected intrinsic *)
  let zv = { Mir.vname = "z"; vid = 1; vty = Mir.Tscalar Mir.complex_sty } in
  let rbin = Mir.Rbin (Mir.Bmul, Mir.Ovar zv, Mir.Ovar zv) in
  let open_coded = Cost.def_cost T.dsp8 Cost.Proposed rbin in
  let selected =
    Cost.def_cost T.dsp8 Cost.Proposed (Mir.Rintrin ("cmul_f64", [ Mir.Ovar zv; Mir.Ovar zv ]))
  in
  Alcotest.(check bool)
    (Printf.sprintf "cmul ISE cheaper (%d vs %d)" selected open_coded)
    true
    (selected < open_coded);
  (* unknown intrinsic rejected *)
  match Cost.def_cost T.scalar Cost.Proposed (Mir.Rintrin ("vmac_f64x8", [])) with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "expected rejection of missing intrinsic"

let suites =
  [ ( "isa",
      [ Alcotest.test_case "parse basics" `Quick test_parse_basic;
        Alcotest.test_case "parse defaults" `Quick test_parse_defaults;
        Alcotest.test_case "text round-trip" `Quick test_roundtrip;
        Alcotest.test_case "parse errors" `Quick test_parse_errors;
        Alcotest.test_case "built-in targets" `Quick test_builtin_targets;
        Alcotest.test_case "built-in targets parse from text" `Quick
          test_builtin_texts;
        Alcotest.test_case "cost-model modes" `Quick test_cost_model_modes ] ) ]
