(* Vectorizer and complex-selection tests: semantic equivalence between
   scalar and vectorized execution, plus structural checks that the
   expected loops actually got vectorized. *)

open Masc_sema
module Mir = Masc_mir.Mir
module I = Masc_vm.Interp
module V = Masc_vm.Value
module Vect = Masc_vectorize.Vectorizer
module Csel = Masc_vectorize.Complex_sel
module T = Masc_asip.Targets

let compile_scalar ~args src =
  Masc_mir.Lower.lower_program (Infer.infer_source src ~entry:"f" ~arg_types:args)
  |> Masc_opt.Pipeline.optimize Masc_opt.Pipeline.O2

let run_with isa f inputs =
  I.run ~isa ~mode:Masc_asip.Cost_model.Proposed f inputs

let floats_of = function
  | I.Xarray a -> Array.map V.to_float a
  | I.Xscalar s -> [| V.to_float s |]

let check_equiv ?(tol = 1e-9) name ~args src inputs =
  let scalar = compile_scalar ~args src in
  let vectorized, stats = Vect.run T.dsp8 scalar in
  let r_s = run_with T.scalar scalar inputs in
  let r_v = run_with T.dsp8 vectorized inputs in
  List.iter2
    (fun a b ->
      let fa = floats_of a and fb = floats_of b in
      Alcotest.(check int) (name ^ " ret length") (Array.length fa)
        (Array.length fb);
      Array.iteri
        (fun i x ->
          if not (V.close ~tol (V.Sf x) (V.Sf fb.(i))) then
            Alcotest.failf "%s[%d]: scalar %.12g vs vectorized %.12g" name i x
              fb.(i))
        fa)
    r_s.I.rets r_v.I.rets;
  (stats, r_s.I.cycles, r_v.I.cycles)

let farr fs = I.xarray_of_floats fs

let test_map_loop () =
  let src = "function y = f(a, b)\ny = 2 * a + b .* b;\nend" in
  let args = [ Mtype.row_vector Mtype.Double 100; Mtype.row_vector Mtype.Double 100 ] in
  let stats, sc, vc =
    check_equiv "map" ~args src
      [ farr (Masc_kernels.Kernels.randoms ~seed:1 100);
        farr (Masc_kernels.Kernels.randoms ~seed:2 100) ]
  in
  (* the zeros() fill also vectorizes, hence 2 *)
  Alcotest.(check bool) "map loops found" true (stats.Vect.map_loops >= 1);
  Alcotest.(check bool)
    (Printf.sprintf "vector faster (%d vs %d)" vc sc)
    true (vc < sc)

let test_map_loop_remainder () =
  (* 100 = 12*8 + 4: epilogue must handle the tail correctly. *)
  let src = "function y = f(a)\ny = zeros(1, 13);\nfor i = 1:13\ny(i) = a(i) * 3;\nend\nend" in
  let args = [ Mtype.row_vector Mtype.Double 13 ] in
  let stats, _, _ =
    check_equiv "remainder" ~args src
      [ farr (Masc_kernels.Kernels.randoms ~seed:3 13) ]
  in
  (* fill loop + main loop *)
  Alcotest.(check int) "two map loops" 2 stats.Vect.map_loops

let test_reduction_loop () =
  let src =
    "function y = f(a, b)\ny = 0;\nfor i = 1:100\ny = y + a(i) * b(i);\nend\nend"
  in
  let args = [ Mtype.row_vector Mtype.Double 100; Mtype.row_vector Mtype.Double 100 ] in
  let stats, sc, vc =
    check_equiv ~tol:1e-9 "dot" ~args src
      [ farr (Masc_kernels.Kernels.randoms ~seed:4 100);
        farr (Masc_kernels.Kernels.randoms ~seed:5 100) ]
  in
  Alcotest.(check int) "one reduction loop" 1 stats.Vect.reduction_loops;
  Alcotest.(check bool)
    (Printf.sprintf "vector faster (%d vs %d)" vc sc)
    true (vc < sc)

let test_min_reduction () =
  let src = "function y = f(a)\ny = min(a);\nend" in
  let args = [ Mtype.row_vector Mtype.Double 64 ] in
  let stats, _, _ =
    check_equiv "min" ~args src [ farr (Masc_kernels.Kernels.randoms ~seed:6 64) ]
  in
  Alcotest.(check int) "one reduction loop" 1 stats.Vect.reduction_loops

let test_rmw_saxpy () =
  (* c(i) = c(i) + ... : the read-modify-write idiom must vectorize. *)
  let src =
    "function c = f(a, b)\nc = zeros(1, 64);\nfor k = 1:4\nfor i = 1:64\nc(i) = c(i) + a(i) * b(k);\nend\nend\nend"
  in
  let args = [ Mtype.row_vector Mtype.Double 64; Mtype.row_vector Mtype.Double 4 ] in
  let stats, _, _ =
    check_equiv "saxpy" ~args src
      [ farr (Masc_kernels.Kernels.randoms ~seed:7 64);
        farr (Masc_kernels.Kernels.randoms ~seed:8 4) ]
  in
  Alcotest.(check bool) "inner loop vectorized" true (stats.Vect.map_loops >= 1)

let test_no_vectorize_recurrence () =
  (* Loop-carried dependence must NOT vectorize. *)
  let src =
    "function y = f(a)\ny = zeros(1, 64);\ny(1) = a(1);\nfor i = 2:64\ny(i) = y(i - 1) * 0.5 + a(i);\nend\nend"
  in
  let scalar =
    compile_scalar ~args:[ Mtype.row_vector Mtype.Double 64 ] src
  in
  let _, stats = Vect.run T.dsp8 scalar in
  (* only the zeros() fill vectorizes; the recurrence loop must not *)
  Alcotest.(check int) "only the fill loop" 1 stats.Vect.map_loops;
  Alcotest.(check int) "no reduction loops" 0 stats.Vect.reduction_loops

let test_no_vectorize_gather () =
  let src =
    "function y = f(a, idx)\ny = zeros(1, 32);\nfor i = 1:32\ny(i) = a(idx(i));\nend\nend"
  in
  let scalar =
    compile_scalar
      ~args:[ Mtype.row_vector Mtype.Double 32; Mtype.row_vector Mtype.Double 32 ]
      src
  in
  let _, stats = Vect.run T.dsp8 scalar in
  (* only the zeros() fill vectorizes; the gather loop must not *)
  Alcotest.(check int) "gather not vectorized" 1 stats.Vect.map_loops

let test_width_respected () =
  let src = "function y = f(a)\ny = a + 1;\nend" in
  let scalar =
    compile_scalar ~args:[ Mtype.row_vector Mtype.Double 64 ] src
  in
  List.iter
    (fun (isa, w) ->
      let vectorized, stats = Vect.run isa scalar in
      Alcotest.(check int)
        (Printf.sprintf "map loop on %s" isa.Masc_asip.Isa.tname)
        1 stats.Vect.map_loops;
      (* Find a vector load and check its lane count. *)
      let lanes = ref 0 in
      Masc_opt.Rewrite.iter_instrs
        (fun (i : Mir.instr) ->
          match i.Mir.idesc with
          | Mir.Idef (_, Mir.Rvload (_, _, l)) -> lanes := max !lanes l
          | _ -> ())
        vectorized;
      Alcotest.(check int) "lanes" w !lanes)
    [ (T.dsp4, 4); (T.dsp8, 8); (T.dsp16, 16) ]

let test_scalar_target_unchanged () =
  let src = "function y = f(a)\ny = a + 1;\nend" in
  let scalar =
    compile_scalar ~args:[ Mtype.row_vector Mtype.Double 64 ] src
  in
  let vectorized, stats = Vect.run T.scalar scalar in
  Alcotest.(check int) "no loops" 0 stats.Vect.map_loops;
  Alcotest.(check bool) "function untouched" true (vectorized == scalar)

(* --- complex selection --- *)

let count_intrins prefix f =
  let n = ref 0 in
  Masc_opt.Rewrite.iter_instrs
    (fun (i : Mir.instr) ->
      match i.Mir.idesc with
      | Mir.Idef (_, Mir.Rintrin (name, _))
        when String.length name >= String.length prefix
             && String.sub name 0 (String.length prefix) = prefix ->
        incr n
      | _ -> ())
    f;
  !n

let test_complex_selection () =
  let src =
    "function y = f(ar, ai, br, bi)\n\
     a = complex(ar, ai);\n\
     b = complex(br, bi);\n\
     y = real(a * b) + imag(a * b);\nend"
  in
  let args = List.init 4 (fun _ -> Mtype.double) in
  let scalar = compile_scalar ~args src in
  let selected, stats = Csel.run T.dsp8 scalar in
  Alcotest.(check bool) "cmul selected" true (stats.Csel.cmul >= 1);
  Alcotest.(check bool) "cmul in code" true (count_intrins "cmul" selected >= 1);
  (* equivalence *)
  let inputs = List.map (fun v -> I.Xscalar (V.Sf v)) [ 1.5; 2.5; -0.5; 3.0 ] in
  let r_s = run_with T.scalar scalar inputs in
  let r_v = run_with T.dsp8 selected inputs in
  match (r_s.I.rets, r_v.I.rets) with
  | [ I.Xscalar a ], [ I.Xscalar b ] ->
    Alcotest.(check bool) "same value" true (V.close a b);
    Alcotest.(check bool)
      (Printf.sprintf "ISE faster (%d vs %d)" r_v.I.cycles r_s.I.cycles)
      true
      (r_v.I.cycles < r_s.I.cycles)
  | _ -> Alcotest.fail "expected scalar returns"

let test_cmac_fusion () =
  let src =
    "function y = f(ar, ai, br, bi)\n\
     n = length(ar);\n\
     a = complex(ar, ai);\n\
     b = complex(br, bi);\n\
     acc = complex(0, 0);\n\
     for i = 1:n\n\
     acc = acc + a(i) * b(i);\n\
     end\n\
     y = abs(acc);\nend"
  in
  let args = List.init 4 (fun _ -> Mtype.row_vector Mtype.Double 16) in
  let scalar = compile_scalar ~args src in
  let selected, stats = Csel.run T.dsp8 scalar in
  Alcotest.(check bool) "cmac fused" true (stats.Csel.cmac >= 1);
  Alcotest.(check bool) "cmac in code" true (count_intrins "cmac" selected >= 1);
  let inputs =
    List.map
      (fun seed -> farr (Masc_kernels.Kernels.randoms ~seed 16))
      [ 10; 11; 12; 13 ]
  in
  let r_s = run_with T.scalar scalar inputs in
  let r_v = run_with T.dsp8 selected inputs in
  match (r_s.I.rets, r_v.I.rets) with
  | [ I.Xscalar a ], [ I.Xscalar b ] ->
    Alcotest.(check bool) "same value" true (V.close a b)
  | _ -> Alcotest.fail "expected scalar returns"

(* Fresh vector variables are numbered in the order the vectorizer has
   always drawn them, which names them in the C: an if's else branch
   before its then branch. *)
let test_fresh_id_order () =
  let src =
    "function y = f(a, b, c)\n\
     y = zeros(1, 16);\nz = zeros(1, 16);\n\
     if c > 0\nfor i = 1:16\ny(i) = a(i) * 2 + c;\nend\n\
     else\nfor i = 1:16\nz(i) = b(i) + 3;\nend\ny = z;\nend\nend"
  in
  let args =
    [ Mtype.row_vector Mtype.Double 16; Mtype.row_vector Mtype.Double 16;
      Mtype.double ]
  in
  let vectorized, _ = Vect.run T.dsp8 (compile_scalar ~args src) in
  let rec vector_ids acc (b : Mir.block) =
    List.fold_left
      (fun acc (i : Mir.instr) ->
        match i.Mir.idesc with
        | Mir.Idef ({ Mir.vty = Mir.Tscalar { Mir.lanes; _ }; vid; _ }, _)
          when lanes > 1 ->
          vid :: acc
        | Mir.Iloop l -> vector_ids acc l.Mir.body
        | _ -> acc)
      acc b
  in
  match
    List.find_map
      (fun (i : Mir.instr) ->
        match i.Mir.idesc with
        | Mir.Iif (_, t, e) -> Some (vector_ids [] t, vector_ids [] e)
        | _ -> None)
      vectorized.Mir.body
  with
  | Some ((_ :: _ as t), (_ :: _ as e)) ->
    Alcotest.(check bool) "else-branch ids below then-branch ids" true
      (List.fold_left max 0 e < List.fold_left min max_int t)
  | _ -> Alcotest.fail "expected a vectorized loop in both branches"

(* --- property: vectorized execution == scalar execution --- *)

let gen_mapexpr_src : (string * int) QCheck.Gen.t =
  (* Random element-wise expression over vectors a and b plus scalars. *)
  let open QCheck.Gen in
  let* n = int_range 3 40 in
  let rec expr depth =
    if depth = 0 then oneofl [ "a"; "b"; "1.5"; "0.25" ]
    else
      let* op = oneofl [ "+"; "-"; ".*" ] in
      let* l = expr (depth - 1) in
      let* r = expr (depth - 1) in
      return (Printf.sprintf "(%s %s %s)" l op r)
  in
  let* e = expr 3 in
  return (Printf.sprintf "function y = f(a, b)\ny = %s + 0 * a;\nend" e, n)

let prop_vectorize_equiv =
  QCheck.Test.make ~count:60 ~name:"vectorized == scalar on random map exprs"
    (QCheck.make gen_mapexpr_src ~print:(fun (s, n) ->
         Printf.sprintf "n=%d\n%s" n s))
    (fun (src, n) ->
      let args =
        [ Mtype.row_vector Mtype.Double n; Mtype.row_vector Mtype.Double n ]
      in
      let scalar = compile_scalar ~args src in
      let vectorized, _ = Vect.run T.dsp8 scalar in
      let inputs =
        [ farr (Masc_kernels.Kernels.randoms ~seed:n 2 |> fun _ ->
                Masc_kernels.Kernels.randoms ~seed:n n);
          farr (Masc_kernels.Kernels.randoms ~seed:(n + 1) n) ]
      in
      let r_s = run_with T.scalar scalar inputs in
      let r_v = run_with T.dsp8 vectorized inputs in
      List.for_all2
        (fun a b ->
          let fa = floats_of a and fb = floats_of b in
          Array.length fa = Array.length fb
          && Array.for_all2 (fun x y -> V.close ~tol:1e-7 (V.Sf x) (V.Sf y)) fa fb)
        r_s.I.rets r_v.I.rets)

let suites =
  [ ( "vectorizer",
      [ Alcotest.test_case "map loop" `Quick test_map_loop;
        Alcotest.test_case "remainder handling" `Quick test_map_loop_remainder;
        Alcotest.test_case "dot-product reduction" `Quick test_reduction_loop;
        Alcotest.test_case "min reduction" `Quick test_min_reduction;
        Alcotest.test_case "read-modify-write saxpy" `Quick test_rmw_saxpy;
        Alcotest.test_case "recurrence stays scalar" `Quick
          test_no_vectorize_recurrence;
        Alcotest.test_case "gather stays scalar" `Quick test_no_vectorize_gather;
        Alcotest.test_case "width parameterization" `Quick test_width_respected;
        Alcotest.test_case "scalar target untouched" `Quick
          test_scalar_target_unchanged;
        Alcotest.test_case "fresh id order" `Quick test_fresh_id_order;
        QCheck_alcotest.to_alcotest prop_vectorize_equiv ] );
    ( "complex-sel",
      [ Alcotest.test_case "cmul selection" `Quick test_complex_selection;
        Alcotest.test_case "cmac fusion" `Quick test_cmac_fusion ] ) ]
