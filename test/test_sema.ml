(* Type / shape / constant inference tests. *)

open Masc_sema

let mty = Alcotest.testable Mtype.pp Mtype.equal

let infer ?(entry = "f") ~args src =
  Infer.infer_source src ~entry ~arg_types:args

let entry_ret ?(entry = "f") ~args src =
  let p = infer ~entry ~args src in
  let f = Tast.entry_func p in
  match f.Tast.trets with
  | (_, ty) :: _ -> ty
  | [] -> Alcotest.fail "entry has no returns"

let local_ty ?(entry = "f") ~args src name =
  let p = infer ~entry ~args src in
  let f = Tast.entry_func p in
  match List.assoc_opt name (f.Tast.tlocals @ f.Tast.tparams @ f.Tast.trets) with
  | Some ty -> ty
  | None -> Alcotest.failf "no variable '%s'" name

let expect_sema_error ?(entry = "f") ~args src =
  match infer ~entry ~args src with
  | exception Masc_frontend.Diag.Error (Masc_frontend.Diag.Sema, _, _) -> ()
  | _ -> Alcotest.failf "expected a semantic error on %S" src

let test_scalar_types () =
  Alcotest.check mty "int literal" Mtype.int_
    (entry_ret ~args:[] "function y = f()\ny = 3;\nend");
  Alcotest.check mty "float literal" Mtype.double
    (entry_ret ~args:[] "function y = f()\ny = 3.5;\nend");
  Alcotest.check mty "imaginary literal" Mtype.complex
    (entry_ret ~args:[] "function y = f()\ny = 2i;\nend");
  Alcotest.check mty "bool" Mtype.bool_
    (entry_ret ~args:[] "function y = f()\ny = true;\nend");
  Alcotest.check mty "arith promotes bool" Mtype.int_
    (entry_ret ~args:[] "function y = f()\ny = true + true;\nend");
  Alcotest.check mty "division is double" Mtype.double
    (entry_ret ~args:[] "function y = f()\ny = 3 / 4;\nend")

let test_const_shapes () =
  Alcotest.check mty "zeros" (Mtype.matrix Mtype.Double 2 3)
    (entry_ret ~args:[] "function y = f()\ny = zeros(2, 3);\nend");
  Alcotest.check mty "zeros from length"
    (Mtype.row_vector Mtype.Double 8)
    (entry_ret
       ~args:[ Mtype.row_vector Mtype.Double 8 ]
       "function y = f(x)\nn = length(x);\ny = zeros(1, n);\nend");
  Alcotest.check mty "size composition"
    (Mtype.matrix Mtype.Double 4 6)
    (entry_ret
       ~args:[ Mtype.matrix Mtype.Double 4 6 ]
       "function y = f(x)\n[r, c] = size(x);\ny = zeros(r, c);\nend");
  Alcotest.check mty "arithmetic on sizes"
    (Mtype.row_vector Mtype.Double 5)
    (entry_ret
       ~args:[ Mtype.row_vector Mtype.Double 8 ]
       "function y = f(x)\nn = length(x) / 2 + 1;\ny = zeros(1, n);\nend")

let test_ranges () =
  Alcotest.check mty "const range" (Mtype.row_vector Mtype.Int 10)
    (entry_ret ~args:[] "function y = f()\ny = 1:10;\nend");
  Alcotest.check mty "stepped range" (Mtype.row_vector Mtype.Int 5)
    (entry_ret ~args:[] "function y = f()\ny = 0:2:8;\nend");
  Alcotest.check mty "range from length"
    (Mtype.row_vector Mtype.Int 6)
    (entry_ret
       ~args:[ Mtype.row_vector Mtype.Double 6 ]
       "function y = f(x)\ny = 0:length(x)-1;\nend")

let test_indexing () =
  Alcotest.check mty "scalar read" Mtype.double
    (entry_ret
       ~args:[ Mtype.row_vector Mtype.Double 8 ]
       "function y = f(x)\ny = x(3);\nend");
  Alcotest.check mty "slice read" (Mtype.row_vector Mtype.Double 4)
    (entry_ret
       ~args:[ Mtype.row_vector Mtype.Double 8 ]
       "function y = f(x)\ny = x(2:5);\nend");
  Alcotest.check mty "slice with end" (Mtype.row_vector Mtype.Double 7)
    (entry_ret
       ~args:[ Mtype.row_vector Mtype.Double 8 ]
       "function y = f(x)\ny = x(2:end);\nend");
  Alcotest.check mty "dynamic window slice"
    (Mtype.row_vector Mtype.Double 3)
    (entry_ret
       ~args:[ Mtype.row_vector Mtype.Double 16 ]
       "function y = f(x)\nfor i = 1:14\ny = x(i:i+2);\nend\nend");
  Alcotest.check mty "matrix row" (Mtype.row_vector Mtype.Double 5)
    (entry_ret
       ~args:[ Mtype.matrix Mtype.Double 4 5 ]
       "function y = f(a)\ny = a(2, :);\nend");
  Alcotest.check mty "matrix column" (Mtype.col_vector Mtype.Double 4)
    (entry_ret
       ~args:[ Mtype.matrix Mtype.Double 4 5 ]
       "function y = f(a)\ny = a(:, 3);\nend");
  Alcotest.check mty "matrix element" Mtype.double
    (entry_ret
       ~args:[ Mtype.matrix Mtype.Double 4 5 ]
       "function y = f(a)\ny = a(2, 3);\nend")

let test_matrix_ops () =
  Alcotest.check mty "matmul"
    (Mtype.matrix Mtype.Double 2 4)
    (entry_ret
       ~args:[ Mtype.matrix Mtype.Double 2 3; Mtype.matrix Mtype.Double 3 4 ]
       "function y = f(a, b)\ny = a * b;\nend");
  Alcotest.check mty "dot product to scalar" Mtype.double
    (entry_ret
       ~args:
         [ Mtype.row_vector Mtype.Double 5; Mtype.col_vector Mtype.Double 5 ]
       "function y = f(a, b)\ny = a * b;\nend");
  Alcotest.check mty "transpose flips" (Mtype.col_vector Mtype.Double 5)
    (entry_ret
       ~args:[ Mtype.row_vector Mtype.Double 5 ]
       "function y = f(a)\ny = a';\nend");
  Alcotest.check mty "elementwise" (Mtype.row_vector Mtype.Double 5)
    (entry_ret
       ~args:[ Mtype.row_vector Mtype.Double 5; Mtype.row_vector Mtype.Double 5 ]
       "function y = f(a, b)\ny = a .* b + 2;\nend");
  expect_sema_error
    ~args:[ Mtype.matrix Mtype.Double 2 3; Mtype.matrix Mtype.Double 2 3 ]
    "function y = f(a, b)\ny = a * b;\nend";
  expect_sema_error
    ~args:[ Mtype.row_vector Mtype.Double 4; Mtype.row_vector Mtype.Double 5 ]
    "function y = f(a, b)\ny = a + b;\nend"

let test_complex_promotion () =
  Alcotest.check mty "complex arith" Mtype.complex
    (entry_ret ~args:[] "function y = f()\ny = (1 + 2i) * 3;\nend");
  Alcotest.check mty "real of complex" Mtype.double
    (entry_ret ~args:[] "function y = f()\ny = real(2 + 3i);\nend");
  Alcotest.check mty "abs of complex" Mtype.double
    (entry_ret ~args:[] "function y = f()\ny = abs(3 + 4i);\nend");
  (* Element writes promote the array, as in X = zeros(1,4); X(1) = 1i. *)
  Alcotest.check mty "store promotes array to complex"
    (Mtype.row_vector ~cplx:Mtype.Complex Mtype.Double 4)
    (entry_ret ~args:[]
       "function y = f()\ny = zeros(1, 4);\ny(1) = 2i;\nend");
  (* Loop-carried promotion requires the loop fixpoint. *)
  Alcotest.check mty "loop-carried complex promotion"
    (Mtype.scalar ~cplx:Mtype.Complex Mtype.Double)
    (local_ty ~args:[]
       "function y = f()\ns = 1;\nfor k = 1:3\ns = s * 1i;\nend\ny = s;\nend"
       "s")

let test_builtins () =
  Alcotest.check mty "sum of vector" Mtype.double
    (entry_ret
       ~args:[ Mtype.row_vector Mtype.Double 9 ]
       "function y = f(x)\ny = sum(x);\nend");
  Alcotest.check mty "sum of matrix is row"
    (Mtype.row_vector Mtype.Double 4)
    (entry_ret
       ~args:[ Mtype.matrix Mtype.Double 3 4 ]
       "function y = f(x)\ny = sum(x);\nend");
  Alcotest.check mty "length is const int" (Mtype.row_vector Mtype.Double 5)
    (entry_ret
       ~args:[ Mtype.col_vector Mtype.Double 5 ]
       "function y = f(x)\ny = zeros(1, length(x));\nend");
  Alcotest.check mty "elementwise sin"
    (Mtype.row_vector Mtype.Double 7)
    (entry_ret
       ~args:[ Mtype.row_vector Mtype.Double 7 ]
       "function y = f(x)\ny = sin(x);\nend");
  Alcotest.check mty "min of two vectors"
    (Mtype.row_vector Mtype.Double 7)
    (entry_ret
       ~args:
         [ Mtype.row_vector Mtype.Double 7; Mtype.row_vector Mtype.Double 7 ]
       "function y = f(a, b)\ny = min(a, b);\nend");
  Alcotest.check mty "pi" Mtype.double
    (entry_ret ~args:[] "function y = f()\ny = pi;\nend")

let test_control_flow () =
  (* Types join across branches. *)
  Alcotest.check mty "if joins base types" Mtype.double
    (local_ty
       ~args:[ Mtype.double ]
       "function y = f(x)\nif x > 0\nv = 1;\nelse\nv = 2.5;\nend\ny = v;\nend"
       "v");
  expect_sema_error
    ~args:[ Mtype.double ]
    "function y = f(x)\nif x > 0\nv = zeros(1, 3);\nelse\nv = zeros(1, 4);\nend\ny = v(1);\nend";
  (* While fixpoint promotes counters. *)
  Alcotest.check mty "while promotes to double" Mtype.double
    (local_ty
       ~args:[ Mtype.double ]
       "function y = f(x)\ns = 0;\nwhile s < x\ns = s + 0.5;\nend\ny = s;\nend"
       "s")

let test_user_functions () =
  let src =
    "function y = f(x)\n\
     y = twice(x) + twice(2.5);\n\
     end\n\
     function r = twice(v)\n\
     r = 2 * v;\n\
     end\n"
  in
  let p = infer ~args:[ Mtype.double ] src in
  (* f, twice(double scalar): the two twice calls share arg types except
     consts differ; const-bearing keys create distinct instances. *)
  Alcotest.(check bool)
    "at least two instances" true
    (Array.length p.Tast.instances >= 2);
  Alcotest.check mty "result" Mtype.double (entry_ret ~args:[ Mtype.double ] src)

let test_multi_return_functions () =
  let src =
    "function y = f(x)\n\
     [lo, hi] = bounds(x);\n\
     y = hi - lo;\n\
     end\n\
     function [a, b] = bounds(v)\n\
     a = min(v);\n\
     b = max(v);\n\
     end\n"
  in
  Alcotest.check mty "multi-return" Mtype.double
    (entry_ret ~args:[ Mtype.row_vector Mtype.Double 6 ] src)

let test_subset_errors () =
  expect_sema_error ~args:[] "function y = f()\ny = undefined_var;\nend";
  expect_sema_error ~args:[] "function y = f()\nz(3) = 1;\ny = 1;\nend";
  expect_sema_error ~args:[ Mtype.double ]
    "function y = f(n)\ny = zeros(1, n);\nend";
  expect_sema_error ~args:[] "function y = f()\ny = f();\nend";
  expect_sema_error
    ~args:[ Mtype.row_vector Mtype.Double 4 ]
    "function y = f(x)\nif x\ny = 1;\nelse\ny = 2;\nend\nend";
  expect_sema_error ~args:[] "function y = f()\ny = 'hello';\nend"

let test_shape_stability () =
  expect_sema_error ~args:[]
    "function y = f()\nx = zeros(1, 3);\nx = zeros(2, 2);\ny = x(1);\nend";
  (* Base-type changes are allowed. *)
  Alcotest.check mty "int then double rebind" Mtype.double
    (local_ty ~args:[]
       "function y = f()\nv = 1;\nv = 2.5;\ny = v;\nend" "v")

(* Constants through control-flow joins. [n] holds a NaN constant
   (inf - inf). Joining a NaN constant with itself drops it, because NaN
   is not equal to itself, so after any [for], [while] or [if] it no
   longer sizes an array; ordinary constants survive all three joins. *)
let joins_src =
  "function y = f(x)\n\
   a = 1e308 * 10;\n\
   n = a - a;\n\
   k = 3;\n\
   w = zeros(1, 3 + (n ~= n));\n\
   for i = 1:2\n  x = x + k;\nend\n\
   j = 0;\n\
   while j < 2\n  j = j + 1;\nend\n\
   if x > 0\n  m = n;\n  c = 5;\nelse\n  m = n;\n  c = 5;\nend\n\
   z = zeros(1, k);\n\
   u = zeros(1, c);\n\
   y = w(1) + z(1) + u(1) + x + m + j;\n\
   end"

let test_constants_through_joins () =
  let args = [ Mtype.double ] in
  let p = infer ~args joins_src in
  (* Digest of the whole typed program, recorded with a join that
     merged every binding: skipping shared bindings must not change
     what inference produces. *)
  Alcotest.(check string)
    "typed program" "c3e4297995f3740878de565c8ca272c3"
    (Digest.to_hex (Digest.string (Marshal.to_string p [ Marshal.No_sharing ])));
  let ty name = local_ty ~args joins_src name in
  Alcotest.check mty "NaN constant sizes before any join"
    (Mtype.row_vector Mtype.Double 3) (ty "w");
  Alcotest.check mty "constant through for, while and if"
    (Mtype.row_vector Mtype.Double 3) (ty "z");
  Alcotest.check mty "equal constants from both if arms"
    (Mtype.row_vector Mtype.Double 5) (ty "u");
  List.iter
    (fun join ->
      expect_sema_error ~args
        ("function y = f(x)\na = 1e308 * 10;\nn = a - a;\n" ^ join
       ^ "w = zeros(1, 3 + (n ~= n));\ny = w(1) + x;\nend"))
    [ "for i = 1:2\n  x = x + 1;\nend\n";
      "while x < 2\n  x = x + 1;\nend\n";
      "if x > 0\n  x = 1;\nend\n" ]

(* A function of [n] counted loops, each defining one new variable:
   every loop's fixpoint joins the whole environment, so inference
   allocation is quadratic in [n] when a join rebuilds the map. *)
let loops_program n =
  let b = Buffer.create (n * 32) in
  Buffer.add_string b "function y = f(x)\ny = x;\n";
  for k = 1 to n do
    Printf.bprintf b "for i = 1:2\n  v%d = y + %d;\nend\n" k k
  done;
  Buffer.add_string b "end\n";
  Masc_frontend.Parser.parse_program (Buffer.contents b)

let test_join_allocation_linear () =
  let words ast =
    let run () =
      ignore (Infer.infer_program ast ~entry:"f" ~arg_types:[ Mtype.double ])
    in
    run ();
    let w0 = Gc.minor_words () in
    run ();
    Gc.minor_words () -. w0
  in
  let w32 = words (loops_program 32) and w256 = words (loops_program 256) in
  let ratio = w256 /. w32 in
  if ratio > 16.0 then
    Alcotest.failf
      "inference allocates %.0f words for 256 loops, %.0f for 32: %.1fx for \
       8x the statements"
      w256 w32 ratio

let suites =
  [ ( "sema",
      [ Alcotest.test_case "scalar types" `Quick test_scalar_types;
        Alcotest.test_case "constant shapes" `Quick test_const_shapes;
        Alcotest.test_case "ranges" `Quick test_ranges;
        Alcotest.test_case "indexing" `Quick test_indexing;
        Alcotest.test_case "matrix ops" `Quick test_matrix_ops;
        Alcotest.test_case "complex promotion" `Quick test_complex_promotion;
        Alcotest.test_case "builtins" `Quick test_builtins;
        Alcotest.test_case "control flow" `Quick test_control_flow;
        Alcotest.test_case "user functions" `Quick test_user_functions;
        Alcotest.test_case "multi-return" `Quick test_multi_return_functions;
        Alcotest.test_case "subset restrictions" `Quick test_subset_errors;
        Alcotest.test_case "shape stability" `Quick test_shape_stability;
        Alcotest.test_case "constants through joins" `Quick
          test_constants_through_joins;
        Alcotest.test_case "join allocation is linear" `Quick
          test_join_allocation_linear ] ) ]
