(* Diagnostics-engine tests: the crash-resistance corpus of malformed
   inputs, pinned caret/JSON rendering, multi-error recovery, the error
   budget, degradation-ladder notes, and the simulator guardrails
   driven end-to-end through the compiler. *)

module C = Masc.Compiler
module Diag = Masc_frontend.Diag
module MT = Masc_sema.Mtype
module Isa = Masc_asip.Isa
module Exec = Masc_vm.Exec
module I = Masc_vm.Interp
module V = Masc_vm.Value

let double = MT.scalar MT.Double

let compile_file ?error_budget ?(config = C.proposed ())
    ?(arg_types = [ double ]) source =
  C.compile_file ?error_budget config ~source ~entry:"f" ~arg_types

let errors_of diags =
  List.filter
    (fun (d : Diag.t) -> d.Diag.severity = Diag.Severity.Error)
    diags

(* --- crash-resistance corpus ---

   Every entry is malformed in some way (truncated, unterminated,
   ill-shaped, semantically wrong) and must produce structured
   diagnostics: [compile_file] never lets an exception escape, and a
   rejected program always carries at least one error explaining why. *)

let corpus =
  [ ("empty file", "");
    ("bare function keyword", "function");
    ("truncated header", "function y = f(");
    ("header without body", "function y = f(x)");
    ("truncated expression", "function y = f(x)\ny = x +\nend");
    ("operator then semicolon", "function y = f(x)\ny = 3 *;\nend");
    ("unterminated string", "function y = f(x)\ny = \"abc\nend");
    ("unterminated block comment", "function y = f(x)\n%{\nstuff");
    ("unterminated matrix", "function y = f(x)\ny = [1, 2, 3\nend");
    ("unterminated call", "function y = f(x)\ny = sin(x;\nend");
    ("ragged matrix rows", "function y = f(x)\ny = [1 2; 3];\nend");
    ("assignment to rvalue", "function y = f(x)\n3 = x;\nend");
    ("assignment to call of expr", "function y = f(x)\n(x + 1) = 2;\nend");
    ("stray close paren", "function y = f(x)\ny = x);\nend");
    ("stray close bracket", "function y = f(x)\ny = x];\nend");
    ("stray end", "end");
    ("missing loop header", "function y = f(x)\nfor\nend\nend");
    ("missing while condition", "function y = f(x)\nwhile\nend\nend");
    ("unclosed if", "function y = f(x)\nif x > 0\ny = 1;\nend");
    ("else without if", "function y = f(x)\nelse\ny = 1;\nend");
    ("malformed number", "function y = f(x)\ny = 1.2.3;\nend");
    ("garbage characters", "function y = f(x)\ny = x @ # $ ;\nend");
    ("binary junk", "\000\001\002\255");
    ("undefined variable", "function y = f(x)\ny = nope + 1;\nend");
    ("undefined function", "function y = f(x)\ny = g(x);\nend");
    ("recursion", "function y = f(x)\ny = f(x);\nend");
    ("dynamic shape", "function y = f(x)\ny = zeros(x, x);\nend");
    ("shape change", "function y = f(x)\ny = x;\ny = [1 2 3];\nend");
    ("growing assignment", "function y = f(x)\nx(2) = 5;\ny = x;\nend");
    ("non-scalar condition",
     "function y = f(x)\nif [1 2]\ny = 1;\nelse\ny = 2;\nend\nend");
    ("string arithmetic", "function y = f(x)\ny = 'abc' + x;\nend");
    ("complex range bound",
     "function y = f(x)\ny = 0;\nfor k = 1i:x\ny = y + k;\nend\nend");
    ("deep unclosed nesting",
     "function y = f(x)\ny = " ^ String.make 400 '(' ^ "x;\nend") ]

let test_corpus () =
  List.iter
    (fun (name, source) ->
      match compile_file source with
      | Some _, _ ->
        (* A few shapes may become legal as the subset grows; reaching
           here without an exception is the property under test. *)
        ()
      | None, diags ->
        Alcotest.(check bool)
          (name ^ ": rejection carries at least one error")
          true
          (errors_of diags <> []);
        List.iter
          (fun (d : Diag.t) ->
            Alcotest.(check bool)
              (name ^ ": diagnostic message is not empty")
              true (d.Diag.message <> ""))
          diags
      | exception e ->
        Alcotest.failf "%s: exception escaped compile_file: %s" name
          (Printexc.to_string e))
    corpus

(* --- multi-error recovery (the PR's acceptance test) --- *)

let test_multi_error () =
  let source =
    "function y = f(x)\n\
     a = undefined_one + 1;\n\
     b = 3 *;\n\
     c = undefined_two - 2;\n\
     y = x + 1;\n\
     end\n"
  in
  let result, diags = compile_file source in
  Alcotest.(check bool) "rejected" true (result = None);
  let errs = errors_of diags in
  Alcotest.(check bool)
    (Printf.sprintf "at least 3 independent errors (got %d)"
       (List.length errs))
    true
    (List.length errs >= 3);
  (* The three mistakes live on three different source lines. *)
  let lines =
    List.sort_uniq compare
      (List.map
         (fun (d : Diag.t) -> d.Diag.span.Masc_frontend.Loc.start_pos.line)
         errs)
  in
  Alcotest.(check bool) "errors span 3 distinct lines" true
    (List.length lines >= 3)

(* --- pinned rendering --- *)

let undefined_source = "function y = f(x)\ny = undefined_name + 1;\nend\n"

let sole_diag source =
  match compile_file source with
  | _, [ d ] -> d
  | _, diags ->
    Alcotest.failf "expected exactly one diagnostic, got %d"
      (List.length diags)

let test_caret_render () =
  let d = sole_diag undefined_source in
  Alcotest.(check string) "caret rendering"
    ("error: semantic analysis: line 2, columns 5-19: undefined variable \
      'undefined_name'\n\
     \   2 | y = undefined_name + 1;\n\
     \     |     ^^^^^^^^^^^^^^")
    (Diag.render ~source:undefined_source d);
  Alcotest.(check string) "header without source"
    "error: semantic analysis: line 2, columns 5-19: undefined variable \
     'undefined_name'"
    (Diag.render d)

let test_json_render () =
  let d = sole_diag undefined_source in
  Alcotest.(check string) "stable json object"
    "{\"severity\":\"error\",\"phase\":\"semantic analysis\",\"line\":2,\
     \"col\":5,\"end_line\":2,\"end_col\":19,\"message\":\"undefined \
     variable 'undefined_name'\"}"
    (Diag.to_json d)

(* A complex for-range operand has no order to count in: it is a sema
   error located at the operand, not a crash in a later stage. *)
let test_complex_range_located () =
  let source = "function y = f(z)\ny = 0;\nfor k = 1:z\ny = y + k;\nend\nend\n" in
  match compile_file ~arg_types:[ MT.complex ] source with
  | Some _, _ -> Alcotest.fail "a complex range bound must be rejected"
  | None, [ d ] ->
    Alcotest.(check string) "located at the operand"
      "error: semantic analysis: line 3, columns 11-12: for-loop range \
       bounds must be real"
      (Diag.render d)
  | None, diags ->
    Alcotest.failf "expected exactly one diagnostic, got %d"
      (List.length diags)

(* --- error budget --- *)

let test_error_budget () =
  let b = Buffer.create 1024 in
  Buffer.add_string b "function y = f(x)\n";
  for i = 1 to 40 do
    Buffer.add_string b (Printf.sprintf "a%d = undef%d + 1;\n" i i)
  done;
  Buffer.add_string b "y = x;\nend\n";
  let result, diags = compile_file ~error_budget:8 (Buffer.contents b) in
  Alcotest.(check bool) "rejected" true (result = None);
  Alcotest.(check int) "exactly the budgeted number of errors recorded" 8
    (List.length (errors_of diags))

(* --- happy path: a clean compile accumulates nothing --- *)

let test_clean_compile_no_diags () =
  let source =
    "function y = f(x)\n\
     y = zeros(1, 8);\n\
     for i = 1:8\n\
     y(i) = x(i) * 2;\n\
     end\n\
     end\n"
  in
  let result, diags =
    compile_file ~arg_types:[ MT.row_vector MT.Double 8 ] source
  in
  Alcotest.(check bool) "compiled" true (result <> None);
  Alcotest.(check int) "no diagnostics" 0 (List.length diags)

(* --- degradation ladder: missing SIMD instruction -> note, scalar code --- *)

let test_missing_ise_note () =
  let bare =
    match Masc_asip.Targets.by_name "dsp8" with
    | Some t -> { t with Isa.tname = "bare8"; instrs = [] }
    | None -> Alcotest.fail "dsp8 target missing"
  in
  let source =
    "function y = f(x)\n\
     y = zeros(1, 16);\n\
     for i = 1:16\n\
     y(i) = x(i) * 2;\n\
     end\n\
     end\n"
  in
  let result, diags =
    compile_file
      ~config:(C.proposed ~isa:bare ())
      ~arg_types:[ MT.row_vector MT.Double 16 ]
      source
  in
  match result with
  | None -> Alcotest.fail "degradation must not reject the program"
  | Some c ->
    Alcotest.(check int) "loop stays scalar" 0
      c.C.vec_stats.Masc_vectorize.Vectorizer.map_loops;
    let notes =
      List.filter
        (fun (d : Diag.t) ->
          d.Diag.severity = Diag.Severity.Note
          && d.Diag.phase = Diag.Vectorize)
        diags
    in
    (match notes with
    | (n : Diag.t) :: _ ->
      Alcotest.(check bool) "note names the missing instruction" true
        (let msg = n.Diag.message in
         let has sub =
           let ls = String.length sub and lm = String.length msg in
           let rec go i = i + ls <= lm && (String.sub msg i ls = sub || go (i + 1)) in
           go 0
         in
         has "lacks" && has "bare8")
    | [] -> Alcotest.fail "expected a missing-instruction note")

(* --- simulator guardrails through the compiler driver --- *)

let spin_source =
  "function y = f(x)\ny = x;\nwhile 1 > 0\ny = y + 1;\nend\nend\n"

let test_fuel_trap_end_to_end () =
  let c =
    C.compile (C.proposed ()) ~source:spin_source ~entry:"f"
      ~arg_types:[ double ]
  in
  match C.run ~fuel:5_000 c [ I.Xscalar (V.Sf 1.0) ] with
  | _ -> Alcotest.fail "expected a fuel trap"
  | exception
      Exec.Trap
        { kind = Exec.Fuel_exhausted { fuel }; loc; steps_executed } ->
    Alcotest.(check int) "budget echoed" 5_000 fuel;
    Alcotest.(check string) "trap names the function" "f" loc;
    Alcotest.(check bool) "stopped just past the budget" true
      (steps_executed > 5_000 && steps_executed < 6_000)

let test_alloc_trap_end_to_end () =
  let source = "function y = f(x)\ny = zeros(1, 4096) + x;\nend\n" in
  let c =
    C.compile (C.proposed ()) ~source ~entry:"f" ~arg_types:[ double ]
  in
  match C.run ~max_alloc_bytes:1024 c [ I.Xscalar (V.Sf 1.0) ] with
  | _ -> Alcotest.fail "expected an allocation trap"
  | exception
      Exec.Trap { kind = Exec.Alloc_limit { requested_bytes; cap_bytes }; _ }
    ->
    Alcotest.(check int) "cap echoed" 1024 cap_bytes;
    Alcotest.(check bool) "request exceeds cap" true
      (requested_bytes > cap_bytes)

let suites =
  [ ( "diagnostics",
      [ Alcotest.test_case "malformed corpus is crash-free" `Quick test_corpus;
        Alcotest.test_case "multi-error recovery" `Quick test_multi_error;
        Alcotest.test_case "caret rendering pinned" `Quick test_caret_render;
        Alcotest.test_case "json rendering pinned" `Quick test_json_render;
        Alcotest.test_case "error budget" `Quick test_error_budget;
        Alcotest.test_case "complex range bound located" `Quick
          test_complex_range_located;
        Alcotest.test_case "clean compile accumulates nothing" `Quick
          test_clean_compile_no_diags;
        Alcotest.test_case "missing ISE note" `Quick test_missing_ise_note;
        Alcotest.test_case "fuel trap end-to-end" `Quick
          test_fuel_trap_end_to_end;
        Alcotest.test_case "alloc trap end-to-end" `Quick
          test_alloc_trap_end_to_end ] ) ]
