(* C emission tests: structural checks on the generated code, and —
   when a host C compiler is available — full compile-and-run
   equivalence between the generated C and the simulator. *)

open Masc_sema
module Mir = Masc_mir.Mir
module I = Masc_vm.Interp
module V = Masc_vm.Value
module C = Masc.Compiler
module K = Masc_kernels.Kernels
module H = Masc_codegen.Harness

let compile config ~args src =
  C.compile config ~source:src ~entry:"f" ~arg_types:args

let contains ~needle haystack =
  let nl = String.length needle and hl = String.length haystack in
  let rec go i = i + nl <= hl && (String.sub haystack i nl = needle || go (i + 1)) in
  go 0

let test_c_structure_proposed () =
  let c =
    compile (C.proposed ())
      ~args:[ Mtype.row_vector Mtype.Double 64; Mtype.row_vector Mtype.Double 64 ]
      "function y = f(a, b)\ny = a .* b + 1;\nend"
  in
  let src = C.c_source c in
  Alcotest.(check bool) "includes runtime" true
    (contains ~needle:"#include \"masc_runtime.h\"" src);
  Alcotest.(check bool) "static array params" true
    (contains ~needle:"const double a_0[64]" src);
  Alcotest.(check bool) "vector intrinsics used" true
    (contains ~needle:"vmul_f64x8(" src);
  Alcotest.(check bool) "wide loads" true (contains ~needle:"vld_f64x8(" src);
  Alcotest.(check bool) "no bounds checks" false (contains ~needle:"masc_bc(" src)

let test_c_structure_coder () =
  let c =
    compile (C.coder_baseline ())
      ~args:[ Mtype.row_vector Mtype.Double 64; Mtype.row_vector Mtype.Double 64 ]
      "function y = f(a, b)\ny = a .* b + 1;\nend"
  in
  let src = C.c_source c in
  Alcotest.(check bool) "descriptor params" true
    (contains ~needle:"masc_emx a_0" src);
  Alcotest.(check bool) "bounds checks present" true
    (contains ~needle:"masc_bc(" src);
  Alcotest.(check bool) "no intrinsics" false (contains ~needle:"vmul_f64x8(" src)

let test_c_complex_intrinsics () =
  let c =
    compile (C.proposed ()) ~args:[ Mtype.complex; Mtype.complex ]
      "function y = f(a, b)\ny = a * b;\nend"
  in
  let src = C.c_source c in
  Alcotest.(check bool) "cmul intrinsic" true (contains ~needle:"cmul_f64(" src)

let test_runtime_header_self_contained () =
  let h = Masc_codegen.Runtime.header Masc_asip.Targets.dsp8 in
  List.iter
    (fun needle ->
      Alcotest.(check bool) needle true (contains ~needle h))
    [ "typedef struct { double re, im; } masc_cplx";
      "masc_v8f64"; "vadd_f64x8"; "vmac_f64x8"; "cmul_f64"; "masc_bc" ]

(* ---- compile-and-run equivalence via the host C compiler ---- *)

let cc_available =
  lazy (Sys.command "cc --version > /dev/null 2>&1" = 0)

(* Compile [source] with the host C compiler and run it; under
   [?timeout] (seconds) a run that does not finish in time fails. *)
let run_c_program ?timeout source =
  let dir = Filename.temp_file "masc" "" in
  Sys.remove dir;
  Unix.mkdir dir 0o755;
  let c_file = Filename.concat dir "prog.c" in
  let exe = Filename.concat dir "prog" in
  let oc = open_out c_file in
  output_string oc source;
  close_out oc;
  let cmd =
    Printf.sprintf "cc -std=c99 -O1 -o %s %s -lm 2>%s/cc.log" exe c_file dir
  in
  if Sys.command cmd <> 0 then begin
    let log = In_channel.with_open_text (dir ^ "/cc.log") In_channel.input_all in
    Alcotest.failf "cc failed:\n%s" log
  end;
  let run =
    match timeout with
    | Some s -> Printf.sprintf "timeout %d %s" s exe
    | None -> exe
  in
  let ic = Unix.open_process_in run in
  let lines = ref [] in
  (try
     while true do
       lines := input_line ic :: !lines
     done
   with End_of_file -> ());
  (match (Unix.close_process_in ic, timeout) with
  | Unix.WEXITED 124, Some s ->
    Alcotest.failf "C program did not finish within %d s" s
  | _ -> ());
  List.rev !lines

let floats_of_lines lines =
  List.concat_map
    (fun line ->
      List.filter_map float_of_string_opt
        (String.split_on_char ' ' (String.trim line)))
    lines

let sim_floats (r : I.result) =
  List.concat_map
    (fun ret ->
      match ret with
      | I.Xscalar s -> (
        match s with
        | V.Sc z -> [ z.Complex.re; z.Complex.im ]
        | s -> [ V.to_float s ])
      | I.Xarray a ->
        Array.to_list a
        |> List.concat_map (fun s ->
               match s with
               | V.Sc z -> [ z.Complex.re; z.Complex.im ]
               | s -> [ V.to_float s ]))
    r.I.rets

let harness_inputs (k : K.kernel) =
  List.map
    (fun (x : I.xvalue) ->
      match x with
      | I.Xscalar (V.Sf f) -> H.Hscalar f
      | I.Xscalar (V.Si i) -> H.Hscalar (float_of_int i)
      | I.Xscalar (V.Sc z) -> H.Hcomplex z
      | I.Xscalar (V.Sb b) -> H.Hscalar (if b then 1.0 else 0.0)
      | I.Xarray a -> (
        match Array.length a > 0 && (match a.(0) with V.Sc _ -> true | _ -> false) with
        | true -> H.Hcarray (Array.map V.to_complex a)
        | false -> H.Harray (Array.map V.to_float a)))
    (k.K.inputs ())

let check_c_matches_simulator config (k : K.kernel) =
  if not (Lazy.force cc_available) then ()
  else begin
    let compiled =
      C.compile config ~source:k.K.source ~entry:k.K.entry
        ~arg_types:k.K.arg_types
    in
    let inputs = k.K.inputs () in
    let sim = C.run compiled inputs in
    let full =
      H.full_program ~isa:compiled.C.config.C.isa
        ~mode:compiled.C.config.C.mode compiled.C.mir (harness_inputs k)
    in
    let c_vals = floats_of_lines (run_c_program full) in
    let sim_vals = sim_floats sim in
    Alcotest.(check int)
      (k.K.kname ^ " output count")
      (List.length sim_vals) (List.length c_vals);
    List.iteri
      (fun i (a, b) ->
        if not (V.close ~tol:1e-9 (V.Sf a) (V.Sf b)) then
          Alcotest.failf "%s: C output %d: %.17g vs simulator %.17g" k.K.kname
            i b a)
      (List.combine sim_vals c_vals)
  end

let test_gcc_proposed_kernels () =
  (* Smaller sizes keep the embedded-initializer C files manageable. *)
  List.iter
    (check_c_matches_simulator (C.proposed ()))
    [ K.fir ~n:64 ~m:8 (); K.iir ~n:32 ~sections:2 (); K.fft ~n:32 ();
      K.matmul ~n:6 (); K.xcorr ~n:48 ~m:8 (); K.fmdemod ~n:40 () ]

let test_gcc_coder_kernels () =
  List.iter
    (check_c_matches_simulator (C.coder_baseline ()))
    [ K.fir ~n:64 ~m:8 (); K.fft ~n:32 (); K.matmul ~n:6 () ]

let test_gcc_widths () =
  (* The same program retargeted across vector widths still matches. *)
  List.iter
    (fun isa ->
      check_c_matches_simulator
        (C.proposed ~isa ())
        (K.fir ~n:64 ~m:8 ()))
    [ Masc_asip.Targets.dsp4; Masc_asip.Targets.dsp16;
      Masc_asip.Targets.dsp8_simd_only; Masc_asip.Targets.dsp8_cplx_only ]

(* A [for] whose variable is typed apart from its range, whose body
   assigns the variable, or whose variable is read after the loop,
   counts a fresh variable of the range's type: the emitted C's [for]
   then counts exactly as the simulators do, and leaves the variable at
   the last value the loop gave it (or the one it came in with). Each
   program runs with a range of three iterations and with a zero-trip
   range, on scalar and dsp8 at O0 and O2; the last two fix their own
   trip counts. The tree-walker and the plan
   must agree bit for bit on returns, cycles and histograms, and the C,
   run through the host compiler, on every returned bit. A C [for]
   whose body moves its own counter can run forever, hence the
   timeout. *)
let test_loop_variable_lowering () =
  if Lazy.force cc_available then begin
    let programs =
      [ ( "double k",
          "function [y, k] = f(n)\ny = 0;\nk = 0.5;\n\
           for k = 1:n\n  y = y + k/2;\nend\nend" );
        ( "complex k",
          "function [y, k] = f(n)\ny = 0;\nk = 1i;\n\
           for k = 1:n\n  y = y + k;\nend\nend" );
        ( "body assigns k",
          "function y = f(n)\ny = 0;\n\
           for k = 1:n\n  k = k*0.5;\n  y = y + k;\nend\nend" );
        ( "k read after the loop",
          "function y = f(x)\nn = 3;\ny = 0;\n\
           for k = 1:n\n  y = y + 1;\nend\ny = y + 10*k + x;\nend" );
        ( "k read after a zero-trip loop",
          "function y = f(x)\nn = 0;\ny = 0;\n\
           for k = 1:n\n  y = y + 1;\nend\ny = y + 10*k + x;\nend" ) ]
    in
    let bits (r : I.result) = List.map Int64.bits_of_float (sim_floats r) in
    List.iter
      (fun (pname, src) ->
        List.iter
          (fun (tname, isa) ->
            List.iter
              (fun (lname, opt_level) ->
                let c =
                  compile
                    { (C.proposed ~isa ()) with C.opt_level }
                    ~args:[ Mtype.scalar Mtype.Int ] src
                in
                let isa = c.C.config.C.isa and mode = c.C.config.C.mode in
                List.iter
                  (fun n ->
                    let tag what =
                      Printf.sprintf "%s/%s/%s n=%d %s" pname tname lname n
                        what
                    in
                    let inputs = [ I.Xscalar (V.Si n) ] in
                    let rt = I.run_tree ~isa ~mode c.C.mir inputs in
                    let rp = I.run ~isa ~mode c.C.mir inputs in
                    Alcotest.(check int) (tag "cycles") rt.I.cycles rp.I.cycles;
                    Alcotest.(check bool) (tag "histogram") true
                      (rt.I.histogram = rp.I.histogram);
                    Alcotest.(check (list int64)) (tag "plan returns")
                      (bits rt) (bits rp);
                    let prog =
                      H.full_program ~isa ~mode c.C.mir
                        [ H.Hscalar (float_of_int n) ]
                    in
                    Alcotest.(check (list int64)) (tag "C returns") (bits rt)
                      (List.map Int64.bits_of_float
                         (floats_of_lines (run_c_program ~timeout:10 prog))))
                  [ 3; 0 ])
              [ ("O0", Masc_opt.Pipeline.O0); ("O2", Masc_opt.Pipeline.O2) ])
          [ ("scalar", Masc_asip.Targets.scalar);
            ("dsp8", Masc_asip.Targets.dsp8) ])
      programs
  end

(* Programs whose optimized forms once disagreed with their O0 form,
   each run with one double argument in tree, plan and C at every
   level and target given. Tree and plan must agree bit for bit on
   returns, cycles and histograms; the C, run through the host
   compiler, and every level must return the bits O0 returns (any NaN
   matches any NaN, since the C prints a NaN without its payload). *)
let check_levels_agree ~levels ~targets (pname, x, src) =
  let bits (r : I.result) = List.map Int64.bits_of_float (sim_floats r) in
  let same a b =
    List.length a = List.length b
    && List.for_all2
         (fun a b ->
           Int64.equal a b
           || (Float.is_nan (Int64.float_of_bits a)
              && Float.is_nan (Int64.float_of_bits b)))
         a b
  in
  List.iter
    (fun (tname, isa) ->
      let o0 = ref None in
      List.iter
        (fun (lname, opt_level) ->
          let tag what = Printf.sprintf "%s/%s/%s %s" pname tname lname what in
          let c =
            compile { (C.proposed ~isa ()) with C.opt_level } ~args:[ Mtype.double ]
              src
          in
          let isa = c.C.config.C.isa and mode = c.C.config.C.mode in
          let inputs = [ I.Xscalar (V.Sf x) ] in
          let rt = I.run_tree ~isa ~mode c.C.mir inputs in
          let rp = I.run ~isa ~mode c.C.mir inputs in
          Alcotest.(check int) (tag "cycles") rt.I.cycles rp.I.cycles;
          Alcotest.(check bool) (tag "histogram") true
            (rt.I.histogram = rp.I.histogram);
          Alcotest.(check (list int64)) (tag "plan returns") (bits rt) (bits rp);
          if Lazy.force cc_available then begin
            let prog = H.full_program ~isa ~mode c.C.mir [ H.Hscalar x ] in
            let cb =
              List.map Int64.bits_of_float
                (floats_of_lines (run_c_program ~timeout:10 prog))
            in
            if not (same (bits rt) cb) then
              Alcotest.failf "%s: C returns %s, simulators %s" (tag "")
                (String.concat " " (List.map Int64.to_string cb))
                (String.concat " " (List.map Int64.to_string (bits rt)))
          end;
          match !o0 with
          | None -> o0 := Some (bits rt)
          | Some b0 ->
            if not (same b0 (bits rt)) then
              Alcotest.failf "%s: returns %s, O0 returns %s" (tag "")
                (String.concat " "
                   (List.map (fun b -> Printf.sprintf "%h" (Int64.float_of_bits b))
                      (bits rt)))
                (String.concat " "
                   (List.map (fun b -> Printf.sprintf "%h" (Int64.float_of_bits b))
                      b0)))
        levels)
    targets

(* Signed zeros survive optimization. [negz]: [z + 0] is +0 when [z] is
   -0.0, so const-fold must not fold it to [z] (O1 returned -inf where
   O0 returns NaN). [negz3]: [z * 0.0] and [z * -0.0] are different
   values, so CSE must not merge them (O1 returned inf). *)
let test_signed_zeros () =
  List.iter
    (check_levels_agree
       ~levels:
         [ ("O0", Masc_opt.Pipeline.O0); ("O1", Masc_opt.Pipeline.O1);
           ("O2", Masc_opt.Pipeline.O2) ]
       ~targets:
         [ ("scalar", Masc_asip.Targets.scalar); ("dsp8", Masc_asip.Targets.dsp8) ])
    [ ( "negz", 0.75,
        "function y = f(x)
z = -(x * x * 0);
a = z + 0;
b = z + (-0);
         y = 1 / a + 2 / b;
end" );
      ( "negz3", 0.75,
        "function y = f(x)
z = x * x;
a = z * (0.5 * 0);
         b = z * -(0.5 * 0);
y = 1 / a + 1 / b;
end" ) ]

(* A [for] variable read after a loop the vectorizer would strip-mine:
   its copy in the body ([k_3 = k_4]) would stay scalar in the vector
   loop and end at the last strip's first index whenever the epilogue
   runs no iteration (n = 8 and 16 on dsp8, 16 on dsp16), so the loop
   stays scalar. *)
let test_loop_variable_after_vector_loop () =
  List.iter
    (fun n ->
      check_levels_agree
        ~levels:[ ("O0", Masc_opt.Pipeline.O0); ("O2", Masc_opt.Pipeline.O2) ]
        ~targets:
          [ ("dsp8", Masc_asip.Targets.dsp8); ("dsp16", Masc_asip.Targets.dsp16) ]
        ( Printf.sprintf "n=%d" n, 0.5,
          Printf.sprintf
            "function y = f(x)
n = %d;
y = 0;
             for k = 1:n
  y = y + 1;
end
y = y + 10*k + x;
end"
            n ))
    [ 0; 3; 8; 16 ]

(* Infer types a variable per program point, while its MIR variable
   has the join of all its bindings: after [k = 1i; k = 2] the read of
   [k] in [k + 1] is real and [k] is complex. The read takes the real
   part, so [y] is the int 3 in both engines and the C compiles and
   agrees. The array form, [k = x * 1i; k = x], also keeps the vectorizer
   from storing a vector register into the complex [k] on dsp8. *)
let test_joined_complex_reads () =
  let programs =
    [ ( "scalar", [ Mtype.double ], [ I.Xscalar (V.Sf 0.5) ],
        "function y = f(x)
k = 1i;
k = 2;
y = k + 1;
end" );
      ( "array",
        [ Mtype.row_vector Mtype.Double 16 ],
        [ I.xarray_of_floats (Array.init 16 (fun i -> float_of_int i /. 4.)) ],
        "function y = f(x)
k = x * 1i;
k = x;
y = k + 1;
end" ) ]
  in
  let bits (r : I.result) = List.map Int64.bits_of_float (sim_floats r) in
  List.iter
    (fun (pname, args, inputs, src) ->
      let c = compile (C.proposed ()) ~args src in
      let isa = c.C.config.C.isa and mode = c.C.config.C.mode in
      let rt = I.run_tree ~isa ~mode c.C.mir inputs in
      let rp = I.run ~isa ~mode c.C.mir inputs in
      Alcotest.(check int) (pname ^ " cycles") rt.I.cycles rp.I.cycles;
      Alcotest.(check bool) (pname ^ " plan = tree") true
        (compare rt.I.rets rp.I.rets = 0 && rt.I.histogram = rp.I.histogram);
      if pname = "scalar" then
        Alcotest.(check bool) "y is the int 3" true
          (rt.I.rets = [ I.Xscalar (V.Si 3) ]);
      if Lazy.force cc_available then
        let harness_args =
          List.map
            (function
              | I.Xscalar s -> H.Hscalar (V.to_float s)
              | I.Xarray a -> H.Harray (Array.map V.to_float a))
            inputs
        in
        Alcotest.(check (list int64)) (pname ^ " C returns") (bits rt)
          (List.map Int64.bits_of_float
             (floats_of_lines
                (run_c_program (H.full_program ~isa ~mode c.C.mir harness_args)))))
    programs

(* The complex ISEs take [masc_cplx] operands only, as
   masc_runtime.h declares them, so an add, multiply or multiply-add
   with a real operand stays open-coded, and the C promotes the real
   operand. Each program compiles under [cc -std=c99] on scalar and
   dsp8 at O0 and O2, and the tree-walker, the plan and the C agree on
   every returned bit, cycles and histograms included for the two
   engines. *)
let test_real_operand_complex_ops () =
  let programs =
    [ ("x + 1i", [ Mtype.double ], "function y = f(x)\ny = x + 1i;\nend");
      ("x * 1i", [ Mtype.double ], "function y = f(x)\ny = x * 1i;\nend");
      ( "x + z * z",
        [ Mtype.double; Mtype.complex ],
        "function y = f(x, z)\ny = x + z * z;\nend" ) ]
  in
  let inputs =
    [ I.Xscalar (V.Sf (-0.75));
      I.Xscalar (V.Sc { Complex.re = 0.5; im = -1.25 }) ]
  in
  let bits (r : I.result) = List.map Int64.bits_of_float (sim_floats r) in
  List.iter
    (fun (pname, args, src) ->
      List.iter
        (fun (tname, isa) ->
          List.iter
            (fun (lname, opt_level) ->
              let tag what = Printf.sprintf "%s/%s/%s %s" pname tname lname what in
              let c = compile { (C.proposed ~isa ()) with C.opt_level } ~args src in
              let mode = c.C.config.C.mode in
              let inputs = List.filteri (fun i _ -> i < List.length args) inputs in
              let rt = I.run_tree ~isa ~mode c.C.mir inputs in
              let rp = C.run c inputs in
              Alcotest.(check int) (tag "cycles") rt.I.cycles rp.I.cycles;
              Alcotest.(check bool) (tag "histogram") true
                (rt.I.histogram = rp.I.histogram);
              Alcotest.(check (list int64)) (tag "plan returns") (bits rt)
                (bits rp);
              if Lazy.force cc_available then
                let harness_args =
                  List.map
                    (function
                      | I.Xscalar (V.Sc z) -> H.Hcomplex z
                      | I.Xscalar s -> H.Hscalar (V.to_float s)
                      | I.Xarray _ -> assert false)
                    inputs
                in
                Alcotest.(check (list int64)) (tag "C returns") (bits rt)
                  (List.map Int64.bits_of_float
                     (floats_of_lines
                        (run_c_program (H.full_program ~isa ~mode c.C.mir harness_args)))))
            [ ("O0", Masc_opt.Pipeline.O0); ("O2", Masc_opt.Pipeline.O2) ])
        [ ("scalar", Masc_asip.Targets.scalar); ("dsp8", Masc_asip.Targets.dsp8) ])
    programs

(* A vector register starts at zero lanes of its width, as the C
   declares it ([masc_v8f64 v = {{0.0}}]): storing or reducing one that
   was never written gives zeros in the tree-walker, the plan and the
   C. *)
let test_unwritten_vector_register () =
  let v =
    { Mir.vname = "v"; vid = 0;
      vty = Mir.Tscalar { Mir.base = Mtype.Double; cplx = Mtype.Real; lanes = 8 } }
  in
  let out = { Mir.vname = "out"; vid = 1; vty = Mir.Tarray (Mir.double_sty, 8) } in
  let s = { Mir.vname = "s"; vid = 2; vty = Mir.Tscalar Mir.double_sty } in
  let f =
    { Mir.name = "f"; params = []; rets = [ out; s ]; next_vid = 3;
      body =
        List.map Mir.instr
          [ Mir.Ivstore (out, Mir.Oconst (Mir.Ci 0), Mir.Ovar v, 8);
            Mir.Idef (s, Mir.Rvreduce (Mir.Vsum, Mir.Ovar v)) ] }
  in
  let isa = Masc_asip.Targets.dsp8 and mode = Masc_asip.Cost_model.Proposed in
  let zeros = List.init 9 (fun _ -> 0L) in
  let bits (r : I.result) = List.map Int64.bits_of_float (sim_floats r) in
  Alcotest.(check (list int64)) "tree" zeros (bits (I.run_tree ~isa ~mode f []));
  Alcotest.(check (list int64)) "plan" zeros (bits (I.run ~isa ~mode f []));
  if Lazy.force cc_available then
    Alcotest.(check (list int64)) "C" zeros
      (List.map Int64.bits_of_float
         (floats_of_lines (run_c_program (H.full_program ~isa ~mode f []))))

(* A function declares the variables its body mentions and no others:
   not a temporary dead-code elimination deleted ([y = x + 1i] left
   [t_2], [y = w + z * z] left [t_3] and [t_4]), nor the vector
   registers of a loop the vectorizer gave up on (the gather loop left
   [bc_15] and [v_16]). Every name a declaration introduces appears
   again in the C, on dsp8 at O2. *)
let test_c_declares_only_used () =
  let programs =
    [ ( "gather",
        [ Mtype.row_vector Mtype.Double 16; Mtype.row_vector Mtype.Double 32 ],
        "function y = f(a, b)\ny = zeros(1, 16);\n\
         for i = 1:16\n  y(i) = a(i) * 2 + b(2 * i);\nend\nend" );
      ("x + 1i", [ Mtype.double ], "function y = f(x)\ny = x + 1i;\nend");
      ( "w + z * z",
        [ Mtype.complex; Mtype.complex ],
        "function y = f(w, z)\ny = w + z * z;\nend" ) ]
  in
  let ident c =
    c = '_' || (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z')
    || (c >= '0' && c <= '9')
  in
  let idents line =
    String.map (fun c -> if ident c then c else ' ') line
    |> String.split_on_char ' '
    |> List.filter (( <> ) "")
  in
  List.iter
    (fun (pname, args, src) ->
      let src = C.c_source (compile (C.proposed ()) ~args src) in
      let lines = String.split_on_char '\n' src in
      (* The declarations run from the line after the function's "{" to
         the first blank line. *)
      let rec split = function
        | "{" :: rest -> rest
        | _ :: rest -> split rest
        | [] -> Alcotest.failf "%s: no function body" pname
      in
      let rec decls acc = function
        | l :: rest when String.trim l <> "" -> decls (l :: acc) rest
        | rest -> (List.rev acc, rest)
      in
      let declared, body = decls [] (split lines) in
      let mentioned = List.concat_map idents body in
      List.iter
        (fun d ->
          match idents d with
          | _ :: name :: _ ->
            if not (List.mem name mentioned) then
              Alcotest.failf "%s declares unused %s" pname name
          | _ -> Alcotest.failf "%s: unreadable declaration %s" pname d)
        declared)
    programs

(* ---- exact bytes, strict C validity, non-finite constants ---- *)

(* The paper kernels under every emission style the evaluation uses. *)
let digest_configs =
  [ ("scalar", fun () -> C.proposed ~isa:Masc_asip.Targets.scalar ());
    ("dsp4", fun () -> C.proposed ~isa:Masc_asip.Targets.dsp4 ());
    ("dsp8", fun () -> C.proposed ~isa:Masc_asip.Targets.dsp8 ());
    ("dsp16", fun () -> C.proposed ~isa:Masc_asip.Targets.dsp16 ());
    ("coder", fun () -> C.coder_baseline ()) ]

let kernel_units () =
  List.concat_map
    (fun (k : K.kernel) ->
      List.map
        (fun (cname, config) ->
          ( k.K.kname,
            cname,
            C.compile (config ()) ~source:k.K.source ~entry:k.K.entry
              ~arg_types:k.K.arg_types ))
        digest_configs)
    (K.all ())

(* MD5 of [Compiler.c_source] per kernel and style: any change to the
   emitted bytes, however small, shows up here. *)
let expected_digests =
  [ ("fir", "scalar", "968ddb3578bcb3d047f32c18311a0766");
    ("fir", "dsp4", "0df297f12511f4f2307a803083be4060");
    ("fir", "dsp8", "35528bc85c17f33225a6e7d4955c5b1d");
    ("fir", "dsp16", "6bab7363f27c3dbbc788d66ae067bf04");
    ("fir", "coder", "ff984ab4fc584ba50d3027af14e96a68");
    ("iir", "scalar", "a60f97e49a80e37dc311d8be5f946c7a");
    ("iir", "dsp4", "e9a4ca34b154a393cf118f1a3890dac4");
    ("iir", "dsp8", "8aa7bdc958b45b577316709690bd95bb");
    ("iir", "dsp16", "b63e128893ea638fdf5c27d596296ad4");
    ("iir", "coder", "278be6568123571764cb9d16bdd8e927");
    ("fft", "scalar", "d471a23627b1c70d009c5eed61f17406");
    ("fft", "dsp4", "34a3a8902941f1e2404ae7d23ebc98b6");
    ("fft", "dsp8", "d32504f6798dbde167bc44ec22353a70");
    ("fft", "dsp16", "d1e914c4b5d87c7f6cbd184f3023d38c");
    ("fft", "coder", "cc7e0ce687c23c7c7126918b70064447");
    ("matmul", "scalar", "d185c510373a1c82c751292cad29b099");
    ("matmul", "dsp4", "99b7f802e365dceb596cdf2842a69014");
    ("matmul", "dsp8", "e7cc441d4b2628a23fe2ae63f8afa01e");
    ("matmul", "dsp16", "0c88e53e605382ef7ec3da378335f0c2");
    ("matmul", "coder", "504ff6002bfbadfb791947489e49314e");
    ("xcorr", "scalar", "067b7fd96aa73c5030cfad6debbe28c7");
    ("xcorr", "dsp4", "7a5fe5d7568d46c6e4bc177fdceea25d");
    ("xcorr", "dsp8", "476db9e163b7e61ead512ab3df74ba33");
    ("xcorr", "dsp16", "0cd94e4565cb5d30f50a41dc9fa82aa4");
    ("xcorr", "coder", "52b04ae493ba855b880d033ca34c0625");
    ("fmdemod", "scalar", "c133d0590bab5bca9d27b0b02662b7a1");
    ("fmdemod", "dsp4", "1547bc4b3ebf1827c8be9f4178098af8");
    ("fmdemod", "dsp8", "5507a59327a70cd1ffe9f79184e56cdc");
    ("fmdemod", "dsp16", "ece6ce5cc7522bbec5fc017606838fe1");
    ("fmdemod", "coder", "380ba0732c192ab5963de9694b7614e0") ]

let test_c_digests () =
  let got =
    List.map
      (fun (k, cname, c) ->
        (k, cname, Digest.to_hex (Digest.string (C.c_source c))))
      (kernel_units ())
  in
  Alcotest.(check (list (triple string string string)))
    "MD5 of the generated C" expected_digests got

(* 1/0, -(1/0) and 0/0 fold to non-finite constants, which C spells with
   the <math.h> macros. *)
let nonfinite_source =
  "function y = f(a)\n\
   p = 1/0;\n\
   q = 0/0;\n\
   y = zeros(1, 4);\n\
   y(1) = a(1) + p;\n\
   y(2) = -p;\n\
   y(3) = min(a(2), p);\n\
   y(4) = a(3) + q;\n\
   end"

let nonfinite_units () =
  List.map
    (fun (cname, config) ->
      ( "nonfinite",
        cname,
        compile (config ()) ~args:[ Mtype.row_vector Mtype.Double 4 ]
          nonfinite_source ))
    (List.filter
       (fun (cname, _) -> cname = "dsp8" || cname = "coder")
       digest_configs)

let test_c_nonfinite_constants () =
  List.iter
    (fun (_, cname, c) ->
      let src = C.c_source c in
      (* The coder baseline compiles at O0: nothing folds, and the
         division happens at run time. *)
      if cname <> "coder" then
        List.iter
          (fun needle ->
            Alcotest.(check bool) (cname ^ " has " ^ needle) true
              (contains ~needle src))
          [ "INFINITY"; "(-INFINITY)"; "NAN" ];
      List.iter
        (fun needle ->
          Alcotest.(check bool) (cname ^ " lacks " ^ needle) false
            (contains ~needle src))
        [ " inf"; "nan)"; "nan;" ];
      if Lazy.force cc_available then begin
        let input = [| 0.5; -0.25; 2.0; 1.0 |] in
        let sim = C.run c [ I.Xarray (Array.map (fun f -> V.Sf f) input) ] in
        let full =
          H.full_program ~isa:c.C.config.C.isa ~mode:c.C.config.C.mode
            c.C.mir [ H.Harray input ]
        in
        let c_vals = floats_of_lines (run_c_program full) in
        let sim_vals = sim_floats sim in
        Alcotest.(check int) (cname ^ " output count") (List.length sim_vals)
          (List.length c_vals);
        List.iteri
          (fun i (a, b) ->
            if not (Float.equal a b) then
              Alcotest.failf "%s: C output %d: %h vs simulator %h" cname i b a)
          (List.combine sim_vals c_vals)
      end)
    (nonfinite_units ())

(* The kernels' translation units and the non-finite program pass a
   strict ISO C99 syntax check with warnings as errors. Unused variables
   are exempt: every MIR variable is declared up front, and O0 keeps dead
   definitions. *)
let strict_flags =
  "-std=c99 -pedantic-errors -Wall -Werror \
   -Wno-unused-but-set-variable -fsyntax-only"

let test_c_strict_validity () =
  if Lazy.force cc_available then begin
    let units = kernel_units () @ nonfinite_units () in
    (* The runtime header depends on the target, so each style gets its
       own directory. *)
    List.iter
      (fun (cname, _) ->
        let units = List.filter (fun (_, c, _) -> c = cname) units in
        let dir = Filename.temp_file "mascstrict" "" in
        Sys.remove dir;
        Unix.mkdir dir 0o755;
        let write file text =
          Out_channel.with_open_text (Filename.concat dir file) (fun oc ->
              output_string oc text)
        in
        let _, _, first = List.hd units in
        write Masc_codegen.Runtime.header_filename (C.runtime_header first);
        let files =
          List.map
            (fun (k, _, c) ->
              let file = Filename.concat dir (k ^ ".c") in
              write (k ^ ".c") (C.c_source c);
              file)
            units
        in
        let log = Filename.concat dir "cc.log" in
        let cmd =
          Printf.sprintf "cc %s %s 2>%s" strict_flags
            (String.concat " " files) log
        in
        if Sys.command cmd <> 0 then
          Alcotest.failf "%s: strict C check failed:\n%s" cname
            (In_channel.with_open_text log In_channel.input_all))
      digest_configs
  end

let suites =
  [ ( "codegen",
      [ Alcotest.test_case "proposed C structure" `Quick
          test_c_structure_proposed;
        Alcotest.test_case "coder C structure" `Quick test_c_structure_coder;
        Alcotest.test_case "complex intrinsics in C" `Quick
          test_c_complex_intrinsics;
        Alcotest.test_case "runtime header" `Quick
          test_runtime_header_self_contained;
        Alcotest.test_case "cc run matches simulator (proposed)" `Slow
          test_gcc_proposed_kernels;
        Alcotest.test_case "cc run matches simulator (coder)" `Slow
          test_gcc_coder_kernels;
        Alcotest.test_case "cc run across widths" `Slow test_gcc_widths;
        Alcotest.test_case "loop variables agree across engines and C" `Slow
          test_loop_variable_lowering;
        Alcotest.test_case "signed zeros agree across levels, engines and C"
          `Quick test_signed_zeros;
        Alcotest.test_case "loop variable after a vector loop agrees across \
                            levels" `Quick test_loop_variable_after_vector_loop;
        Alcotest.test_case "joined complex reads agree across engines and C"
          `Quick test_joined_complex_reads;
        Alcotest.test_case "complex ops with a real operand agree across \
                            engines and C" `Quick test_real_operand_complex_ops;
        Alcotest.test_case "unwritten vector register reads as zero lanes"
          `Quick test_unwritten_vector_register;
        Alcotest.test_case "C declares only the variables it uses" `Quick
          test_c_declares_only_used;
        Alcotest.test_case "C bytes pinned by digest" `Quick test_c_digests;
        Alcotest.test_case "non-finite constants in C" `Quick
          test_c_nonfinite_constants;
        Alcotest.test_case "strict C99 validity" `Slow test_c_strict_validity
      ] ) ]
