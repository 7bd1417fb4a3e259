(** Test-harness generation: a [main()] that calls the generated
    function on embedded inputs and prints the outputs.

    Used by the integration tests to prove the emitted C is genuinely
    compilable and behaviourally equivalent to the simulator: the test
    compiles [program + main] with the host C compiler, runs it, and
    compares the printed values against the simulator's results. *)

type input =
  | Hscalar of float
  | Hcomplex of Complex.t
  | Harray of float array
  | Hcarray of Complex.t array

(** [full_program ~isa ~mode f inputs] is runtime header + function +
    a [main] in one self-contained translation unit (no include
    needed). The [main] builds the arguments (respecting the emission
    mode's calling convention), calls [f], and prints every return
    value as ["%.17e"] lines (real and imaginary parts for complex
    data). *)
val full_program :
  isa:Masc_asip.Isa.t ->
  mode:Masc_asip.Cost_model.mode ->
  Masc_mir.Mir.func ->
  input list ->
  string
