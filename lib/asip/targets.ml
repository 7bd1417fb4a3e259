(* Built-in targets are plain records: parsing their [.isa] text at
   module initialisation cost every process start-up about 24,000 minor
   words. The test suite keeps the texts and requires
   [Isa_parser.parse text] to equal each record, so the records cannot
   drift from the format. *)

let scalar =
  { Isa.tname = "scalar";
    description = "scalar RISC-style core without custom instructions";
    vector_width = 0; instrs = []; costs = Isa.default_costs }

(* Width-parameterized DSP ASIP: the same core plus SIMD and complex
   ISEs. *)
let dsp ~name ~width ~simd ~cplx =
  let simd_instr mnemonic kind latency =
    { Isa.iname = mnemonic ^ "_f64x" ^ string_of_int width; kind;
      lanes = width; latency }
  in
  let simd_instrs =
    if not simd then []
    else
      [ simd_instr "vadd" Isa.Ksimd_add 1; simd_instr "vsub" Isa.Ksimd_sub 1;
        simd_instr "vmul" Isa.Ksimd_mul 1; simd_instr "vdiv" Isa.Ksimd_div 8;
        simd_instr "vmin" Isa.Ksimd_min 1; simd_instr "vmax" Isa.Ksimd_max 1;
        simd_instr "vmac" Isa.Kmac 1; simd_instr "vld" Isa.Kload 1;
        simd_instr "vst" Isa.Kstore 1; simd_instr "vsplat" Isa.Kbroadcast 1;
        simd_instr "vredadd" Isa.Kreduce_add 3;
        simd_instr "vredmin" Isa.Kreduce_min 3;
        simd_instr "vredmax" Isa.Kreduce_max 3 ]
  in
  let cplx_instrs =
    if not cplx then []
    else
      [ { Isa.iname = "cmul_f64"; kind = Isa.Kcmul; lanes = 1; latency = 1 };
        { Isa.iname = "cmac_f64"; kind = Isa.Kcmac; lanes = 1; latency = 1 };
        { Isa.iname = "cadd_f64"; kind = Isa.Kcadd; lanes = 1; latency = 1 } ]
  in
  { Isa.tname = name;
    description =
      "DSP ASIP, " ^ string_of_int width ^ "-lane f64 SIMD"
      ^ (if simd then "" else " (SIMD ISEs disabled)")
      ^ if cplx then ", complex-arithmetic ISEs" else "";
    vector_width = (if simd then width else 0);
    instrs = simd_instrs @ cplx_instrs; costs = Isa.default_costs }

let dsp8 = dsp ~name:"dsp8" ~width:8 ~simd:true ~cplx:true
let dsp4 = dsp ~name:"dsp4" ~width:4 ~simd:true ~cplx:true
let dsp16 = dsp ~name:"dsp16" ~width:16 ~simd:true ~cplx:true
let dsp8_simd_only = dsp ~name:"dsp8_simd_only" ~width:8 ~simd:true ~cplx:false
let dsp8_cplx_only = dsp ~name:"dsp8_cplx_only" ~width:8 ~simd:false ~cplx:true
let all = [ scalar; dsp4; dsp8; dsp16; dsp8_simd_only; dsp8_cplx_only ]
let by_name n = List.find_opt (fun (t : Isa.t) -> String.equal t.Isa.tname n) all
