(** Built-in target descriptions.

    Each built-in is a record equal to what {!Isa_parser.parse} returns
    for its textual [.isa] description (the tests pin both), so a user
    description that copies one retargets to the same machine. *)

(** Plain scalar core: no custom instructions. The MATLAB-Coder-style
    baseline runs here, and so does un-vectorized proposed code. *)
val scalar : Isa.t

(** The evaluation ASIP: 8-lane double-precision SIMD with fused MAC,
    wide loads/stores, horizontal reductions, and scalar complex
    multiply / complex MAC ISEs (the instruction classes the paper names:
    SIMD processing and complex arithmetic). *)
val dsp8 : Isa.t

(** Narrower and wider variants for the retargetability sweep (Fig. 3). *)
val dsp4 : Isa.t

val dsp16 : Isa.t

(** A SIMD-only variant without complex-arithmetic ISEs, and a
    complex-only variant without SIMD, for the ablation (Table III). *)
val dsp8_simd_only : Isa.t

val dsp8_cplx_only : Isa.t

val all : Isa.t list

(** [by_name n] finds a built-in target. *)
val by_name : string -> Isa.t option
