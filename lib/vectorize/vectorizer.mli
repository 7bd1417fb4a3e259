(** The SIMD loop vectorizer — the paper's data-parallelism stage.

    Rewrites innermost counted loops onto the target's SIMD custom
    instructions, in two shapes:

    - {b map loops}: element-wise bodies whose loads and stores are
      stride-1 affine in the induction variable become wide loads /
      vector intrinsics / wide stores, with a scalar epilogue for the
      remainder (strip-mining by the ISA's vector width);
    - {b reduction loops}: a scalar accumulator updated with [+]/[min]/
      [max] becomes a vector accumulator combined per-chunk (using the
      fused multiply-accumulate instruction when the summand is a
      product — the dot-product/FIR idiom), then folded with a horizontal
      reduction after the loop.

    Legality is conservative: single definition per variable in the
    body, no control flow inside, no array both loaded and stored, at
    most one store per array, stride exactly 1. Floating-point
    reassociation in reductions is accepted, as in any [-ffast-math]
    vectorizer (and as the paper's ASIP MAC hardware implies).

    Trip counts may be dynamic: chunk counts are computed at run time.

    Degradation ladder: a loop that matches a vectorizable idiom but
    needs an instruction the target lacks is kept scalar, and with an
    accumulating [?sink] a [Note] diagnostic records the missing
    instruction kind and the estimated cycle delta. Failure to
    vectorize never aborts a compile. *)

(** [run_time_trips] counts the vectorized loops, of either shape,
    whose bounds are not both constant: each got a strip-mine prologue
    in front of it that computes its chunk count from [hi - lo]. *)
type stats = { map_loops : int; reduction_loops : int; run_time_trips : int }

(** [run isa func] returns the rewritten function and how many loops of
    each shape were vectorized. With [isa.vector_width < 2] the function
    is returned unchanged. With the default [Raise] sink the
    missing-instruction notes are dropped. *)
val run :
  ?sink:Masc_frontend.Diag.sink ->
  Masc_asip.Isa.t ->
  Masc_mir.Mir.func ->
  Masc_mir.Mir.func * stats
