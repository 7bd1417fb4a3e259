module Mir = Masc_mir.Mir
module Isa = Masc_asip.Isa
module MT = Masc_sema.Mtype
module Diag = Masc_frontend.Diag
module Loc = Masc_frontend.Loc

type stats = { cmul : int; cmac : int; cadd : int }

let is_complex (op : Mir.operand) =
  match Mir.operand_ty op with
  | Mir.Tscalar s | Mir.Tarray (s, _) -> s.Mir.cplx = MT.Complex

let run ?(sink = Diag.Raise) (isa : Isa.t) (func : Mir.func) :
    Mir.func * stats =
  let cmul_i = Isa.find isa Isa.Kcmul in
  let cmac_i = Isa.find isa Isa.Kcmac in
  let cadd_i = Isa.find isa Isa.Kcadd in
  (* Degradation-ladder notes: the target has partial complex-ISE
     support, so operations its missing instructions would have covered
     stay open-coded. One summarizing note per kind, carrying the cycle
     delta of the FPU fallback over a unit-latency intrinsic. *)
  let open_muls = ref 0 in
  let open_adds = ref 0 in
  let note_open_coded () =
    let alu = isa.Isa.costs.Isa.alu in
    if !open_muls > 0 then
      Diag.report sink Diag.Severity.Note Diag.Vectorize Loc.dummy
        "%s: %d complex multiply(s) open-coded: target '%s' lacks cplx.mul \
         (~%d extra cycles each)"
        func.Mir.name !open_muls isa.Isa.tname
        ((6 * alu) - 1);
    if !open_adds > 0 then
      Diag.report sink Diag.Severity.Note Diag.Vectorize Loc.dummy
        "%s: %d complex add(s) open-coded: target '%s' lacks cplx.add \
         (~%d extra cycles each)"
        func.Mir.name !open_adds isa.Isa.tname
        ((2 * alu) - 1)
  in
  match (cmul_i, cmac_i, cadd_i) with
  | None, None, None -> (func, { cmul = 0; cmac = 0; cadd = 0 })
  | _ ->
    let cmul = ref 0 and cmac = ref 0 and cadd = ref 0 in
    (* Pass 1: select cmul / cadd for Rbin operations on two complex
       operands, all the ISEs take; one with a real operand stays open. *)
    let select rv =
      match rv with
      | Mir.Rbin (Mir.Bmul, a, b) when is_complex a && is_complex b -> (
        match cmul_i with
        | Some d ->
          incr cmul;
          Mir.Rintrin (d.Isa.iname, [ a; b ])
        | None ->
          incr open_muls;
          rv)
      | Mir.Rbin (Mir.Badd, a, b) when is_complex a && is_complex b -> (
        match cadd_i with
        | Some d ->
          incr cadd;
          Mir.Rintrin (d.Isa.iname, [ a; b ])
        | None ->
          incr open_adds;
          rv)
      | _ -> rv
    in
    let func = Masc_opt.Rewrite.map_rvalues select func in
    (* Pass 2, when pass 1 selected a cmul: fuse cmul feeding a
       single-use complex add into cmac. The add was a selected cadd
       or, on a target without one, an open-coded add; either way the
       fused pair counts as one cmac only. *)
    let func =
      match (cmul_i, cmac_i) with
      | Some cmul_d, Some cmac_d when !cmul > 0 ->
        let uses = Masc_opt.Rewrite.use_counts func in
        let cadd_name =
          match cadd_i with Some d -> d.Isa.iname | None -> ""
        in
        let is_t (t : Mir.var) = function
          | Mir.Ovar t' -> t'.Mir.vid = t.Mir.vid
          | Mir.Oconst _ -> false
        in
        (* The other operand of [rv] when [rv] adds [t] to it, and
           whether [rv] is a cadd. *)
        let addend t rv =
          match rv with
          | Mir.Rintrin (ad, [ x; y ]) when String.equal ad cadd_name ->
            if is_t t y then Some (x, true)
            else if is_t t x then Some (y, true)
            else None
          | Mir.Rbin (Mir.Badd, x, y) ->
            if is_t t y then Some (x, false)
            else if is_t t x then Some (y, false)
            else None
          | _ -> None
        in
        (* Sharing-preserving: a block without a fusable pair is
           returned as it is. *)
        let rec fuse (block : Mir.block) : Mir.block =
          match block with
          | ({ Mir.idesc = Mir.Idef (t, Mir.Rintrin (m, [ a; b ])); _ } as i1)
            :: (({ Mir.idesc = Mir.Idef (acc, rv_add); _ } as i2) :: rest as tl)
            when String.equal m cmul_d.Isa.iname
                 && Masc_opt.Rewrite.Vid_counts.get uses t.Mir.vid = 1 -> (
            match addend t rv_add with
            | Some (x, was_cadd) when is_complex x ->
              decr cmul;
              incr cmac;
              if was_cadd then decr cadd else decr open_adds;
              Mir.redesc i2
                (Mir.Idef (acc, Mir.Rintrin (cmac_d.Isa.iname, [ x; a; b ])))
              :: fuse rest
            | Some _ | None ->
              let tl' = fuse tl in
              if tl' == tl then block else i1 :: tl')
          | i :: tl ->
            let tl' = fuse tl in
            if tl' == tl then block else i :: tl'
          | [] -> block
        in
        Masc_opt.Rewrite.map_blocks fuse func
      | _ -> func
    in
    note_open_coded ();
    (func, { cmul = !cmul; cmac = !cmac; cadd = !cadd })
