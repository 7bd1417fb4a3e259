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
  let stats = ref { cmul = 0; cmac = 0; cadd = 0 } in
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
  | None, None, None -> (func, !stats)
  | _ ->
    (* Pass 1: select cmul / cadd for Rbin operations on two complex
       operands, all the ISEs take; one with a real operand stays open. *)
    let select rv =
      match rv with
      | Mir.Rbin (Mir.Bmul, a, b) when is_complex a && is_complex b -> (
        match cmul_i with
        | Some d ->
          stats := { !stats with cmul = !stats.cmul + 1 };
          Mir.Rintrin (d.Isa.iname, [ a; b ])
        | None ->
          incr open_muls;
          rv)
      | Mir.Rbin (Mir.Badd, a, b) when is_complex a && is_complex b -> (
        match cadd_i with
        | Some d ->
          stats := { !stats with cadd = !stats.cadd + 1 };
          Mir.Rintrin (d.Isa.iname, [ a; b ])
        | None ->
          incr open_adds;
          rv)
      | _ -> rv
    in
    let func = Masc_opt.Rewrite.map_rvalues select func in
    (* Pass 2: fuse cmul feeding a single-use complex add into cmac. *)
    let func =
      match (cmul_i, cmac_i) with
      | Some cmul_d, Some cmac_d ->
        let uses = Masc_opt.Rewrite.use_counts func in
        let fuse (block : Mir.block) : Mir.block =
          let rec go = function
            | ({ Mir.idesc = Mir.Idef (t, Mir.Rintrin (m, [ a; b ])); _ } as i1)
              :: ({ Mir.idesc = Mir.Idef (acc, rv_add); _ } as i2)
              :: rest
              when String.equal m cmul_d.Isa.iname
                   && Masc_opt.Rewrite.Vid_counts.get uses t.Mir.vid = 1 -> (
              let acc_operand =
                match rv_add with
                | Mir.Rintrin (ad, [ x; Mir.Ovar t' ])
                  when Option.is_some cadd_i
                       && String.equal ad
                            (Option.get cadd_i).Isa.iname
                       && t'.Mir.vid = t.Mir.vid ->
                  Some x
                | Mir.Rintrin (ad, [ Mir.Ovar t'; x ])
                  when Option.is_some cadd_i
                       && String.equal ad
                            (Option.get cadd_i).Isa.iname
                       && t'.Mir.vid = t.Mir.vid ->
                  Some x
                | Mir.Rbin (Mir.Badd, x, Mir.Ovar t') when t'.Mir.vid = t.Mir.vid
                  ->
                  Some x
                | Mir.Rbin (Mir.Badd, Mir.Ovar t', x) when t'.Mir.vid = t.Mir.vid
                  ->
                  Some x
                | _ -> None
              in
              match acc_operand with
              | Some x when is_complex x ->
                stats :=
                  { !stats with
                    cmac = !stats.cmac + 1;
                    cadd = max 0 (!stats.cadd - 1) };
                Mir.redesc i2
                  (Mir.Idef (acc, Mir.Rintrin (cmac_d.Isa.iname, [ x; a; b ])))
                :: go rest
              | Some _ | None -> i1 :: go (i2 :: rest))
            | i :: rest -> i :: go rest
            | [] -> []
          in
          go block
        in
        Masc_opt.Rewrite.map_blocks fuse func
      | _ -> func
    in
    note_open_coded ();
    (func, !stats)
