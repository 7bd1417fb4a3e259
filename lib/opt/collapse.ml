module Mir = Masc_mir.Mir

(* Syntactic candidate pair: [t = rv; x = move t] with compatible types.
   Scanning for one is allocation-free, so a clean run — the common case
   under the fixpoint driver — never pays for the use-count table. *)
exception Candidate

let has_candidate (func : Mir.func) =
  let rec scan (l : Mir.block) =
    match l with
    | { Mir.idesc = Mir.Idef (t, _); _ }
      :: { Mir.idesc = Mir.Idef (x, Mir.Rmove (Mir.Ovar t')); _ } :: _
      when t'.Mir.vid = t.Mir.vid && t.Mir.vty = x.Mir.vty
           && x.Mir.vid <> t.Mir.vid ->
      raise Candidate
    | i :: tl ->
      (match i.Mir.idesc with
      | Mir.Iif (_, a, b) ->
        scan a;
        scan b
      | Mir.Iloop lp -> scan lp.Mir.body
      | Mir.Iwhile { cond_block; body; _ } ->
        scan cond_block;
        scan body
      | _ -> ());
      scan tl
    | [] -> ()
  in
  match scan func.Mir.body with () -> false | exception Candidate -> true

let collapse_with_uses (func : Mir.func) : Mir.func =
  let uses = Rewrite.use_counts func in
  let ret_ids = List.map (fun (r : Mir.var) -> r.Mir.vid) func.Mir.rets in
  (* Built once per run, not per block. *)
  let rec go (l : Mir.block) : Mir.block =
    match l with
    | { Mir.idesc = Mir.Idef (t, rv); _ }
      :: ({ Mir.idesc = Mir.Idef (x, Mir.Rmove (Mir.Ovar t')); _ } as ix)
      :: rest
      when t'.Mir.vid = t.Mir.vid
           && Rewrite.Vid_counts.get uses t.Mir.vid = 1
           && (not (List.mem t.Mir.vid ret_ids))
           && t.Mir.vty = x.Mir.vty
           && x.Mir.vid <> t.Mir.vid
           (* [rv] must not read [x]: the def of [x] would clobber an
              operand — except the self-accumulation form x = op(x, ...)
              which is exactly what we want to expose and is safe
              because the read happens in the same evaluation. *)
    ->
      (* Keep the user-visible assignment's span on the collapsed def. *)
      Mir.redesc ix (Mir.Idef (x, rv)) :: go rest
    | i :: rest ->
      let rest' = go rest in
      if rest' == rest then l else i :: rest'
    | [] -> l
  in
  Rewrite.map_blocks go func

let run (func : Mir.func) : Mir.func =
  if has_candidate func then collapse_with_uses func else func
