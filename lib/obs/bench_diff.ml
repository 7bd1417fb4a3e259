(* Bench regression gate: `mascc bench diff OLD.json NEW.json`.

   Compares two bench json files (any schema version >= 2) and renders
   a verdict. Cycle tables are the correctness contract — table2
   baseline/proposed cycles and the fig3 speedup matrix must be
   bit-identical, because the simulator is deterministic and every
   layer added since BENCH_3 promises zero cost when off. A table in
   OLD that NEW lacks fails; one OLD lacks is skipped. Other sections
   (the wall-clock and metrics blocks of schema <= 5) are ignored;
   timing is perfbench's job. *)

type status = Pass | Fail | Warn | Skip

type check = { c_name : string; c_status : status; c_msg : string }

type verdict = {
  v_ok : bool;
  v_schema_old : int;
  v_schema_new : int;
  v_checks : check list;
}

let pp_num v =
  if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.0f" v
  else Printf.sprintf "%g" v

let num_field obj name =
  match Ojson.member name obj with Some j -> Ojson.to_num j | None -> None

let str_field obj name =
  match Ojson.member name obj with Some j -> Ojson.to_str j | None -> None

let rows_by_key doc section key =
  match Ojson.member section doc with
  | Some (Ojson.Arr rows) ->
    Some
      (List.filter_map
         (fun row ->
           match str_field row key with
           | Some k -> Some (k, row)
           | None -> None)
         rows)
  | _ -> None

(* ---- cycle tables: must be bit-identical ---- *)

let diff_table2 checks old_doc new_doc =
  match (rows_by_key old_doc "table2" "kernel", rows_by_key new_doc "table2" "kernel") with
  | None, _ ->
    checks := { c_name = "table2"; c_status = Skip;
                c_msg = "cycle table absent from old" } :: !checks
  | Some _, None ->
    checks := { c_name = "table2"; c_status = Fail;
                c_msg = "cycle table missing from new" } :: !checks
  | Some old_rows, Some new_rows ->
    List.iter
      (fun (kernel, old_row) ->
        let name = "cycles " ^ kernel in
        match List.assoc_opt kernel new_rows with
        | None ->
          checks := { c_name = name; c_status = Fail;
                      c_msg = "kernel missing from new cycle table" } :: !checks
        | Some new_row ->
          let cmp field =
            match (num_field old_row field, num_field new_row field) with
            | Some a, Some b when a = b -> None
            | Some a, Some b ->
              Some (Printf.sprintf "%s %s -> %s" field (pp_num a) (pp_num b))
            | _ -> Some (field ^ " unreadable")
          in
          let bad =
            List.filter_map cmp [ "baseline_cycles"; "proposed_cycles" ]
          in
          if bad = [] then
            checks := { c_name = name; c_status = Pass;
                        c_msg = "bit-identical" } :: !checks
          else
            checks := { c_name = name; c_status = Fail;
                        c_msg = String.concat ", " bad } :: !checks)
      old_rows;
    List.iter
      (fun (kernel, _) ->
        if not (List.mem_assoc kernel old_rows) then
          checks := { c_name = "cycles " ^ kernel; c_status = Warn;
                      c_msg = "new kernel, no baseline to compare" } :: !checks)
      new_rows

let diff_fig3 checks old_doc new_doc =
  match (rows_by_key old_doc "fig3" "kernel", rows_by_key new_doc "fig3" "kernel") with
  | None, _ ->
    checks := { c_name = "fig3"; c_status = Skip;
                c_msg = "speedup matrix absent from old" } :: !checks
  | Some _, None ->
    checks := { c_name = "fig3"; c_status = Fail;
                c_msg = "speedup matrix missing from new" } :: !checks
  | Some old_rows, Some new_rows ->
    let bad = ref [] in
    List.iter
      (fun (kernel, old_row) ->
        match List.assoc_opt kernel new_rows with
        | None -> bad := (kernel ^ ": missing") :: !bad
        | Some new_row -> (
          match
            ( Ojson.member "speedup_vs_baseline" old_row,
              Ojson.member "speedup_vs_baseline" new_row )
          with
          | Some (Ojson.Obj old_m), Some (Ojson.Obj new_m) ->
            List.iter
              (fun (target, ov) ->
                match (Ojson.to_num ov, List.assoc_opt target new_m) with
                | Some a, Some (Ojson.Num b) when a = b -> ()
                | Some a, Some (Ojson.Num b) ->
                  bad :=
                    Printf.sprintf "%s/%s %s -> %s" kernel target (pp_num a)
                      (pp_num b)
                    :: !bad
                | _ -> bad := (kernel ^ "/" ^ target ^ ": unreadable") :: !bad)
              old_m
          | _ -> bad := (kernel ^ ": unreadable") :: !bad))
      old_rows;
    if !bad = [] then
      checks := { c_name = "fig3"; c_status = Pass;
                  c_msg = "speedup matrix bit-identical" } :: !checks
    else
      checks := { c_name = "fig3"; c_status = Fail;
                  c_msg = String.concat ", " (List.rev !bad) } :: !checks

let schema_version doc =
  match num_field doc "schema_version" with
  | Some v -> int_of_float v
  | None -> 0

let diff ~old_text ~new_text =
  match (Ojson.parse old_text, Ojson.parse new_text) with
  | Error e, _ -> Error ("old json: " ^ e)
  | _, Error e -> Error ("new json: " ^ e)
  | Ok old_doc, Ok new_doc ->
    let checks = ref [] in
    let vo = schema_version old_doc and vn = schema_version new_doc in
    checks :=
      { c_name = "schema"; c_status = Pass;
        c_msg = Printf.sprintf "v%d -> v%d" vo vn } :: !checks;
    diff_table2 checks old_doc new_doc;
    diff_fig3 checks old_doc new_doc;
    let checks = List.rev !checks in
    Ok
      { v_ok = not (List.exists (fun c -> c.c_status = Fail) checks);
        v_schema_old = vo;
        v_schema_new = vn;
        v_checks = checks }

let status_word = function
  | Pass -> "ok"
  | Fail -> "FAIL"
  | Warn -> "warn"
  | Skip -> "skip"

let render_text v =
  let b = Buffer.create 512 in
  List.iter
    (fun c ->
      Buffer.add_string b
        (Printf.sprintf "%-4s %-16s %s\n" (status_word c.c_status) c.c_name
           c.c_msg))
    v.v_checks;
  let count st =
    List.length (List.filter (fun c -> c.c_status = st) v.v_checks)
  in
  Buffer.add_string b
    (Printf.sprintf "bench diff: %s (%d checks, %d failed, %d warnings)\n"
       (if v.v_ok then "OK" else "FAIL")
       (List.length v.v_checks) (count Fail) (count Warn));
  Buffer.contents b

let render_json v =
  let b = Buffer.create 512 in
  Buffer.add_string b
    (Printf.sprintf "{\"ok\":%b,\"schema_old\":%d,\"schema_new\":%d,\"checks\":["
       v.v_ok v.v_schema_old v.v_schema_new);
  List.iteri
    (fun i c ->
      if i > 0 then Buffer.add_char b ',';
      Buffer.add_string b
        (Printf.sprintf "\n{\"name\":\"%s\",\"status\":\"%s\",\"message\":\"%s\"}"
           (Ojson.escape c.c_name)
           (status_word c.c_status)
           (Ojson.escape c.c_msg)))
    v.v_checks;
  Buffer.add_string b "\n]}\n";
  Buffer.contents b
