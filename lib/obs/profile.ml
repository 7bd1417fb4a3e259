(* Source-attributed simulator profile.

   The reference tree-walking interpreter feeds one of these
   collectors when profiling is requested: simulated cycles and dynamic
   instruction counts, attributed per opcode class, per intrinsic/ISE,
   and per MATLAB source line. Every charge names its source line, so
   the per-line and per-class sums each equal the engine's total cycle
   count exactly — profiles are integer bookkeeping over the same
   charges, not a sampling approximation — and the profiler tests pin
   that invariant.

   Line 0 collects synthetic instructions that have no source span
   (vectorizer-created glue, inlining scaffolding). *)

type entry = { mutable e_cycles : int; mutable e_instrs : int }

type t = {
  lines : (int, entry) Hashtbl.t;
  classes : (string, entry) Hashtbl.t;
  intrins : (string, entry) Hashtbl.t;
}

let create () =
  { lines = Hashtbl.create 64; classes = Hashtbl.create 16;
    intrins = Hashtbl.create 16 }

let touch tbl key =
  match Hashtbl.find_opt tbl key with
  | Some e -> e
  | None ->
    let e = { e_cycles = 0; e_instrs = 0 } in
    Hashtbl.replace tbl key e;
    e

let add tbl key ~cycles ~instrs =
  if cycles <> 0 || instrs <> 0 then begin
    let e = touch tbl key in
    e.e_cycles <- e.e_cycles + cycles;
    e.e_instrs <- e.e_instrs + instrs
  end

let add_line t line ~cycles ~instrs = add t.lines line ~cycles ~instrs
let add_class t cls ~cycles ~instrs = add t.classes cls ~cycles ~instrs
let add_intrin t name ~cycles ~instrs = add t.intrins name ~cycles ~instrs

type row = { key : string; cycles : int; instrs : int }

type snapshot = {
  total_cycles : int;
  total_instrs : int;
  by_line : (int * int * int) list;  (* line, cycles, instrs; line asc *)
  by_class : row list;  (* cycles desc, then name asc *)
  by_intrin : row list;
}

let rows tbl =
  Hashtbl.fold
    (fun key e acc ->
      { key; cycles = e.e_cycles; instrs = e.e_instrs } :: acc)
    tbl []
  |> List.sort (fun a b ->
         match compare b.cycles a.cycles with
         | 0 -> compare a.key b.key
         | c -> c)

let snapshot t ~total_cycles ~total_instrs =
  let by_line =
    Hashtbl.fold
      (fun line e acc -> (line, e.e_cycles, e.e_instrs) :: acc)
      t.lines []
    |> List.sort (fun (a, _, _) (b, _, _) -> compare a b)
  in
  { total_cycles; total_instrs; by_line; by_class = rows t.classes;
    by_intrin = rows t.intrins }

(* ---- hot-line text report ---- *)

let bar width frac =
  let n = int_of_float (frac *. float_of_int width +. 0.5) in
  String.make (min width (max 0 n)) '#'

let render ?source snap =
  let b = Buffer.create 2048 in
  let tc = max 1 snap.total_cycles in
  let src_lines =
    match source with
    | None -> [||]
    | Some s -> Array.of_list (String.split_on_char '\n' s)
  in
  Buffer.add_string b
    (Printf.sprintf "profile: %d cycles, %d instructions\n" snap.total_cycles
       snap.total_instrs);
  Buffer.add_string b "\n-- hot lines --\n";
  List.iter
    (fun (line, cycles, instrs) ->
      let pct = 100.0 *. float_of_int cycles /. float_of_int tc in
      let text =
        if line = 0 then "<synthetic>"
        else if line <= Array.length src_lines then
          String.trim src_lines.(line - 1)
        else ""
      in
      Buffer.add_string b
        (Printf.sprintf "%5s %10d cy %8d in %5.1f%% |%-20s| %s\n"
           (if line = 0 then "-" else string_of_int line)
           cycles instrs pct
           (bar 20 (float_of_int cycles /. float_of_int tc))
           text))
    snap.by_line;
  let section title rows =
    if rows <> [] then begin
      Buffer.add_string b (Printf.sprintf "\n-- %s --\n" title);
      List.iter
        (fun r ->
          let pct = 100.0 *. float_of_int r.cycles /. float_of_int tc in
          Buffer.add_string b
            (Printf.sprintf "%-14s %10d cy %8d in %5.1f%%\n" r.key r.cycles
               r.instrs pct))
        rows
    end
  in
  section "opcode classes" snap.by_class;
  section "intrinsics" snap.by_intrin;
  Buffer.contents b

let to_json snap =
  let b = Buffer.create 2048 in
  Buffer.add_string b
    (Printf.sprintf "{\"total_cycles\":%d,\"total_instrs\":%d,"
       snap.total_cycles snap.total_instrs);
  Buffer.add_string b "\"lines\":[";
  List.iteri
    (fun i (line, cycles, instrs) ->
      if i > 0 then Buffer.add_char b ',';
      Buffer.add_string b
        (Printf.sprintf "{\"line\":%d,\"cycles\":%d,\"instrs\":%d}" line
           cycles instrs))
    snap.by_line;
  Buffer.add_string b "],";
  let arr name rows =
    Buffer.add_string b (Printf.sprintf "\"%s\":[" name);
    List.iteri
      (fun i r ->
        if i > 0 then Buffer.add_char b ',';
        Buffer.add_string b
          (Printf.sprintf "{\"name\":\"%s\",\"cycles\":%d,\"instrs\":%d}"
             (Ojson.escape r.key) r.cycles r.instrs))
      rows;
    Buffer.add_string b "]"
  in
  arr "classes" snap.by_class;
  Buffer.add_char b ',';
  arr "intrinsics" snap.by_intrin;
  Buffer.add_string b "}\n";
  Buffer.contents b
