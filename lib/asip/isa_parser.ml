open Masc_frontend

let err line fmt =
  let pos = { Loc.line; col = 1; offset = 0 } in
  Diag.error Codegen (Loc.span pos pos) fmt

(* Tokens echoed in diagnostics are escaped: a truncated or binary
   .isa file must produce a printable one-line message, not control
   characters replayed into the terminal. Long garbage is clipped. *)
let esc s =
  let s = if String.length s > 64 then String.sub s 0 61 ^ "..." else s in
  String.escaped s

type accum = {
  mutable tname : string option;
  mutable description : string;
  mutable vector_width : int;
  mutable instrs : Isa.instr_desc list;  (* reversed *)
  mutable costs : Isa.costs;
}

let split_words s =
  String.split_on_char ' ' s
  |> List.concat_map (String.split_on_char '\t')
  |> List.filter (fun w -> w <> "")

(* Every numeric field is range-checked at parse time so a corrupt
   description cannot smuggle a negative cost or a 2^60-lane vector
   unit into the cost model (where it would surface as nonsense cycle
   counts far from the actual mistake). *)
let parse_int ?(min = 0) ?(max = 1_000_000) lineno what s =
  match int_of_string_opt s with
  | Some n when n >= min && n <= max -> n
  | Some n -> err lineno "%s: %d out of range [%d, %d]" what n min max
  | None -> err lineno "%s: expected an integer, found '%s'" what (esc s)

let parse_cost lineno (costs : Isa.costs) param value : Isa.costs =
  let v = parse_int lineno param value in
  match param with
  | "alu" -> { costs with Isa.alu = v }
  | "fdiv" -> { costs with Isa.fdiv = v }
  | "math_fn" -> { costs with Isa.math_fn = v }
  | "pow_fn" -> { costs with Isa.pow_fn = v }
  | "load" -> { costs with Isa.load = v }
  | "store" -> { costs with Isa.store = v }
  | "loop_overhead" -> { costs with Isa.loop_overhead = v }
  | "branch" -> { costs with Isa.branch = v }
  | "bounds_check" -> { costs with Isa.bounds_check = v }
  | "descriptor" -> { costs with Isa.descriptor = v }
  | "call_overhead" -> { costs with Isa.call_overhead = v }
  | p -> err lineno "unknown cost parameter '%s'" (esc p)

let parse_kv lineno (word : string) =
  match String.index_opt word '=' with
  | Some i ->
    (String.sub word 0 i, String.sub word (i + 1) (String.length word - i - 1))
  | None -> err lineno "expected key=value, found '%s'" (esc word)

(* Names land in generated C as intrinsic identifiers; restrict them at
   the source instead of letting a stray '(' break the emitted code. *)
let check_name lineno what s =
  let ok c =
    (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || (c >= '0' && c <= '9')
    || c = '_' || c = '.'
  in
  if s = "" || not (String.for_all ok s) then
    err lineno "%s: invalid name '%s' (use [A-Za-z0-9_.]+)" what (esc s);
  s

let parse_instr lineno words =
  match words with
  | name :: kind_s :: rest ->
    let name = check_name lineno "instr" name in
    let kind =
      match Isa.kind_of_string kind_s with
      | Some k -> k
      | None -> err lineno "unknown instruction kind '%s'" (esc kind_s)
    in
    let lanes = ref 1 and latency = ref 1 in
    List.iter
      (fun w ->
        let k, v = parse_kv lineno w in
        match k with
        | "lanes" -> lanes := parse_int ~min:1 ~max:1024 lineno "lanes" v
        | "latency" -> latency := parse_int ~min:0 ~max:100_000 lineno "latency" v
        | _ -> err lineno "unknown instruction attribute '%s'" (esc k))
      rest;
    { Isa.iname = name; kind; lanes = !lanes; latency = !latency }
  | _ -> err lineno "instr: expected '<name> <kind> [lanes=..] [latency=..]'"

(* A known directive with the wrong number of arguments. *)
let arity lineno directive expected args =
  err lineno "directive '%s' takes %d argument%s, found %d" directive expected
    (if expected = 1 then "" else "s")
    (List.length args)

let parse text =
  let acc =
    { tname = None; description = ""; vector_width = 0; instrs = [];
      costs = Isa.default_costs }
  in
  let lines = String.split_on_char '\n' text in
  List.iteri
    (fun i raw ->
      let lineno = i + 1 in
      let line =
        match String.index_opt raw '#' with
        | Some j -> String.sub raw 0 j
        | None -> raw
      in
      let line = String.trim line in
      if line <> "" then
        match split_words line with
        | [ "target"; name ] ->
          acc.tname <- Some (check_name lineno "target" name)
        | "description" :: _ ->
          (* free text, possibly quoted *)
          let text =
            String.trim (String.sub line 11 (String.length line - 11))
          in
          let text =
            if
              String.length text >= 2
              && text.[0] = '"'
              && text.[String.length text - 1] = '"'
            then String.sub text 1 (String.length text - 2)
            else text
          in
          acc.description <- text
        | [ "vector_width"; n ] ->
          acc.vector_width <- parse_int ~max:1024 lineno "vector_width" n
        | [ "cost"; param; value ] ->
          acc.costs <- parse_cost lineno acc.costs param value
        | "instr" :: rest ->
          let instr = parse_instr lineno rest in
          if
            List.exists
              (fun (i : Isa.instr_desc) -> i.Isa.iname = instr.Isa.iname)
              acc.instrs
          then err lineno "duplicate instruction '%s'" instr.Isa.iname;
          acc.instrs <- instr :: acc.instrs
        | (("target" | "vector_width") as directive) :: args ->
          arity lineno directive 1 args
        | "cost" :: args -> arity lineno "cost" 2 args
        | word :: _ -> err lineno "unknown directive '%s'" (esc word)
        | [] -> ())
    lines;
  match acc.tname with
  | None -> err 1 "missing 'target <name>' directive"
  | Some tname ->
    { Isa.tname; description = acc.description;
      vector_width = acc.vector_width; instrs = List.rev acc.instrs;
      costs = acc.costs }

let parse_file path =
  let ic = open_in_bin path in
  let text =
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () ->
        try really_input_string ic (in_channel_length ic)
        with End_of_file ->
          (* File shrank between length and read (concurrent truncate):
             surface as a parse error, not a driver crash. *)
          err 1 "file truncated while reading")
  in
  parse text

let to_text (isa : Isa.t) =
  let b = Buffer.create 512 in
  Buffer.add_string b (Printf.sprintf "target %s\n" isa.Isa.tname);
  Buffer.add_string b (Printf.sprintf "description \"%s\"\n" isa.Isa.description);
  Buffer.add_string b (Printf.sprintf "vector_width %d\n" isa.Isa.vector_width);
  let c = isa.Isa.costs in
  List.iter
    (fun (name, v) -> Buffer.add_string b (Printf.sprintf "cost %s %d\n" name v))
    [ ("alu", c.Isa.alu); ("fdiv", c.Isa.fdiv); ("math_fn", c.Isa.math_fn);
      ("pow_fn", c.Isa.pow_fn); ("load", c.Isa.load); ("store", c.Isa.store);
      ("loop_overhead", c.Isa.loop_overhead); ("branch", c.Isa.branch);
      ("bounds_check", c.Isa.bounds_check); ("descriptor", c.Isa.descriptor);
      ("call_overhead", c.Isa.call_overhead) ];
  List.iter
    (fun (i : Isa.instr_desc) ->
      Buffer.add_string b
        (Printf.sprintf "instr %s %s lanes=%d latency=%d\n" i.Isa.iname
           (Isa.kind_to_string i.Isa.kind)
           i.Isa.lanes i.Isa.latency))
    isa.Isa.instrs;
  Buffer.contents b
