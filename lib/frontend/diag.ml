(* The diagnostics engine.

   Two regimes share one reporting API:

   - [Raise] (the legacy contract): the first error raises
     {!exception-Error} immediately, warnings and notes are dropped.
     This is what the programmatic entry points ([Parser.parse_program],
     [Infer.infer_source], [Compiler.compile]) default to, so existing
     callers and tests keep their raise-first semantics.

   - [Ctx c]: diagnostics accumulate in [c] and the phases recover
     (panic-mode resync in the parser, expression poisoning in the type
     checker), so one run reports every independent mistake. When the
     error budget is exhausted the phase bails with
     {!exception-Budget_exhausted}.

   The context is deliberately cheap: creating one allocates a handful
   of words and the ring buffer is only allocated on the first emitted
   diagnostic, so the happy path of a clean compile costs nothing
   beyond the [sink] branch at each (never-taken) error site. *)

type phase = Lex | Parse | Sema | Lower | Optimize | Vectorize | Codegen | Simulate

exception Error of phase * Loc.span * string

let phase_name = function
  | Lex -> "lexical analysis"
  | Parse -> "parsing"
  | Sema -> "semantic analysis"
  | Lower -> "lowering"
  | Optimize -> "optimization"
  | Vectorize -> "vectorization"
  | Codegen -> "code generation"
  | Simulate -> "simulation"

module Severity = struct
  type t = Error | Warning | Note

  let name = function Error -> "error" | Warning -> "warning" | Note -> "note"

  (* Error outranks Warning outranks Note. *)
  let rank = function Error -> 2 | Warning -> 1 | Note -> 0
end

type t = {
  severity : Severity.t;
  phase : phase;
  span : Loc.span;
  message : string;
}

(* ---------------- accumulating context ---------------- *)

type context = {
  mutable ring : t array;  (* [||] until the first diagnostic *)
  mutable len : int;  (* stored entries, <= cap *)
  mutable head : int;  (* next write slot once the ring is full *)
  mutable dropped : int;  (* overwritten by ring wrap-around *)
  mutable errors : int;
  mutable warnings : int;
  mutable notes : int;
  cap : int;
  error_budget : int;
}

exception Budget_exhausted of phase

let default_error_budget = 24
let default_cap = 256

let create ?(error_budget = default_error_budget) ?(cap = default_cap) () =
  if error_budget < 1 then invalid_arg "Diag.create: error_budget < 1";
  if cap < 1 then invalid_arg "Diag.create: cap < 1";
  { ring = [||]; len = 0; head = 0; dropped = 0; errors = 0; warnings = 0;
    notes = 0; cap; error_budget }

let error_count c = c.errors
let warning_count c = c.warnings
let note_count c = c.notes
let dropped_count c = c.dropped

(* Oldest-first list of the retained diagnostics. When the ring wrapped,
   the oldest retained entry sits at [head]. *)
let to_list c =
  if c.len = 0 then []
  else if c.len < c.cap then Array.to_list (Array.sub c.ring 0 c.len)
  else
    List.init c.len (fun i -> c.ring.((c.head + i) mod c.cap))

let push c d =
  if Array.length c.ring = 0 then
    (* First diagnostic: allocate the ring now, never before. *)
    c.ring <- Array.make c.cap d;
  if c.len < c.cap then begin
    c.ring.(c.len) <- d;
    c.len <- c.len + 1
  end
  else begin
    (* Ring full: overwrite the oldest, keep the most recent [cap]. *)
    c.ring.(c.head) <- d;
    c.head <- (c.head + 1) mod c.cap;
    c.dropped <- c.dropped + 1
  end;
  match d.severity with
  | Severity.Error ->
    c.errors <- c.errors + 1;
    if c.errors >= c.error_budget then raise (Budget_exhausted d.phase)
  | Severity.Warning -> c.warnings <- c.warnings + 1
  | Severity.Note -> c.notes <- c.notes + 1

(* ---------------- sinks ---------------- *)

type sink = Raise | Ctx of context

let count_severity = function
  | Severity.Error -> Masc_obs.Metrics.incr "diag.errors"
  | Severity.Warning -> Masc_obs.Metrics.incr "diag.warnings"
  | Severity.Note -> Masc_obs.Metrics.incr "diag.notes"

let report sink severity phase span fmt =
  Format.kasprintf
    (fun message ->
      count_severity severity;
      match (sink, severity) with
      | Raise, Severity.Error -> raise (Error (phase, span, message))
      | Raise, (Severity.Warning | Severity.Note) ->
        (* The legacy contract has no channel for non-errors. *)
        ()
      | Ctx c, _ -> push c { severity; phase; span; message })
    fmt

let error phase span fmt =
  Format.kasprintf
    (fun msg ->
      count_severity Severity.Error;
      raise (Error (phase, span, msg)))
    fmt

(* ---------------- rendering ---------------- *)

let header_string d =
  if Loc.is_dummy d.span then
    Format.asprintf "%s: %s: %s"
      (Severity.name d.severity) (phase_name d.phase) d.message
  else
    Format.asprintf "%s: %s: %a: %s"
      (Severity.name d.severity) (phase_name d.phase) Loc.pp d.span d.message

(* Extract line [n] (1-based) of [src] without splitting the whole
   buffer. *)
let source_line src n =
  let len = String.length src in
  let rec start_of i line =
    if line >= n || i >= len then i
    else start_of (String.index_from_opt src i '\n'
                   |> function Some j -> j + 1 | None -> len)
        (line + 1)
  in
  let s = start_of 0 1 in
  if s >= len && n > 1 then None
  else
    let e =
      match String.index_from_opt src s '\n' with Some j -> j | None -> len
    in
    Some (String.sub src s (e - s))

(* GCC-style caret rendering:

     error: parsing: line 2, columns 5-9: expected ...
       2 | y = @#$ + 1;
         |     ^^^^
*)
let render ?source d =
  let header = header_string d in
  match source with
  | Some src when not (Loc.is_dummy d.span) -> (
    let line = d.span.Loc.start_pos.Loc.line in
    match source_line src line with
    | None -> header
    | Some text ->
      let gutter = Printf.sprintf "%4d | " line in
      let col0 = max 0 (d.span.Loc.start_pos.Loc.col - 1) in
      let width =
        if d.span.Loc.end_pos.Loc.line = line then
          max 1 (d.span.Loc.end_pos.Loc.col - d.span.Loc.start_pos.Loc.col)
        else max 1 (String.length text - col0)
      in
      (* Clamp the caret run to the visible text (tokens at EOF point one
         past the last column). *)
      let col0 = min col0 (String.length text) in
      let width = max 1 (min width (String.length text - col0 + 1)) in
      Printf.sprintf "%s\n%s%s\n     | %s%s" header gutter text
        (String.make col0 ' ')
        (String.make width '^'))
  | Some _ | None -> header

(* ---------------- machine-readable form ---------------- *)

(* One JSON object per diagnostic — a stable machine-readable contract
   for batch/CI drivers ([mascc --diag-format json] emits one per
   line). Dummy spans serialize as zeros. *)
let to_json d =
  let sp = d.span in
  Printf.sprintf
    "{\"severity\":\"%s\",\"phase\":\"%s\",\"line\":%d,\"col\":%d,\
     \"end_line\":%d,\"end_col\":%d,\"message\":\"%s\"}"
    (Severity.name d.severity) (phase_name d.phase)
    (max 0 sp.Loc.start_pos.Loc.line)
    (max 0 sp.Loc.start_pos.Loc.col)
    (max 0 sp.Loc.end_pos.Loc.line)
    (max 0 sp.Loc.end_pos.Loc.col)
    (Masc_obs.Ojson.escape d.message)

(* ---------------- legacy exception rendering ---------------- *)

let to_string = function
  | Error (phase, span, msg) ->
    if Loc.is_dummy span then
      Format.asprintf "%s: %s" (phase_name phase) msg
    else Format.asprintf "%s: %a: %s" (phase_name phase) Loc.pp span msg
  | _ -> invalid_arg "Diag.to_string: not a Diag.Error"
