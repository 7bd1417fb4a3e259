(* Newline-framed batch front end: see the .mli for the grammar.

   Parsing never raises: every failure mode of a line (unknown
   operation, missing kernel, unreadable file, bad option) is folded
   into `Error reason`, which `run` turns into an `Invalid` outcome in
   that line's slot. One bad request must cost exactly one slot. *)

module MT = Masc_sema.Mtype
module C = Masc.Compiler
module K = Masc_kernels.Kernels

type item = {
  bx_index : int;
  bx_label : string;
  bx_op : Request.op;
  bx_parsed : (Request.spec, string) result;
}

(* ---- argument type specs (the mascc --args syntax) ---- *)

exception Bad of string

let bad fmt = Printf.ksprintf (fun s -> raise (Bad s)) fmt

let parse_arg_types_exn (spec : string) : MT.t list =
  if String.trim spec = "" then []
  else
    String.split_on_char ',' spec
    |> List.map (fun one ->
           let one = String.trim one in
           let base_s, dims_s =
             match String.index_opt one ':' with
             | Some i ->
               ( String.sub one 0 i,
                 Some (String.sub one (i + 1) (String.length one - i - 1)) )
             | None -> (one, None)
           in
           let cplx, base =
             match base_s with
             | "double" -> (MT.Real, MT.Double)
             | "complex" -> (MT.Complex, MT.Double)
             | "int" -> (MT.Real, MT.Int)
             | "bool" -> (MT.Real, MT.Bool)
             | other ->
               bad "unknown base type '%s' (use double, complex, int, bool)"
                 other
           in
           match dims_s with
           | None -> MT.scalar ~cplx base
           | Some dims -> (
             match String.split_on_char 'x' dims with
             | [ r; c ] -> (
               match (int_of_string_opt r, int_of_string_opt c) with
               | Some r, Some c -> MT.matrix ~cplx base r c
               | _ -> bad "bad dimensions: %s" dims)
             | [ n ] -> (
               match int_of_string_opt n with
               | Some n -> MT.row_vector ~cplx base n
               | None -> bad "bad dimensions: %s" dims)
             | _ -> bad "bad dimensions: %s" dims))

let parse_arg_types spec =
  match parse_arg_types_exn spec with
  | tys -> Ok tys
  | exception Bad msg -> Error msg

(* ---- one request line ---- *)

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

type opts = {
  mutable args : string option;
  mutable entry : string option;
  mutable target : string option;
  mutable seed : int option;
  mutable fuel : int option;
  mutable olevel : int;
  mutable coder : bool;
  mutable no_vectorize : bool;
  mutable no_complex : bool;
}

let parse_opt (o : opts) tok =
  match String.index_opt tok '=' with
  | Some i -> (
    let k = String.sub tok 0 i in
    let v = String.sub tok (i + 1) (String.length tok - i - 1) in
    let int_v () =
      match int_of_string_opt v with
      | Some n -> n
      | None -> bad "bad integer for %s: %s" k v
    in
    match k with
    | "args" -> o.args <- Some v
    | "entry" -> o.entry <- Some v
    | "target" -> o.target <- Some v
    | "seed" -> o.seed <- Some (int_v ())
    | "fuel" ->
      let n = int_v () in
      if n <= 0 then bad "fuel must be positive: fuel=%d" n;
      o.fuel <- Some n
    | "O" ->
      let n = int_v () in
      if n < 0 || n > 2 then bad "bad optimization level: O=%d" n;
      o.olevel <- n
    | _ -> bad "unknown option: %s" tok)
  | None -> (
    match tok with
    | "coder" -> o.coder <- true
    | "no-vectorize" -> o.no_vectorize <- true
    | "no-complex" -> o.no_complex <- true
    | _ -> bad "unknown option: %s" tok)

let config_of ~isa (o : opts) =
  if o.coder then C.coder_baseline ~isa ()
  else
    {
      (C.proposed ~isa ()) with
      C.opt_level = Masc_opt.Pipeline.level_of_int o.olevel;
      vectorize = not o.no_vectorize;
      select_complex = not o.no_complex;
    }

let spec_of_tokens ~default_isa op_tok prog_tok opt_toks : Request.spec =
  let op =
    match op_tok with
    | "run" -> Request.Run
    | "compile" -> Request.Compile
    | other -> bad "unknown operation '%s' (use run or compile)" other
  in
  let o =
    {
      args = None;
      entry = None;
      target = None;
      seed = None;
      fuel = None;
      olevel = 2;
      coder = false;
      no_vectorize = false;
      no_complex = false;
    }
  in
  List.iter (parse_opt o) opt_toks;
  let isa =
    match o.target with
    | None -> default_isa
    | Some name -> (
      match Masc_asip.Targets.by_name name with
      | Some t -> t
      | None -> bad "unknown target '%s'" name)
  in
  let config = config_of ~isa o in
  if String.length prog_tok >= 7 && String.sub prog_tok 0 7 = "kernel:" then (
    let kname = String.sub prog_tok 7 (String.length prog_tok - 7) in
    match K.by_name kname with
    | None -> bad "unknown kernel '%s'" kname
    | Some k ->
      if o.args <> None || o.entry <> None then
        bad "args=/entry= only apply to file requests";
      let inputs =
        match o.seed with
        | None -> k.K.inputs ()
        | Some seed -> Request.random_inputs ~seed k.K.arg_types
      in
      {
        Request.op;
        label = prog_tok;
        source = k.K.source;
        entry = k.K.entry;
        arg_types = k.K.arg_types;
        inputs;
        config;
        fuel = o.fuel;
      })
  else
    let source =
      try read_file prog_tok
      with Sys_error msg -> bad "cannot read %s: %s" prog_tok msg
    in
    let entry =
      match o.entry with
      | Some e -> e
      | None -> Filename.remove_extension (Filename.basename prog_tok)
    in
    let arg_types = parse_arg_types_exn (Option.value ~default:"" o.args) in
    let seed = Option.value ~default:42 o.seed in
    {
      Request.op;
      label = prog_tok;
      source;
      entry;
      arg_types;
      inputs = Request.random_inputs ~seed arg_types;
      config;
      fuel = o.fuel;
    }

let split_ws line =
  String.split_on_char ' ' line
  |> List.concat_map (String.split_on_char '\t')
  |> List.filter (fun s -> s <> "")

let parse_line ~default_isa ~index line =
  let trimmed = String.trim line in
  if trimmed = "" || trimmed.[0] = '#' then None
  else
    match split_ws trimmed with
    | op :: prog :: opts ->
      let parsed =
        match spec_of_tokens ~default_isa op prog opts with
        | spec -> Ok spec
        | exception Bad msg -> Error msg
      in
      Some
        {
          bx_index = index;
          bx_label = prog;
          bx_op = (if op = "run" then Request.Run else Request.Compile);
          bx_parsed = parsed;
        }
    | _ ->
      Some
        {
          bx_index = index;
          bx_label = trimmed;
          bx_op = Request.Compile;
          bx_parsed = Error "expected: <run|compile> <program> [options]";
        }

let parse ~default_isa text =
  let lines = String.split_on_char '\n' text in
  let items = ref [] in
  let index = ref 0 in
  List.iter
    (fun line ->
      match parse_line ~default_isa ~index:!index line with
      | None -> ()
      | Some it ->
        incr index;
        items := it :: !items)
    lines;
  List.rev !items

(* ---- execution ---- *)

let op_name = function Request.Compile -> "compile" | Request.Run -> "run"

let run ?(jobs = 1) ?on_outcome ~policy items =
  let breaker = Request.create_breaker () in
  (* Acceptance events land before dispatch, in input order, so the
     journal opens with the batch's full manifest. *)
  List.iter
    (fun it ->
      Masc_obs.Journal.emit ~rid:it.bx_index "request.accepted"
        ~detail:
          [ ("label", it.bx_label); ("op", op_name it.bx_op);
            ( "parse",
              match it.bx_parsed with Ok _ -> "ok" | Error _ -> "invalid" ) ])
    items;
  let exec it =
    let outcome =
      match it.bx_parsed with
      | Error msg ->
        Masc_obs.Metrics.incr "svc.requests";
        Masc_obs.Metrics.incr "svc.status.invalid";
        Masc_obs.Journal.emit ~rid:it.bx_index "request.done"
          ~detail:[ ("class", "invalid") ];
        {
          Request.o_label = it.bx_label;
          o_op = it.bx_op;
          o_status = Request.Invalid msg;
          o_latency_ms = 0.0;
          o_retries = 0;
        }
      | Ok spec -> Request.execute ~breaker ~rid:it.bx_index ~policy spec
    in
    (match on_outcome with Some f -> f outcome | None -> ());
    outcome
  in
  (* Request.execute never raises, so Worker_failed is unreachable and
     per-item isolation survives the pool. *)
  Masc.Parallel.map ~jobs exec items

let render_line ~index (o : Request.outcome) =
  Printf.sprintf "req %d %s %s %s %s latency_ms=%.2f" index
    (Request.status_class o.Request.o_status)
    (op_name o.Request.o_op) o.Request.o_label
    (Request.status_detail o.Request.o_status)
    o.Request.o_latency_ms

(* ---- JSON summary ---- *)

let metric name =
  int_of_float (Option.value ~default:0.0 (Masc_obs.Metrics.get name))

let summary_json (outcomes : Request.outcome list) =
  let b = Buffer.create 4096 in
  let lat =
    Array.of_list (List.map (fun o -> o.Request.o_latency_ms) outcomes)
  in
  let percentile samples p = Masc_obs.Metrics.quantile samples p in
  let count cls =
    List.length
      (List.filter
         (fun o -> Request.status_class o.Request.o_status = cls)
         outcomes)
  in
  Buffer.add_string b "{\n  \"requests\": [\n";
  let n = List.length outcomes in
  List.iteri
    (fun i (o : Request.outcome) ->
      (* Non-ok outcomes cite their flight-recorder offsets: every
         recorded event (spans too, under --trace) is streamed, so seq
         = JSONL line index and the summary alone tells you where in
         the journal the failure story lives. Events the ring dropped
         are missing from the list. *)
      let journal =
        if
          Masc_obs.Journal.is_enabled ()
          && Request.status_class o.Request.o_status <> "ok"
        then
          let seqs = Masc_obs.Journal.seqs_for ~rid:i in
          Printf.sprintf ", \"journal\": [%s]"
            (String.concat ", " (List.map string_of_int seqs))
        else ""
      in
      Buffer.add_string b
        (Printf.sprintf
           "    {\"index\": %d, \"label\": \"%s\", \"op\": \"%s\", \
            \"status\": \"%s\", \"detail\": \"%s\", \"latency_ms\": \
            %.3f%s}%s\n"
           i
           (Masc_obs.Ojson.escape o.Request.o_label)
           (op_name o.Request.o_op)
           (Request.status_class o.Request.o_status)
           (Masc_obs.Ojson.escape (Request.status_detail o.Request.o_status))
           o.Request.o_latency_ms journal
           (if i = n - 1 then "" else ",")))
    outcomes;
  Buffer.add_string b "  ],\n";
  Buffer.add_string b
    (Printf.sprintf
       "  \"counts\": {\"total\": %d, \"ok\": %d, \"rejected\": %d, \
        \"trapped\": %d, \"timeout\": %d, \"quarantined\": %d, \"crashed\": \
        %d, \"invalid\": %d},\n"
       n (count "ok") (count "rejected") (count "trapped") (count "timeout")
       (count "quarantined") (count "crashed") (count "invalid"));
  Buffer.add_string b
    (Printf.sprintf
       "  \"latency_ms\": {\"p50\": %.3f, \"p90\": %.3f, \"p99\": %.3f, \
        \"max\": %.3f},\n"
       (percentile lat 50.0) (percentile lat 90.0) (percentile lat 99.0)
       (Array.fold_left Float.max 0.0 lat));
  Buffer.add_string b
    (Printf.sprintf "  \"timeouts\": %d,\n  \"quarantined\": %d,\n"
       (metric "svc.timeouts") (metric "svc.quarantined"));
  let hits = metric "compile.cache_hits" in
  let misses = metric "compile.cache_misses" in
  Buffer.add_string b
    (Printf.sprintf
       "  \"cache\": {\"hits\": %d, \"misses\": %d, \"hit_rate\": %.3f, \
        \"disk_hits\": %d, \"disk_misses\": %d, \"disk_writes\": %d, \
        \"disk_corrupt\": %d, \"disk_read_errors\": %d, \
        \"disk_write_errors\": %d}\n"
       hits misses
       (if hits + misses = 0 then 0.0
        else float_of_int hits /. float_of_int (hits + misses))
       (metric "cache.disk_hits") (metric "cache.disk_misses")
       (metric "cache.disk_writes") (metric "cache.disk_corrupt")
       (metric "cache.disk_read_errors") (metric "cache.disk_write_errors"));
  Buffer.add_string b "}\n";
  Buffer.contents b
