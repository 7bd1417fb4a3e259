(* The five workloads. All are closed loops with one client: the next
   operation starts when the previous one has finished (batch-service
   submits whole 240-request rounds to a two-domain pool).

   [setup] builds a workload's inputs from the seed, checks them, and
   runs every distinct operation once, keeping its output; every timed
   operation must reproduce that output. [round] then runs the distinct
   operations once each, in a seeded order, until the deadline. *)

module C = Masc.Compiler
module K = Masc_kernels.Kernels
module I = Masc_vm.Interp
module T = Masc_asip.Targets
module Req = Masc_svc.Request
module Batch = Masc_svc.Batch

(* ---- accumulators ---- *)

type acc = {
  mutable ops : int;
  mutable failed : int;
  mutable failed_ops : string list;  (* the first few *)
  mutable lat_ms : float array;
  mutable at_ns : float array;  (* when each operation started *)
  mutable n_lat : int;
}

let new_acc () =
  {
    ops = 0;
    failed = 0;
    failed_ops = [];
    lat_ms = Array.make 4096 0.0;
    at_ns = Array.make 4096 0.0;
    n_lat = 0;
  }

let latency acc ~at ms =
  if acc.n_lat = Array.length acc.lat_ms then begin
    let grow a =
      let b = Array.make (2 * acc.n_lat) 0.0 in
      Array.blit a 0 b 0 acc.n_lat;
      b
    in
    acc.lat_ms <- grow acc.lat_ms;
    acc.at_ns <- grow acc.at_ns
  end;
  acc.lat_ms.(acc.n_lat) <- ms;
  acc.at_ns.(acc.n_lat) <- Int64.to_float at;
  acc.n_lat <- acc.n_lat + 1

let fail acc label =
  acc.failed <- acc.failed + 1;
  if List.length acc.failed_ops < 5 then acc.failed_ops <- label :: acc.failed_ops

let ms_between t0 t1 = Int64.to_float (Int64.sub t1 t0) /. 1e6

let shuffle rng a =
  let a = Array.copy a in
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int rng (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done;
  a

(* ---- workload interface ---- *)

type env = { mascc : string; dir : string }

type t = {
  programs : Prog.t list;
      (* every distinct program the workload compiles, runs or submits *)
  setup_failures : string list;
  speedup : float;
  round :
    traced:bool ->
    rng:Random.State.t ->
    deadline:int64 ->
    finish:(Spans.op -> unit) ->
    acc ->
    unit;
}

type workload = {
  name : string;
  in_process : bool;  (* false: the work runs in child processes *)
  setup : seed:int -> env -> t;
}

(* ---- case-driven workloads ---- *)

(* One distinct operation. [run] and [traced] perform it (plainly, or
   replayed stage by stage under spans) and return a check that compares
   the output with the warm-up's; the check runs after the clock stops. *)
type case = {
  label : string;
  run : unit -> unit -> bool;
  traced : unit -> unit -> bool;
}

let case label ~digest op traced_op =
  let expected = digest (op ()) in
  let checked v () = String.equal (digest v) expected in
  { label; run = (fun () -> checked (op ())); traced = (fun () -> checked (traced_op ())) }

let protect f = try f () with _ -> fun () -> false

let case_round cases ~traced ~rng ~deadline ~finish acc =
  Array.iter
    (fun c ->
      if Spans.now () < deadline then begin
        Calib.tick ();
        let t0 = Spans.now () in
        let check, op =
          if traced then
            let check, op = Spans.record (fun () -> protect c.traced) in
            (check, Some op)
          else (protect c.run, None)
        in
        latency acc ~at:t0 (ms_between t0 (Spans.now ()));
        acc.ops <- acc.ops + 1;
        if not (try check () with _ -> false) then fail acc c.label;
        Option.iter finish op
      end)
    (shuffle rng cases)

(* Compiles and simulates [programs], checking each against its golden
   reference. *)
let golden_runs ~failures programs =
  List.map (fun p -> (p, Prog.checked_run ~failures p (Prog.compile p))) programs

let compile_case (p : Prog.t) =
  case p.Prog.name ~digest:Fun.id
    (fun () -> C.c_source (Prog.compile p))
    (fun () ->
      Replay.compile p.Prog.config ~source:p.Prog.source ~entry:p.Prog.entry
        ~arg_types:p.Prog.arg_types)

(* ---- compile-kernels ---- *)

let compile_kernels ~seed:_ _env =
  let programs = Prog.paper_programs () in
  let failures = ref [] in
  let runs = golden_runs ~failures programs in
  {
    programs;
    setup_failures = List.rev !failures;
    speedup = Prog.paper_speedup runs;
    round = case_round (Array.of_list (List.map compile_case programs));
  }

(* ---- compile-large ---- *)

let large_programs ~seed =
  List.map
    (fun (entry, statements, source) ->
      {
        Prog.name = Printf.sprintf "%s-s%d" entry statements;
        source;
        entry;
        arg_types = Gen.arg_types;
        config = C.proposed ();
        inputs = Req.random_inputs ~seed Gen.arg_types;
        golden = None;
      })
    (Gen.pool ~seed)

let compile_large ~seed _env =
  let programs = large_programs ~seed in
  (* The generator must be a function of the seed, every program must
     compile without a diagnostic, and the plan engine must agree with
     the tree-walking interpreter on it. *)
  let regenerated = large_programs ~seed in
  let failures = ref [] in
  List.iter2
    (fun (p : Prog.t) (q : Prog.t) ->
      let check what ok = if not ok then failures := (p.Prog.name ^ ": " ^ what) :: !failures in
      check "generator not deterministic" (String.equal p.Prog.source q.Prog.source);
      match
        C.compile_file p.Prog.config ~source:p.Prog.source ~entry:p.Prog.entry
          ~arg_types:p.Prog.arg_types
      with
      | Some c, [] ->
        let plan = C.run c p.Prog.inputs in
        let tree =
          I.run_tree ~isa:c.C.config.C.isa ~mode:c.C.config.C.mode c.C.mir p.Prog.inputs
        in
        check "plan and tree engines disagree"
          (String.equal (Prog.run_digest plan) (Prog.run_digest tree))
      | _, diags -> check (Printf.sprintf "%d diagnostic(s)" (List.length diags)) false)
    programs regenerated;
  (* The speedup over these programs would change with the seed, so the
     workload reports the paper kernels' one, which an exact bound can
     hold. *)
  let runs = golden_runs ~failures (Prog.paper_programs ()) in
  {
    programs;
    setup_failures = List.rev !failures;
    speedup = Prog.paper_speedup runs;
    round = case_round (Array.of_list (List.map compile_case programs));
  }

(* ---- simulate ---- *)

(* The seed regenerates each case's first argument (the signal, or
   matmul's left operand); coefficients stay the kernel's own. Cycle
   counts do not depend on the data, only the outputs do. *)
let seeded_inputs ~seed (k : K.kernel) =
  match k.K.inputs () with
  | _ :: rest -> List.hd (Req.random_inputs ~seed [ List.hd k.K.arg_types ]) :: rest
  | [] -> []

let larger () =
  [ K.fir ~n:4096 (); K.iir ~n:4096 (); K.fft ~n:1024 (); K.matmul ~n:64 ();
    K.xcorr ~n:2048 (); K.fmdemod ~n:4096 () ]

let simulate ~seed _env =
  let targets = [ T.scalar; T.dsp4; T.dsp8; T.dsp16 ] in
  let of_kernel ?suffix config k =
    Prog.of_kernel ?suffix ~inputs:(seeded_inputs ~seed k) config k
  in
  let programs =
    List.concat_map
      (fun k ->
        List.map (fun isa -> of_kernel (C.proposed ~isa ()) k) targets
        @ [ of_kernel (C.coder_baseline ()) k ])
      (K.all ())
    @ List.map (of_kernel ~suffix:"-4x" (C.proposed ())) (larger ())
  in
  let failures = ref [] and runs = ref [] in
  let cases =
    List.map
      (fun (p : Prog.t) ->
        let compiled = Prog.compile p in
        runs := (p, Prog.checked_run ~failures p compiled) :: !runs;
        let plan = C.plan compiled in
        case p.Prog.name ~digest:Prog.run_digest
          (fun () -> C.run compiled p.Prog.inputs)
          (fun () -> Replay.execute plan p.Prog.inputs))
      programs
  in
  {
    programs;
    setup_failures = List.rev !failures;
    speedup = Prog.paper_speedup !runs;
    round = case_round (Array.of_list cases);
  }

(* ---- cli-compile ---- *)

(* Makes every mascc process print its GC counters to stderr at exit. *)
let gc_stats_env () =
  Array.append
    [| "OCAMLRUNPARAM=v=0x400" |]
    (Array.of_list
       (List.filter
          (fun v -> not (String.starts_with ~prefix:"OCAMLRUNPARAM=" v))
          (Array.to_list (Unix.environment ()))))

let minor_words_of stderr_text =
  List.fold_left
    (fun acc line ->
      match String.split_on_char ':' line with
      | [ "minor_words"; v ] -> (
        match float_of_string_opt (String.trim v) with Some w -> w | None -> acc)
      | _ -> acc)
    0.0
    (String.split_on_char '\n' stderr_text)

(* Source files of [programs] in [dir], one per program, by index. *)
let write_sources dir programs =
  if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
  List.mapi
    (fun i (p : Prog.t) ->
      let file = Filename.concat dir (Printf.sprintf "p%02d.m" i) in
      Prog.write_file file p.Prog.source;
      (p, file))
    programs

let cli_child_words = ref 0.0

let cli_compile ~seed:_ env =
  let dir = Filename.concat env.dir "cli" in
  let programs = Prog.paper_programs () in
  let gc_env = gc_stats_env () in
  let failures = ref [] and runs = ref [] in
  let cases =
    List.map
      (fun ((p : Prog.t), file) ->
        let out = Filename.remove_extension file ^ ".c" in
        let err = Filename.remove_extension file ^ ".err" in
        let args = Prog.mascc_compile_args p ~file ~out in
        let spawn () =
          let fd =
            Unix.openfile err [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o644
          in
          Fun.protect ~finally:(fun () -> Unix.close fd) (fun () ->
              Prog.spawn ~env:gc_env ~stderr:fd env.mascc args)
        in
        let digest code =
          cli_child_words := !cli_child_words +. minor_words_of (Prog.read_file err);
          Printf.sprintf "%d:%s" code (Prog.read_file out)
        in
        let c = case p.Prog.name ~digest spawn (fun () -> Spans.span "proc.compile" spawn) in
        (* Cross-check the process's output with the in-process compiler,
           whose program is golden-checked. *)
        let compiled = Prog.compile p in
        if Prog.read_file out <> C.c_source compiled then
          failures := (p.Prog.name ^ ": mascc output differs from c_source") :: !failures;
        runs := (p, Prog.checked_run ~failures p compiled) :: !runs;
        c)
      (write_sources dir programs)
  in
  {
    programs;
    setup_failures = List.rev !failures;
    speedup = Prog.paper_speedup !runs;
    round = case_round (Array.of_list cases);
  }

(* ---- batch-service ---- *)

(* The CI soak suite: 6 kernels x 4 targets x run+compile x 5 reps. *)
let soak_targets = [ "scalar"; "dsp4"; "dsp8"; "dsp16" ]

let soak_text () =
  String.concat ""
    (List.concat_map
       (fun _ ->
         List.concat_map
           (fun (k : K.kernel) ->
             List.concat_map
               (fun t ->
                 [ Printf.sprintf "run kernel:%s target=%s\n" k.K.kname t;
                   Printf.sprintf "compile kernel:%s target=%s\n" k.K.kname t ])
               soak_targets)
           (K.all ()))
       [ 1; 2; 3; 4; 5 ])

let status_digest (o : Req.outcome) =
  match o.Req.o_status with
  | Req.Ok_run { cycles; dyn_instrs; rets_digest } ->
    Some (Printf.sprintf "run:%d:%d:%s" cycles dyn_instrs rets_digest)
  | Req.Ok_compile { c_digest; c_bytes } ->
    Some (Printf.sprintf "compile:%s:%d" c_digest c_bytes)
  | _ -> None

let op_name = function Req.Compile -> "compile" | Req.Run -> "run"

let spec (p : Prog.t) op =
  {
    Req.op;
    label = p.Prog.name;
    source = p.Prog.source;
    entry = p.Prog.entry;
    arg_types = p.Prog.arg_types;
    inputs = p.Prog.inputs;
    config = p.Prog.config;
    fuel = None;
  }

(* [Request.execute] under a span, with the request's retry and failure
   counts. *)
let traced_request ?breaker ?rid spec =
  let o =
    Spans.span ("svc.request." ^ op_name spec.Req.op) (fun () ->
        Req.execute ?breaker ?rid ~policy:Req.default_policy spec)
  in
  Spans.count "svc.retries" (float_of_int o.Req.o_retries);
  Spans.count "svc.failed" (if status_digest o = None then 1.0 else 0.0);
  o

(* Runs [items] as one round on two domains from a cold compile cache,
   traced or not, and returns each outcome with its traced operation. *)
let batch_round items ~traced =
  C.clear_memory_cache ();
  if not traced then
    List.map (fun o -> (o, None)) (Batch.run ~jobs:2 ~policy:Req.default_policy items)
  else
    let breaker = Req.create_breaker () in
    Masc.Parallel.map ~jobs:2
      (fun (it : Batch.item) ->
        match it.Batch.bx_parsed with
        | Ok spec ->
          let o, op =
            Spans.record (fun () -> traced_request ~breaker ~rid:it.Batch.bx_index spec)
          in
          (o, Some op)
        | Error msg -> invalid_arg msg)
      items

let batch_service ~seed:_ _env =
  let items = Array.of_list (Batch.parse ~default_isa:T.dsp8 (soak_text ())) in
  let programs =
    List.concat_map
      (fun k ->
        List.map
          (fun t -> Prog.of_kernel (C.proposed ~isa:(Option.get (T.by_name t)) ()) k)
          soak_targets)
      (K.all ())
  in
  (* The suite has no coder-baseline request; the golden check adds the
     six kernels' baselines so the paper speedup comes from these runs. *)
  let failures = ref [] in
  let runs =
    golden_runs ~failures
      (programs @ List.map (Prog.of_kernel (C.coder_baseline ())) (K.all ()))
  in
  let warm = batch_round (Array.to_list items) ~traced:false in
  let expected = Array.of_list (List.map (fun (o, _) -> status_digest o) warm) in
  let label (it : Batch.item) =
    Printf.sprintf "request %d (%s)" it.Batch.bx_index it.Batch.bx_label
  in
  Array.iter
    (fun it ->
      if expected.(it.Batch.bx_index) = None then failures := (label it ^ ": not ok") :: !failures)
    items;
  let round ~traced ~rng ~deadline ~finish acc =
    if Spans.now () < deadline then begin
      Calib.tick ();
      let order = Array.to_list (shuffle rng items) in
      let at = Spans.now () in
      List.iter2
        (fun (it : Batch.item) ((o : Req.outcome), op) ->
          latency acc ~at o.Req.o_latency_ms;
          acc.ops <- acc.ops + 1;
          let d = status_digest o in
          if d = None || d <> expected.(it.Batch.bx_index) then fail acc (label it);
          Option.iter finish op)
        order (batch_round order ~traced)
    end
  in
  {
    programs;
    setup_failures = List.rev !failures;
    speedup = Prog.paper_speedup runs;
    round;
  }

let all =
  [ { name = "compile-kernels"; in_process = true; setup = compile_kernels };
    { name = "compile-large"; in_process = true; setup = compile_large };
    { name = "simulate"; in_process = true; setup = simulate };
    { name = "cli-compile"; in_process = false; setup = cli_compile };
    { name = "batch-service"; in_process = true; setup = batch_service } ]
