(* Isolated request execution: see the .mli for the contract.

   Outcome classification happens in exactly one place (the exception
   dispatch in `execute`). Nothing is retried: diagnostics and
   simulator traps are pure functions of the input, and the persistent
   cache already turns its own I/O errors into misses, so a second
   attempt could only reproduce the first. *)

module MT = Masc_sema.Mtype
module I = Masc_vm.Interp
module V = Masc_vm.Value
module C = Masc.Compiler
module Cancel = Masc_fault.Cancel
module Metrics = Masc_obs.Metrics
module Journal = Masc_obs.Journal

type op = Compile | Run

type spec = {
  op : op;
  label : string;
  source : string;
  entry : string;
  arg_types : MT.t list;
  inputs : I.xvalue list;
  config : C.config;
  fuel : int option;
}

type status =
  | Ok_run of { cycles : int; dyn_instrs : int; rets_digest : string }
  | Ok_compile of { c_digest : string; c_bytes : int }
  | Rejected of Masc_frontend.Diag.t list
  | Trapped of string
  | Timed_out of { budget_ms : float }
  | Quarantined of { reason : string }
  | Crashed of string
  | Invalid of string

type outcome = {
  o_label : string;
  o_op : op;
  o_status : status;
  o_latency_ms : float;
  o_retries : int;
}

type policy = { quarantine_after : int; timeout_ms : float option }

let default_policy = { quarantine_after = 3; timeout_ms = None }

(* ---- circuit breaker ---- *)

type breaker = { mu : Mutex.t; fails : (string, int) Hashtbl.t }

let create_breaker () = { mu = Mutex.create (); fails = Hashtbl.create 16 }

(* Input identity: same source + entry + types + configuration ⇒ same
   breaker cell, whatever label the batch file used for it. *)
let input_key (s : spec) =
  Digest.to_hex
    (Digest.string
       (Marshal.to_string
          ( s.source,
            s.entry,
            s.arg_types,
            s.config.C.isa.Masc_asip.Isa.tname,
            s.config.C.mode,
            s.config.C.opt_level,
            s.config.C.vectorize,
            s.config.C.select_complex )
          []))

let breaker_open b ~key ~threshold =
  Mutex.protect b.mu (fun () ->
      match Hashtbl.find_opt b.fails key with
      | Some n -> n >= threshold
      | None -> false)

let breaker_note b ~key ~threshold ~failed =
  Mutex.protect b.mu (fun () ->
      if failed then begin
        let n = 1 + Option.value ~default:0 (Hashtbl.find_opt b.fails key) in
        Hashtbl.replace b.fails key n;
        (* Journal the open exactly at the crossing, so the flight
           recorder shows the transition once, not every rejection. *)
        if n = threshold then
          Journal.emit "quarantine.open"
            ~detail:[ ("input", key); ("failures", string_of_int n) ]
      end
      else
        match Hashtbl.find_opt b.fails key with
        | Some n ->
          Hashtbl.remove b.fails key;
          Journal.emit "quarantine.close"
            ~detail:[ ("input", key); ("cleared", string_of_int n) ]
        | None -> ())

(* ---- deterministic inputs (shared with mascc run) ---- *)

let random_inputs ~seed (arg_types : MT.t list) : I.xvalue list =
  List.mapi
    (fun i ty ->
      let n = MT.numel ty in
      let vals = Masc_kernels.Kernels.randoms ~seed:(seed + (37 * i)) n in
      if MT.is_scalar ty then
        match ty.MT.cplx with
        | MT.Real -> I.Xscalar (V.Sf vals.(0))
        | MT.Complex ->
          I.Xscalar (V.Sc { Complex.re = vals.(0); im = -.vals.(0) })
      else
        match ty.MT.cplx with
        | MT.Real -> I.xarray_of_floats vals
        | MT.Complex ->
          I.xarray_of_complex
            (Array.map (fun v -> { Complex.re = v; im = 0.5 *. v }) vals))
    arg_types

(* ---- one attempt ---- *)

let digest_rets (rets : I.xvalue list) =
  Digest.to_hex (Digest.string (Marshal.to_string rets []))

let has_errors diags =
  List.exists
    (fun d -> d.Masc_frontend.Diag.severity = Masc_frontend.Diag.Severity.Error)
    diags

let attempt (s : spec) : status =
  match
    C.compile_file_cached s.config ~source:s.source ~entry:s.entry
      ~arg_types:s.arg_types
  with
  | None, diags -> Rejected diags
  | Some compiled, diags ->
    if has_errors diags then Rejected diags
    else (
      match s.op with
      | Compile ->
        let c = C.c_source compiled in
        Ok_compile
          {
            c_digest = Digest.to_hex (Digest.string c);
            c_bytes = String.length c;
          }
      | Run -> (
        match C.run ?fuel:s.fuel compiled s.inputs with
        | r ->
          Ok_run
            {
              cycles = r.I.cycles;
              dyn_instrs = r.I.dyn_instrs;
              rets_digest = digest_rets r.I.rets;
            }
        | exception Masc_vm.Exec.Trap { kind; loc; steps_executed } ->
          Trapped (Masc_vm.Exec.trap_message ~kind ~loc ~steps_executed)
        | exception I.Runtime_error msg -> Trapped msg))

(* ---- execution ---- *)

let status_class = function
  | Ok_run _ | Ok_compile _ -> "ok"
  | Rejected _ -> "rejected"
  | Trapped _ -> "trapped"
  | Timed_out _ -> "timeout"
  | Quarantined _ -> "quarantined"
  | Crashed _ -> "crashed"
  | Invalid _ -> "invalid"

let status_detail = function
  | Ok_run { cycles; dyn_instrs; _ } ->
    Printf.sprintf "cycles=%d dyn=%d" cycles dyn_instrs
  | Ok_compile { c_bytes; _ } -> Printf.sprintf "c_bytes=%d" c_bytes
  | Rejected diags ->
    Printf.sprintf "errors=%d" (List.length (List.filter (fun d ->
        d.Masc_frontend.Diag.severity = Masc_frontend.Diag.Severity.Error) diags))
  | Trapped msg -> Printf.sprintf "reason=%S" msg
  | Timed_out { budget_ms } -> Printf.sprintf "budget_ms=%g" budget_ms
  | Quarantined { reason } -> Printf.sprintf "reason=%S" reason
  | Crashed msg -> Printf.sprintf "reason=%S" msg
  | Invalid msg -> Printf.sprintf "reason=%S" msg

(* A failure the breaker should count: the resource-exhaustion and
   internal-error classes that poison throughput when the same input
   keeps cycling. Rejected/Trapped are the input behaving as specified
   — not counted. (An open breaker short-circuits before any status is
   noted, so Quarantined never reaches here.) *)
let breaker_counts = function
  | Timed_out _ | Crashed _ -> true
  | Ok_run _ | Ok_compile _ | Rejected _ | Trapped _ | Quarantined _
  | Invalid _ ->
    false

let execute ?breaker ?(rid = -1) ~policy (s : spec) : outcome =
  Journal.with_request ~rid @@ fun () ->
  Metrics.incr "svc.requests";
  let key = input_key s in
  let t0 = Masc_obs.Health.now_ms () in
  let finish status =
    Metrics.incr ("svc.status." ^ status_class status);
    let latency = Masc_obs.Health.now_ms () -. t0 in
    Journal.emit "request.done"
      ~detail:
        [ ("class", status_class status);
          ("latency_ms", Printf.sprintf "%.3f" latency) ];
    {
      o_label = s.label;
      o_op = s.op;
      o_status = status;
      o_latency_ms = latency;
      o_retries = 0;
    }
  in
  let circuit_open =
    match breaker with
    | Some b -> breaker_open b ~key ~threshold:policy.quarantine_after
    | None -> false
  in
  if circuit_open then begin
    (* Short-circuit without noting the breaker: an open breaker must
       neither re-count a failure nor reset. *)
    Metrics.incr "svc.quarantined";
    Journal.emit "quarantine.hit" ~detail:[ ("input", key) ];
    finish
      (Quarantined
         {
           reason =
             Printf.sprintf "circuit open after %d consecutive failures"
               policy.quarantine_after;
         })
  end
  else
    let body () = attempt s in
    let status =
      match
        match policy.timeout_ms with
        | None -> body ()
        | Some ms -> Cancel.with_deadline ~ms body
      with
      | status -> status
      | exception Cancel.Deadline_exceeded { budget_ms } ->
        Metrics.incr "svc.timeouts";
        Timed_out { budget_ms }
      | exception e ->
        (* Crash isolation: anything unexpected is contained to this
           request and reported, not propagated into the batch. *)
        Crashed (Printexc.to_string e)
    in
    (match breaker with
    | Some b ->
      breaker_note b ~key ~threshold:policy.quarantine_after
        ~failed:(breaker_counts status)
    | None -> ());
    finish status
