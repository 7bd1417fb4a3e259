(* Cooperative deadlines in domain-local state.

   One ref cell per domain: installing a deadline is two DLS
   operations, a check is a DLS load + deref + Int64 compare. The
   request layer runs one request at a time per domain (the batch
   scheduler hands whole requests to pool workers), so domain-local is
   exactly request-local. *)

exception Deadline_exceeded of { budget_ms : float }

let () =
  Printexc.register_printer (function
    | Deadline_exceeded { budget_ms } ->
      Some (Printf.sprintf "deadline exceeded (budget %.0f ms)" budget_ms)
    | _ -> None)

type t = { deadline_ns : int64; budget_ms : float }

let key : t option ref Domain.DLS.key = Domain.DLS.new_key (fun () -> ref None)
let armed () = !(Domain.DLS.get key) <> None

let check () =
  match !(Domain.DLS.get key) with
  | Some { deadline_ns; budget_ms }
    when Int64.compare (Masc_obs.Journal.now_ns ()) deadline_ns > 0 ->
    Masc_obs.Metrics.incr "svc.deadline_hits";
    Masc_obs.Journal.emit "deadline.hit"
      ~detail:[ ("budget_ms", Printf.sprintf "%g" budget_ms) ];
    raise (Deadline_exceeded { budget_ms })
  | _ -> ()

let with_deadline ~ms f =
  let cell = Domain.DLS.get key in
  let saved = !cell in
  cell :=
    Some
      { deadline_ns =
          Int64.add (Masc_obs.Journal.now_ns ()) (Int64.of_float (ms *. 1e6));
        budget_ms = ms };
  Fun.protect ~finally:(fun () -> cell := saved) f
