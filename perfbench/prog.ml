(* The programs the workloads compile, run and submit, and the checks
   their outputs must pass. *)

module C = Masc.Compiler
module K = Masc_kernels.Kernels
module I = Masc_vm.Interp
module MT = Masc_sema.Mtype

type t = {
  name : string;  (* unique within a workload, e.g. "fft/dsp4" *)
  source : string;
  entry : string;
  arg_types : MT.t list;
  config : C.config;
  inputs : I.xvalue list;
  golden : I.xvalue list option;  (* reference outputs, when known *)
}

let config_name (c : C.config) =
  match c.C.mode with
  | Masc_asip.Cost_model.Coder -> "coder"
  | Masc_asip.Cost_model.Proposed -> c.C.isa.Masc_asip.Isa.tname

let of_kernel ?inputs ?(suffix = "") config (k : K.kernel) =
  let inputs = match inputs with Some i -> i | None -> k.K.inputs () in
  {
    name = Printf.sprintf "%s%s/%s" k.K.kname suffix (config_name config);
    source = k.K.source;
    entry = k.K.entry;
    arg_types = k.K.arg_types;
    config;
    inputs;
    golden = Some (k.K.golden inputs);
  }

(* The paper's comparison: proposed flow on dsp8 vs the coder baseline. *)
let paper_programs () =
  List.concat_map
    (fun k -> [ of_kernel (C.proposed ()) k; of_kernel (C.coder_baseline ()) k ])
    (K.all ())

let compile p = C.compile p.config ~source:p.source ~entry:p.entry ~arg_types:p.arg_types

(* ---- checks ---- *)

let scalars = function I.Xarray a -> a | I.Xscalar s -> [| s |]

(* Elementwise agreement at the kernel tests' tolerance. *)
let matches_golden p (r : I.result) =
  match p.golden with
  | None -> true
  | Some want ->
    List.length want = List.length r.I.rets
    && List.for_all2
         (fun w g ->
           let w = scalars w and g = scalars g in
           Array.length w = Array.length g
           && Array.for_all2 (fun a b -> Masc_vm.Value.close ~tol:1e-6 a b) w g)
         want r.I.rets

(* What a simulation must reproduce on every repetition. *)
let run_digest (r : I.result) =
  Digest.string
    (Marshal.to_string (r.I.cycles, r.I.dyn_instrs, r.I.rets) [])

let geomean xs =
  exp (List.fold_left (fun a x -> a +. log x) 0.0 xs /. float_of_int (List.length xs))

(* Simulates [compiled] on [p]'s inputs; a golden mismatch is added to
   [failures]. *)
let checked_run ~failures p compiled =
  let r = C.run compiled p.inputs in
  if not (matches_golden p r) then failures := (p.name ^ ": golden mismatch") :: !failures;
  r

(* The paper's result from [runs] that include both paper configurations
   of every kernel: the geometric mean over the six kernels of
   coder-baseline cycles / proposed dsp8 cycles. *)
let paper_speedup runs =
  let cycles name =
    match List.find_opt (fun (p, _) -> String.equal p.name name) runs with
    | Some (_, (r : I.result)) -> float_of_int r.I.cycles
    | None -> invalid_arg ("paper_speedup: no run of " ^ name)
  in
  geomean
    (List.map
       (fun (k : K.kernel) -> cycles (k.K.kname ^ "/coder") /. cycles (k.K.kname ^ "/dsp8"))
       (K.all ()))

(* ---- the mascc command line ---- *)

let arg_spec tys =
  String.concat ","
    (List.map
       (fun (t : MT.t) ->
         let base =
           match (t.MT.cplx, t.MT.base) with
           | MT.Complex, _ -> "complex"
           | MT.Real, MT.Int -> "int"
           | MT.Real, MT.Bool -> "bool"
           | MT.Real, (MT.Double | MT.Err) -> "double"
         in
         if MT.is_scalar t then base
         else Printf.sprintf "%s:%dx%d" base t.MT.rows t.MT.cols)
       tys)

(* Arguments of [mascc compile] for [p] with its source at [file]. *)
let mascc_compile_args p ~file ~out =
  [ "compile"; file; "--entry"; p.entry; "--args"; arg_spec p.arg_types;
    "--target"; p.config.C.isa.Masc_asip.Isa.tname; "-o"; out ]
  @ if p.config.C.mode = Masc_asip.Cost_model.Coder then [ "--coder" ] else []

let write_file path s =
  let oc = open_out_bin path in
  output_string oc s;
  close_out oc

let read_file path =
  let ic = open_in_bin path in
  Fun.protect ~finally:(fun () -> close_in ic) (fun () ->
      really_input_string ic (in_channel_length ic))

let devnull = lazy (Unix.openfile "/dev/null" [ Unix.O_RDWR ] 0)

(* Run [exe args] to completion with stdin and stdout on /dev/null;
   returns the exit code (-1 when killed by a signal). *)
let spawn ?(env = Unix.environment ()) ?stderr exe args =
  let null = Lazy.force devnull in
  let pid =
    Unix.create_process_env exe
      (Array.of_list (exe :: args))
      env null null
      (Option.value stderr ~default:null)
  in
  let rec wait () =
    match Unix.waitpid [] pid with
    | _, Unix.WEXITED c -> c
    | _, (Unix.WSIGNALED _ | Unix.WSTOPPED _) -> -1
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> wait ()
  in
  wait ()
