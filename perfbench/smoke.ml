(* Smoke check of the workload benchmark, run by `dune runtest`:

   smoke.exe MAIN.exe BENCHMARK.json

   runs every workload of BENCHMARK.json for 0.3 s at seed 1 and one
   traced run, and checks that each prints every metric BENCHMARK.json
   names, finite, and that no operation failed. Runs this short have too
   few samples for a 99th percentile, so a refused latency_p99_ms is
   allowed here. The workloads' own set-up checks cover the rest: golden
   outputs, the compile-large generator's determinism and zero
   diagnostics, and the staged replay in the traced run. *)

module J = Masc_obs.Ojson

let failures = ref 0

let fail fmt =
  Printf.ksprintf
    (fun s ->
      incr failures;
      prerr_endline ("perfbench smoke: " ^ s))
    fmt

let read_file path =
  let ic = open_in_bin path in
  Fun.protect ~finally:(fun () -> close_in ic) (fun () ->
      really_input_string ic (in_channel_length ic))

let names doc section =
  match Option.bind (J.member section doc) J.to_arr with
  | Some l -> List.filter_map (fun o -> Option.bind (J.member "name" o) J.to_str) l
  | None -> failwith ("BENCHMARK.json has no " ^ section)

let out_dir = Filename.concat "perfbench" "out"

(* Runs [main] and returns its exit status, stdout lines and stderr. *)
let run main args =
  let err = Filename.concat out_dir "smoke.err" in
  let fd = Unix.openfile err [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o644 in
  let out_r, out_w = Unix.pipe ~cloexec:true () in
  let pid =
    Unix.create_process main (Array.of_list (main :: args)) Unix.stdin out_w fd
  in
  Unix.close out_w;
  Unix.close fd;
  let ic = Unix.in_channel_of_descr out_r in
  let rec lines acc =
    match input_line ic with l -> lines (l :: acc) | exception End_of_file -> List.rev acc
  in
  let out = lines [] in
  close_in ic;
  let _, status = Unix.waitpid [] pid in
  let stderr_text = read_file err in
  Sys.remove err;
  (status, out, stderr_text)

let contains s sub =
  let n = String.length sub in
  let rec go i = i + n <= String.length s && (String.sub s i n = sub || go (i + 1)) in
  go 0

let check main ~workload ~trace expected =
  let label = Printf.sprintf "%s (trace %d)" workload (Bool.to_int trace) in
  let status, out, stderr_text =
    run main
      [ "--workload"; workload; "--seed"; "1"; "--seconds"; "0.3"; "--trace";
        (if trace then "1" else "0") ]
  in
  let p99_refused = contains stderr_text "latency_p99_ms needs" in
  (match status with
  | Unix.WEXITED 0 -> ()
  | Unix.WEXITED 2 when p99_refused && not trace -> ()
  | _ -> fail "%s exited abnormally:\n%s" label stderr_text);
  let printed =
    List.filter_map
      (fun l ->
        match J.parse l with
        | Ok doc -> (
          match (Option.bind (J.member "metric" doc) J.to_str,
                 Option.bind (J.member "value" doc) J.to_num) with
          | Some m, Some v -> Some (m, v)
          | _ -> (
            match (J.member "correct" doc, Option.bind (J.member "failed" doc) J.to_num) with
            | Some (J.Bool true), Some 0.0 -> None
            | Some _, _ -> fail "%s: %s" label l; None
            | None, _ -> None))
        | Error _ -> None)
      out
  in
  if not (List.exists (fun l -> String.starts_with ~prefix:"{\"correct\": " l) out) then
    fail "%s printed no result line" label;
  List.iter
    (fun name ->
      match List.assoc_opt name printed with
      | Some v when Float.is_finite v -> ()
      | Some v -> fail "%s: %s is %f" label name v
      | None when name = "latency_p99_ms" && p99_refused -> ()
      | None -> fail "%s: %s not printed" label name)
    expected

let () =
  match Sys.argv with
  | [| _; main; benchmark |] ->
    let doc =
      match J.parse (read_file benchmark) with
      | Ok d -> d
      | Error e -> failwith ("BENCHMARK.json: " ^ e)
    in
    let workloads = names doc "workloads" in
    if not (Sys.file_exists out_dir) then Sys.mkdir out_dir 0o755;
    List.iter
      (fun w -> check main ~workload:w ~trace:false (names doc "end_to_end"))
      workloads;
    let traced = List.hd workloads in
    check main ~workload:traced ~trace:true (names doc "per_layer");
    let trace_file = Filename.concat out_dir ("trace-" ^ traced ^ ".json") in
    (match J.parse (read_file trace_file) with
    | Ok _ -> ()
    | Error e -> fail "%s is not valid JSON: %s" trace_file e);
    if !failures > 0 then exit 1
  | _ ->
    prerr_endline "usage: smoke.exe MAIN.exe BENCHMARK.json";
    exit 2
