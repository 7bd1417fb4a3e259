(* Crash-safe persistent blob store: see the .mli for the contract.

   Durability argument: the only mutation of a final entry path is
   rename(2), which POSIX makes atomic within a filesystem — readers
   see either the old complete entry or the new complete entry. A
   crash between write and rename leaves only a uniquely-named temp
   file (pid + domain id in the name), which a later write of the same
   key simply replaces. Payload integrity does not depend on that
   argument at all: every read re-verifies the digest, so even torn
   writes from a kernel crash are caught and degraded to a miss. *)

let magic = "MASCDC1"

let rec retry_eintr f =
  try f () with Unix.Unix_error (Unix.EINTR, _, _) -> retry_eintr f

let read_file path =
  let fd = retry_eintr (fun () -> Unix.openfile path [ Unix.O_RDONLY ] 0) in
  Fun.protect
    ~finally:(fun () -> retry_eintr (fun () -> Unix.close fd))
    (fun () ->
      let b = Buffer.create 4096 in
      let chunk = Bytes.create 65536 in
      let rec loop () =
        let n = retry_eintr (fun () -> Unix.read fd chunk 0 65536) in
        if n > 0 then begin
          Buffer.add_subbytes b chunk 0 n;
          loop ()
        end
      in
      loop ();
      Buffer.contents b)

let write_fully fd s =
  let b = Bytes.unsafe_of_string s in
  let n = Bytes.length b in
  let rec loop off =
    if off < n then
      let w = retry_eintr (fun () -> Unix.write fd b off (n - off)) in
      loop (off + w)
  in
  loop 0

let mkdir_p dir =
  let rec mk d =
    if d <> "/" && d <> "." && not (Sys.file_exists d) then begin
      mk (Filename.dirname d);
      try retry_eintr (fun () -> Unix.mkdir d 0o755)
      with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
    end
  in
  mk dir

let unlink_quiet path =
  try retry_eintr (fun () -> Unix.unlink path)
  with Unix.Unix_error _ -> ()

(* Sharding keeps directory listings O(entries/256): ab/abcdef... *)
let path_of_key ~dir ~key =
  let h = Digest.to_hex (Digest.string key) in
  Filename.concat (Filename.concat dir (String.sub h 0 2)) (h ^ ".masc")

let header ~version ~key payload =
  Printf.sprintf "%s\nv:%s\nk:%s\nd:%s\nn:%d\n" magic version key
    (Digest.to_hex (Digest.string payload))
    (String.length payload)

(* ---- read side ---- *)

exception Corrupt of string

let parse_entry ~version ~key (raw : string) : string =
  let fail why = raise (Corrupt why) in
  let pos = ref 0 in
  let line () =
    match String.index_from_opt raw !pos '\n' with
    | None -> fail "truncated header"
    | Some nl ->
      let l = String.sub raw !pos (nl - !pos) in
      pos := nl + 1;
      l
  in
  let field prefix =
    let l = line () in
    if String.length l < 2 || String.sub l 0 2 <> prefix then
      fail (Printf.sprintf "bad header field (wanted %s)" prefix)
    else String.sub l 2 (String.length l - 2)
  in
  if line () <> magic then fail "bad magic";
  if field "v:" <> version then fail "version skew";
  if field "k:" <> key then fail "key mismatch";
  let digest = field "d:" in
  let n =
    match int_of_string_opt (field "n:") with
    | Some n when n >= 0 -> n
    | _ -> fail "bad length"
  in
  if String.length raw - !pos <> n then fail "truncated payload";
  let payload = String.sub raw !pos n in
  if Digest.to_hex (Digest.string payload) <> digest then
    fail "payload digest mismatch";
  payload

let invalidate ~dir ~key =
  Masc_obs.Metrics.incr "cache.disk_corrupt";
  Masc_obs.Journal.emit "cache.corrupt" ~detail:[ ("reason", "decode") ];
  unlink_quiet (path_of_key ~dir ~key)

let find ~dir ~version ~key =
  let path = path_of_key ~dir ~key in
  match read_file path with
  | exception Unix.Unix_error (Unix.ENOENT, _, _) ->
    Masc_obs.Metrics.incr "cache.disk_misses";
    None
  | exception Unix.Unix_error _ ->
    (* Transient read failure (permissions, I/O error): a miss, not an
       error — the caller recompiles. *)
    Masc_obs.Metrics.incr "cache.disk_read_errors";
    Masc_obs.Metrics.incr "cache.disk_misses";
    Masc_obs.Journal.emit "cache.read_error";
    None
  | raw -> (
    match parse_entry ~version ~key raw with
    | payload ->
      Masc_obs.Metrics.incr "cache.disk_hits";
      Some payload
    | exception Corrupt why ->
      (* Truncated / bit-flipped / version-skewed: count, delete so the
         next writer replaces it, and miss. *)
      Masc_obs.Metrics.incr "cache.disk_corrupt";
      Masc_obs.Metrics.incr "cache.disk_misses";
      Masc_obs.Journal.emit "cache.corrupt" ~detail:[ ("reason", why) ];
      unlink_quiet path;
      None)

(* ---- write side ---- *)

let store ~dir ~version ~key payload =
  let path = path_of_key ~dir ~key in
  let tmp =
    Printf.sprintf "%s.tmp.%d.%d" path (Unix.getpid ())
      (Domain.self () :> int)
  in
  match
    mkdir_p (Filename.dirname path);
    let fd =
      retry_eintr (fun () ->
          Unix.openfile tmp [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o644)
    in
    Fun.protect
      ~finally:(fun () -> retry_eintr (fun () -> Unix.close fd))
      (fun () ->
        write_fully fd (header ~version ~key payload);
        write_fully fd payload);
    retry_eintr (fun () -> Unix.rename tmp path)
  with
  | () -> Masc_obs.Metrics.incr "cache.disk_writes"
  | exception (Unix.Unix_error _ | Sys_error _) ->
    (* Best-effort: a full disk or lost permission must not fail the
       compile it was trying to memoize. *)
    Masc_obs.Metrics.incr "cache.disk_write_errors";
    Masc_obs.Journal.emit "cache.write_error";
    unlink_quiet tmp
