(* Host-speed calibration.

   The machines this benchmark runs on are shared: other tenants' load
   slows every process on the host by up to 1.6x, in episodes of a
   second to minutes, and no run length averages that away. So while a
   workload runs, a fixed, allocation-free computation (pointer chasing
   and comparisons through a balanced tree, like the compiler's own
   maps) is timed on the harness's domain between operations, every
   [interval] of wall time, and timings are rescaled to a host on which
   it takes [reference_us].

   The reference is a constant: a run's own fastest walk varies from run
   to run under load, so a reference taken from the run cannot make two
   runs comparable. 225 us is the walk's median time on an idle host of
   the kind the benchmark was written on (2-vCPU x86-64 virtual
   machines); on another host only the scale of the rescaled numbers
   changes. README.md gives the measurements behind these choices and
   the evidence that the rescaling keeps a slower compiler slower. *)

module M = Set.Make (Int)

let reference_us = 225.0
let interval = 100_000_000L
let window = 500_000_000L
let key i = (i * 7919) land 8191
let tree = M.of_list (List.init 4096 key)

let walk n =
  let hits = ref 0 in
  for i = 0 to n - 1 do
    if M.mem (key (i + 4096)) tree then incr hits
  done;
  ignore (Sys.opaque_identity !hits)

(* One timed walk, in us. An untimed pass brings the tree back into the
   cache first, so the workload's own cache footprint does not count. *)
let measure () =
  M.iter (fun k -> ignore (Sys.opaque_identity k)) tree;
  let t0 = Spans.now () in
  walk 2048;
  Int64.to_float (Int64.sub (Spans.now ()) t0) /. 1e3

let samples : (int64 * float) list ref = ref []  (* newest first *)
let last = ref 0L

(* Called between operations: takes a sample when [interval] has
   passed. *)
let tick () =
  if Int64.sub (Spans.now ()) !last >= interval then begin
    let us = measure () in
    last := Spans.now ();
    samples := (!last, us) :: !samples
  end

let start () =
  samples := [];
  last := 0L

let median xs = Masc_obs.Metrics.quantile (Array.of_list xs) 50.0
let median_us () = median (List.map snd !samples)

(* A function from a time to the host's slowdown around it (>1: slower
   than the reference): the median sample within [window], over the
   reference. *)
let slowdown_at () =
  let s = Array.of_list (List.rev !samples) in
  let n = Array.length s in
  let smoothed =
    Array.map
      (fun (t, _) ->
        median
          (List.filter_map
             (fun (u, us) -> if Int64.abs (Int64.sub u t) <= window then Some us else None)
             (Array.to_list s))
        /. reference_us)
      s
  in
  fun t ->
    (* the last sample at or before [t], else the first *)
    let rec search lo hi =
      if lo >= hi then lo
      else
        let mid = (lo + hi + 1) / 2 in
        if fst s.(mid) <= t then search mid hi else search lo (mid - 1)
    in
    if n = 0 then 1.0 else smoothed.(search 0 (n - 1))

(* Runs [f] between three walks before and three after; returns its
   result, its wall time in seconds and the host's slowdown around it. *)
let around f =
  let few () = List.init 3 (fun _ -> measure ()) in
  let before = few () in
  let t0 = Spans.now () in
  let r = f () in
  let secs = Int64.to_float (Int64.sub (Spans.now ()) t0) /. 1e9 in
  (r, secs, median (before @ few ()) /. reference_us)
