(* Sliding-window service health.

   A mutex-guarded window of recent request outcomes and cache events;
   [stats] derives req/s, error rate, cache hit rate and windowed
   p50/p99 latency at an explicit [now_ms], which keeps the arithmetic
   deterministic under test. A sample at time [ts] is inside the window
   at [now] iff [now -. ts < window_ms] (half-open: a sample exactly
   one window old has fallen out). *)

type sample = { s_ts : float; s_ok : bool; s_latency_ms : float }

type t = {
  window_ms : float;
  mu : Mutex.t;
  mutable requests : sample list;  (* newest first *)
  mutable cache : (float * bool) list;  (* (ts, hit), newest first *)
  mutable lifetime : int;
  mutable lifetime_err : int;
}

type stats = {
  h_window_ms : float;
  h_requests : int;  (* in window *)
  h_req_per_s : float;
  h_error_rate : float;  (* 0 when the window is empty *)
  h_cache_hit_rate : float;  (* 0 when no cache events in window *)
  h_p50_ms : float;
  h_p99_ms : float;
  h_total : int;  (* lifetime requests *)
  h_total_err : int;
}

let now_ms () = Int64.to_float (Journal.now_ns ()) /. 1e6

let create ?(window_ms = 10_000.0) () =
  { window_ms; mu = Mutex.create (); requests = []; cache = [];
    lifetime = 0; lifetime_err = 0 }

let in_window t ~now_ms ts = now_ms -. ts < t.window_ms

(* Samples arrive roughly in time order; dropping the stale tail keeps
   the window bounded without a deque. *)
let prune t ~now_ms =
  t.requests <- List.filter (fun s -> in_window t ~now_ms s.s_ts) t.requests;
  t.cache <- List.filter (fun (ts, _) -> in_window t ~now_ms ts) t.cache

let observe t ~now_ms ~ok ~latency_ms =
  Mutex.protect t.mu (fun () ->
      t.requests <-
        { s_ts = now_ms; s_ok = ok; s_latency_ms = latency_ms }
        :: t.requests;
      t.lifetime <- t.lifetime + 1;
      if not ok then t.lifetime_err <- t.lifetime_err + 1;
      prune t ~now_ms)

let observe_cache t ~now_ms ~hit =
  Mutex.protect t.mu (fun () ->
      t.cache <- (now_ms, hit) :: t.cache;
      prune t ~now_ms)

let stats t ~now_ms =
  Mutex.protect t.mu (fun () ->
      prune t ~now_ms;
      let n = List.length t.requests in
      let errs =
        List.fold_left (fun a s -> if s.s_ok then a else a + 1) 0 t.requests
      in
      let lats =
        Array.of_list (List.map (fun s -> s.s_latency_ms) t.requests)
      in
      let nc = List.length t.cache in
      let hits =
        List.fold_left (fun a (_, h) -> if h then a + 1 else a) 0 t.cache
      in
      { h_window_ms = t.window_ms;
        h_requests = n;
        h_req_per_s = float_of_int n /. (t.window_ms /. 1000.0);
        h_error_rate =
          (if n = 0 then 0.0 else float_of_int errs /. float_of_int n);
        h_cache_hit_rate =
          (if nc = 0 then 0.0 else float_of_int hits /. float_of_int nc);
        h_p50_ms = Metrics.quantile lats 50.0;
        h_p99_ms = Metrics.quantile lats 99.0;
        h_total = t.lifetime;
        h_total_err = t.lifetime_err })

let render ?(done_count = -1) ?(total = -1) st =
  let progress =
    if done_count >= 0 && total >= 0 then
      Printf.sprintf " | %d/%d done" done_count total
    else ""
  in
  Printf.sprintf
    "[masc-health] %.1f req/s | err %.1f%% | cache %.0f%% | p50 %.1fms p99 %.1fms%s"
    st.h_req_per_s
    (100.0 *. st.h_error_rate)
    (100.0 *. st.h_cache_hit_rate)
    st.h_p50_ms st.h_p99_ms progress
