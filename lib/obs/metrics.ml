(* Process-wide metrics registry: named counters, gauges and
   histograms behind one mutex. Metric updates happen at coarse
   boundaries (per pass run, per compile, per simulation), so a single
   lock is cheap and keeps cross-domain aggregation trivially correct:
   counters are commutative, which is what makes `--jobs N` dumps
   deterministic in spite of domain interleaving. *)

type kind = Counter | Gauge | Histogram

type metric = {
  mname : string;
  kind : kind;
  mutable count : int;  (* counter value / histogram observation count *)
  mutable value : float;  (* gauge level *)
  mutable sum : float;
  mutable vmin : float;
  mutable vmax : float;
}

let registry : (string, metric) Hashtbl.t = Hashtbl.create 64
let lock = Mutex.create ()

let find_or_create kind name =
  match Hashtbl.find_opt registry name with
  | Some m -> m
  | None ->
    let m =
      { mname = name; kind; count = 0; value = 0.0; sum = 0.0;
        vmin = infinity; vmax = neg_infinity }
    in
    Hashtbl.replace registry name m;
    m

let incr ?(by = 1) name =
  Mutex.protect lock (fun () ->
      let m = find_or_create Counter name in
      m.count <- m.count + by)

let set name v =
  Mutex.protect lock (fun () ->
      let m = find_or_create Gauge name in
      m.value <- v)

let observe name v =
  Mutex.protect lock (fun () ->
      let m = find_or_create Histogram name in
      m.count <- m.count + 1;
      m.sum <- m.sum +. v;
      if v < m.vmin then m.vmin <- v;
      if v > m.vmax then m.vmax <- v)

(* Exact nearest-rank quantile over an unsorted sample array; shared by
   [batch --summary] latency lines and [Health] windows. [quantile xs
   50.0] is the median; empty input yields 0. *)
let quantile xs p =
  let n = Array.length xs in
  if n = 0 then 0.0
  else begin
    let s = Array.copy xs in
    Array.sort compare s;
    let rank = int_of_float (ceil (p /. 100.0 *. float_of_int n)) in
    s.(max 0 (min (n - 1) (rank - 1)))
  end

let reset () = Mutex.protect lock (fun () -> Hashtbl.reset registry)

let get name =
  Mutex.protect lock (fun () ->
      match Hashtbl.find_opt registry name with
      | None -> None
      | Some m -> (
        match m.kind with
        | Counter -> Some (float_of_int m.count)
        | Gauge -> Some m.value
        | Histogram -> Some m.sum))

let sorted () =
  Mutex.protect lock (fun () ->
      Hashtbl.fold (fun _ m acc -> m :: acc) registry []
      |> List.sort (fun a b -> compare a.mname b.mname))

(* %.17g-style float printing, but trimmed: metric dumps are diffed by
   tests and humans, so integral floats print without an exponent. *)
let pp_float v =
  if Float.is_integer v && Float.abs v < 1e15 then
    Printf.sprintf "%.0f" v
  else Printf.sprintf "%g" v

let dump_text () =
  let b = Buffer.create 1024 in
  List.iter
    (fun m ->
      match m.kind with
      | Counter ->
        Buffer.add_string b
          (Printf.sprintf "counter    %-32s %d\n" m.mname m.count)
      | Gauge ->
        Buffer.add_string b
          (Printf.sprintf "gauge      %-32s %s\n" m.mname (pp_float m.value))
      | Histogram ->
        Buffer.add_string b
          (Printf.sprintf
             "histogram  %-32s n=%d sum=%s min=%s max=%s mean=%s\n"
             m.mname m.count (pp_float m.sum) (pp_float m.vmin)
             (pp_float m.vmax)
             (pp_float (m.sum /. float_of_int (max 1 m.count)))))
    (sorted ());
  Buffer.contents b
