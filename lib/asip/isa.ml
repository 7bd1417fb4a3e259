type kind =
  | Ksimd_add
  | Ksimd_sub
  | Ksimd_mul
  | Ksimd_div
  | Ksimd_min
  | Ksimd_max
  | Kmac
  | Kload
  | Kstore
  | Kbroadcast
  | Kreduce_add
  | Kreduce_min
  | Kreduce_max
  | Kcmul
  | Kcmac
  | Kcadd

type instr_desc = { iname : string; kind : kind; lanes : int; latency : int }

type costs = {
  alu : int;
  fdiv : int;
  math_fn : int;
  pow_fn : int;
  load : int;
  store : int;
  loop_overhead : int;
  branch : int;
  bounds_check : int;
  descriptor : int;
  call_overhead : int;
}

type t = {
  tname : string;
  description : string;
  vector_width : int;
  instrs : instr_desc list;
  costs : costs;
}

let default_costs =
  { alu = 1; fdiv = 8; math_fn = 20; pow_fn = 30; load = 1; store = 1;
    loop_overhead = 2; branch = 2; bounds_check = 2; descriptor = 1;
    call_overhead = 20 }

(* [find] and [find_named] are plain recursive scans: a [List.find_opt]
   predicate closes over the key, a closure built on every lookup. *)
let rec find_kind kind = function
  | [] -> None
  | i :: tl -> if i.kind = kind then Some i else find_kind kind tl

let find t kind = find_kind kind t.instrs
let has t kind = Option.is_some (find t kind)

(* Intrinsic lookups by name happen once per dynamic instruction in the
   tree-walking simulator and once per static instruction in the plan
   compiler; a per-target hash table keyed by physical identity avoids
   rescanning [instrs] every time. Targets are module-level values (see
   Targets), so the cache stays tiny; it is capped defensively in case a
   caller parses ISA descriptions in a loop. *)
(* Domain safety: the read path must be lock-free (it runs per dynamic
   instruction under `--jobs`), so the cache is an immutable association
   list published through an [Atomic]. Each entry's table is fully built
   before publication and never mutated after, so readers in other
   domains always observe a complete table. The builder lock only
   serializes (rare) insertions; a reader that races an insertion either
   sees the new list or rebuilds redundantly — both are correct. *)
let named_cache : (t * (string, instr_desc option) Hashtbl.t) list Atomic.t =
  Atomic.make []

let named_cache_cap = 32
let named_cache_lock = Mutex.create ()

let rec cached t = function
  | [] -> raise Not_found
  | (t', tbl) :: tl -> if t' == t then tbl else cached t tl

let intrinsic_table t =
  match cached t (Atomic.get named_cache) with
  | tbl -> tbl
  | exception Not_found ->
    Mutex.protect named_cache_lock (fun () ->
        let cur = Atomic.get named_cache in
        match cached t cur with
        | tbl -> tbl
        | exception Not_found ->
          let tbl = Hashtbl.create 16 in
          (* First description wins, matching [find]'s order. The
             table holds each answer as the option [find_named]
             returns, so a lookup allocates nothing. *)
          List.iter
            (fun i ->
              if not (Hashtbl.mem tbl i.iname) then
                Hashtbl.add tbl i.iname (Some i))
            t.instrs;
          let keep =
            if List.length cur >= named_cache_cap then
              List.filteri (fun k _ -> k < named_cache_cap - 1) cur
            else cur
          in
          Atomic.set named_cache ((t, tbl) :: keep);
          tbl)

let find_named t name =
  match Hashtbl.find (intrinsic_table t) name with
  | d -> d
  | exception Not_found -> None

let kind_table =
  [ ("simd.add", Ksimd_add); ("simd.sub", Ksimd_sub); ("simd.mul", Ksimd_mul);
    ("simd.div", Ksimd_div); ("simd.min", Ksimd_min); ("simd.max", Ksimd_max);
    ("simd.mac", Kmac); ("simd.load", Kload); ("simd.store", Kstore);
    ("simd.broadcast", Kbroadcast); ("simd.reduce_add", Kreduce_add);
    ("simd.reduce_min", Kreduce_min); ("simd.reduce_max", Kreduce_max);
    ("cplx.mul", Kcmul); ("cplx.mac", Kcmac); ("cplx.add", Kcadd) ]

let kind_of_string s = List.assoc_opt s kind_table

let kind_to_string k =
  match List.find_opt (fun (_, k') -> k = k') kind_table with
  | Some (s, _) -> s
  | None -> assert false

let pp ppf t =
  Format.fprintf ppf "@[<v>target %s (%s)@,vector width: %d@," t.tname
    t.description t.vector_width;
  List.iter
    (fun i ->
      Format.fprintf ppf "  %-12s %-16s lanes=%-3d latency=%d@," i.iname
        (kind_to_string i.kind) i.lanes i.latency)
    t.instrs;
  Format.fprintf ppf "@]"
