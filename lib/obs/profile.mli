(** Source-attributed simulator profile collector.

    Fed by the reference tree-walking interpreter
    ({!Masc_vm.Interp.run_tree}) when profiling is enabled: simulated
    cycles and dynamic instruction counts per opcode class, per
    intrinsic/ISE, and per MATLAB source line. Per-line and per-class
    sums each equal the engine's total cycle count exactly (integer
    bookkeeping over the same charges, not sampling); line 0 holds
    synthetic instructions with no source span. *)

type entry = { mutable e_cycles : int; mutable e_instrs : int }

type t = {
  lines : (int, entry) Hashtbl.t;
  classes : (string, entry) Hashtbl.t;
  intrins : (string, entry) Hashtbl.t;
}

val create : unit -> t
val add_line : t -> int -> cycles:int -> instrs:int -> unit
val add_class : t -> string -> cycles:int -> instrs:int -> unit
val add_intrin : t -> string -> cycles:int -> instrs:int -> unit

type row = { key : string; cycles : int; instrs : int }

type snapshot = {
  total_cycles : int;
  total_instrs : int;
  by_line : (int * int * int) list;  (** line, cycles, instrs; line asc *)
  by_class : row list;  (** cycles desc, then name asc *)
  by_intrin : row list;
}

val snapshot : t -> total_cycles:int -> total_instrs:int -> snapshot

(** Hot-line report: annotated source lines with cycle%% bars, then
    opcode-class and intrinsic tables. *)
val render : ?source:string -> snapshot -> string

val to_json : snapshot -> string
