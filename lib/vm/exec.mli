(** Shared execution substrate for the simulator back ends.

    Both the legacy tree-walking interpreter ({!Interp.run_tree}) and
    the closure-threaded plan executor ({!Plan}) produce the same
    {!result} from the same {!xvalue} arguments and share the entry
    check and formatting semantics defined here, so the two paths are
    bit-identical by construction wherever they share code. *)

type xvalue = Xscalar of Value.scalar | Xarray of Value.scalar array

type result = {
  rets : xvalue list;
  cycles : int;
  dyn_instrs : int;  (** dynamic instruction count *)
  histogram : (string * int) list;  (** cycles per instruction class *)
  output : string;  (** text produced by disp/fprintf *)
}

exception Runtime_error of string

(** Control-flow signals raised by [break]/[continue]/[return] and
    caught at the enclosing loop or function boundary. *)
exception Break_exc

exception Continue_exc
exception Return_exc

(** Guardrail trap kinds: the fuel budget bounds dynamic instructions,
    the cycle limit bounds modeled time, the allocation cap bounds the
    static array footprint. *)
type trap_kind =
  | Fuel_exhausted of { fuel : int }
  | Cycle_limit of { max_cycles : int }
  | Alloc_limit of { requested_bytes : int; cap_bytes : int }

(** Structured guardrail failure. [loc] is the simulated function's
    name; [steps_executed] the dynamic instruction count at the trap.
    Fires at the same execution point in both simulator back ends. *)
exception Trap of { kind : trap_kind; loc : string; steps_executed : int }

val default_fuel : int
(** 1e9 dynamic instructions. *)

val default_max_alloc_bytes : int
(** 256 MiB of simulated array storage. *)

val guard_mask : int
(** Both engines test the cooperative request deadline
    ({!Masc_fault.Cancel.check}) every [guard_mask]+1 dynamic
    instructions, riding the fuel accounting; shared so a deadline
    cancels at the same step in either engine. *)

(** Raise {!Trap}, journaling it first ({!Masc_obs.Journal}, kind
    ["trap.raised"]) so the flight recorder ties the trap to the
    raising request. All trap sites in both engines funnel through
    this. *)
val raise_trap : kind:trap_kind -> loc:string -> steps_executed:int -> 'a

(** Human-readable rendering of a trap. *)
val trap_message : kind:trap_kind -> loc:string -> steps_executed:int -> string

(** The lane operator of a reduction, and of a reduce or SIMD
    intrinsic kind ([None] for other kinds). *)
val vreduce_op : Masc_mir.Mir.vreduce -> Masc_mir.Mir.binop

val reduce_kind_op : Masc_asip.Isa.kind -> Masc_mir.Mir.binop option
val simd_kind_op : Masc_asip.Isa.kind -> Masc_mir.Mir.binop option

(** Static array footprint of a function in bytes (complex 16,
    double/int 8, bool 1 per element), over its variables
    ({!Masc_mir.Mir.iter_vars}). *)
val array_bytes_of_func : Masc_mir.Mir.func -> int

(** [check_alloc ~loc ~cap_bytes bytes] raises {!Trap} with
    [Alloc_limit] if [bytes > cap_bytes]. *)
val check_alloc : loc:string -> cap_bytes:int -> int -> unit

(** Proof that [func] passed {!check_entry} on [isa]: only the check
    makes one. *)
type checked = private { func : Masc_mir.Mir.func; isa : Masc_asip.Isa.t }

(** [check_entry ~isa f] is [Masc_mir.Verify.check] with the target's
    intrinsic shapes: SIMD intrinsics take two vector operands of one
    width and mac three, giving that width; reductions take one vector
    and complex ISEs two (cmul, cadd) or three (cmac) complex scalars,
    giving a scalar; memory descriptors are refused. Names [isa] lacks
    stay a run-time error. Runs in a ["verify"] stage span. The compiler
    runs it once per compile and plans from the witness; the engines
    run it on raw MIR and raise its [Failure] unchanged. *)
val check_entry : isa:Masc_asip.Isa.t -> Masc_mir.Mir.func -> checked

(** [fail fmt ...] raises {!Runtime_error} with a formatted message. *)
val fail : ('a, Format.formatter, unit, 'b) format4 -> 'a

(** MATLAB [fprintf] semantics: conversion specs consume a flat queue of
    scalars and the format string is recycled while arguments remain. *)
val render_format : string -> Value.scalar list -> string
