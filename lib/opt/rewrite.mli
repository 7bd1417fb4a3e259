(** Shared traversal helpers for MIR optimization passes.

    Every rewriting combinator here is {e sharing-preserving}: when the
    callback leaves a node unchanged (returns its argument physically),
    the combinator returns its own argument physically instead of
    re-allocating an equal copy. Passes built on these combinators
    therefore return the very same [Mir.func] when they had nothing to
    do, so the pass manager ({!Masc_opt.Pipeline}) can detect "no
    change" with one pointer comparison and untouched subtrees are
    shared between pipeline iterations instead of churning the minor
    heap. Pass authors must keep the same discipline in any hand-rolled
    rebuilding (only allocate when a child actually changed). *)

module Mir = Masc_mir.Mir

(** Sharing-preserving [List.map]: returns the original list when [f]
    returns every element physically unchanged, and allocates nothing
    of its own until [f] changes an element. [f] is applied in list
    order. Pass a callback built once per run: a closure built per call
    (a lambda over per-block state, a partial application) is the
    allocation. *)
val smap : ('a -> 'a) -> 'a list -> 'a list

(** [map_blocks f func] applies [f] to every block bottom-up (inner
    blocks first), rebuilding the function. Returns [func] itself when
    nothing changed; [f] must be sharing-preserving for that to fire. *)
val map_blocks : (Mir.block -> Mir.block) -> Mir.func -> Mir.func

(** [map_rvalues f func] rewrites every rvalue in place
    (sharing-preserving). *)
val map_rvalues : (Mir.rvalue -> Mir.rvalue) -> Mir.func -> Mir.func

(** [map_operands f rv] rewrites the value operands of one rvalue
    (indices, arguments — not the base array of a load/store), returning
    [rv] itself when [f] changed nothing. *)
val map_operands : (Mir.operand -> Mir.operand) -> Mir.rvalue -> Mir.rvalue

(** [iter_instrs f func] visits every instruction, innermost first. *)
val iter_instrs : (Mir.instr -> unit) -> Mir.func -> unit

(** [reads_var vid rv] — [rv] reads variable [vid], as an operand or as
    the base array of a load. Allocation-free. *)
val reads_var : int -> Mir.rvalue -> bool

(** Sets of variable ids for per-run pass analyses. Ids are dense per
    function (from 0), so a set is one stamped byte per id: [add] and
    [mem] allocate nothing once the bytes cover the ids, and [clear] is
    constant-time amortized. *)
module Vid_set : sig
  type t

  (** [create n] is an empty set presized for ids below [n]; larger ids
      grow it. *)
  val create : int -> t

  val add : t -> int -> unit
  val add_operand : t -> Mir.operand -> unit

  (** [add_reads s rv] adds every variable [rv] reads, load base
      included: exactly the ids {!reads_var} can hold for. *)
  val add_reads : t -> Mir.rvalue -> unit

  val mem : t -> int -> bool

  (** [reads_any s rv] — [rv] reads a variable in [s], as an operand or
      as the base array of a load. Allocation-free. *)
  val reads_any : t -> Mir.rvalue -> bool

  val remove : t -> int -> unit
  val clear : t -> unit
end

(** An operand per variable id, for the per-run substitution tables of
    copy-prop and CSE: a sparse set, four bytes per id naming the
    binding's entry in two dense arrays (ids and operands). [clear] is
    constant-time, and [remove_reading] scans only the bindings since
    the last [clear]. Nothing allocates once the tables cover the ids
    and the bindings; the per-id bytes are allocated on the first
    [set]. *)
module Vid_map : sig
  type t

  (** [create n] is an empty map presized for ids below [n]; larger
      ids grow it. *)
  val create : int -> t

  val mem : t -> int -> bool

  (** [get m vid] is [vid]'s operand; [vid] must be bound ([mem]). *)
  val get : t -> int -> Mir.operand

  val set : t -> int -> Mir.operand -> unit
  val remove : t -> int -> unit

  (** [remove_reading m vid] unbinds every id whose operand is variable
      [vid]. It scans only when some operand bound since the last
      [clear] was [vid]. *)
  val remove_reading : t -> int -> unit

  val clear : t -> unit
end

(** Counts per variable id, for per-run pass analyses. Ids are dense
    per function, so a table is four bytes per id, sized from
    [func.next_vid] and grown on an unseen id: [get] and [add] allocate
    nothing once it covers the ids. *)
module Vid_counts : sig
  type t

  (** [create n] is all zeros, presized for ids below [n]. *)
  val create : int -> t

  val get : t -> int -> int

  (** [add c vid d] adds [d] (which may be negative) to [vid]'s count. *)
  val add : t -> int -> int -> unit

  val add_operand : t -> int -> Mir.operand -> unit

  (** [add_reads c d rv] adds [d] for every variable [rv] reads, load
      base included, once per occurrence. *)
  val add_reads : t -> int -> Mir.rvalue -> unit

  (** [add_block_uses c d b] adds [d] per operand use in [b] and its
      nested blocks: rvalue operands and load bases, stored arrays,
      indices and values, conditions, loop bounds and prints. *)
  val add_block_uses : t -> int -> Mir.block -> unit
end

(** Operand use counts over a whole function: how many times each
    variable id is read (in rvalues, indices, conditions, bounds, prints;
    the array of a store counts too). Return variables are counted as
    used. *)
val use_counts : Mir.func -> Vid_counts.t

(** [pure rv] holds when re-evaluating the rvalue is safe (no memory
    reads; loads are excluded because stores may intervene). *)
val pure : Mir.rvalue -> bool
