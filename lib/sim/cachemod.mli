(** One per-cluster cache module: presence metadata for the subblocks this
    cluster owns (data itself lives in the flat memory image — the modules
    are write-through, so only hit/miss behaviour and replacement are
    tracked here). Lines are subblock-sized with block tags, set-indexed by
    block number, LRU within a set (paper Figure 1, Table 2). The module
    keeps an index of the sets holding a valid line, so its state key and
    its checkpoints cost the occupied sets, not all of them. *)

type t

val create : Vliw_arch.Machine.t -> cluster:int -> t
val present : t -> subblock:int -> bool

val touch : t -> subblock:int -> unit
(** LRU bump on a hit. No-op if absent. *)

val install : t -> subblock:int -> int option
(** Fill a subblock; returns the evicted subblock (if a valid line was
    displaced). The installed line becomes most recently used.
    @raise Invalid_argument if the subblock does not belong to this
    cluster. *)

val invalidate_all : t -> unit

val encode_state : t -> Vliw_util.Codec.t -> unit
(** Append a canonical serialization of the module's replacement state for
    model-checking state keys: one section holding {!encode_set} of every
    set that holds a valid line, in ascending set order. Absolute LRU
    stamp values are erased — only their order is observable — so two
    modules with equal encodings are behaviorally identical, and a module
    whose lines were all invalidated encodes like a fresh one. Walks the
    occupied sets only; allocates nothing beyond the writer. *)

val encode_set : t -> Vliw_util.Codec.t -> int -> unit
(** One set's record: its index, its valid-line count and its valid
    subblocks most recently used first; nothing for a set without a
    valid line. *)

(** {1 Checkpoints} *)

type snapshot
(** The module's state: its occupied sets' lines and LRU stamps, and its
    clock. *)

val capture : t -> snapshot

val restore : t -> snapshot -> unit
(** Put the module back in the captured state, as far as any later
    operation or encoding can observe. Allocates nothing. *)
