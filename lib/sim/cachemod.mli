(** One per-cluster cache module: presence metadata for the subblocks this
    cluster owns (data itself lives in the flat memory image — the modules
    are write-through, so only hit/miss behaviour and replacement are
    tracked here). Lines are subblock-sized with block tags, set-indexed by
    block number, LRU within a set (paper Figure 1, Table 2). *)

type t

val create : Vliw_arch.Machine.t -> cluster:int -> t

val reset : t -> unit
(** Back to the state {!create} returned: every line invalid, LRU order
    as seeded. Allocates nothing. *)

val present : t -> subblock:int -> bool

val touch : t -> subblock:int -> unit
(** LRU bump on a hit. No-op if absent. *)

val install : t -> subblock:int -> int option
(** Fill a subblock; returns the evicted subblock (if a valid line was
    displaced). The installed line becomes most recently used.
    @raise Invalid_argument if the subblock does not belong to this
    cluster. *)

val invalidate_all : t -> unit
val valid_lines : t -> int

val encode_state : t -> Buffer.t -> unit
(** Append a canonical serialization of the module's replacement state for
    model-checking state keys: only the sets holding a valid line, each as
    its index and its valid subblocks in most-recently-used-first order,
    then a module terminator. Absolute LRU stamp values are erased — only
    their order is observable — so two modules with equal encodings are
    behaviorally identical, and a module whose lines were all invalidated
    encodes like a fresh one. Allocates nothing beyond the buffer. *)
