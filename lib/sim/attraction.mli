(** Attraction Buffers (paper Section 5): a small set-associative buffer per
    cluster caching {e remote} subblocks, data included (this is genuine
    replication, unlike the cache modules). A remote response installs the
    whole subblock; subsequent accesses hit locally until replacement.
    Stores update a present copy to keep it fresh; the buffer is flushed
    between loops to restore inter-loop coherence (Section 5.2).

    Each line carries its coherence protocol state
    ({!Vliw_coherence.Coherence.state}), the one record of which cluster
    holds which subblock: [I] is an invalid way, and a new line lands in
    [S]. Under MSI/MESI the memory system moves lines between states as
    the protocol decides; under install/flush they stay in [S] until
    dropped. *)

type t

val create : Vliw_arch.Machine.t -> t
(** Uses the machine's [attraction] geometry; every way starts invalid
    with zeroed data.
    @raise Invalid_argument if the machine has no Attraction Buffers. *)

val read : t -> subblock:int -> addr:int -> size:int -> int64 option
(** Little-endian read from the buffered copy; [None] if absent. *)

val write_if_present : t -> subblock:int -> addr:int -> size:int -> int64 -> sync:int -> bool
(** Update the buffered copy (no allocation); [sync] is the coherence
    sequence high-water mark for staleness accounting. Marks the entry as
    locally written (see {!invalidate}). Returns presence. *)

val invalidate : t -> subblock:int -> [ `Absent | `Clean | `Written ]
(** Drop the buffered copy (its line goes to [I]). [`Written] means the
    dropped replica had buffered a store since install, so the directory
    backend owes the home bank a writeback acknowledgement. *)

val install :
  t -> subblock:int -> addrs:int array -> mem:Bytes.t -> sync:int ->
  (int * Vliw_coherence.Coherence.state) option
(** Cache a remote subblock: copy its bytes out of [mem] (the state at
    response time) from its member addresses [addrs]
    ({!Vliw_arch.Machine.addrs_of_subblock} in order) and tag the entry
    with [sync]. A refill keeps the line's state; a new line lands in [S].
    Evicts LRU; returns the evicted [(subblock, state)] if a valid
    different entry was displaced (the directory backend must stop
    tracking that replica). Allocates nothing but that result. *)

val sync_seq : t -> subblock:int -> int option
(** The entry's coherence high-water mark: every store with a smaller
    sequence number is already reflected in the buffered copy. *)

val line_state : t -> subblock:int -> Vliw_coherence.Coherence.state
(** The protocol state of the line holding [subblock]; [I] if absent. *)

val set_line_state : t -> subblock:int -> Vliw_coherence.Coherence.state -> unit
(** Move the line holding [subblock] to a valid state (a drop to [I] goes
    through {!invalidate}).
    @raise Invalid_argument if the line is absent or the state is [I]. *)

val flush : t -> int
(** Invalidate everything; returns the number of valid entries dropped
    (the flush work between loops). *)

val encode_state : t -> Vliw_util.Codec.t -> unit
(** Append a canonical serialization of the buffer's complete state
    (ways in index order with their line states, LRU stamps reduced to
    ranks, data bytes included) for model-checking state keys. *)

(** {1 Checkpoints} *)

type snapshot
(** A copy of the buffer's per-way arrays (tag, base, line state, sync
    mark, written bit, LRU stamp), its bytes and its clock. *)

val capture : t -> snapshot

val restore : t -> snapshot -> unit
(** Put the buffer back in the captured state exactly: array blits into
    the buffer's own arrays. Allocates nothing. *)
