(** Sharded response cache with in-flight request coalescing and bounded
    per-shard LRU eviction.

    The server's request-level memoization: completed outcomes are kept
    up to a configurable capacity ({!create}'s [max_entries]; unbounded
    by default), and identical requests that arrive while the first is
    still compiling {e join} it instead of compiling again. Filling past
    the capacity evicts the least-recently-used completed entry of the
    key's shard — a hit refreshes recency, and in-flight claims are never
    evicted (a running compile owns them) nor counted against the cap.
    Storage is split into independently-locked shards selected by key
    hash; {!shard_of_key} is also the service's placement hint
    (fingerprint affinity).

    Waiters receive [Some v] (in arrival order) when the computing caller
    {!fill}s the entry, or [None] if it {!abort}s the claim — e.g. because
    backpressure rejected the compile task. All waiter invocation happens
    in the caller, outside the shard lock. *)

type 'v t

val create : ?shards:int -> ?max_entries:int -> unit -> 'v t
(** [shards] (default 16) is rounded up to a power of two. [max_entries]
    bounds the completed entries kept across all shards — distributed
    evenly (rounded up) as a per-shard cap; [0] (the default) means
    unbounded. *)

val shard_count : 'v t -> int

val capacity : 'v t -> int
(** Total completed-entry capacity actually enforced (the per-shard cap
    times the shard count — at least [create]'s [max_entries]); [0] when
    unbounded. *)

val shard_of_key : 'v t -> string -> int
(** Stable shard index of a key in [0, shard_count)]. *)

val lookup :
  'v t ->
  key:string ->
  waiter:('v option -> unit) ->
  [ `Ready of 'v | `Joined | `Must_compute ]
(** [`Ready v]: completed — counted as a hit; the waiter is {e not}
    registered. [`Joined]: an identical request is in flight — the waiter
    fires on its completion (or abort). [`Must_compute]: the key is now
    claimed by this caller, which must eventually {!fill} or {!abort} it;
    the waiter is not registered (the caller holds its own reply). *)

val fill : 'v t -> key:string -> 'v -> ('v option -> unit) list
(** Publish the computed value and return the joined waiters (arrival
    order); invoke each with [Some v]. *)

val abort : 'v t -> key:string -> ('v option -> unit) list
(** Drop an in-flight claim and return the joined waiters; invoke each
    with [None]. A later identical request will claim the key afresh. *)

type stats = {
  c_hits : int;
  c_coalesced : int;  (** lookups that joined an in-flight computation *)
  c_misses : int;  (** lookups that claimed the key for computation *)
  c_contended : int;
      (** shard-lock acquisitions that found the lock already held *)
  c_entries : int;
  c_evictions : int;  (** completed entries dropped by the LRU cap *)
}

val stats : 'v t -> stats
