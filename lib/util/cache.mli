(** Sharded concurrent memo table with in-flight claims and bounded
    per-shard LRU eviction, the project's one concurrent memo. The harness's
    {!Vliw_harness.Memo} keeps each loop's front end and
    {!Vliw_harness.Experiments} each benchmark run in one, through
    {!find_or_compute}; the compile service ([Vliw_serve.Server]) keeps
    its responses in one, through {!lookup}, {!fill} and {!abort}.

    Keys are compared structurally ([compare]) and hashed with
    [Hashtbl.hash], so they must be immutable data without functional
    values; equal keys share one entry whatever their physical sharing.
    Storage is split into {!shard_count} independently-locked shards
    selected by key hash; {!shard_of_key} is also the service's placement
    hint.

    Completed values are kept up to a capacity ({!create}'s
    [max_entries]; unbounded by default). Filling past it evicts the
    least-recently-used completed entry of the key's shard — a hit
    refreshes recency, and in-flight claims are never evicted (a running
    computation owns them) nor counted against the cap.

    Waiters receive [Some v] (in arrival order) when the computing caller
    {!fill}s the entry, or [None] if it {!abort}s the claim — e.g. because
    backpressure rejected the compile task. All waiter invocation happens
    in the caller, outside the shard lock. *)

type ('k, 'v) t

val shard_count : int
(** 16, a power of two. *)

val create : ?max_entries:int -> unit -> ('k, 'v) t
(** [max_entries] bounds the completed entries kept across all shards —
    distributed evenly (rounded up) as a per-shard cap; [0] (the
    default) means unbounded. *)

val capacity : ('k, 'v) t -> int
(** Total completed-entry capacity actually enforced (the per-shard cap
    times the shard count — at least [create]'s [max_entries]); [0] when
    unbounded. *)

val shard_of_key : 'k -> int
(** Stable shard index of a key, in [0 .. shard_count - 1]. *)

val find_or_compute : ('k, 'v) t -> 'k -> (unit -> 'v) -> 'v
(** The completed value of the key (a hit), or [compute ()]. A caller
    that finds the key cold claims it, computes and fills it; if the
    computation raises, the claim is aborted and the exception re-raised,
    so the next lookup computes afresh. A caller that finds the key in
    flight does not wait: it computes its own copy, counts a miss and
    leaves the entry to the claimer, so at most the work of a race is
    duplicated and a single domain sees exactly one miss per key. *)

val lookup :
  ('k, 'v) t ->
  key:'k ->
  waiter:('v option -> unit) ->
  [ `Ready of 'v | `Joined | `Must_compute ]
(** [`Ready v]: completed — counted as a hit; the waiter is {e not}
    registered. [`Joined]: an identical request is in flight — the waiter
    fires on its completion (or abort). [`Must_compute]: the key is now
    claimed by this caller, which must eventually {!fill} or {!abort} it;
    the waiter is not registered (the caller holds its own reply). *)

val fill : ('k, 'v) t -> key:'k -> 'v -> ('v option -> unit) list
(** Publish the computed value and return the joined waiters (arrival
    order); invoke each with [Some v]. *)

val abort : ('k, 'v) t -> key:'k -> ('v option -> unit) list
(** Drop an in-flight claim and return the joined waiters; invoke each
    with [None]. A later identical request will claim the key afresh. *)

val fold : ('k -> 'v -> 'a -> 'a) -> ('k, 'v) t -> 'a -> 'a
(** Fold over the completed entries, in no particular order. *)

val clear : ('k, 'v) t -> unit
(** Drop every entry and reset the counters. *)

type stats = {
  c_hits : int;
  c_coalesced : int;  (** lookups that joined an in-flight computation *)
  c_misses : int;
      (** lookups that claimed the key, or that found it in flight and
          computed their own copy ({!find_or_compute}) *)
  c_contended : int;
      (** shard-lock acquisitions that found the lock already held *)
  c_entries : int;
  c_evictions : int;  (** completed entries dropped by the LRU cap *)
}

val stats : ('k, 'v) t -> stats
