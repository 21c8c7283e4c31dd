(** The persistent compilation server behind [vliwd] and the serve
    benchmark.

    Requests are deduplicated and memoized by fingerprint ({!Cache}),
    then dispatched onto a persistent {!Vliw_util.Pool.Service} worker
    pool through bounded per-domain queues. Placement is
    fingerprint-affine: a request's cache-shard index selects its worker
    queue, so a repeated kernel always lands on the domain that compiled
    it before (warm shard, no cross-domain traffic). A full queue is
    immediate backpressure — the submitter (and any requests coalesced
    onto it) get a [Retry] reply instead of queueing unboundedly.

    Replies are pure functions of the request's spec fields: byte-stable
    across pool widths, arrival orders and cache states, and
    byte-identical to one-shot [vliwc] output for the same inputs. *)

type t

val default_minor_heap_words : int
(** Per-domain minor-heap sizing applied at startup (8M words): OCaml 5
    minor collections are global stop-the-world syncs, so a service
    mixing independent requests wants them rare. *)

val create :
  ?jobs:int ->
  ?queue_capacity:int ->
  ?shards:int ->
  ?cache_max:int ->
  ?minor_heap_words:int ->
  ?retry_after_ms:int ->
  ?max_spans:int ->
  unit ->
  t
(** Start the worker pool ([jobs] domains, default {!Vliw_util.Pool.jobs});
    each worker queue holds at most [queue_capacity] requests (default
    64). [shards] (default 16) sizes the response cache and [cache_max]
    bounds its completed entries with per-shard LRU eviction (default 0 =
    unbounded); [max_spans] bounds the retained per-request timing
    spans. *)

val jobs : t -> int
val queue_capacity : t -> int

val compile : Protocol.request -> Protocol.outcome
(** The pure one-shot serving function (no cache, no queue): exactly what
    [vliwc] does for the same inputs, stdout captured as [o_output]. *)

val submit : t -> Protocol.request -> reply:(Protocol.reply -> unit) -> unit
(** Serve a request. [reply] fires exactly once — synchronously for a
    cache hit or a backpressure rejection, from a worker domain
    otherwise. Identical in-flight requests coalesce onto one compile. *)

val call : t -> Protocol.request -> Protocol.reply
(** Blocking {!submit}, for in-process clients. *)

val cache_stats : t -> Cache.stats
val queue_stats : t -> Vliw_util.Pool.Service.queue_stats array
val minor_collections : t -> int array
val stats_json : t -> Vliw_util.Json.t

val trace_json : t -> Vliw_util.Json.t
(** Chrome trace-event JSON of the recorded request spans ("queued" +
    "compile" per request, one track per worker); Perfetto-loadable. *)

val shutdown : t -> unit
(** Drain the queues and join the workers. Idempotent. *)
