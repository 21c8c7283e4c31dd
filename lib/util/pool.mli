(** Fixed-size domain pool for embarrassingly parallel work.

    The reproduction sweep is a large set of independent
    compile-and-simulate pipelines; this module fans them out over OCaml 5
    domains. [map] and [map_reduce] pull tasks from a shared work queue
    (an atomic cursor over the input), so long tasks do not stall short
    ones, and always return results in input order — a pooled run is
    observationally identical to the sequential one for pure task
    functions.

    Concurrency contract:
    - the task function runs concurrently in several domains; it must not
      touch shared mutable state unless that state is itself synchronized
      (see {!Cache}, the synchronized memo table that the harness's memos
      and the compile service's response cache are instances of);
    - if a task raises, remaining queued tasks are cancelled (running ones
      finish), and the recorded failure — the one with the smallest task
      index among those that raced — is re-raised in the caller with its
      original backtrace;
    - nested calls degenerate to sequential execution in the calling
      worker domain, so a pooled function may freely call other pooled
      functions without deadlock or domain explosion.

    The default pool width is [VLIW_JOBS] when set to a positive integer,
    otherwise {!recommended}; [set_jobs] (driven by the [--jobs] flags of
    [bench/main.exe] and [vliwc]) overrides it for the whole process.
    Width 1 bypasses domains entirely and runs in the caller. *)

val recommended : unit -> int
(** [Domain.recommended_domain_count ()]. *)

val jobs : unit -> int
(** Current default pool width (>= 1). First use reads [VLIW_JOBS]. *)

val set_jobs : int -> unit
(** Override the default width. Raises [Invalid_argument] if [n < 1]. *)

val sequential : unit -> bool
(** True when [jobs () = 1] or the caller is already a pool worker —
    i.e. a [map] issued now would run in the calling domain. *)

val map : ?jobs:int -> ('a -> 'b) -> 'a list -> 'b list
(** [map f xs] applies [f] to every element, in parallel over at most
    [jobs] domains (the caller participates as a worker), and returns the
    results in the order of [xs]. *)

val map_reduce :
  ?jobs:int ->
  map:('a -> 'b) ->
  reduce:('acc -> 'b -> 'acc) ->
  init:'acc ->
  'a list ->
  'acc
(** Parallel map, then a sequential in-order fold in the caller:
    [fold_left reduce init (map f xs)]. Deterministic for any [reduce]. *)

(** Persistent worker pool for request-serving workloads.

    Where {!map} fans a finite batch out and joins, [Service] keeps its
    worker domains alive for the process's lifetime and feeds each one
    through its own bounded FIFO queue. Callers pick the queue (the
    compile service routes by request-fingerprint hash, so repeated
    kernels land on the domain whose caches are warm) and get immediate
    backpressure: {!submit} refuses instead of blocking when the target
    queue is full.

    Workers flag themselves like {!map} workers, so a task may call
    {!map} freely (it degenerates to sequential execution in the worker).
    A task that raises is counted in [qs_failed] and the worker moves on —
    services should convert task failures into error replies themselves. *)
module Service : sig
  type t

  type queue_stats = {
    qs_depth : int;  (** tasks currently queued *)
    qs_max_depth : int;  (** high-water mark since [start] *)
    qs_executed : int;
    qs_failed : int;  (** tasks that raised (caught and dropped) *)
  }

  val start : ?jobs:int -> ?capacity:int -> ?minor_heap_words:int -> unit -> t
  (** Spawn [jobs] worker domains (default {!val-jobs}; clamped to the
      runtime's domain budget), each with a queue bounded at [capacity]
      tasks (default 64). [minor_heap_words] sets the per-domain minor
      heap size before spawning — a larger arena cuts the number of
      global minor-GC synchronizations independent requests force on each
      other. Raises [Invalid_argument] if [capacity < 1]. *)

  val width : t -> int
  val capacity : t -> int

  val submit : t -> queue:int -> (unit -> unit) -> bool
  (** Enqueue a task on queue [queue mod width] and wake its worker.
      Returns [false] — without enqueueing — when that queue is at
      capacity or the service is stopping. *)

  val depth : t -> int -> int
  (** Current length of queue [i]. *)

  val queue_stats : t -> queue_stats array
  val minor_collections : t -> int array
  (** Per-worker minor collections performed so far (sampled by each
      worker after every task; observability, not a synchronized
      invariant). *)

  val stop : t -> unit
  (** Drain every queue, join the workers. Idempotent; subsequent
      {!submit}s return [false]. *)
end
