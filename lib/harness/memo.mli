(** Cross-experiment pipeline stage cache.

    Every experiment of the sweep runs {!Runner.run_loop} for many
    (technique, heuristic) combinations of the same loop, yet the front of
    the pipeline — parse, memory layout, profiling run, lowering, and the
    reference-interpreter oracle — depends only on the loop's source, its
    two input seeds and the machine configuration. This module shares
    those stages across techniques, heuristics and experiments.

    Stage keys are [(benchmark name, loop name, profile seed, exec seed,
    machine)], the machine record itself compared by value: any
    configuration change (interleave, buses, attraction buffers, ...) gets
    its own entries, and equal machines share them however they were
    built. All cached values are immutable or treated as read-only by
    every consumer (the DDGT and specialization transforms copy the graph
    before mutating), so sharing cannot change results — pooled or
    sequential.

    Both tables are {!Vliw_util.Cache} instances, safe to use from
    {!Vliw_util.Pool} workers: two workers racing on a cold key both
    compute it and both count a miss. The harness owns them; the compile
    service does not use them. Hit/miss counters are exposed for
    observability ([bench/main.exe --json] reports them). *)

type stages = {
  kernel_prof : Vliw_ir.Ast.kernel;  (** parsed with the profile seed *)
  kernel_exec : Vliw_ir.Ast.kernel;  (** parsed with the execution seed *)
  layout : Vliw_ir.Layout.t;  (** layout of [kernel_exec] *)
  prof : Vliw_profile.Profile.t;
      (** profiling run of [kernel_prof] on its own layout *)
  lowered : Vliw_lower.Lower.t;  (** lowering of [kernel_exec] *)
  oracle : Vliw_ir.Interp.result;
      (** reference interpretation of [kernel_exec]: the simulator's
          trace-driven oracle *)
}

val fingerprint : Vliw_arch.Machine.t -> string
(** Hex MD5 of the machine's [Marshal] bytes: a label for reports
    ([bench/main.exe --json] and [--selfcheck] name each run's machine by
    it) and trace file names, not a cache key. The bytes encode physical
    sharing, so two equal machines built differently can carry different
    labels. *)

val parse :
  bench:Vliw_workloads.Workloads.benchmark ->
  seed:int ->
  Vliw_workloads.Workloads.loop ->
  Vliw_ir.Ast.kernel
(** Memoized {!Vliw_workloads.Workloads.parse_loop}, keyed by (benchmark
    name, loop name, seed). Machine-independent. *)

val stages :
  machine:Vliw_arch.Machine.t ->
  bench:Vliw_workloads.Workloads.benchmark ->
  Vliw_workloads.Workloads.loop ->
  stages
(** Memoized front of the pipeline for one loop of a benchmark on a
    machine (the machine must already carry the benchmark's interleave,
    i.e. be the result of {!Runner.machine_for}). *)

val build :
  machine:Vliw_arch.Machine.t ->
  kernel_prof:Vliw_ir.Ast.kernel ->
  kernel_exec:Vliw_ir.Ast.kernel ->
  stages
(** Uncached stage computation for already-transformed kernels (unroll
    ablations pass source-rewritten kernels whose identity is not
    captured by the cache key). *)

val parse_stats : unit -> Vliw_util.Cache.stats
(** Counters of the kernel-parse table. *)

val stage_stats : unit -> Vliw_util.Cache.stats
(** Counters of the stage-bundle table. *)

type counters = { hits : int; misses : int }

val counters : unit -> counters
(** Process-wide totals over both tables. Under a pool, two workers
    racing on the same cold key both count a miss; the counters are
    observability, not an invariant. *)

val hit_rate : unit -> float
(** [hits / (hits + misses)]; 0 before any lookup. *)

val clear : unit -> unit
(** Drop all entries and reset the counters. *)
