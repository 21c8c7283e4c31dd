(** The compile-and-simulate run behind every experiment.

    For one benchmark loop: the pipeline's front end ({!Memo.stages}: the
    kernel parsed with the benchmark's {e execution} seed and profiled on
    its parse with the {e profile} seed, Table 1's two input columns); the
    requested technique — the paper's optimistic {e free} baseline, MDC,
    DDGT or the per-loop hybrid — scheduled with the requested heuristic
    on the machine with the benchmark's interleave
    ({!Vliw_pipeline.Pipeline.compile}, the step every tool shares); its
    static verification; and a trace-driven simulation (oracle mode, like
    the paper's simulator) against the interpreter's run of the execution
    input ({!Vliw_pipeline.Pipeline.verify} and
    {!Vliw_pipeline.Pipeline.simulate}).

    {!run_bench} fans its loops out over {!Vliw_util.Pool}. Results are
    identical to a sequential, uncached run: the shared stages are pure
    and every consumer treats them as read-only. *)

type technique = Vliw_sched.Schedule.technique = Free | Mdc | Ddgt | Hybrid

val technique_name : technique -> string
(** {!Vliw_sched.Schedule.technique_name}. *)

type loop_run = {
  lr_loop : Vliw_workloads.Workloads.loop;
  lr_compiled : Vliw_pipeline.Pipeline.compiled;
      (** the loop as compiled: its front, the graph actually scheduled
          (post-transform), and for a hybrid the choice and both
          estimates (not in the JSON report) *)
  lr_schedule : Vliw_sched.Schedule.t;  (** [lr_compiled]'s schedule *)
  lr_stats : Vliw_sim.Sim.stats;
  lr_verify : Vliw_verify.Verify.report;
      (** static coherence verdict on the schedule that ran *)
}

type bench_run = {
  br_bench : Vliw_workloads.Workloads.benchmark;
  br_technique : technique;
  br_heuristic : Vliw_sched.Schedule.heuristic;
  br_loops : loop_run list;
  br_cycles : float;  (** weighted total cycles *)
  br_compute : float;
  br_stall : float;
  br_stall_load : float;  (** weighted stall-cause breakdown; the four
                              buckets sum to [br_stall] *)
  br_stall_copy : float;
  br_stall_bus : float;
  br_stall_drain : float;
  br_comm : float;  (** weighted dynamic communication (copy) operations *)
}
(** The eight weighted totals are the figures' currency; every other
    counter of a run is read from its loops through {!total} and
    {!verified}. *)

(** {1 Observability configuration}

    An explicit value threaded through the entry points — there is no
    process-global observability state, so independent harnesses (the
    benchmark sweep, the fuzzer) can run concurrently on the pool without
    cross-talk. With either field enabled, each simulation records an event
    trace ({!Vliw_trace.Trace}) and the replay auditor ({!Vliw_trace.Audit})
    re-derives the violation and nullification counts from the stream;
    disagreement with [Sim.stats] is a hard error ([Failure]). Traces cost
    memory and a few percent of time, so the default is {!obs_none}. *)

type obs = {
  obs_audit : bool;  (** trace + audit every simulation (no files written) *)
  obs_trace_dir : string option;
      (** additionally export each audited run as Chrome trace-event JSON
          (Perfetto-loadable) under the given directory, one file per
          (machine, benchmark, loop, technique, heuristic, latency policy,
          ordering). Runs with a [transform] are audited but not exported —
          a source rewrite has no stable identity to name the file after.
          File contents depend only on the run, never on pool width or
          scheduling. *)
}

val obs_none : obs
(** No tracing, no audit — the default of every entry point. *)

val machine_for :
  Vliw_arch.Machine.t -> Vliw_workloads.Workloads.benchmark -> Vliw_arch.Machine.t
(** Apply the benchmark's interleaving factor to a base configuration. *)

val run_loop :
  machine:Vliw_arch.Machine.t ->
  ?obs:obs ->
  ?lat_policy:Vliw_sched.Driver.lat_policy ->
  ?ordering:Vliw_sched.Ims.ordering ->
  ?transform:(Vliw_ir.Ast.kernel -> Vliw_ir.Ast.kernel) ->
  technique ->
  Vliw_sched.Schedule.heuristic ->
  bench:Vliw_workloads.Workloads.benchmark ->
  Vliw_workloads.Workloads.loop ->
  loop_run
(** Raises [Failure] if the loop cannot be compiled — a workload bug.

    Every run is statically verified once ({!Vliw_verify.Verify}). An MDC
    or DDGT schedule the verifier cannot certify raises [Failure]
    ([<bench>/<loop>: cannot schedule (MDC, PrefClus): rejected by
    post-schedule check: ...]); free and hybrid verdicts are reported,
    not enforced (the free baseline is the paper's unsafe reference
    point). In every case the soundness cross-check runs after
    simulation: a certified schedule that exhibits dynamic coherence
    violations raises [Failure] — that would mean the verifier's rule
    system is wrong. *)

val run_bench :
  machine:Vliw_arch.Machine.t ->
  ?obs:obs ->
  ?lat_policy:Vliw_sched.Driver.lat_policy ->
  ?ordering:Vliw_sched.Ims.ordering ->
  ?transform:(Vliw_ir.Ast.kernel -> Vliw_ir.Ast.kernel) ->
  technique ->
  Vliw_sched.Schedule.heuristic ->
  Vliw_workloads.Workloads.benchmark ->
  bench_run
(** [machine] is the base configuration (Table 2 or a NOBAL variant, with
    or without Attraction Buffers); the benchmark's interleave is applied
    on top. [transform] is a source-level rewrite (e.g.
    {!Vliw_ir.Unroll.unroll}) applied to both the profile and execution
    kernels before compilation. Loop statistics are weighted by each
    loop's [l_weight]. *)

val total : (Vliw_sim.Sim.stats -> int) -> bench_run -> int
(** [total counter br] sums one simulator counter over the run's loops,
    unweighted (e.g. [total (fun s -> s.Sim.violations) br]). The
    directory-traffic counters are all zero under the shared bus, the
    protocol-traffic ones under install/flush. *)

val verified : bench_run -> int
(** Loops whose schedule the static verifier certified. *)

(** {1 Aggregate access-class ratios (Figure 6)} *)

type access_mix = {
  f_local_hit : float;
  f_remote_hit : float;
  f_local_miss : float;
  f_remote_miss : float;
  f_combined : float;
}

val access_mix : bench_run -> access_mix
(** Weighted fractions over all classified accesses; sums to 1 for any run
    that performs memory accesses. *)

val cmr_car : bench_run -> float * float
(** The benchmark's dynamic CMR and CAR (Table 3), weighted across loops,
    counted on each loop's pre-transform graph. *)
