(** Static coherence verification: prove a schedule race-free before (or
    without) simulating it.

    The MDC and DDGT solutions make aliased memory operations safe {e by
    construction}; this pass re-derives that guarantee from the artifacts
    alone — the pre-transform DDG (whose MF/MA/MO edges enumerate every
    aliased pair the compiler could not disambiguate), the scheduled graph,
    the schedule and the machine — and either certifies the schedule or
    emits {!Vliw_util.Diag} diagnostics pinpointing the offending pair.

    {2 Obligations}

    Every memory-dependence edge [X -d-> Y] of the {e base} graph is an
    ordering obligation: for every iteration [k] where the two accesses
    overlap, [X@k]'s update must reach the overlapped bytes' home cache
    module before [Y@(k+d')]'s, for every distance [d' >= d]. The verifier
    first checks the pair is {e routed} consistently (equal access widths,
    or both within one interleave unit — then overlapping executions always
    meet at one module, in one subblock), then discharges each
    instance-pair of the scheduled graph with one of three proofs, each
    robust to arbitrary bus/module queueing:

    - {b co-located} — same cluster and positive issue distance: same-home
      executions of the pair traverse the same FIFOs in issue order (rule
      (a), the MDC guarantee);
    - {b local-first} — [X]'s executing instance is guaranteed local to the
      pair's home (a store-replication instance, or a statically-known home
      equal to its cluster) while [Y] sits on another cluster no earlier in
      the virtual schedule: [X] enters the home module's queue at issue,
      [Y] only after a bus transfer (rule (b), the replicated-store
      guarantee);
    - {b value-sync} — [X] is a load with a register consumer [C] scheduled
      (virtually) no later than [Y]: stall-on-use is global, so when [C]
      issues, [X] has completed everywhere, and [Y] issues at or after [C]
      (rule (b), the load-store synchronization guarantee — this is how
      DDGT's killed MA edges discharge);
    - {b protocol-invalidate} — the machine runs an invalidation protocol
      ([Msi]/[Mesi]) and either [X] is a non-replicated store issued
      >= 1 virtual cycle before [Y] (flow MF / output MO: the store's
      memory effect and its invalidation of every remote replica land
      atomically at its globally lock-stepped issue cycle, so [Y]
      observes it under every jitter assignment), or [X] is a load and
      [Y] a store issued >= 1 cycle later (anti MA: at each store's
      execute the engines latch the value of every pending older
      overlapping load — the coherence point orders the outstanding
      read before the upgrade — so [X] always reads the pre-store
      value). Replicated (DDGT) stores broadcast into sibling replicas
      instead of invalidating, so as MF/MO sources they get no protocol
      guarantee.

    Instance pairs that cannot co-execute are skipped as vacuous: two
    replication instances on different clusters, or accesses with distinct
    statically-known home clusters (requires [layout]).

    Structurally, any node replicated in the scheduled graph must have its
    instances cover every cluster exactly once ([replica-coverage]), and
    under DDGT every memory-dependent store must actually be replicated
    ([missing-replication]).

    {2 Soundness and incompleteness}

    "Verified" implies zero dynamic coherence violations in {!Vliw_sim.Sim}
    under nominal (contention-free, jitter-free) bus latencies; co-located
    pairs where both accesses are remote additionally rely on the machine's
    globally-FIFO bus arbitration, which jitter can break — the harness
    cross-checks the implication on every run it makes. The verifier trusts
    the compiler's disambiguation (an aliased pair with no DDG edge is
    invisible to it) and is deliberately incomplete: a schedule whose
    safety depends on cache-state timing, queue occupancy or trip counts is
    rejected even if no violation can dynamically occur. Diagnostic codes:
    [split-access], [chain-split] (MDC), [missing-replication] (DDGT),
    [replica-coverage], [unordered-pair], [interconnect-unordered].

    {2 Interconnect parameterization}

    The proof rules do not hardcode bus reasoning: they consume the
    {!Vliw_interconnect.Interconnect.guarantees} declared by the machine's
    backend (overridable via [?guarantees] for testing). A co-located pair
    whose accesses may both travel the interconnect needs a source-order
    guarantee — the two legs share one source cluster and (since routing
    passed) one home module, so [Per_link_fifo] suffices just as
    [Global_fifo] does; against an [Unordered] declaration the pair is
    rejected ([interconnect-unordered]). The local-first rule needs the
    declared minimum remote latency to be at least one cycle, and
    [r_jitter_robust] degrades only when a needed source order does not
    survive jitter (the bus pool loses it, the directory ring keeps it). *)

(** The technique the schedule was built under; only [Mdc] and [Ddgt]
    switch on technique-specific checks ([Free] runs the generic proof
    rules alone). A [Hybrid] schedule is checked as the arm it is: DDGT's
    rules when the scheduled graph holds replica instances, MDC's
    otherwise; its report still names [Hybrid]. *)
type technique = Vliw_sched.Schedule.technique = Free | Mdc | Ddgt | Hybrid

val proof_names : string list
(** Every proof/vacuity label that can appear in [r_proofs], in the fixed
    rendering order. *)

type report = {
  r_technique : technique;
  r_pairs : int;  (** base-graph memory-dependence edges examined *)
  r_obligations : int;
      (** instance-pair ordering obligations (vacuous pairs excluded) *)
  r_proofs : (string * int) list;
      (** histogram over proof rules ([co-located], [local-first],
          [value-sync], [protocol-invalidate]) and vacuity arguments
          ([replica-disjoint], [disjoint-homes]); only nonzero entries,
          fixed order *)
  r_diags : Vliw_util.Diag.t list;
  r_verified : bool;  (** no [Error]-severity diagnostic *)
  r_jitter_robust : bool;
      (** verified {e and} no obligation leaned on globally-FIFO bus
          arbitration (every co-located proof had both accesses guaranteed
          local to the shared cluster): the certificate then also holds
          under adversarial per-transfer bus jitter ({!Vliw_sim.Sim.run}'s
          [?jitter]), not just nominal latencies. Conservative: [false]
          only means the jitter-free argument was needed somewhere. *)
}

val certifies : report -> jitter:int -> bool
(** Whether the certificate covers executions whose transfers jitter by
    up to [jitter] cycles: [r_verified && (jitter = 0 ||
    r_jitter_robust)], since a plain certificate holds at nominal
    latencies only. *)

val check :
  machine:Vliw_arch.Machine.t ->
  technique:technique ->
  ?guarantees:Vliw_interconnect.Interconnect.guarantees ->
  base:Vliw_ddg.Graph.t ->
  ?layout:Vliw_ir.Layout.t ->
  graph:Vliw_ddg.Graph.t ->
  schedule:Vliw_sched.Schedule.t ->
  unit ->
  report
(** [base] is the pre-transform DDG (the lowering's graph); [graph] the
    scheduled one — equal to [base] for free/MDC, the transformed graph for
    DDGT/hybrid-DDGT. [layout] enables the statically-known-home reasoning
    (affine accesses whose stride is a multiple of [clusters *
    interleave_bytes]); without it the verifier is still sound, only less
    complete. [guarantees] overrides the ordering guarantees the proof
    rules assume (default: those declared by [machine]'s interconnect).
    The schedule must place every node of [graph]. *)

val gate :
  machine:Vliw_arch.Machine.t ->
  technique:technique ->
  base:Vliw_ddg.Graph.t ->
  ?layout:Vliw_ir.Layout.t ->
  unit ->
  Vliw_ddg.Graph.t ->
  Vliw_sched.Schedule.t ->
  (unit, string) result
(** {!check} packaged for {!Vliw_sched.Driver.request}'s [check] hook:
    [Ok ()] when verified, otherwise the error diagnostics on one line. *)

val refutation : report -> detail:string -> Vliw_util.Diag.t
(** Build the [verify-refuted] diagnostic for a dynamic counterexample
    against a certificate this report represents: the model checker found
    a reachable execution of the certified schedule that violates
    coherence or corrupts memory. The diagnostic cross-references the
    proof rules the certificate discharged obligations with — the trace
    defeats (at least) one of them. *)

val pp_report : Format.formatter -> report -> unit
(** One summary line (no trailing newline): certified with pair/obligation
    counts and the proof histogram, or rejected with the error count.
    Diagnostics are not included — print them separately. *)

val report_json : report -> Vliw_util.Json.t
