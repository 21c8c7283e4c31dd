(** Small-scope bounded model checker (DESIGN §13).

    The simulator's only nondeterminism is the per-transfer jitter draw:
    one draw per bus grant, one per ring-packet hop, each picking from
    [0..jitter]. {!explore} DFS-enumerates every draw script of a
    compiled kernel over the wheel engine, so for bounded kernels it
    visits {e every reachable execution} — the gap the fuzzer's random
    sampling leaves open. Cross-branch pruning uses the engine's
    canonical state serialization ({!Vliw_sim.Sim.chooser}): a fresh
    branch point whose (pre-network state, intra-cycle draw offset) key
    was already expanded has a subtree that is an exact duplicate — every
    leaf below it reports byte-identical stats — so skipping it loses no
    violations, no divergences, and no distinct final memories.

    Per-leaf checks implement the verifier-soundness theorem on small
    scopes: every reachable execution of a Verify-certified schedule must
    report 0 coherence violations and reproduce the golden {!Oracle}
    memory; any counterexample carries its draw script (replayable with
    {!replay}) and is cross-referenced to the proof rules it defeats
    ({!Vliw_verify.Verify.refutation}). A sampled subset of leaves is
    re-run on the reference engine, which must agree byte-for-byte. *)

type config = {
  c_max_states : int;  (** abort exploration past this many distinct states *)
  c_max_leaves : int;  (** abort past this many complete executions *)
}

val default_config : config
(** 200k states, 100k leaves. Every 64th leaf is replayed on the reference
    engine, and up to 4 (first visit, pruned) prefix pairs are kept for
    the canonicalization soundness property test. *)

type counterexample = {
  x_kind : string;
      (** [check-certified-violation], [check-certified-corruption] or
          [check-engine-divergence] *)
  x_script : int list;  (** the draw script reaching the failing leaf *)
  x_violations : int;
  x_memory_ok : bool;
}

type outcome = {
  k_jitter : int;
  k_certified : bool;  (** the certificate the leaves were held to *)
  k_states : int;  (** distinct branch-point states expanded *)
  k_pruned : int;  (** branch points skipped as duplicates *)
  k_leaves : int;  (** complete executions reached *)
  k_max_depth : int;  (** longest draw script *)
  k_max_frontier : int;  (** DFS stack high-water mark *)
  k_exhaustive : bool;
      (** the full bounded space was enumerated (no cap hit) *)
  k_violating : int;  (** leaves with coherence violations *)
  k_diverging : int;  (** leaves whose final memory differs from the oracle *)
  k_agreement_checked : int;
  k_agreement_failures : int;
  k_merge_samples : (int list * int list) list;
  k_counterexample : counterexample option;
}

val stats_equal : Vliw_sim.Sim.stats -> Vliw_sim.Sim.stats -> bool
(** Structural equality over every field, memory images as bytes. *)

val explore :
  lowered:Vliw_lower.Lower.t ->
  graph:Vliw_ddg.Graph.t ->
  schedule:Vliw_sched.Schedule.t ->
  layout:Vliw_ir.Layout.t ->
  ?trip:int ->
  jitter:int ->
  expected:Bytes.t ->
  certified:bool ->
  ?config:config ->
  unit ->
  outcome
(** Enumerate every execution of the schedule with per-transfer jitter
    bounded by [jitter] ([jitter = 0] is the single nominal execution).
    [expected] is the golden oracle's final memory; [certified] is
    whether the leaves must uphold a verifier certificate — pass
    {!Vliw_verify.Verify.certifies}, since a plain certificate claims
    nothing about jittered latencies. *)

val replay :
  lowered:Vliw_lower.Lower.t ->
  graph:Vliw_ddg.Graph.t ->
  schedule:Vliw_sched.Schedule.t ->
  layout:Vliw_ir.Layout.t ->
  ?trip:int ->
  jitter:int ->
  script:int list ->
  ?engine:Vliw_sim.Sim.engine ->
  ?trace:Vliw_trace.Trace.sink ->
  unit ->
  Vliw_sim.Sim.stats
(** Re-run one execution under a forced draw script (draws past the
    script's end take 0), e.g. to regenerate a counterexample's trace. *)

(** {1 Case driver} *)

type checked = {
  t_technique : Vliw_fuzz.Diff.technique;
  t_status : (Vliw_verify.Verify.report * outcome, string) result;
      (** [Error] = unschedulable, with the scheduler's reason *)
  t_refutation : Vliw_util.Diag.t option;
      (** the [verify-refuted] diagnostic, when a certified technique has
          a counterexample *)
}

type case_outcome = {
  co_case : Vliw_fuzz.Gen.case;
  co_jitter : int;
  co_techniques : checked list;  (** one per {!Vliw_fuzz.Diff.techniques} *)
  co_failures : (string * string) list;  (** (kind, detail); empty = clean *)
}

val refuting_kinds : string list
(** Failure kinds that constitute a genuine counterexample (as opposed to
    a blown exploration budget) — what {!case_refuted} and the shrinker
    look for. *)

val run_case :
  ?verifier:Vliw_fuzz.Diff.verifier ->
  ?config:config ->
  ?jitter:int ->
  Vliw_fuzz.Gen.case ->
  case_outcome
(** Compile the case under every technique through the exact differential
    pipeline ({!Vliw_fuzz.Diff.compile_all}: one front end, free, MDC and
    DDGT compiled once each, the hybrid chosen between the two arms),
    verify each schedule and {!explore} it. The hybrid's artifacts are
    its chosen arm's, so when its certificate
    ({!Vliw_verify.Verify.certifies}) equals the arm's, the arm's outcome
    is reused rather than explored again: exploration depends on nothing
    else. The hybrid still gets its own report, its own refutation and
    its own failure lines. [jitter] defaults to the case's declared bound. The
    injectable [verifier] (called once per technique) is the soundness
    test hook: weaken it and the checker must produce the counterexample
    the real verifier's rejection predicted. *)

val case_refuted :
  ?verifier:Vliw_fuzz.Diff.verifier ->
  ?config:config ->
  ?jitter:int ->
  Vliw_fuzz.Gen.case ->
  bool
(** The case has at least one {!refuting_kinds} failure — the predicate
    {!Vliw_fuzz.Shrink} minimizes against. *)

val pp_outcome : Format.formatter -> outcome -> unit
val outcome_json : outcome -> Vliw_util.Json.t
