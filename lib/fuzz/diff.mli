(** Differential driver: one fuzz case, every coherence technique, judged
    against the golden oracle.

    For a case, the driver compiles the kernel under free / MDC / DDGT /
    hybrid ({!Vliw_pipeline.Pipeline.compile_all}: one front end, three
    compiles, the hybrid chosen between the MDC and DDGT results; the
    per-case heuristic is a pure function of the case identity),
    simulates each schedule in execution mode — nominally and, when the
    case carries jitter, under adversarial bus jitter — and checks the
    {e differential predicate}:

    - the two reference executors ({!Oracle} and {!Vliw_ir.Interp}) must
      agree on memory, scalars and every load value
      ([oracle-diverged]);
    - a schedule the verifier {e certified} must run with zero coherence
      violations ([certified-violation]) and reproduce the oracle's final
      memory ([certified-corruption]); jittered runs are held to the
      certificate only when it is jitter-robust
      ({!Vliw_verify.Verify.report.r_jitter_robust});
    - the replay auditor's independently derived violation/nullification
      counts must match the simulator's ([audit-mismatch]).

    Uncertified schedules that violate or corrupt are {e expected} (the
    free baseline is the paper's unsafe reference point) and recorded,
    not flagged. Compilation failures are recorded as [Unschedulable].

    Every compiled loop is verified ({!Vliw_pipeline.Pipeline.verify})
    and simulated whatever the verdict, where the harness refuses an
    uncertified MDC or DDGT loop, and the verifier itself is injectable
    ([?verifier]), so tests can weaken it and prove the predicate catches
    the lie. *)

type technique = Vliw_sched.Schedule.technique = Free | Mdc | Ddgt | Hybrid

val technique_name : technique -> string
(** {!Vliw_sched.Schedule.technique_name}. *)

val techniques : technique list
(** The four techniques every case is compiled under, in a fixed order
    ({!Vliw_sched.Schedule.techniques}). *)

val verify_technique : technique -> Vliw_verify.Verify.technique
(** The identity: the verifier takes the same technique type. *)

type verifier = Vliw_pipeline.Pipeline.verifier

val default_verifier : verifier
(** {!Vliw_pipeline.Pipeline.default_verifier}: {!Vliw_verify.Verify.check}. *)

type sim_obs = {
  so_violations : int;
  so_memory_ok : bool;  (** final memory equals the golden oracle's *)
}

type status =
  | Unschedulable of string
  | Ran of {
      r_verified : bool;
      r_jitter_robust : bool;
      r_nominal : sim_obs;
      r_jittered : sim_obs option;  (** [None] when the case has no jitter *)
    }

type run = {
  d_technique : technique;
  d_heuristic : Vliw_sched.Schedule.heuristic;
  d_status : status;
}

type failure = {
  f_kind : string;  (** one of {!failure_kinds} *)
  f_technique : string;  (** technique name, or ["reference"] *)
  f_detail : string;
}

type verdict = {
  v_case : Gen.case;
  v_nodes : int;  (** pre-transform DDG size of the case's kernel *)
  v_heuristic : Vliw_sched.Schedule.heuristic;
  v_runs : run list;  (** one per {!techniques}, in order *)
  v_failures : failure list;  (** empty = the case is clean *)
}

val failure_kinds : string list
(** Every [f_kind] the driver can emit, in a fixed order. *)

val heuristic_for : Gen.case -> Vliw_sched.Schedule.heuristic
(** The case's heuristic: a pure function of its identity. *)

val front : Gen.case -> Vliw_pipeline.Pipeline.front
(** The case's front end on its machine. [check] and {!Vliw_check.Check}
    compile {!Vliw_pipeline.Pipeline.compile_all} over it with
    {!heuristic_for}: the checker explores the very loops [check] judges. *)

val check : ?verifier:verifier -> Gen.case -> verdict
(** Run the whole differential pipeline on one case. Deterministic: equal
    cases give equal verdicts. *)

val failing : ?verifier:verifier -> Gen.case -> bool
(** [check] has at least one failure — the predicate {!Shrink} minimizes
    against. *)
