(** The paper's evaluation, experiment by experiment (see DESIGN.md's
    index). Each function returns typed rows; rendering lives in
    {!Render}. Results are memoized per (machine, benchmark, technique,
    heuristic) within the process, so overlapping experiments do not
    recompute schedules or simulations. *)

type scheme = Runner.technique * Vliw_sched.Schedule.heuristic

val clear_cache : unit -> unit
(** Drop all memoized runs — both the per-scheme run cache and the
    {!Memo} stage cache (used by the Bechamel timing harness and the
    determinism tests so that repeated measurements do real work). *)

val run :
  machine:Vliw_arch.Machine.t ->
  ?obs:Runner.obs ->
  scheme ->
  Vliw_workloads.Workloads.benchmark ->
  Runner.bench_run
(** Memoized {!Runner.run_bench}, keyed by the machine's value, the
    benchmark's name and the scheme in a {!Vliw_util.Cache}. Thread-safe:
    experiments fan their benchmarks out over {!Vliw_util.Pool}, so this
    may be called from several domains at once. [obs] only adds
    observability side effects — results are identical with or without
    it — so it is {e not} part of the cache key; a cache hit returns the
    first computed run unaudited. Pass one [obs] for the whole process
    (as [bench/main.exe] does) when every simulation must be audited. *)

val cached_runs :
  unit -> (string * Vliw_arch.Machine.t * Runner.bench_run) list
(** Every memoized run so far as [(machine fingerprint, machine, run)], in
    a deterministic order — the raw material of [bench/main.exe --json].
    The machine is included so the report can name its cluster count and
    interconnect next to the opaque fingerprint. *)

(** {1 Figure 6 — classification of memory accesses (PrefClus)} *)

type fig6_row = {
  f6_bench : string;
  f6_free : Runner.access_mix;
  f6_mdc : Runner.access_mix;
  f6_ddgt : Runner.access_mix;
}

val fig6 :
  ?machine:Vliw_arch.Machine.t -> ?obs:Runner.obs -> unit -> fig6_row list
(** One row per figure benchmark; compute the AMEAN over the rows with
    {!amean_mix}. Default machine: Table 2. *)

val amean_mix : Runner.access_mix list -> Runner.access_mix

(** {1 Figures 7 and 9 — execution cycles, normalized} *)

type bar = { b_compute : float; b_stall : float }
(** Normalized to the machine's free-MinComs baseline total. *)

type fig7_row = {
  f7_bench : string;
  f7_mdc_pref : bar;
  f7_mdc_min : bar;
  f7_ddgt_pref : bar;
  f7_ddgt_min : bar;
}

val fig7 :
  ?machine:Vliw_arch.Machine.t -> ?obs:Runner.obs -> unit -> fig7_row list
(** Figure 7 on Table 2; pass an Attraction-Buffer machine to reproduce
    Figure 9 ({!fig9} does exactly that). *)

val fig9 : ?obs:Runner.obs -> unit -> fig7_row list

(** {1 Table 3 — chain ratios} *)

type t3_row = { t3_bench : string; t3_cmr : float; t3_car : float }

val table3 : ?obs:Runner.obs -> unit -> t3_row list

(** {1 Table 4 — analyzing the DDGT solution} *)

type t4_row = {
  t4_bench : string;
  t4_dcom : float;
      (** ratio of dynamic communication operations, DDGT over MDC, both
          under PrefClus *)
  t4_speedup : float option;
      (** DDGT speedup over MDC on the {e selected loops} — those with at
          least a 10% MDC slowdown against the free baseline (all under
          PrefClus); [None] when no loop qualifies (the paper's dashes) *)
}

val table4 : ?obs:Runner.obs -> unit -> t4_row list

(** {1 Section 4.2 "other architectural configurations"} *)

type nobal_row = {
  nb_bench : string;
  nb_mem_best_mdc_over_ddgt : float;
      (** NOBAL+MEM: best-MDC speedup over best-DDGT (the paper: MDC always
          wins here) *)
  nb_reg_ddgtpref_over_best_mdc : float;
      (** NOBAL+REG: DDGT-PrefClus speedup over best-MDC (the paper: 17%
          for epicdec, 20% pgpdec, 9% pgpenc, 8% rasta) *)
}

val nobal : ?obs:Runner.obs -> unit -> nobal_row list

(** {1 Table 5 — code specialization} *)

type t5_row = {
  t5_bench : string;
  t5_old_cmr : float;
  t5_old_car : float;
  t5_new_cmr : float;
  t5_new_car : float;
  t5_removed : int;  (** ambiguous dependences dropped (dynamic-weighted) *)
}

val table5 : ?obs:Runner.obs -> unit -> t5_row list
(** epicdec, pgpdec and rasta, like the paper (pgpenc is excluded there as
    "similar to pgpdec"). *)

(** {1 Machine grids: N-cluster scaling and coherence protocols (beyond
    the paper)}

    {!scale} and {!protocol} are one sweep over two machine lists. Each
    machine runs MDC, DDGT and the hybrid under PrefClus on a
    representative benchmark subset (epicdec, g721dec, rasta) with
    16-entry ABs: ABs create the replicas whose coherence the directory
    tracks and the protocols keep, so the directory's invalidate and
    writeback paths and the protocols' transitions are exercised. A row
    keeps its runs, and every column is derived from them; all runs also
    land in {!cached_runs}, so the machine-readable report carries every
    point of both grids. Every scheme here is certified, so every row must
    show 0 violations and all its loops certified. *)

type grid_row = {
  g_machine : Vliw_arch.Machine.t;  (** the base machine of the row *)
  g_runs : Runner.bench_run list;
      (** one run per (technique, benchmark), in {!grid_techniques}
          order *)
}

val grid_techniques : Runner.technique list
(** MDC, DDGT and the hybrid. *)

val grid_cycles : Runner.technique -> grid_row -> float
(** The technique's total cycles summed over the row's benchmarks. *)

val grid_total : (Runner.bench_run -> int) -> grid_row -> int
(** A per-run count summed over the row's runs, e.g.
    [grid_total (Runner.total (fun s -> s.Sim.packet_hops))] or
    [grid_total Runner.verified]. *)

val scale : ?obs:Runner.obs -> unit -> grid_row list
(** One row per (cluster count, interconnect) over
    [{4,8,16,32} x {bus, directory}], all under install/flush. *)

val protocol : ?obs:Runner.obs -> unit -> grid_row list
(** One row per (cluster count, backend, protocol) over
    [{4,8} x {(bus, install-flush), (bus, MSI), (directory,
    install-flush), (directory, MESI)}] — the pairings
    {!Vliw_arch.Machine.validate} accepts. The install-flush rows are the
    controls: the same cycles per technique as the same backend's
    {!scale} row, zero protocol traffic. *)

(** {1 Static coherence verification coverage (beyond the paper)} *)

type verif_row = {
  v_technique : Runner.technique;
  v_heuristic : Vliw_sched.Schedule.heuristic;
  v_loops : int;  (** loop schedules examined (figure benchmarks, Table 2) *)
  v_verified : int;  (** certified coherence-safe by {!Vliw_verify.Verify} *)
  v_violations : int;  (** dynamic violations observed across those runs *)
  v_proofs : (string * int) list;  (** aggregated proof-rule histogram *)
}

val verification : ?obs:Runner.obs -> unit -> verif_row list
(** One row per (technique, heuristic) over the figure benchmarks: how many
    loop schedules the static verifier certifies, and the dynamic
    violation count beside it. MDC/DDGT rows must be fully certified (the
    runner refuses an uncertified loop); the free rows report the
    verifier's flag rate on naive schedules — a completeness metric,
    since a flagged-but-clean run only means the proof rules could not
    discharge it statically. *)
