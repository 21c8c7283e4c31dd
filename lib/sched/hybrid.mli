(** The hybrid MDC/DDGT solution sketched in the paper's Further Work
    (Section 6): "the execution time of a loop with both solutions could be
    estimated at compile time and the best solution could be chosen", on a
    per-loop basis (the paper observes loops tend to have 0 or 1 memory
    dependent chain, so loop granularity is as good as anything finer).

    The compile-time estimate mirrors what a compiler could know without
    simulating: schedule the loop both ways and predict

    {v cycles = length + II * (trip - 1) + expected stall v}

    where the expected stall charges every memory operation
    [max 0 (expected latency - assumed latency)] per iteration, the
    expected latency being the profile-weighted mix of local and remote
    hit latencies (the profiled preferred-cluster histogram tells the
    compiler how often the access will be remote from its assigned
    cluster). *)

type choice = Chose_mdc | Chose_ddgt

val choice_name : choice -> string

type result = {
  graph : Vliw_ddg.Graph.t;  (** the chosen technique's graph *)
  constraints : Vliw_core.Chains.constraints;  (** and its constraints *)
  schedule : Schedule.t;  (** the chosen schedule *)
  choice : choice;
  mdc_estimate : int;
  ddgt_estimate : int;
}

val estimate :
  machine:Vliw_arch.Machine.t ->
  pref:(int -> int array option) ->
  trip:int ->
  Vliw_ddg.Graph.t ->
  Schedule.t ->
  int
(** The compile-time cycle estimate described above, exposed for testing
    and for the ablation bench. *)

val choose :
  machine:Vliw_arch.Machine.t ->
  heuristic:Schedule.heuristic ->
  pref_for:(Vliw_ddg.Graph.t -> int -> int array option) ->
  trip:int ->
  Vliw_ddg.Graph.t ->
  (result, string) Stdlib.result
(** Build both candidate compilations of the loop with {!compile}'s MDC
    and DDGT arms and keep the cheaper by {!choose_of}. Errors only if
    {e both} candidates fail to schedule. *)

(** {1 The technique→schedule step} *)

type compiled = {
  c_graph : Vliw_ddg.Graph.t;
      (** the graph as scheduled: the DDGT transform's for DDGT (and for a
          hybrid that chose it), else the input graph *)
  c_constraints : Vliw_core.Chains.constraints;
  c_schedule : Schedule.t;
  c_hybrid : result option;  (** [Hybrid] only: the choice and estimates *)
}

val compile :
  machine:Vliw_arch.Machine.t ->
  heuristic:Schedule.heuristic ->
  pref_for:(Vliw_ddg.Graph.t -> int -> int array option) ->
  trip:int ->
  ?lat_policy:Driver.lat_policy ->
  ?ordering:Ims.ordering ->
  Schedule.technique ->
  Vliw_ddg.Graph.t ->
  (compiled, string) Stdlib.result
(** Schedule a lowered loop under one technique — the one step every
    tool shares, through {!Vliw_pipeline.Pipeline.compile}. [Free]
    schedules the graph unconstrained; [Mdc] pins its memory dependent
    chains ({!Vliw_core.Chains.prefclus} or {!Vliw_core.Chains.mincoms},
    after [heuristic]); [Ddgt] schedules {!Vliw_core.Ddgt.transform}'s
    graph, profiled through [pref_for] of that graph; [Hybrid] is
    {!choose_of} over this function's own [Mdc] and [Ddgt] results, built
    with the same options. [lat_policy] and [ordering] go to every
    {!Driver.request} made; [trip] only matters to [Hybrid]. The MinComs
    post-pass may rewrite replica pins of [c_graph] ({!Driver.run}), so
    read the graph after this returns. [Error] is the driver's reason,
    or the hybrid's when neither candidate schedules. *)

val choose_of :
  machine:Vliw_arch.Machine.t ->
  pref_for:(Vliw_ddg.Graph.t -> int -> int array option) ->
  trip:int ->
  (compiled, string) Stdlib.result ->
  (compiled, string) Stdlib.result ->
  (result, string) Stdlib.result
(** Section 6's choice between two candidates already built: [compile]'s
    [Mdc] and [Ddgt] results for the same loop, in that order. Estimates
    each candidate that scheduled and keeps the cheaper one, MDC on a
    tie; the result's graph and schedule are the chosen candidate's own
    values, not copies. Errors only if {e both} are errors. [Hybrid]
    under {!compile} is this choice over two fresh candidates;
    {!Vliw_pipeline.Pipeline.compile_all} makes it over the arms it built. *)
