(** One loop's way through the compiler, below every tool: its front end,
    one technique's compile or all four, the static verifier's report, a
    simulation, and the replay audit of a traced run. The harness, fuzzer,
    model checker, compile service and [vliwc --compare] call these steps
    only here, and differ only in options. *)

type front = {
  machine : Vliw_arch.Machine.t;
  kernel_prof : Vliw_ir.Ast.kernel;  (** the kernel the profile was taken on *)
  kernel_exec : Vliw_ir.Ast.kernel;  (** the kernel compiled and simulated *)
  layout : Vliw_ir.Layout.t;  (** layout of [kernel_exec] *)
  prof : Vliw_profile.Profile.t;  (** run of [kernel_prof] on its own layout *)
  lowered : Vliw_lower.Lower.t;  (** lowering of [kernel_exec] *)
  oracle : Vliw_ir.Interp.result;  (** reference run of [kernel_exec] *)
}
(** Read-only to every consumer (transforms copy the graph first), so
    compiles, domains and experiments may share one. *)

val front :
  ?pad:int -> ?profile:Vliw_ir.Ast.kernel -> machine:Vliw_arch.Machine.t ->
  Vliw_ir.Ast.kernel -> front
(** Lay the kernel out ([pad] bytes between arrays, default 0), lower it
    and interpret it. [profile] is a kernel to profile instead, on its own
    layout; without it the reference interpretation is the profiling run. *)

type compiled = {
  front : front;
  heuristic : Vliw_sched.Schedule.heuristic;
  graph : Vliw_ddg.Graph.t;  (** the graph as scheduled *)
  schedule : Vliw_sched.Schedule.t;
  hybrid : Vliw_sched.Hybrid.result option;
      (** the choice and both estimates, when {!compile} built a hybrid *)
}

val compile :
  ?lat_policy:Vliw_sched.Driver.lat_policy ->
  ?ordering:Vliw_sched.Ims.ordering ->
  heuristic:Vliw_sched.Schedule.heuristic ->
  front -> Vliw_sched.Schedule.technique -> (compiled, string) result
(** {!Vliw_sched.Hybrid.compile} over the front's graph, profile and trip
    count, options passed on. [Error] is the scheduler's reason. *)

val compile_all :
  ?ordering:Vliw_sched.Ims.ordering ->
  heuristic:Vliw_sched.Schedule.heuristic ->
  front -> (Vliw_sched.Schedule.technique * (compiled, string) result) list
(** Every technique in {!Vliw_sched.Schedule.techniques} order: free, MDC
    and DDGT compiled once each on {!Vliw_util.Pool}, and the hybrid chosen
    by {!Vliw_sched.Hybrid.choose_of}. Its entry is the chosen arm's own
    (physically equal), its schedule [compile]'s [Hybrid] one. *)

type verifier =
  machine:Vliw_arch.Machine.t ->
  technique:Vliw_verify.Verify.technique ->
  base:Vliw_ddg.Graph.t ->
  layout:Vliw_ir.Layout.t ->
  graph:Vliw_ddg.Graph.t ->
  schedule:Vliw_sched.Schedule.t ->
  Vliw_verify.Verify.report
(** The static verifier as {!verify} calls it; injectable so that a test
    can weaken it and prove that the fuzzer and the checker catch the
    lie. *)

val default_verifier : verifier
(** {!Vliw_verify.Verify.check}. *)

val verify :
  ?verifier:verifier -> Vliw_sched.Schedule.technique -> compiled ->
  Vliw_verify.Verify.report
(** [verifier] (default {!default_verifier}) of the compiled loop on its
    machine, against the front's lowered graph and layout, under
    [technique]: the one the loop was compiled under, or [Hybrid] for
    {!compile_all}'s hybrid entry, which is its arm's record. *)

val simulate :
  ?execution:bool -> ?trace:Vliw_trace.Trace.sink -> compiled ->
  Vliw_sim.Sim.stats
(** One run of the compiled loop: trace-driven against the front's
    reference run, on warm caches (the paper's simulator); with
    [~execution:true], execution-driven on cold caches. *)

val prepare : compiled -> Vliw_sim.Sim.prepared
(** An execution-driven engine for {!Vliw_sim.Sim.exec} runs of the
    compiled loop, nominal or jittered. *)

val audit :
  compiled -> Vliw_trace.Trace.sink -> Vliw_sim.Sim.stats ->
  (Vliw_trace.Audit.report, string) result
(** {!Vliw_trace.Audit.check} of a traced run of the compiled loop, under
    its machine's protocol, against the simulator's counts. *)
