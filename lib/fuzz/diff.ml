module M = Vliw_arch.Machine
module G = Vliw_ddg.Graph
module S = Vliw_sched.Schedule
module Lower = Vliw_lower.Lower
module Profile = Vliw_profile.Profile
module Sim = Vliw_sim.Sim
module Trace = Vliw_trace.Trace
module Audit = Vliw_trace.Audit
module V = Vliw_verify.Verify
module Layout = Vliw_ir.Layout
module Interp = Vliw_ir.Interp
module Prng = Vliw_util.Prng
module Hybrid = Vliw_sched.Hybrid

type technique = S.technique = Free | Mdc | Ddgt | Hybrid

let technique_name = S.technique_name
let techniques = S.techniques
let verify_technique = Fun.id

type verifier =
  machine:M.t ->
  technique:V.technique ->
  base:G.t ->
  layout:Layout.t ->
  graph:G.t ->
  schedule:S.t ->
  V.report

let default_verifier ~machine ~technique ~base ~layout ~graph ~schedule =
  V.check ~machine ~technique ~base ~layout ~graph ~schedule ()

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

type run = { d_technique : technique; d_heuristic : S.heuristic; d_status : status }

type failure = { f_kind : string; f_technique : string; f_detail : string }

type verdict = {
  v_case : Gen.case;
  v_nodes : int;
  v_heuristic : S.heuristic;
  v_runs : run list;
  v_failures : failure list;
}

let failure_kinds =
  [
    "oracle-diverged";
    "certified-violation";
    "certified-corruption";
    "audit-mismatch";
  ]

(* the differential heuristic is itself a pure function of the case
   identity, so replays agree with the original sweep *)
let heuristic_for (c : Gen.case) =
  let rng =
    Prng.derive_named
      (Gen.stream ~seed:c.Gen.g_seed ~index:c.Gen.g_index)
      "diff"
  in
  if Prng.bool rng then S.Pref_clus else S.Min_coms

let jitter_stream (c : Gen.case) tech =
  Prng.derive_named
    (Prng.derive_named
       (Gen.stream ~seed:c.Gen.g_seed ~index:c.Gen.g_index)
       "jitter")
    (technique_name tech)

type artifacts = {
  a_machine : M.t;
  a_layout : Layout.t;
  a_heuristic : S.heuristic;
  a_lowered : Lower.t;
  a_graph : G.t;
  a_schedule : S.t;
}

(* The case's front end (machine, layout, heuristic, lowering, profile),
   built once and shared by every technique's compile *)
type front = {
  fe_machine : M.t;
  fe_layout : Layout.t;
  fe_heuristic : S.heuristic;
  fe_lowered : Lower.t;
  fe_pref_for : G.t -> int -> int array option;
  fe_trip : int;
}

let front_end (c : Gen.case) =
  let k = c.Gen.g_kernel in
  let machine = Gen.machine c.Gen.g_mconf in
  let layout = Layout.make k in
  {
    fe_machine = machine;
    fe_layout = layout;
    fe_heuristic = heuristic_for c;
    fe_lowered = Lower.lower k;
    fe_pref_for = Profile.node_pref (Profile.run ~machine ~layout k);
    fe_trip = k.Vliw_ir.Ast.k_trip;
  }

(* Crucially the driver is NOT gated by the verifier: the verdict is
   collected after the fact and differenced against the dynamic outcome,
   so a verifier that wrongly certifies is caught instead of obeyed. *)
let compile_front fe tech =
  Hybrid.compile ~machine:fe.fe_machine ~heuristic:fe.fe_heuristic
    ~pref_for:fe.fe_pref_for ~trip:fe.fe_trip tech fe.fe_lowered.Lower.graph

let artifacts fe (c : Hybrid.compiled) =
  {
    a_machine = fe.fe_machine;
    a_layout = fe.fe_layout;
    a_heuristic = fe.fe_heuristic;
    a_lowered = fe.fe_lowered;
    a_graph = c.c_graph;
    a_schedule = c.c_schedule;
  }

let compile (c : Gen.case) tech =
  let fe = front_end c in
  compile_front fe tech |> Result.map (artifacts fe)

(* free, MDC and DDGT compiled once each; the hybrid is Section 6's choice
   between the two arms in hand, and its entry is the chosen arm's own
   artifacts *)
let compile_all_front fe =
  let free = compile_front fe Free in
  let mdc = compile_front fe Mdc in
  let ddgt = compile_front fe Ddgt in
  let arm = Result.map (artifacts fe) in
  let mdc_a = arm mdc and ddgt_a = arm ddgt in
  let hybrid =
    match
      Hybrid.choose_of ~machine:fe.fe_machine ~pref_for:fe.fe_pref_for
        ~trip:fe.fe_trip mdc ddgt
    with
    | Error e -> Error e
    | Ok { Hybrid.choice = Chose_mdc; _ } -> mdc_a
    | Ok { Hybrid.choice = Chose_ddgt; _ } -> ddgt_a
  in
  [ (Free, arm free); (Mdc, mdc_a); (Ddgt, ddgt_a); (Hybrid, hybrid) ]

let compile_all c = compile_all_front (front_end c)

let check ?(verifier = default_verifier) (c : Gen.case) =
  let k = c.Gen.g_kernel in
  let fe = front_end c in
  let machine = fe.fe_machine and layout = fe.fe_layout in
  let heuristic = fe.fe_heuristic and low = fe.fe_lowered in
  let failures = ref [] in
  let fail kind tech detail =
    failures := { f_kind = kind; f_technique = tech; f_detail = detail } :: !failures
  in
  (* two independent reference executors must tell the same story before
     any simulated run is judged against them *)
  let interp = Interp.run ~layout k in
  let oracle = Oracle.run ~layout k in
  (match Oracle.compare_interp oracle interp with
  | Ok () -> ()
  | Error e -> fail "oracle-diverged" "reference" e);
  let simulate tech tag ?jitter graph schedule =
    let sink = Trace.create () in
    let stats =
      Sim.run ~lowered:low ~graph ~schedule ~layout ~mode:Sim.Execution ?jitter
        ~trace:sink ()
    in
    (* the event stream must independently re-derive the simulator's own
       coherence accounting, on every run, jittered or not *)
    (match
       Audit.check sink ~protocol:machine.M.protocol
         ~prot_invalidations:stats.Sim.prot_invalidations
         ~violations:stats.Sim.violations ~nullified:stats.Sim.nullified
     with
    | Ok _ -> ()
    | Error msg ->
      fail "audit-mismatch" (technique_name tech) (tag ^ ": " ^ msg));
    {
      so_violations = stats.Sim.violations;
      so_memory_ok = Bytes.equal stats.Sim.memory oracle.o_memory;
    }
  in
  let judge tech ~certified tag (obs : sim_obs) =
    if certified then
      if obs.so_violations > 0 then
        fail "certified-violation" (technique_name tech)
          (Printf.sprintf "%s: certified schedule ran with %d coherence violations"
             tag obs.so_violations)
      else if not obs.so_memory_ok then
        fail "certified-corruption" (technique_name tech)
          (tag ^ ": certified schedule corrupted memory (0 violations counted)")
  in
  (* the same compiles as [compile_all], so the model checker
     (Vliw_check.Check) explores the very artifacts judged here *)
  let run_one (tech, compiled) =
    let status =
      match compiled with
      | Error e -> Unschedulable e
      | Ok { a_graph = graph; a_schedule = schedule; _ } ->
        let report =
          verifier ~machine ~technique:tech ~base:low.Lower.graph ~layout ~graph
            ~schedule
        in
        let nominal = simulate tech "nominal" graph schedule in
        judge tech ~certified:(V.certifies report ~jitter:0) "nominal" nominal;
        let jittered =
          if c.Gen.g_jitter = 0 then None
          else begin
            let obs =
              simulate tech "jittered"
                ~jitter:(jitter_stream c tech, c.Gen.g_jitter)
                graph schedule
            in
            judge tech
              ~certified:(V.certifies report ~jitter:c.Gen.g_jitter)
              "jittered" obs;
            Some obs
          end
        in
        Ran
          {
            r_verified = report.V.r_verified;
            r_jitter_robust = report.V.r_jitter_robust;
            r_nominal = nominal;
            r_jittered = jittered;
          }
    in
    { d_technique = tech; d_heuristic = heuristic; d_status = status }
  in
  let runs = List.map run_one (compile_all_front fe) in
  {
    v_case = c;
    v_nodes = G.node_count low.Lower.graph;
    v_heuristic = heuristic;
    v_runs = runs;
    v_failures = List.rev !failures;
  }

let failing ?verifier c = (check ?verifier c).v_failures <> []
