module S = Vliw_sched.Schedule
module Hybrid = Vliw_sched.Hybrid
module Profile = Vliw_profile.Profile
module Ir = Vliw_ir
module Sim = Vliw_sim.Sim
module V = Vliw_verify.Verify

type front = {
  machine : Vliw_arch.Machine.t;
  kernel_prof : Ir.Ast.kernel;
  kernel_exec : Ir.Ast.kernel;
  layout : Ir.Layout.t;
  prof : Profile.t;
  lowered : Vliw_lower.Lower.t;
  oracle : Ir.Interp.result;
}

let front ?pad ?profile ~machine kernel =
  let layout = Ir.Layout.make ?pad kernel in
  let lowered = Vliw_lower.Lower.lower kernel in
  let oracle = Ir.Interp.run ~layout kernel in
  let kernel_prof, prof =
    match profile with
    | None ->
      let nsites = Ir.Sites.count kernel in
      (kernel, Profile.of_events ~machine ~nsites oracle.Ir.Interp.events)
    | Some k -> (k, Profile.run ~machine ~layout:(Ir.Layout.make k) k)
  in
  { machine; kernel_prof; kernel_exec = kernel; layout; prof; lowered; oracle }

type compiled = {
  front : front;
  heuristic : S.heuristic;
  graph : Vliw_ddg.Graph.t;
  schedule : S.t;
  hybrid : Hybrid.result option;
}

let pref_for fe = Profile.node_pref fe.prof
let trip fe = fe.kernel_exec.Ir.Ast.k_trip

let schedule ?lat_policy ?ordering ~heuristic fe technique =
  Hybrid.compile ~machine:fe.machine ~heuristic ~pref_for:(pref_for fe)
    ~trip:(trip fe) ?lat_policy ?ordering technique
    fe.lowered.Vliw_lower.Lower.graph

let compiled fe heuristic (c : Hybrid.compiled) =
  { front = fe; heuristic; graph = c.c_graph; schedule = c.c_schedule;
    hybrid = c.c_hybrid }

let compile ?lat_policy ?ordering ~heuristic fe technique =
  schedule ?lat_policy ?ordering ~heuristic fe technique
  |> Result.map (compiled fe heuristic)

(* the hybrid is Section 6's choice between the two arms in hand, and its
   entry is the chosen arm's own record *)
let compile_all ?ordering ~heuristic fe =
  let arms = [ S.Free; S.Mdc; S.Ddgt ] in
  match Vliw_util.Pool.map (schedule ?ordering ~heuristic fe) arms with
  | [ free; mdc; ddgt ] ->
    let arm = Result.map (compiled fe heuristic) in
    let mdc_c = arm mdc and ddgt_c = arm ddgt in
    let hybrid =
      match
        Hybrid.choose_of ~machine:fe.machine ~pref_for:(pref_for fe)
          ~trip:(trip fe) mdc ddgt
      with
      | Error e -> Error e
      | Ok { Hybrid.choice = Chose_mdc; _ } -> mdc_c
      | Ok { Hybrid.choice = Chose_ddgt; _ } -> ddgt_c
    in
    [ (S.Free, arm free); (S.Mdc, mdc_c); (S.Ddgt, ddgt_c); (S.Hybrid, hybrid) ]
  | _ -> assert false

type verifier =
  machine:Vliw_arch.Machine.t ->
  technique:V.technique ->
  base:Vliw_ddg.Graph.t ->
  layout:Ir.Layout.t ->
  graph:Vliw_ddg.Graph.t ->
  schedule:S.t ->
  V.report

let default_verifier ~machine ~technique ~base ~layout ~graph ~schedule =
  V.check ~machine ~technique ~base ~layout ~graph ~schedule ()

let verify ?(verifier = default_verifier) technique c =
  let fe = c.front in
  verifier ~machine:fe.machine ~technique ~base:fe.lowered.Vliw_lower.Lower.graph
    ~layout:fe.layout ~graph:c.graph ~schedule:c.schedule

let simulate ?(execution = false) ?trace c =
  let fe = c.front in
  let mode = if execution then Sim.Execution else Sim.Oracle fe.oracle in
  Sim.run ~lowered:fe.lowered ~graph:c.graph ~schedule:c.schedule
    ~layout:fe.layout ~mode ~warm:(not execution) ?trace ()

let prepare c =
  let fe = c.front in
  Sim.prepare ~lowered:fe.lowered ~graph:c.graph ~schedule:c.schedule
    ~layout:fe.layout ~mode:Sim.Execution ()

let audit c sink (st : Vliw_sim.Sim.stats) =
  Vliw_trace.Audit.check sink ~protocol:c.front.machine.protocol
    ~prot_invalidations:st.prot_invalidations ~violations:st.violations
    ~nullified:st.nullified
