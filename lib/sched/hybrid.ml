module G = Vliw_ddg.Graph
module M = Vliw_arch.Machine
module Chains = Vliw_core.Chains
module Ddgt = Vliw_core.Ddgt

type choice = Chose_mdc | Chose_ddgt

let choice_name = function Chose_mdc -> "MDC" | Chose_ddgt -> "DDGT"

type result = {
  graph : G.t;
  constraints : Chains.constraints;
  schedule : Schedule.t;
  choice : choice;
  mdc_estimate : int;
  ddgt_estimate : int;
}

let estimate ~machine ~pref ~trip g (s : Schedule.t) =
  let local = M.latency machine M.Local_hit in
  let remote = M.latency machine M.Remote_hit in
  let expected_stall =
    List.fold_left
      (fun acc ((n : G.node), _) ->
        (* only loads stall consumers; stores (and replicated instances,
           which are stores by construction) are fire-and-forget *)
        if not (G.is_load n) then acc
        else
          let cl = Schedule.cluster_of s n.n_id in
          let p_local =
            match pref n.n_id with
            | Some h when Array.length h > cl ->
              let total = Array.fold_left ( + ) 0 h in
              if total = 0 then 0.5 else float_of_int h.(cl) /. float_of_int total
            | _ -> 0.5
          in
          let expected =
            (p_local *. float_of_int local)
            +. ((1. -. p_local) *. float_of_int remote)
          in
          let assumed = float_of_int (Schedule.assumed_of s n.n_id) in
          acc +. Float.max 0. (expected -. assumed))
      0. (G.mem_refs g)
  in
  s.Schedule.length
  + (s.Schedule.ii * (trip - 1))
  + int_of_float (expected_stall *. float_of_int trip)

type compiled = {
  c_graph : G.t;
  c_constraints : Chains.constraints;
  c_schedule : Schedule.t;
  c_hybrid : result option;
}

(* Section 6's choice between two candidates already built *)
let choose_of ~machine ~pref_for ~trip mdc ddgt =
  let est c =
    estimate ~machine ~pref:(pref_for c.c_graph) ~trip c.c_graph c.c_schedule
  in
  let chose choice c ~mdc_estimate ~ddgt_estimate =
    Ok
      { graph = c.c_graph; constraints = c.c_constraints; schedule = c.c_schedule;
        choice; mdc_estimate; ddgt_estimate }
  in
  match (mdc, ddgt) with
  | Error _, Error _ -> Error "hybrid: neither MDC nor DDGT schedules"
  | Ok m, Error _ -> chose Chose_mdc m ~mdc_estimate:(est m) ~ddgt_estimate:max_int
  | Error _, Ok d -> chose Chose_ddgt d ~mdc_estimate:max_int ~ddgt_estimate:(est d)
  | Ok m, Ok d ->
    let em = est m and ed = est d in
    if em <= ed then chose Chose_mdc m ~mdc_estimate:em ~ddgt_estimate:ed
    else chose Chose_ddgt d ~mdc_estimate:em ~ddgt_estimate:ed

let rec compile ~machine ~heuristic ~pref_for ~trip ?lat_policy ?ordering
    technique g =
  let run graph constraints pref =
    Driver.run
      (Driver.request ~heuristic ~constraints ~pref ?lat_policy ?ordering machine)
      graph
    |> Result.map (fun s ->
           { c_graph = graph; c_constraints = constraints; c_schedule = s;
             c_hybrid = None })
  in
  match technique with
  | Schedule.Free -> run g (Chains.no_constraints ()) (pref_for g)
  | Schedule.Mdc ->
    let pref = pref_for g in
    let constraints =
      match heuristic with
      | Schedule.Pref_clus -> Chains.prefclus g ~pref
      | Schedule.Min_coms -> Chains.mincoms g
    in
    run g constraints pref
  | Schedule.Ddgt ->
    (* the profile is asked about the transformed graph, whose replicas
       and fake consumers the input graph lacks *)
    let t = (Ddgt.transform ~clusters:machine.M.clusters g).Ddgt.graph in
    run t (Chains.no_constraints ()) (pref_for t)
  | Schedule.Hybrid ->
    choose_with ~machine ~heuristic ~pref_for ~trip ?lat_policy ?ordering g
    |> Result.map (fun h ->
           { c_graph = h.graph; c_constraints = h.constraints;
             c_schedule = h.schedule; c_hybrid = Some h })

(* Section 6's choice, its two candidates built by [compile]'s MDC and
   DDGT arms *)
and choose_with ~machine ~heuristic ~pref_for ~trip ?lat_policy ?ordering g =
  let arm tech =
    compile ~machine ~heuristic ~pref_for ~trip ?lat_policy ?ordering tech g
  in
  choose_of ~machine ~pref_for ~trip (arm Schedule.Mdc) (arm Schedule.Ddgt)

let choose ~machine ~heuristic ~pref_for ~trip g =
  choose_with ~machine ~heuristic ~pref_for ~trip g
