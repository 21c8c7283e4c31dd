module G = Vliw_ddg.Graph
module S = Vliw_sched.Schedule
module Lower = Vliw_lower.Lower
module Sim = Vliw_sim.Sim
module Trace = Vliw_trace.Trace
module V = Vliw_verify.Verify
module Prng = Vliw_util.Prng
module P = Vliw_pipeline.Pipeline

type technique = S.technique = Free | Mdc | Ddgt | Hybrid

let technique_name = S.technique_name
let techniques = S.techniques
let verify_technique = Fun.id

type verifier = P.verifier

let default_verifier = P.default_verifier

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

let front (c : Gen.case) =
  P.front ~machine:(Gen.machine c.Gen.g_mconf) c.Gen.g_kernel

let check ?verifier (c : Gen.case) =
  let fe = front c in
  let heuristic = heuristic_for c in
  let low = fe.P.lowered in
  let failure tech kind detail =
    { f_kind = kind; f_technique = tech; f_detail = detail }
  in
  (* two independent reference executors must tell the same story before
     any simulated run is judged against them *)
  let oracle = Oracle.run ~layout:fe.P.layout fe.P.kernel_exec in
  let reference =
    match Oracle.compare_interp oracle fe.P.oracle with
    | Ok () -> []
    | Error e -> [ failure "reference" "oracle-diverged" e ]
  in
  (* one prepared engine, for the compiled loop simulated last: its nominal
     and jittered runs share it. The previous one is dropped before the
     next is built, so only one is ever alive *)
  let last = ref None in
  let engine_for a =
    match !last with
    | Some (a', e) when a' == a -> e
    | _ ->
      last := None;
      let e = P.prepare a in
      last := Some (a, e);
      e
  in
  (* one technique's runs and the failures they raise *)
  let run_one (tech, verified) =
    let failures = ref [] in
    let fail kind detail =
      failures := failure (technique_name tech) kind detail :: !failures
    in
    let simulate tag ?jitter a =
      let sink = Trace.create () in
      let stats = Sim.exec (engine_for a) ?jitter ~trace:sink () in
      (* the event stream must independently re-derive the simulator's own
         coherence accounting, on every run, jittered or not *)
      (match P.audit a sink stats with
      | Ok _ -> ()
      | Error msg -> fail "audit-mismatch" (tag ^ ": " ^ msg));
      {
        so_violations = stats.Sim.violations;
        so_memory_ok = Bytes.equal stats.Sim.memory oracle.o_memory;
      }
    in
    let judge ~certified tag (obs : sim_obs) =
      if certified then
        if obs.so_violations > 0 then
          fail "certified-violation"
            (Printf.sprintf "%s: certified schedule ran with %d coherence violations"
               tag obs.so_violations)
        else if not obs.so_memory_ok then
          fail "certified-corruption"
            (tag ^ ": certified schedule corrupted memory (0 violations counted)")
    in
    let status =
      match verified with
      | Error e -> Unschedulable e
      | Ok (a, report) ->
        let nominal = simulate "nominal" a in
        judge ~certified:(V.certifies report ~jitter:0) "nominal" nominal;
        let jittered =
          if c.Gen.g_jitter = 0 then None
          else begin
            let obs =
              simulate "jittered"
                ~jitter:(jitter_stream c tech, c.Gen.g_jitter)
                a
            in
            judge
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
    ( { d_technique = tech; d_heuristic = heuristic; d_status = status },
      List.rev !failures )
  in
  (* the model checker (Vliw_check.Check) compiles the same way, so it
     explores the very records judged here. Crucially the compiles are
     NOT gated by the verifier: each is verified in technique order after
     the fact and differenced against the dynamic outcome, so a verifier
     that wrongly certifies is caught instead of obeyed *)
  let verified =
    List.map
      (fun (tech, compiled) ->
        (tech, Result.map (fun a -> (a, P.verify ?verifier tech a)) compiled))
      (P.compile_all ~heuristic fe)
  in
  (* The hybrid's record is its chosen arm's own, so it runs right after
     that arm, on the arm's engine: one engine is alive at a time. Runs
     and failures are still reported in technique order *)
  let hybrid = List.assq Hybrid verified in
  let order =
    List.concat_map
      (fun (tech, v) ->
        match (tech, v, hybrid) with
        | Hybrid, _, Ok _ -> []
        | _, Ok (a, _), Ok (h, _) when a == h ->
          [ (tech, v); (Hybrid, hybrid) ]
        | _ -> [ (tech, v) ])
      verified
  in
  let results = List.map (fun ((tech, _) as e) -> (tech, run_one e)) order in
  let results = List.map (fun (tech, _) -> List.assq tech results) verified in
  {
    v_case = c;
    v_nodes = G.node_count low.Lower.graph;
    v_heuristic = heuristic;
    v_runs = List.map fst results;
    v_failures = reference @ List.concat_map snd results;
  }

let failing ?verifier c = (check ?verifier c).v_failures <> []
