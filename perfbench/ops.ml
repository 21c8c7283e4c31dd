(* The three workloads' ops.

   Each op has two forms. [run] is the public entry point a user calls
   ([Runner.run_bench], [Diff.check], [Check.run_case]); [traced] rebuilds
   the same op from the layers' public functions with a span around every
   call into a layer. Both return a judge that runs after the op's timing
   stops: it checks the op's outputs and returns a digest of them, which
   the traced form must reproduce exactly. *)

module M = Vliw_arch.Machine
module S = Vliw_sched.Schedule
module Driver = Vliw_sched.Driver
module Hybrid = Vliw_sched.Hybrid
module Chains = Vliw_core.Chains
module Ddgt = Vliw_core.Ddgt
module Lower = Vliw_lower.Lower
module Profile = Vliw_profile.Profile
module Sim = Vliw_sim.Sim
module Trace = Vliw_trace.Trace
module Audit = Vliw_trace.Audit
module V = Vliw_verify.Verify
module Layout = Vliw_ir.Layout
module Interp = Vliw_ir.Interp
module Prng = Vliw_util.Prng
module W = Vliw_workloads.Workloads
module R = Vliw_harness.Runner
module Memo = Vliw_harness.Memo
module Selfcheck = Vliw_harness.Selfcheck
module Gen = Vliw_fuzz.Gen
module Diff = Vliw_fuzz.Diff
module Oracle = Vliw_fuzz.Oracle
module Check = Vliw_check.Check

let span = Spans.record

type outcome = {
  failure : string option;
  digest : Digest.t;  (** the outputs the traced form must reproduce *)
  cycles : int;  (** simulated cycles of every simulation the op ran *)
}

type op = {
  label : string;
  cls : string;  (** traffic class: machine, cluster count or configuration *)
  run : unit -> unit -> outcome;
  traced : unit -> unit -> outcome;
}

let digest v = Digest.string (Marshal.to_string v [ Marshal.No_sharing ])

let crashed e () =
  { failure = Some (Printexc.to_string e); digest = ""; cycles = 0 }

(* Time-free counters of the traced pass, filled by the traced judges. *)
let counters : (string, float) Hashtbl.t = Hashtbl.create 32

let bump k v =
  Hashtbl.replace counters k
    (v +. Option.value ~default:0. (Hashtbl.find_opt counters k))

let counter k = Option.value ~default:0. (Hashtbl.find_opt counters k)

let note_schedule (machine, req, graph, (s : S.t)) =
  bump "sched.ii_sum" (float_of_int s.S.ii);
  bump "sched.ii_over_mii" (float_of_int (s.S.ii - Driver.mii machine graph req));
  bump "sched.comm_ops" (float_of_int (S.comm_ops s))

let note_stats (st : Sim.stats) =
  bump "sim.cycles" (float_of_int st.Sim.total_cycles);
  bump "sim.stall_cycles" (float_of_int st.Sim.stall_cycles);
  bump "interconnect.packet_hops" (float_of_int st.Sim.packet_hops);
  bump "interconnect.dir_lookups" (float_of_int st.Sim.dir_lookups);
  bump "coherence.prot_invalidations" (float_of_int st.Sim.prot_invalidations)

let note_report (r : V.report) =
  bump "verify.obligations" (float_of_int r.V.r_obligations);
  if r.V.r_verified then bump "verify.certified" 1.

(* Runner.run_loop's and Diff.compile_with's scheduling step, one layer
   call at a time. [gate] is the verifier hook the harness installs on
   MDC and DDGT; the fuzzer and the checker compile ungated. Every
   schedule built is passed to [note]. *)
let compile ~note ~machine ~heuristic ~prof ~pref ~(low : Lower.t) ~trip
    ?gate tech =
  let g0 = low.Lower.graph in
  match tech with
  | Diff.Hybrid -> (
    match
      span "sched" (fun () ->
          Hybrid.choose ~machine ~heuristic ~pref_for:(Profile.node_pref prof)
            ~trip g0)
    with
    | Ok h ->
      note
        ( machine,
          Driver.request ~heuristic ~constraints:h.Hybrid.constraints machine,
          h.Hybrid.graph,
          h.Hybrid.schedule );
      Ok (h.Hybrid.graph, h.Hybrid.schedule)
    | Error e -> Error e)
  | Diff.Free | Diff.Mdc | Diff.Ddgt -> (
    let graph, constraints =
      match tech with
      | Diff.Mdc ->
        ( g0,
          span "core" (fun () ->
              match heuristic with
              | S.Pref_clus -> Chains.prefclus g0 ~pref
              | S.Min_coms -> Chains.mincoms g0) )
      | Diff.Ddgt ->
        let r =
          span "core" (fun () -> Ddgt.transform ~clusters:machine.M.clusters g0)
        in
        List.iter
          (fun (_, inst) -> bump "core.replicas" (float_of_int (List.length inst)))
          r.Ddgt.replicas;
        (r.Ddgt.graph, Chains.no_constraints ())
      | Diff.Free | Diff.Hybrid -> (g0, Chains.no_constraints ())
    in
    let pref_g =
      match tech with Diff.Ddgt -> Profile.node_pref prof graph | _ -> pref
    in
    let check =
      Option.map (fun gate g s -> span "verify" (fun () -> gate g s)) gate
    in
    let req = Driver.request ~heuristic ~constraints ~pref:pref_g ?check machine in
    match span "sched" (fun () -> Driver.run req graph) with
    | Ok s ->
      note (machine, req, graph, s);
      Ok (graph, s)
    | Error e -> Error e)

(* ------------------------------------------------------------------ *)
(* paper: one Runner.run_bench, one bar of Figure 7/9                  *)

let diff_technique = function
  | R.Free -> Diff.Free
  | R.Mdc -> Diff.Mdc
  | R.Ddgt -> Diff.Ddgt
  | R.Hybrid -> Diff.Hybrid

(* The four base machines and, on each, the schemes the paper's figures
   run there: Figure 6/7 and the hybrid study on Table 2, Figure 9 on
   Table 2 with Attraction Buffers, Section 4.2 on the NOBAL machines.
   BENCH_harness.json records every one of these runs. *)
let paper_machines =
  let both t = [ (t, S.Pref_clus); (t, S.Min_coms) ] in
  [
    ("table2", M.table2, List.concat_map both [ R.Free; R.Mdc; R.Ddgt; R.Hybrid ]);
    ( "table2+ab",
      M.with_attraction M.table2 (Some M.default_attraction),
      both R.Mdc @ both R.Ddgt @ [ (R.Free, S.Min_coms) ] );
    ("nobal-mem", M.nobal_mem, both R.Mdc @ both R.Ddgt);
    ("nobal-reg", M.nobal_reg, both R.Mdc @ [ (R.Ddgt, S.Pref_clus) ]);
  ]

let paper_op ~baseline (mname, base, (tech, heur)) (b : W.benchmark) =
  let fp = Memo.fingerprint base in
  let run () =
    match R.run_bench ~machine:base tech heur b with
    | exception e -> crashed e
    | br ->
      fun () ->
        let drift =
          Selfcheck.check ~baseline ~current:[ Selfcheck.run_json (fp, base, br) ]
        in
        let loops =
          List.map
            (fun (lr : R.loop_run) ->
              (lr.R.lr_schedule.S.ii, S.comm_ops lr.R.lr_schedule, lr.R.lr_stats))
            br.R.br_loops
        in
        {
          failure = (if drift = [] then None else Some (Selfcheck.render drift));
          digest = digest (loops : (int * int * Sim.stats) list);
          cycles =
            List.fold_left (fun a (_, _, st) -> a + st.Sim.total_cycles) 0 loops;
        }
  in
  let traced () =
    let scheds = ref [] in
    let note s = scheds := s :: !scheds in
    let technique = Diff.verify_technique (diff_technique tech) in
    match
      span "harness" (fun () ->
          let machine = R.machine_for base b in
          List.map
            (fun loop ->
              let st = span "harness" (fun () -> Memo.stages ~machine ~bench:b loop) in
              let low = st.Memo.lowered and layout = st.Memo.layout in
              let gate =
                match tech with
                | R.Mdc | R.Ddgt ->
                  Some (V.gate ~machine ~technique ~base:low.Lower.graph ~layout ())
                | R.Free | R.Hybrid -> None
              in
              match
                compile ~note ~machine ~heuristic:heur ~prof:st.Memo.prof
                  ~pref:(Profile.node_pref st.Memo.prof low.Lower.graph)
                  ~low ~trip:st.Memo.kernel_exec.Vliw_ir.Ast.k_trip ?gate
                  (diff_technique tech)
              with
              | Error e -> failwith (b.W.b_name ^ ": cannot schedule: " ^ e)
              | Ok (graph, schedule) ->
                let report =
                  span "verify" (fun () ->
                      V.check ~machine ~technique ~base:low.Lower.graph ~layout
                        ~graph ~schedule ())
                in
                let stats =
                  span "sim" (fun () ->
                      Sim.run ~lowered:low ~graph ~schedule ~layout
                        ~mode:(Sim.Oracle st.Memo.oracle) ~warm:true ())
                in
                (* Runner's Table 3 chain statistic *)
                ignore (span "core" (fun () -> Chains.biggest low.Lower.graph));
                (schedule, stats, report))
            b.W.b_loops)
    with
    | exception e -> crashed e
    | loops ->
      fun () ->
        List.iter note_schedule !scheds;
        List.iter
          (fun (_, st, r) ->
            note_stats st;
            note_report r)
          loops;
        let unsound =
          List.exists
            (fun (_, (st : Sim.stats), (r : V.report)) ->
              r.V.r_verified && st.Sim.violations > 0)
            loops
        in
        let loops = List.map (fun (s, st, _) -> (s.S.ii, S.comm_ops s, st)) loops in
        {
          failure =
            (if unsound then Some "certified schedule ran with violations" else None);
          digest = digest (loops : (int * int * Sim.stats) list);
          cycles =
            List.fold_left (fun a (_, _, st) -> a + st.Sim.total_cycles) 0 loops;
        }
  in
  {
    label =
      Printf.sprintf "%s/%s/%s/%s" mname b.W.b_name (R.technique_name tech)
        (S.heuristic_name heur);
    cls = mname;
    run;
    traced;
  }

let paper_ops ~baseline =
  List.concat_map
    (fun (mname, base, schemes) ->
      List.concat_map
        (fun b -> List.map (fun sc -> paper_op ~baseline (mname, base, sc) b) schemes)
        W.figures)
    paper_machines

(* The Memo front end of every (machine, benchmark, loop) the ops touch. *)
let fill_memo () =
  List.iter
    (fun (_, base, _) ->
      List.iter
        (fun (b : W.benchmark) ->
          let machine = R.machine_for base b in
          List.iter (fun l -> ignore (Memo.stages ~machine ~bench:b l)) b.W.b_loops)
        W.figures)
    paper_machines

(* [fill_memo] rebuilt from Memo.parse and Memo.build's layer calls, under
   one harness span. Parses are shared across machines, as in the Memo.
   Returns the (machine, benchmark, loop) entries whose rebuilt stages
   differ from the Memo's. *)
let traced_fill_memo () =
  let rebuilt =
    span "harness" (fun () ->
        List.concat_map
          (fun (b : W.benchmark) ->
            List.concat_map
              (fun (l : W.loop) ->
                let parse seed = span "ir" (fun () -> W.parse_loop l ~seed) in
                let kp = parse b.W.b_profile_seed and ke = parse b.W.b_exec_seed in
                List.map
                  (fun (mname, base, _) ->
                    let machine = R.machine_for base b in
                    let layout = span "ir" (fun () -> Layout.make ke) in
                    let prof =
                      let layout = span "ir" (fun () -> Layout.make kp) in
                      span "profile" (fun () -> Profile.run ~machine ~layout kp)
                    in
                    let lowered = span "lower" (fun () -> Lower.lower ke) in
                    let oracle = span "ir" (fun () -> Interp.run ~layout ke) in
                    (mname, machine, b, l, (layout, prof, lowered, oracle)))
                  paper_machines)
              b.W.b_loops)
          W.figures)
  in
  List.filter_map
    (fun (mname, machine, b, l, stages) ->
      let st = Memo.stages ~machine ~bench:b l in
      if digest stages = digest (st.Memo.layout, st.Memo.prof, st.Memo.lowered, st.Memo.oracle)
      then None
      else Some (Printf.sprintf "%s/%s/%s" mname b.W.b_name l.W.l_name))
    rebuilt

(* ------------------------------------------------------------------ *)
(* fuzz: one Diff.check of a generated case                             *)

(* Diff's per-case heuristic and jitter streams, re-derived from the case
   identity exactly as Diff derives them. *)
let heuristic_for (c : Gen.case) =
  let rng =
    Prng.derive_named (Gen.stream ~seed:c.Gen.g_seed ~index:c.Gen.g_index) "diff"
  in
  if Prng.bool rng then S.Pref_clus else S.Min_coms

let jitter_stream (c : Gen.case) tech =
  Prng.derive_named
    (Prng.derive_named (Gen.stream ~seed:c.Gen.g_seed ~index:c.Gen.g_index) "jitter")
    (Diff.technique_name tech)

let of_verify_technique = function
  | V.Free -> Diff.Free
  | V.Mdc -> Diff.Mdc
  | V.Ddgt -> Diff.Ddgt
  | V.Hybrid -> Diff.Hybrid

(* A verifier that remembers every schedule it was shown, so the judge can
   re-simulate the op's schedules for their cycle counts. *)
let capturing () =
  let seen = ref [] in
  let verifier ~machine ~technique ~base ~layout ~graph ~schedule =
    seen := (of_verify_technique technique, graph, schedule) :: !seen;
    Diff.default_verifier ~machine ~technique ~base ~layout ~graph ~schedule
  in
  (verifier, fun () -> List.rev !seen)

let fuzz_op (c : Gen.case) =
  let k = c.Gen.g_kernel in
  let run () =
    let verifier, seen = capturing () in
    match Diff.check ~verifier c with
    | exception e -> crashed e
    | v ->
      fun () ->
        let layout = Layout.make k and lowered = Lower.lower k in
        let cycles =
          List.fold_left
            (fun acc (tech, graph, schedule) ->
              let sim ?jitter () =
                (Sim.run ~lowered ~graph ~schedule ~layout ~mode:Sim.Execution
                   ?jitter ())
                  .Sim.total_cycles
              in
              acc + sim ()
              + (if c.Gen.g_jitter = 0 then 0
                 else sim ~jitter:(jitter_stream c tech, c.Gen.g_jitter) ()))
            0 (seen ())
        in
        {
          failure =
            (match v.Diff.v_failures with
            | [] -> None
            | f :: _ -> Some (f.Diff.f_kind ^ " " ^ f.Diff.f_technique ^ ": " ^ f.Diff.f_detail));
          digest =
            digest (v.Diff.v_nodes, v.Diff.v_heuristic, v.Diff.v_runs, v.Diff.v_failures);
          cycles;
        }
  in
  let traced () =
    let scheds = ref [] and sims = ref [] and reports = ref [] in
    let note s = scheds := s :: !scheds in
    match
      span "fuzz" (fun () ->
          let machine = Gen.machine c.Gen.g_mconf in
          let layout = span "ir" (fun () -> Layout.make k) in
          let heuristic = heuristic_for c in
          let failures = ref [] in
          let fail kind tech detail =
            failures :=
              { Diff.f_kind = kind; f_technique = tech; f_detail = detail } :: !failures
          in
          let interp = span "ir" (fun () -> Interp.run ~layout k) in
          let oracle = span "fuzz" (fun () -> Oracle.run ~layout k) in
          (match span "fuzz" (fun () -> Oracle.compare_interp oracle interp) with
          | Ok () -> ()
          | Error e -> fail "oracle-diverged" "reference" e);
          let low = span "lower" (fun () -> Lower.lower k) in
          let prof = span "profile" (fun () -> Profile.run ~machine ~layout k) in
          let pref = Profile.node_pref prof low.Lower.graph in
          let simulate tech tag ?jitter graph schedule =
            let sink = span "trace" (fun () -> Trace.create ()) in
            let st =
              span "sim" (fun () ->
                  Sim.run ~lowered:low ~graph ~schedule ~layout ~mode:Sim.Execution
                    ?jitter ~trace:sink ())
            in
            sims := (st, Trace.length sink) :: !sims;
            (match
               span "trace" (fun () ->
                   Audit.check sink ~protocol:machine.M.protocol
                     ~prot_invalidations:st.Sim.prot_invalidations
                     ~violations:st.Sim.violations ~nullified:st.Sim.nullified)
             with
            | Ok _ -> ()
            | Error msg -> fail "audit-mismatch" (Diff.technique_name tech) (tag ^ ": " ^ msg));
            {
              Diff.so_violations = st.Sim.violations;
              so_memory_ok = Bytes.equal st.Sim.memory oracle.Oracle.o_memory;
            }
          in
          let judge tech ~certified tag (o : Diff.sim_obs) =
            if certified then
              if o.Diff.so_violations > 0 then
                fail "certified-violation" (Diff.technique_name tech)
                  (Printf.sprintf
                     "%s: certified schedule ran with %d coherence violations" tag
                     o.Diff.so_violations)
              else if not o.Diff.so_memory_ok then
                fail "certified-corruption" (Diff.technique_name tech)
                  (tag ^ ": certified schedule corrupted memory (0 violations counted)")
          in
          let run_one tech =
            let status =
              match
                compile ~note ~machine ~heuristic ~prof ~pref ~low
                  ~trip:k.Vliw_ir.Ast.k_trip tech
              with
              | Error e -> Diff.Unschedulable e
              | Ok (graph, schedule) ->
                let report =
                  span "verify" (fun () ->
                      V.check ~machine ~technique:(Diff.verify_technique tech)
                        ~base:low.Lower.graph ~layout ~graph ~schedule ())
                in
                reports := report :: !reports;
                let nominal = simulate tech "nominal" graph schedule in
                judge tech ~certified:report.V.r_verified "nominal" nominal;
                let jittered =
                  if c.Gen.g_jitter = 0 then None
                  else begin
                    let o =
                      simulate tech "jittered"
                        ~jitter:(jitter_stream c tech, c.Gen.g_jitter)
                        graph schedule
                    in
                    judge tech
                      ~certified:(report.V.r_verified && report.V.r_jitter_robust)
                      "jittered" o;
                    Some o
                  end
                in
                Diff.Ran
                  {
                    r_verified = report.V.r_verified;
                    r_jitter_robust = report.V.r_jitter_robust;
                    r_nominal = nominal;
                    r_jittered = jittered;
                  }
            in
            { Diff.d_technique = tech; d_heuristic = heuristic; d_status = status }
          in
          let runs = List.map run_one Diff.techniques in
          (Vliw_ddg.Graph.node_count low.Lower.graph, heuristic, runs, List.rev !failures))
    with
    | exception e -> crashed e
    | nodes, heuristic, runs, failures ->
      fun () ->
        List.iter note_schedule !scheds;
        List.iter note_report !reports;
        List.iter
          (fun (st, events) ->
            note_stats st;
            bump "trace.events" (float_of_int events))
          !sims;
        {
          failure =
            (match failures with
            | [] -> None
            | f :: _ -> Some (f.Diff.f_kind ^ " " ^ f.Diff.f_technique));
          digest = digest (nodes, heuristic, runs, failures);
          cycles =
            List.fold_left (fun a (st, _) -> a + st.Sim.total_cycles) 0 !sims;
        }
  in
  {
    label = Printf.sprintf "seed%d/case%d" c.Gen.g_seed c.Gen.g_index;
    cls = Printf.sprintf "x%d" c.Gen.g_mconf.Gen.mc_clusters;
    run;
    traced;
  }

(* ------------------------------------------------------------------ *)
(* check: one Check.run_case of a litmus kernel under one configuration *)

(* vliwfuzz check --matrix's remapping: a protocol case stays a protocol
   case, under the protocol that pairs with the new backend. *)
let with_config (c : Gen.case) (icn, clusters) =
  let m = c.Gen.g_mconf in
  let protocol =
    if m.Gen.mc_protocol = "install-flush" then m.Gen.mc_protocol
    else if icn = "bus" then "msi"
    else "mesi"
  in
  {
    c with
    Gen.g_mconf =
      { m with Gen.mc_icn = icn; mc_clusters = clusters; mc_protocol = protocol };
  }

let replay_cycles ~lowered ~layout ~jitter graph schedule =
  (Check.replay ~lowered ~graph ~schedule ~layout ~jitter ~script:[] ()).Sim.total_cycles

(* Time one replay of a schedule under an all-zero draw script without
   and with canonical-state noting: the replay and state-encoding costs
   Check.explore pays at every leaf. Runs outside any op's span. *)
let replay_probe ~lowered ~layout ~jitter graph schedule =
  let replay note =
    let choices =
      { Sim.ch_jitter = jitter; ch_draw = (fun ~bound:_ -> 0); ch_note_state = note }
    in
    let t0 = Unix.gettimeofday () in
    ignore (Sim.run ~lowered ~graph ~schedule ~layout ~choices ());
    Unix.gettimeofday () -. t0
  in
  let plain = replay None in
  let noted = replay (Some ignore) in
  bump "probe.replays" 1.;
  bump "probe.replay_s" plain;
  bump "probe.encode_s" (noted -. plain)

let check_op file (c : Gen.case) =
  let k = c.Gen.g_kernel and jitter = c.Gen.g_jitter in
  let summary tech = function
    | Error e -> (tech, Error e)
    | Ok ((r : V.report), (o : Check.outcome)) ->
      (tech, Ok (r.V.r_verified, r.V.r_jitter_robust, r.V.r_obligations, o))
  in
  let run () =
    let verifier, seen = capturing () in
    match Check.run_case ~verifier c with
    | exception e -> crashed e
    | co ->
      fun () ->
        let layout = Layout.make k and lowered = Lower.lower k in
        {
          failure =
            (match co.Check.co_failures with
            | [] -> None
            | (kind, detail) :: _ -> Some (kind ^ ": " ^ detail));
          digest =
            digest
              ( List.map
                  (fun (t : Check.checked) -> summary t.Check.t_technique t.Check.t_status)
                  co.Check.co_techniques,
                List.map fst co.Check.co_failures );
          cycles =
            List.fold_left
              (fun a (_, graph, schedule) ->
                a + replay_cycles ~lowered ~layout ~jitter graph schedule)
              0 (seen ());
        }
  in
  let traced () =
    let scheds = ref [] and explored = ref [] and reports = ref [] in
    let note s = scheds := s :: !scheds in
    match
      span "check" (fun () ->
          let failures = ref [] in
          let fail kind = failures := kind :: !failures in
          let layout0 = span "ir" (fun () -> Layout.make k) in
          let oracle = span "fuzz" (fun () -> Oracle.run ~layout:layout0 k) in
          let interp = span "ir" (fun () -> Interp.run ~layout:layout0 k) in
          (match span "fuzz" (fun () -> Oracle.compare_interp oracle interp) with
          | Ok () -> ()
          | Error _ -> fail "oracle-diverged");
          let check_tech tech =
            (* Diff.compile, one layer call at a time *)
            let machine = Gen.machine c.Gen.g_mconf in
            let layout = span "ir" (fun () -> Layout.make k) in
            let heuristic = heuristic_for c in
            let low = span "lower" (fun () -> Lower.lower k) in
            let prof = span "profile" (fun () -> Profile.run ~machine ~layout k) in
            let pref = Profile.node_pref prof low.Lower.graph in
            match
              compile ~note ~machine ~heuristic ~prof ~pref ~low
                ~trip:k.Vliw_ir.Ast.k_trip tech
            with
            | Error e -> summary tech (Error e)
            | Ok (graph, schedule) ->
              let report =
                span "verify" (fun () ->
                    V.check ~machine ~technique:(Diff.verify_technique tech)
                      ~base:low.Lower.graph ~layout ~graph ~schedule ())
              in
              reports := report :: !reports;
              let certified =
                report.V.r_verified && (jitter = 0 || report.V.r_jitter_robust)
              in
              let o =
                span "check" (fun () ->
                    Check.explore ~lowered:low ~graph ~schedule ~layout ~jitter
                      ~expected:oracle.Oracle.o_memory ~certified ())
              in
              explored := (low, layout, graph, schedule, o) :: !explored;
              Option.iter (fun x -> fail x.Check.x_kind) o.Check.k_counterexample;
              if not o.Check.k_exhaustive then fail "check-state-limit";
              summary tech (Ok (report, o))
          in
          let techniques = List.map check_tech Diff.techniques in
          (techniques, List.rev !failures))
    with
    | exception e -> crashed e
    | techniques, failures ->
      fun () ->
        List.iter note_schedule !scheds;
        List.iter note_report !reports;
        let cycles =
          List.fold_left
            (fun a (lowered, layout, graph, schedule, (o : Check.outcome)) ->
              bump "check.states" (float_of_int o.Check.k_states);
              bump "check.leaves" (float_of_int o.Check.k_leaves);
              bump "check.pruned" (float_of_int o.Check.k_pruned);
              replay_probe ~lowered ~layout ~jitter graph schedule;
              a + replay_cycles ~lowered ~layout ~jitter graph schedule)
            0 (List.rev !explored)
        in
        {
          failure = (match failures with [] -> None | f :: _ -> Some f);
          digest = digest (techniques, failures);
          cycles;
        }
  in
  let m = c.Gen.g_mconf in
  let cls = Printf.sprintf "%sx%d" m.Gen.mc_icn m.Gen.mc_clusters in
  { label = Filename.remove_extension (Filename.basename file) ^ "@" ^ cls; cls; run; traced }

(* The CI model-checking matrix's configurations this workload runs. *)
let check_configs = [ ("bus", 4); ("bus", 8); ("directory", 4) ]

let check_ops dir =
  Sys.readdir dir |> Array.to_list
  |> List.filter (fun f -> Filename.check_suffix f ".lk")
  |> List.sort compare
  |> List.concat_map (fun f ->
         let path = Filename.concat dir f in
         let c = Gen.load path in
         List.map (fun cfg -> check_op path (with_config c cfg)) check_configs)
