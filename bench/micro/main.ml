(* Microbenchmarks for the harness's hot paths (Bechamel, monotonic-clock
   OLS like `bench/main.exe bechamel`):

   - sim/wheel vs sim/reference   the event-wheel engine against the
                                  pre-overhaul per-cycle engine on the
                                  same compiled loop
   - bus/contended-{wheel,ref}    the same loop on a single-memory-bus
                                  machine, so every remote access queues —
                                  stresses the arbitration path
   - audit/replay                 the replay coherence auditor over a
                                  recorded event trace
   - verify/discharge             the static verifier proving one schedule
   - sched/attempt-{fail,ok}      one modulo-scheduling attempt on the DDGT
                                  graph of an epicdec loop on NOBAL-mem
                                  under PrefClus, on a view of the graph
                                  built once as Driver.run builds it: at
                                  the II the driver starts from (the
                                  larger of the MII and the register-bus
                                  bound), where the attempt exhausts its
                                  ejection budget, and at the II the driver
                                  settles on, where it succeeds
   - sched/view                   building that view (once per Driver.run)
   - check/replay-{fresh,prepared} one all-zero-draw replay of the MDC
                                  schedule of test/litmus/carried.lk at
                                  directory x4 (the model checker's unit of
                                  work): through Sim.run, which builds an
                                  engine, and through Sim.exec on one
                                  prepared engine
   - check/encode-carried         the prepared replay again, encoding the
                                  state key at every note (less
                                  replay-prepared: the encodes' cost)
   - check/resume-carried         Sim.resume of that engine from the
                                  checkpoint of the replay's middle note:
                                  the checker's cost per sibling, against
                                  replay-prepared's from cycle 0
   - check/explore-carried        the whole Check.explore of that schedule
                                  at the kernel's jitter

   Usage: bench/micro/main.exe (from the project root) *)

module M = Vliw_arch.Machine
module G = Vliw_ddg.Graph
module S = Vliw_sched.Schedule
module Driver = Vliw_sched.Driver
module Ims = Vliw_sched.Ims
module Chains = Vliw_core.Chains
module Profile = Vliw_profile.Profile
module Sim = Vliw_sim.Sim
module Trace = Vliw_trace.Trace
module Audit = Vliw_trace.Audit
module Verify = Vliw_verify.Verify
module W = Vliw_workloads.Workloads
module Gen = Vliw_fuzz.Gen
module Diff = Vliw_fuzz.Diff
module Check = Vliw_check.Check
module P = Vliw_pipeline.Pipeline

(* a benchmark loop's front end on [machine], profiled on its execution
   input *)
let front machine (b : W.benchmark) (l : W.loop) =
  P.front ~machine (W.parse_loop l ~seed:b.W.b_exec_seed)

(* the first figure benchmark's first loop, MDC under PrefClus *)
let compile machine =
  let b = List.hd W.figures in
  let fe = front machine b (List.hd b.W.b_loops) in
  match P.compile ~heuristic:S.Pref_clus fe S.Mdc with
  | Ok c -> c
  | Error e -> failwith ("micro: loop does not schedule: " ^ e)

(* a phase-1 attempt that fails and one that succeeds: the first epicdec
   loop whose attempt at the driver's starting II fails, with its context,
   graph, view, MII, register-bus bound, starting II and the II the driver
   settled on. The profile is read once per node, as Driver.run reads it. *)
let attempts () =
  let b = W.find "epicdec" in
  let machine = M.with_interleave M.nobal_mem b.W.b_interleave in
  let pick (l : W.loop) =
    let fe = front machine b l in
    match P.compile ~heuristic:S.Pref_clus fe S.Ddgt with
    | Error _ -> None
    | Ok c ->
      let g = c.P.graph in
      let pref =
        let tab = Array.init (G.node_count g) (Profile.node_pref fe.P.prof g) in
        fun id -> tab.(id)
      in
      (* DDGT's arm has no chain constraints: its replicas carry their
         clusters in the graph *)
      let constraints = Chains.no_constraints () in
      let ctx =
        {
          Ims.machine;
          heuristic = S.Pref_clus;
          ordering = Ims.Height;
          pinned = constraints.Chains.pinned;
          grouped = constraints.Chains.grouped;
          pref;
          assumed = Hashtbl.create 16;
        }
      in
      let req = Driver.request ~heuristic:S.Pref_clus ~constraints ~pref machine in
      let mii = Driver.mii machine g req and bus = Driver.bus_mii machine g req in
      let start = max mii bus and ii = c.P.schedule.S.ii in
      let view = Ims.view g in
      if Ims.attempt_view ctx view ~ii:start = None && Ims.attempt_view ctx view ~ii <> None
      then Some (l.W.l_name, ctx, g, view, (mii, bus, start, ii))
      else None
  in
  match List.find_map pick b.W.b_loops with
  | Some a -> a
  | None -> failwith "micro: no epicdec loop fails at its starting II"

(* test/litmus/carried.lk moved to directory x4, and its MDC compile *)
let carried () =
  let case = Gen.load (Filename.concat "test" (Filename.concat "litmus" "carried.lk")) in
  let case =
    {
      case with
      Gen.g_mconf = Gen.mconf_with ~icn:"directory" ~clusters:4 case.Gen.g_mconf;
    }
  in
  match
    P.compile ~heuristic:(Diff.heuristic_for case) (Diff.front case) S.Mdc
  with
  | Ok a -> (case.Gen.g_jitter, a)
  | Error e -> failwith ("micro: carried does not schedule: " ^ e)

let simulate ?trace (c : P.compiled) engine =
  let fe = c.P.front in
  Sim.run ~lowered:fe.P.lowered ~graph:c.P.graph ~schedule:c.P.schedule
    ~layout:fe.P.layout ~mode:(Sim.Oracle fe.P.oracle) ?trace ~engine ()

let () =
  let open Bechamel in
  let open Toolkit in
  let nominal = compile M.table2 in
  (* one memory bus: every remote transaction contends for the same grant *)
  let contended =
    compile { M.table2 with M.mem_buses = { M.bus_count = 1; bus_latency = 2 } }
  in
  let nf = nominal.P.front in
  let traced = Trace.create () in
  ignore (simulate ~trace:traced nominal `Wheel);
  let loop, ctx, graph, view, (mii, bus, start, ii) = attempts () in
  let jitter, (c : P.compiled) = carried () in
  let cf = c.P.front in
  let zeros =
    { Sim.ch_jitter = jitter; ch_draw = (fun ~bound:_ -> 0); ch_note_state = None }
  in
  let prepared =
    Sim.prepare ~lowered:cf.P.lowered ~graph:c.P.graph ~schedule:c.P.schedule
      ~layout:cf.P.layout ()
  in
  let noting note = { zeros with Sim.ch_note_state = Some note } in
  let encoding = noting (fun encode -> ignore (Sys.opaque_identity (encode ()))) in
  let middle =
    let notes = ref 0 in
    ignore (Sim.exec prepared ~choices:(noting (fun _ -> incr notes)) ());
    let seen = ref 0 and k = ref None in
    ignore
      (Sim.exec prepared
         ~choices:
           (noting (fun _ ->
                incr seen;
                if !seen = (!notes + 1) / 2 then k := Some (Sim.checkpoint prepared)))
         ());
    Option.get !k
  in
  Printf.printf
    "sched/attempt-*: epicdec/%s, NOBAL-mem, DDGT, PrefClus: MII %d, bus \
     bound %d; II %d (start) fails, II %d (final) succeeds\n"
    loop mii bus start ii;
  let attempt_test name ii =
    Test.make ~name
      (Staged.stage (fun () ->
           ignore (Sys.opaque_identity (Ims.attempt_view ctx view ~ii))))
  in
  let sim_test name art engine =
    Test.make ~name
      (Staged.stage (fun () -> ignore (Sys.opaque_identity (simulate art engine))))
  in
  let tests =
    Test.make_grouped ~name:"micro"
      [
        Test.make_grouped ~name:"sim"
          [
            sim_test "wheel" nominal `Wheel;
            sim_test "reference" nominal `Reference;
          ];
        Test.make_grouped ~name:"bus"
          [
            sim_test "contended-wheel" contended `Wheel;
            sim_test "contended-ref" contended `Reference;
          ];
        Test.make_grouped ~name:"audit"
          [
            Test.make ~name:"replay"
              (Staged.stage (fun () ->
                   ignore (Sys.opaque_identity (Audit.run traced))));
          ];
        Test.make_grouped ~name:"sched"
          [
            attempt_test "attempt-fail" start;
            attempt_test "attempt-ok" ii;
            Test.make ~name:"view"
              (Staged.stage (fun () -> ignore (Sys.opaque_identity (Ims.view graph))));
          ];
        Test.make_grouped ~name:"check"
          [
            Test.make ~name:"replay-fresh"
              (Staged.stage (fun () ->
                   ignore
                     (Sys.opaque_identity
                        (Sim.run ~lowered:cf.P.lowered ~graph:c.P.graph
                           ~schedule:c.P.schedule ~layout:cf.P.layout
                           ~choices:zeros ()))));
            Test.make ~name:"replay-prepared"
              (Staged.stage (fun () ->
                   ignore (Sys.opaque_identity (Sim.exec prepared ~choices:zeros ()))));
            Test.make ~name:"encode-carried"
              (Staged.stage (fun () ->
                   ignore (Sys.opaque_identity (Sim.exec prepared ~choices:encoding ()))));
            Test.make ~name:"resume-carried"
              (Staged.stage (fun () ->
                   ignore
                     (Sys.opaque_identity (Sim.resume prepared middle ~choices:zeros ()))));
            Test.make ~name:"explore-carried"
              (Staged.stage (fun () ->
                   ignore
                     (Sys.opaque_identity
                        (Check.explore ~lowered:cf.P.lowered ~graph:c.P.graph
                           ~schedule:c.P.schedule ~layout:cf.P.layout ~jitter
                           ~expected:Bytes.empty ~certified:false ()))));
          ];
        Test.make_grouped ~name:"verify"
          [
            Test.make ~name:"discharge"
              (Staged.stage (fun () ->
                   ignore
                     (Sys.opaque_identity
                        (Verify.check ~machine:M.table2 ~technique:Verify.Free
                           ~base:nf.P.lowered.Vliw_lower.Lower.graph
                           ~layout:nf.P.layout ~graph:nominal.P.graph
                           ~schedule:nominal.P.schedule ()))));
          ];
      ]
  in
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:Measure.[| run |]
  in
  let instances = Instance.[ monotonic_clock ] in
  let cfg = Benchmark.cfg ~limit:50 ~quota:(Time.second 0.5) () in
  let raw = Benchmark.all cfg instances tests in
  let results =
    List.map (fun instance -> Analyze.all ols instance raw) instances
  in
  let results = Analyze.merge ols instances results in
  Hashtbl.iter
    (fun measure tbl ->
      if measure = Measure.label Instance.monotonic_clock then (
        let rows = Hashtbl.fold (fun name ols acc -> (name, ols) :: acc) tbl [] in
        List.iter
          (fun (name, ols) ->
            match Analyze.OLS.estimates ols with
            | Some [ est ] -> Printf.printf "%-30s %12.0f ns/run\n" name est
            | _ -> Printf.printf "%-30s (no estimate)\n" name)
          (List.sort compare rows)))
    results
