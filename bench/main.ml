(* Reproduction harness: regenerates every table and figure of the paper's
   evaluation (see DESIGN.md's experiment index).

   Usage:
     bench/main.exe                 run everything (t1 t2 fig6 fig7 t3 t4
                                    nobal fig9 t5 hybrid verify ablations)
     bench/main.exe fig6 t3 ...     run a subset
     bench/main.exe --jobs N ...    fan work out over N domains (default:
                                    VLIW_JOBS or the recommended domain
                                    count; 1 = sequential)
     bench/main.exe --json PATH ... also write machine-readable results
                                    (per-experiment wall clock, per-run
                                    cycle/stall-breakdown/comm/coherence
                                    totals, memo hit rate)
     bench/main.exe --audit ...     trace every simulation and cross-check
                                    coherence counters with the replay
                                    auditor (mismatch aborts)
     bench/main.exe --trace-dir DIR also export each simulation as Chrome
                                    trace-event JSON under DIR
     bench/main.exe bechamel        Bechamel timing of each experiment
                                    harness (one Test.make per artifact) *)

module M = Vliw_arch.Machine
module E = Vliw_harness.Experiments
module Memo = Vliw_harness.Memo
module Render = Vliw_harness.Render
module Pool = Vliw_util.Pool
module Json = Vliw_util.Json

(* the fuzz sweep's summary, kept for the --json report when the fuzz
   experiment ran this invocation *)
let fuzz_summary : Vliw_fuzz.Fuzz.summary option ref = ref None

(* ---- compile-service throughput/latency benchmark (opt-in key "serve") ----

   Drives an in-process Vliw_serve.Server with the closed-loop load
   generator: 240 requests over 48 unique specs (12 synthetic kernels x 4
   techniques), so the first pass over the cross product measures cold
   compiles and the remaining passes measure the sharded response cache.
   Each (jobs, clients) level gets a fresh server for deterministic cache
   counters. Results land in the --json report under "serve". *)

let serve_summary : Json.t option ref = ref None

(* ---- small-scope model checking of the litmus suite (key "litmus") ----

   Exhaustively explores every bus/ring grant order and jitter draw of
   each committed test/litmus kernel at its declared configuration
   (DESIGN.md section 13). The table reports the aggregate state-space
   counters per kernel; any refutation or blown budget fails the
   experiment loudly. Results land in the --json report under
   "litmus". *)

let litmus_summary : Json.t option ref = ref None

let litmus_dir () =
  List.find_opt Sys.file_exists
    [
      Filename.concat "test" "litmus";
      Filename.concat ".." (Filename.concat "test" "litmus");
    ]

let litmus_bench () =
  let module Check = Vliw_check.Check in
  let module Gen = Vliw_fuzz.Gen in
  let module Diff = Vliw_fuzz.Diff in
  match litmus_dir () with
  | None -> "litmus: test/litmus not found (run from the repository root)\n"
  | Some dir ->
    let files =
      Sys.readdir dir |> Array.to_list
      |> List.filter (fun f -> Filename.check_suffix f ".lk")
      |> List.sort compare
    in
    let results =
      Pool.map
        (fun file ->
          let case = Gen.load (Filename.concat dir file) in
          (file, Check.run_case case))
        files
    in
    let module T = Vliw_util.Table in
    let t =
      T.create
        ~title:
          (Printf.sprintf
             "Small-scope model checking: %d litmus kernels, all grant \
              orders and jitter draws"
             (List.length files))
        [ ("kernel", T.Left); ("config", T.Left); ("jitter", T.Right);
          ("states", T.Right); ("pruned", T.Right); ("leaves", T.Right);
          ("frontier", T.Right); ("violating", T.Right); ("result", T.Left) ]
    in
    let failures = ref 0 in
    let kernel_json =
      List.map
        (fun (file, (r : Check.case_outcome)) ->
          let outcomes =
            List.filter_map
              (fun (c : Check.checked) ->
                match c.Check.t_status with
                | Ok (_, o) -> Some (c.Check.t_technique, o)
                | Error _ -> None)
              r.Check.co_techniques
          in
          let sum f = List.fold_left (fun a (_, o) -> a + f o) 0 outcomes in
          let high f = List.fold_left (fun a (_, o) -> max a (f o)) 0 outcomes in
          let exhaustive =
            List.for_all (fun (_, o) -> o.Check.k_exhaustive) outcomes
          in
          let result =
            if r.Check.co_failures <> [] then "FAIL"
            else if not exhaustive then "budget"
            else "clean"
          in
          if result <> "clean" then incr failures;
          T.add_row t
            [
              Filename.remove_extension file;
              Printf.sprintf "%s x%d" r.Check.co_case.Gen.g_mconf.Gen.mc_icn
                r.Check.co_case.Gen.g_mconf.Gen.mc_clusters;
              string_of_int r.Check.co_jitter;
              string_of_int (sum (fun o -> o.Check.k_states));
              string_of_int (sum (fun o -> o.Check.k_pruned));
              string_of_int (sum (fun o -> o.Check.k_leaves));
              string_of_int (high (fun o -> o.Check.k_max_frontier));
              string_of_int (sum (fun o -> o.Check.k_violating));
              result;
            ];
          Json.Obj
            [
              ("kernel", Json.String (Filename.remove_extension file));
              ( "config",
                Json.String
                  (Printf.sprintf "%s x%d"
                     r.Check.co_case.Gen.g_mconf.Gen.mc_icn
                     r.Check.co_case.Gen.g_mconf.Gen.mc_clusters) );
              ("jitter", Json.Int r.Check.co_jitter);
              ("states", Json.Int (sum (fun o -> o.Check.k_states)));
              ("pruned", Json.Int (sum (fun o -> o.Check.k_pruned)));
              ("leaves", Json.Int (sum (fun o -> o.Check.k_leaves)));
              ("max_frontier", Json.Int (high (fun o -> o.Check.k_max_frontier)));
              ("violating", Json.Int (sum (fun o -> o.Check.k_violating)));
              ("exhaustive", Json.Bool exhaustive);
              ("clean", Json.Bool (r.Check.co_failures = []));
              ( "techniques",
                Json.Obj
                  (List.map
                     (fun (tech, o) ->
                       (Diff.technique_name tech, Check.outcome_json o))
                     outcomes) );
            ])
        results
    in
    litmus_summary :=
      Some
        (Json.Obj
           [
             ("kernels", Json.Int (List.length files));
             ("failures", Json.Int !failures);
             ("cases", Json.List kernel_json);
           ]);
    let verdict =
      if !failures = 0 then
        "every kernel explored its complete bounded space: 0 refutations"
      else Printf.sprintf "%d kernel(s) FAILED or blew the budget" !failures
    in
    String.concat "\n" [ T.render t; verdict; "" ]

let serve_levels = [ (1, 1); (1, 2); (1, 4); (1, 8); (4, 1); (4, 2); (4, 4); (4, 8) ]

let serve_bench () =
  let module Sv = Vliw_serve in
  let kernels = Sv.Loadgen.synth_kernels 12 in
  let techniques = Vliw_sched.Schedule.techniques in
  let count = 240 in
  let reqs = Sv.Loadgen.requests ~kernels ~techniques ~count () in
  let host_cores = Domain.recommended_domain_count () in
  let run_level ?minor_heap_words ~jobs ~clients () =
    let server = Sv.Server.create ~jobs ~queue_capacity:64 ?minor_heap_words () in
    let r = Sv.Loadgen.drive server ~clients reqs in
    let c = Sv.Server.cache_stats server in
    let qs = Sv.Server.queue_stats server in
    let max_depth =
      Array.fold_left (fun a q -> max a q.Pool.Service.qs_max_depth) 0 qs
    in
    let minors =
      Array.fold_left ( + ) 0 (Sv.Server.minor_collections server)
    in
    Sv.Server.shutdown server;
    (r, c, max_depth, minors)
  in
  let rows =
    List.map
      (fun (jobs, clients) -> (jobs, clients, run_level ~jobs ~clients ()))
      serve_levels
  in
  (* GC effect at jobs=4, clients=4: stock 256 Kword minor heaps versus
     the service's 8 Mword sizing (fewer stop-the-world minor syncs). The
     driver domain is sized alongside the workers — any domain filling
     its minor arena drags every other domain into the sync. *)
  let gc_probe words =
    let saved = (Gc.get ()).Gc.minor_heap_size in
    Gc.set { (Gc.get ()) with Gc.minor_heap_size = words };
    let r = run_level ~minor_heap_words:words ~jobs:4 ~clients:4 () in
    Gc.set { (Gc.get ()) with Gc.minor_heap_size = saved };
    r
  in
  (* one discarded warm-up so both measured probes run against a
     settled major heap *)
  let _warm = gc_probe (256 * 1024) in
  let gc_default = gc_probe (256 * 1024) in
  let gc_tuned = gc_probe Sv.Server.default_minor_heap_words in
  let module T = Vliw_util.Table in
  let t =
    T.create
      ~title:
        (Printf.sprintf
           "Compile service: %d requests, %d unique specs (%d kernels x %d \
            techniques), closed loop"
           count
           (List.length kernels * List.length techniques)
           (List.length kernels) (List.length techniques))
      [ ("jobs", T.Right); ("clients", T.Right); ("req/s", T.Right);
        ("p50 ms", T.Right); ("p99 ms", T.Right); ("hits", T.Right);
        ("coalesced", T.Right); ("misses", T.Right); ("max queue", T.Right);
        ("minor GCs", T.Right) ]
  in
  List.iter
    (fun (jobs, clients, (r, (c : Sv.Cache.stats), max_depth, minors)) ->
      T.add_row t
        [
          string_of_int jobs;
          string_of_int clients;
          Printf.sprintf "%.0f" r.Sv.Loadgen.g_rps;
          Printf.sprintf "%.2f" r.Sv.Loadgen.g_p50_ms;
          Printf.sprintf "%.2f" r.Sv.Loadgen.g_p99_ms;
          string_of_int c.Sv.Cache.c_hits;
          string_of_int c.Sv.Cache.c_coalesced;
          string_of_int c.Sv.Cache.c_misses;
          string_of_int max_depth;
          string_of_int minors;
        ])
    rows;
  let level_json (jobs, clients, (r, (c : Sv.Cache.stats), max_depth, minors)) =
    Json.Obj
      [
        ("jobs", Json.Int jobs);
        ("clients", Json.Int clients);
        ("rps", Json.Float r.Sv.Loadgen.g_rps);
        ("wall_s", Json.Float r.Sv.Loadgen.g_wall_s);
        ("p50_ms", Json.Float r.Sv.Loadgen.g_p50_ms);
        ("p99_ms", Json.Float r.Sv.Loadgen.g_p99_ms);
        ("ok", Json.Int r.Sv.Loadgen.g_ok);
        ("errors", Json.Int r.Sv.Loadgen.g_errors);
        ("retries", Json.Int r.Sv.Loadgen.g_retries);
        ( "cache",
          Json.Obj
            [
              ("hits", Json.Int c.Sv.Cache.c_hits);
              ("coalesced", Json.Int c.Sv.Cache.c_coalesced);
              ("misses", Json.Int c.Sv.Cache.c_misses);
              ("contended", Json.Int c.Sv.Cache.c_contended);
              ("entries", Json.Int c.Sv.Cache.c_entries);
            ] );
        ("max_queue_depth", Json.Int max_depth);
        ("gc_minor_collections", Json.Int minors);
      ]
  in
  let gc_json (r, _, _, minors) words =
    Json.Obj
      [
        ("minor_heap_words", Json.Int words);
        ("wall_s", Json.Float r.Sv.Loadgen.g_wall_s);
        ("minor_collections", Json.Int minors);
      ]
  in
  let ceiling_note =
    Printf.sprintf
      "host has %d core(s): jobs>1 adds domains but not parallel compute \
       beyond the core count, so the jobs=4 speedup is bounded by the host \
       (DESIGN.md section 11)"
      host_cores
  in
  serve_summary :=
    Some
      (Json.Obj
         [
           ("host_cores", Json.Int host_cores);
           ("requests", Json.Int count);
           ("kernels", Json.Int (List.length kernels));
           ("techniques", Json.Int (List.length techniques));
           ( "unique_specs",
             Json.Int (List.length kernels * List.length techniques) );
           ("queue_capacity", Json.Int 64);
           ("levels", Json.List (List.map level_json rows));
           ( "gc",
             Json.Obj
               [
                 ("jobs", Json.Int 4);
                 ("clients", Json.Int 4);
                 ("default", gc_json gc_default (256 * 1024));
                 ( "tuned",
                   gc_json gc_tuned
                     (let module Sv = Vliw_serve in
                      Sv.Server.default_minor_heap_words) );
               ] );
           ("note", Json.String ceiling_note);
         ]);
  let gc_line label (r, _, _, minors) words =
    Printf.sprintf
      "  %-7s minor heap %8d words: %4d minor GCs, %.2fs wall (jobs=4, \
       clients=4)"
      label words minors r.Sv.Loadgen.g_wall_s
  in
  String.concat "\n"
    [
      T.render t;
      "GC tuning:";
      gc_line "stock" gc_default (256 * 1024);
      gc_line "tuned" gc_tuned Sv.Server.default_minor_heap_words;
      "note: " ^ ceiling_note;
      "";
    ]

(* each render thunk takes the process-wide observability configuration
   (from --audit / --trace-dir) explicitly; there is no global to set *)
let experiments : (string * string * (Vliw_harness.Runner.obs -> string)) list =
  [
    ("t1", "Table 1 - benchmarks and inputs", fun _ -> Render.table1 ());
    ("t2", "Table 2 - configuration parameters", fun _ -> Render.table2 M.table2);
    ( "fig6",
      "Figure 6 - memory access classification (PrefClus)",
      fun obs -> Render.fig6 (E.fig6 ~obs ()) );
    ( "fig7",
      "Figure 7 - execution time",
      fun obs ->
        Render.fig7 ~title:"Figure 7. Execution cycles"
          ~baseline_label:"free MinComs" (E.fig7 ~obs ()) );
    ( "t3",
      "Table 3 - analyzing the MDC solution",
      fun obs -> Render.table3 (E.table3 ~obs ()) );
    ( "t4",
      "Table 4 - analyzing the DDGT solution",
      fun obs -> Render.table4 (E.table4 ~obs ()) );
    ( "nobal",
      "Section 4.2 - unbalanced bus configurations",
      fun obs -> Render.nobal (E.nobal ~obs ()) );
    ( "fig9",
      "Figure 9 - execution time with Attraction Buffers",
      fun obs ->
        Render.fig7 ~title:"Figure 9. Execution cycles with 16-entry 2-way ABs"
          ~baseline_label:"free MinComs with ABs" (E.fig9 ~obs ()) );
    ( "t5",
      "Table 5 - code specialization",
      fun obs -> Render.table5 (E.table5 ~obs ()) );
    ( "hybrid",
      "Ablation (Section 6) - per-loop hybrid MDC/DDGT",
      fun obs -> Render.hybrid (Vliw_harness.Ablations.hybrid ~obs ()) );
    ( "scale",
      "N-cluster scaling - shared bus vs directory interconnect",
      fun obs -> Render.scale (E.scale ~obs ()) );
    ( "protocol",
      "Coherence protocols - install/flush vs MSI (bus) vs MESI (directory)",
      fun obs -> Render.protocol (E.protocol ~obs ()) );
    ( "verify",
      "Static coherence verification coverage",
      fun obs -> Render.verification (E.verification ~obs ()) );
    ( "fuzz",
      "Differential coherence fuzzing (bounded sweep)",
      fun _ ->
        let s = Vliw_fuzz.Fuzz.run (Vliw_fuzz.Fuzz.config ()) in
        fuzz_summary := Some s;
        Render.fuzz s );
    ( "litmus",
      "Small-scope model checking over the committed litmus suite",
      fun _ -> litmus_bench () );
    ( "serve",
      "Compile service - throughput/latency under the sharded cache \
       (opt-in: not part of the default sweep)",
      fun _ -> serve_bench () );
    ( "ablations",
      "Ablations - latency policy, AB capacity, bus count, interleaving",
      fun obs ->
        let module A = Vliw_harness.Ablations in
        String.concat "\n"
          [
            Render.latency_policies (A.latency_policies ~obs ());
            Render.ab_sizes (A.ab_sizes ~obs ());
            Render.bus_sweep (A.bus_sweep ~obs ());
            Render.specialization (A.specialization ~obs ());
            Render.unrolling (A.unrolling ~obs ());
            Render.reg_pressure (A.reg_pressure ~obs ());
            Render.orderings (A.orderings ~obs ());
            Render.interleave_sweep (A.interleave_sweep ~obs ());
          ] );
  ]

let run_one obs (key, title, render) =
  Printf.printf "==================== %s: %s ====================\n%!" key title;
  let t0 = Unix.gettimeofday () in
  print_string (render obs);
  let dt = Unix.gettimeofday () -. t0 in
  print_newline ();
  (key, title, dt)

(* ---- machine-readable results (--json PATH) ---- *)

let json_report ~jobs ~total_wall timings =
  let runs = List.map Vliw_harness.Selfcheck.run_json (E.cached_runs ()) in
  let memo = Memo.counters () in
  let stages = Memo.stage_counters () in
  let contended =
    Array.fold_left
      (fun a s -> a + s.Memo.sh_contended)
      0 (Memo.shard_stats ())
  in
  Json.Obj
    [
      ("schema", Json.String "vliw-harness/8");
      ("jobs", Json.Int jobs);
      ("total_wall_s", Json.Float total_wall);
      ( "experiments",
        Json.List
          (List.map
             (fun (key, title, dt) ->
               Json.Obj
                 [
                   ("key", Json.String key);
                   ("title", Json.String title);
                   ("wall_s", Json.Float dt);
                 ])
             timings) );
      ( "memo",
        Json.Obj
          [
            ("hits", Json.Int memo.Memo.hits);
            ("misses", Json.Int memo.Memo.misses);
            ("hit_rate", Json.Float (Memo.hit_rate ()));
            ("parse_hits", Json.Int stages.Memo.parse_hits);
            ("parse_misses", Json.Int stages.Memo.parse_misses);
            ("stage_hits", Json.Int stages.Memo.stage_hits);
            ("stage_misses", Json.Int stages.Memo.stage_misses);
            ("shards", Json.Int Memo.shard_count);
            ("contended", Json.Int contended);
          ] );
      ( "serve",
        match !serve_summary with Some s -> s | None -> Json.Null );
      ("runs", Json.List runs);
      ( "fuzz",
        match !fuzz_summary with
        | Some s -> Vliw_fuzz.Fuzz.summary_json s
        | None -> Json.Null );
      ( "litmus",
        match !litmus_summary with Some s -> s | None -> Json.Null );
    ]

let run_bechamel () =
  let open Bechamel in
  let open Toolkit in
  let tests =
    Test.make_grouped ~name:"experiments"
      (List.map
         (fun (key, _, render) ->
           Test.make ~name:key
             (Staged.stage (fun () ->
                  E.clear_cache ();
                  ignore
                    (Sys.opaque_identity
                       (render Vliw_harness.Runner.obs_none)))))
         experiments)
  in
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:Measure.[| run |]
  in
  let instances = Instance.[ monotonic_clock ] in
  let cfg = Benchmark.cfg ~limit:20 ~quota:(Time.second 1.0) () in
  let raw = Benchmark.all cfg instances tests in
  let results =
    List.map (fun instance -> Analyze.all ols instance raw) instances
  in
  let results = Analyze.merge ols instances results in
  Hashtbl.iter
    (fun measure tbl ->
      if measure = Measure.label Instance.monotonic_clock then
        Hashtbl.iter
          (fun name ols ->
            match Analyze.OLS.estimates ols with
            | Some [ est ] -> Printf.printf "%-30s %12.0f ns/run\n" name est
            | _ -> Printf.printf "%-30s (no estimate)\n" name)
          tbl)
    results

(* ---- counter-drift self-check (--selfcheck) ----

   Runs every experiment that records runs (the sweep minus the static
   t1/t2 tables and fuzz/litmus, which report in their own JSON sections)
   and compares every non-timing counter of the resulting runs against
   the committed baseline report. Exits 1 on
   drift; with --selfcheck-out DIR the diff report lands in
   DIR/selfcheck-diff.txt and every simulation's Chrome trace in
   DIR/traces (the CI artifacts). *)

let selfcheck_keys =
  [ "fig6"; "fig7"; "t3"; "t4"; "nobal"; "fig9"; "t5"; "hybrid"; "scale";
    "protocol"; "verify"; "ablations" ]
let default_baseline = "BENCH_harness.json"

let run_selfcheck ~baseline_path ~out_dir =
  let baseline =
    try Json.of_file baseline_path
    with Sys_error e | Json.Parse_error e ->
      Printf.eprintf "selfcheck: cannot read baseline %s: %s\n" baseline_path e;
      exit 2
  in
  let current =
    List.map Vliw_harness.Selfcheck.run_json (E.cached_runs ())
  in
  let drifts = Vliw_harness.Selfcheck.check ~baseline ~current in
  let report = Vliw_harness.Selfcheck.render drifts in
  print_string report;
  Option.iter
    (fun dir ->
      let path = Filename.concat dir "selfcheck-diff.txt" in
      let oc = open_out path in
      Fun.protect
        ~finally:(fun () -> close_out oc)
        (fun () -> output_string oc report);
      Printf.eprintf "wrote %s\n%!" path)
    out_dir;
  if drifts <> [] then exit 1

let usage () =
  Printf.eprintf
    "usage: main.exe [--jobs N] [--json PATH] [--audit] [--trace-dir DIR]\n\
    \       [--selfcheck] [--selfcheck-out DIR] [--baseline PATH] \
     [EXPERIMENT...]\n\
     known experiments: %s, all, bechamel\n\
     (\"serve\" is opt-in and excluded from \"all\": it benchmarks the\n\
     compile service rather than the paper reproduction)\n\
     --selfcheck runs every experiment that records runs:\n\
     %s\n\
     diffs all non-timing counters against the committed baseline\n\
     and exits 1 on drift\n"
    (String.concat " " (List.map (fun (k, _, _) -> k) experiments))
    (String.concat " " selfcheck_keys);
  exit 2

let () =
  let args = Array.to_list Sys.argv |> List.tl in
  let rec parse jobs json audit tdir sc scout baseline keys = function
    | [] -> (jobs, json, audit, tdir, sc, scout, baseline, List.rev keys)
    | "--jobs" :: n :: rest -> (
      match int_of_string_opt n with
      | Some n when n >= 1 -> parse (Some n) json audit tdir sc scout baseline keys rest
      | _ ->
        Printf.eprintf "--jobs expects a positive integer, got %S\n" n;
        exit 2)
    | "--json" :: path :: rest ->
      parse jobs (Some path) audit tdir sc scout baseline keys rest
    | "--audit" :: rest -> parse jobs json true tdir sc scout baseline keys rest
    | "--trace-dir" :: dir :: rest ->
      parse jobs json audit (Some dir) sc scout baseline keys rest
    | "--selfcheck" :: rest -> parse jobs json audit tdir true scout baseline keys rest
    | "--selfcheck-out" :: dir :: rest ->
      parse jobs json audit tdir sc (Some dir) baseline keys rest
    | "--baseline" :: path :: rest ->
      parse jobs json audit tdir sc scout (Some path) keys rest
    | ("--jobs" | "--json" | "--trace-dir" | "--selfcheck-out" | "--baseline")
      :: []
    | "--help" :: _ ->
      usage ()
    | key :: rest -> parse jobs json audit tdir sc scout baseline (key :: keys) rest
  in
  let jobs, json, audit, tdir, selfcheck, scout, baseline, keys =
    parse None None false None false None None [] args
  in
  Option.iter Pool.set_jobs jobs;
  let mkdir_p dir = if not (Sys.file_exists dir) then Sys.mkdir dir 0o755 in
  Option.iter mkdir_p tdir;
  (* the self-check exports traces under its artifact directory so a CI
     failure ships the evidence alongside the diff *)
  let tdir =
    match (selfcheck, scout, tdir) with
    | true, Some dir, None ->
      mkdir_p dir;
      let traces = Filename.concat dir "traces" in
      mkdir_p traces;
      Some traces
    | _ -> tdir
  in
  let obs =
    { Vliw_harness.Runner.obs_audit = audit; obs_trace_dir = tdir }
  in
  match keys with
  | [ "bechamel" ] -> run_bechamel ()
  | keys ->
    let keys = if selfcheck && keys = [] then selfcheck_keys else keys in
    let selected =
      match keys with
      (* "serve" is opt-in: it measures the compile service, not the
         paper reproduction, so the default sweep's wall time stays put *)
      | [] | [ "all" ] -> List.filter (fun (k, _, _) -> k <> "serve") experiments
      | keys ->
        List.map
          (fun key ->
            match List.find_opt (fun (k, _, _) -> k = key) experiments with
            | Some e -> e
            | None ->
              Printf.eprintf "unknown experiment %S " key;
              usage ())
          keys
    in
    let t0 = Unix.gettimeofday () in
    let timings = List.map (run_one obs) selected in
    let total_wall = Unix.gettimeofday () -. t0 in
    Option.iter
      (fun path ->
        let oc = open_out path in
        Fun.protect
          ~finally:(fun () -> close_out oc)
          (fun () ->
            Json.to_channel oc
              (json_report ~jobs:(Pool.jobs ()) ~total_wall timings));
        Printf.eprintf "wrote %s\n%!" path)
      json;
    if selfcheck then
      run_selfcheck
        ~baseline_path:(Option.value baseline ~default:default_baseline)
        ~out_dir:scout
