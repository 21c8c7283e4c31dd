(* Engine equivalence: the event-wheel simulator (`Wheel, the default) and
   the pre-overhaul per-cycle engine (`Reference) must produce identical
   stats, final memory images and trace event streams — over hundreds of
   fuzzer-generated cases, at several jitter seeds, in both data modes,
   warm and cold. Both engines share one memory system, so the sweep's
   results are also pinned to digests recorded before it was shared. Also
   pins the wheel engine's allocation behaviour: with tracing disabled it
   must allocate far less than the reference. *)

module Gen = Vliw_fuzz.Gen
module Ir = Vliw_ir
module M = Vliw_arch.Machine
module G = Vliw_ddg.Graph
module S = Vliw_sched.Schedule
module Driver = Vliw_sched.Driver
module Hybrid = Vliw_sched.Hybrid
module Chains = Vliw_core.Chains
module Lower = Vliw_lower.Lower
module Profile = Vliw_profile.Profile
module Sim = Vliw_sim.Sim
module Trace = Vliw_trace.Trace
module Prng = Vliw_util.Prng
module W = Vliw_workloads.Workloads

(* one compiled (graph, schedule, lowered, layout, kernel) per case; the
   technique rotates with the index so the sweep exercises plain, MDC and
   DDGT (replicated/fake-node) graphs *)
let compile (c : Gen.case) =
  let k = c.Gen.g_kernel in
  let machine = Gen.machine c.Gen.g_mconf in
  let layout = Ir.Layout.make k in
  let low = Lower.lower k in
  let prof = Profile.run ~machine ~layout k in
  let heuristic =
    if c.Gen.g_index mod 2 = 0 then S.Pref_clus else S.Min_coms
  in
  let technique = List.nth [ S.Free; S.Mdc; S.Ddgt ] (c.Gen.g_index mod 3) in
  match
    Hybrid.compile ~machine ~heuristic ~pref_for:(Profile.node_pref prof)
      ~trip:k.Ir.Ast.k_trip technique low.Lower.graph
  with
  | Ok cc -> Some (k, layout, low, cc.Hybrid.c_graph, cc.Hybrid.c_schedule)
  | Error _ -> None

let check_stats_equal tag (a : Sim.stats) (b : Sim.stats) =
  let ck name f =
    Alcotest.(check int) (Printf.sprintf "%s: %s" tag name) (f a) (f b)
  in
  ck "total_cycles" (fun s -> s.Sim.total_cycles);
  ck "compute_cycles" (fun s -> s.Sim.compute_cycles);
  ck "stall_cycles" (fun s -> s.Sim.stall_cycles);
  ck "stall_load_cycles" (fun s -> s.Sim.stall_load_cycles);
  ck "stall_copy_cycles" (fun s -> s.Sim.stall_copy_cycles);
  ck "stall_bus_cycles" (fun s -> s.Sim.stall_bus_cycles);
  ck "stall_drain_cycles" (fun s -> s.Sim.stall_drain_cycles);
  ck "local_hits" (fun s -> s.Sim.local_hits);
  ck "remote_hits" (fun s -> s.Sim.remote_hits);
  ck "local_misses" (fun s -> s.Sim.local_misses);
  ck "remote_misses" (fun s -> s.Sim.remote_misses);
  ck "combined" (fun s -> s.Sim.combined);
  ck "ab_hits" (fun s -> s.Sim.ab_hits);
  ck "ab_flushed" (fun s -> s.Sim.ab_flushed);
  ck "violations" (fun s -> s.Sim.violations);
  ck "nullified" (fun s -> s.Sim.nullified);
  ck "comm_ops" (fun s -> s.Sim.comm_ops);
  Alcotest.(check bool)
    (tag ^ ": memory images equal")
    true
    (Bytes.equal a.Sim.memory b.Sim.memory)

let check_traces_equal tag wa wb =
  let ea = Trace.events wa and eb = Trace.events wb in
  Alcotest.(check int) (tag ^ ": trace length") (Array.length ea)
    (Array.length eb);
  Array.iteri
    (fun i (a : Trace.event) ->
      if a <> eb.(i) then
        Alcotest.failf "%s: trace events diverge at %d" tag i)
    ea

(* ----- frozen memory semantics -----
   Both engines run one shared memory-system module, which also drives
   the interconnect, so comparing them cannot see a change inside it.
   engine_digests.txt freezes the sweep's results as they were before
   that module existed: one MD5 per case over its three jitter runs, each
   run contributing every stats field, the final memory image and every
   trace event in emission order. *)

let add_stats buf (s : Sim.stats) =
  List.iter
    (fun v -> Printf.bprintf buf "%d," v)
    [
      s.total_cycles; s.compute_cycles; s.stall_cycles; s.stall_load_cycles;
      s.stall_copy_cycles; s.stall_bus_cycles; s.stall_drain_cycles;
      s.local_hits; s.remote_hits; s.local_misses; s.remote_misses;
      s.combined; s.ab_hits; s.ab_flushed; s.violations; s.nullified;
      s.comm_ops; s.dir_lookups; s.dir_invalidates; s.dir_writebacks;
      s.packet_hops; s.prot_invalidations; s.prot_upgrades;
      s.prot_exclusive_hits;
    ];
  Buffer.add_bytes buf s.memory;
  Buffer.add_char buf '\n'

let add_event buf (e : Trace.event) =
  let module C = Vliw_coherence.Coherence in
  let b v = if v then 1 else 0 in
  let tag, fields =
    match e.ev_payload with
    | Meta { clusters; mem_buses; msize; ii; vspan; trip } ->
      ("meta", [ clusters; mem_buses; msize; ii; vspan; trip ])
    | Issue { vcycle; ops; copies } -> ("issue", [ vcycle; ops; copies ])
    | Stall_begin { vcycle; cause } ->
      ("stall_begin " ^ Trace.stall_cause_name cause, [ vcycle ])
    | Stall_end { vcycle; cycles } -> ("stall_end", [ vcycle; cycles ])
    | Bus_request { txn; cluster } -> ("bus_request", [ txn; cluster ])
    | Bus_grant { txn; bus; wait; lat } -> ("bus_grant", [ txn; bus; wait; lat ])
    | Bus_transfer { txn; bus } -> ("bus_transfer", [ txn; bus ])
    | Mod_service { cluster; seq; addr; size; store; local; hit } ->
      ("mod_service", [ cluster; seq; addr; size; b store; b local; b hit ])
    | Mshr_alloc { cluster; subblock } -> ("mshr_alloc", [ cluster; subblock ])
    | Mshr_combine { cluster; subblock; seq } ->
      ("mshr_combine", [ cluster; subblock; seq ])
    | Mshr_fill { cluster; subblock; waiters } ->
      ("mshr_fill", [ cluster; subblock; waiters ])
    | Apply { seq; addr; size; store } -> ("apply", [ seq; addr; size; b store ])
    | Ab_hit { cluster; seq; addr; size; sync } ->
      ("ab_hit", [ cluster; seq; addr; size; sync ])
    | Ab_update { cluster; addr; size; seq } ->
      ("ab_update", [ cluster; addr; size; seq ])
    | Ab_install { cluster; subblock; sync } ->
      ("ab_install", [ cluster; subblock; sync ])
    | Ab_flush { cluster; entries } -> ("ab_flush", [ cluster; entries ])
    | Nullify { cluster; site; iter } -> ("nullify", [ cluster; site; iter ])
    | Packet_hop { txn; from_node; to_node } ->
      ("packet_hop", [ txn; from_node; to_node ])
    | Dir_lookup { cluster; subblock; store; sharers } ->
      ("dir_lookup", [ cluster; subblock; b store; sharers ])
    | Dir_invalidate { cluster; subblock; written } ->
      ("dir_invalidate", [ cluster; subblock; b written ])
    | Dir_writeback { cluster; subblock } -> ("dir_writeback", [ cluster; subblock ])
    | Prot_transition { cluster; subblock; from_state; to_state; cause } ->
      ( Printf.sprintf "prot %s %s %s" (C.state_name from_state)
          (C.state_name to_state) (C.cause_name cause),
        [ cluster; subblock ] )
    | Choice { index; bound; chosen } -> ("choice", [ index; bound; chosen ])
  in
  Printf.bprintf buf "%d %d %d %s" e.ev_seq e.ev_cycle e.ev_cluster tag;
  List.iter (Printf.bprintf buf " %d") fields;
  Buffer.add_char buf '\n'

(* the MD5 of runs, each given as its stats and trace sink *)
let runs_digest runs =
  let buf = Buffer.create 4096 in
  List.iter
    (fun (stats, sink) ->
      add_stats buf stats;
      Trace.iter sink (add_event buf))
    runs;
  Digest.to_hex (Digest.string (Buffer.contents buf))

(* run both engines under identical conditions and compare everything;
   with [digest], also hold each engine's run to it *)
let diff_engines tag ?mode ?jseed ?warm ?digest (k, layout, low, graph, schedule) =
  let jitter_of () =
    match jseed with
    | None -> None
    | Some s -> Some (Prng.derive_named (Prng.create s) "engines", 3)
  in
  let mode =
    match mode with
    | Some m -> Some m
    | None -> None
  in
  let run engine =
    let sink = Trace.create () in
    let stats =
      Sim.run ~lowered:low ~graph ~schedule ~layout ?mode
        ?jitter:(jitter_of ()) ?warm ~trace:sink ~engine ()
    in
    (stats, sink)
  in
  ignore k;
  let sw, tw = run `Wheel in
  let sr, tr = run `Reference in
  check_stats_equal tag sw sr;
  check_traces_equal tag tw tr;
  Option.iter
    (fun d ->
      List.iter
        (fun (name, run) ->
          Alcotest.(check string)
            (Printf.sprintf "%s: frozen digest on the %s engine" tag name)
            d (runs_digest [ run ]))
        [ ("wheel", (sw, tw)); ("reference", (sr, tr)) ])
    digest

let ncases =
  try int_of_string (Sys.getenv "VLIW_ENGINE_CASES") with Not_found -> 300

(* the digest of one case's three sweep runs on [engine], or None when the
   case does not compile *)
let case_digest engine i =
  match compile (Gen.generate ~seed:1 ~budget:24 i) with
  | None -> None
  | Some (_, layout, low, graph, schedule) ->
    Some
      (runs_digest
         (List.map
            (fun jseed ->
              let sink = Trace.create () in
              let jitter =
                Option.map
                  (fun s -> (Prng.derive_named (Prng.create s) "engines", 3))
                  jseed
              in
              ( Sim.run ~lowered:low ~graph ~schedule ~layout ?jitter ~trace:sink
                  ~engine (),
                sink ))
            [ None; Some 7; Some 23 ]))

let golden_digests () =
  let ic = open_in "engine_digests.txt" in
  let rec read acc =
    match input_line ic with
    | line -> read (Scanf.sscanf line "case %d %s" (fun i d -> (i, d)) :: acc)
    | exception End_of_file ->
      close_in ic;
      List.rev acc
  in
  read []

let test_golden_digests () =
  let golden = golden_digests () in
  Alcotest.(check int) "one digest per sweep case" 300 (List.length golden);
  List.iter
    (fun (i, expected) ->
      if i < ncases then
        List.iter
          (fun (engine, name) ->
            match case_digest engine i with
            | None -> Alcotest.failf "case %d no longer compiles" i
            | Some d ->
              Alcotest.(check string)
                (Printf.sprintf "case %d on the %s engine" i name)
                expected d)
          [ (`Wheel, "wheel"); (`Reference, "reference") ])
    golden

let test_fuzz_sweep () =
  let compiled = ref 0 in
  for i = 0 to ncases - 1 do
    let c = Gen.generate ~seed:1 ~budget:24 i in
    match compile c with
    | None -> ()
    | Some art ->
      incr compiled;
      let tag j = Printf.sprintf "case %d jitter %s" i j in
      (* nominal and two jitter seeds *)
      diff_engines (tag "none") art;
      diff_engines (tag "7") ~jseed:7 art;
      diff_engines (tag "23") ~jseed:23 art
  done;
  if !compiled < ncases / 2 then
    Alcotest.failf "only %d/%d cases compiled — sweep too weak" !compiled ncases

(* figure workloads under the harness's own modes: oracle, warm, jittered *)
let test_workloads_oracle_warm () =
  List.iter
    (fun (b : W.benchmark) ->
      List.iter
        (fun (l : W.loop) ->
          let k = W.parse_loop l ~seed:b.W.b_exec_seed in
          let machine = M.table2 in
          let layout = Ir.Layout.make k in
          let low = Lower.lower k in
          let prof = Profile.run ~machine ~layout k in
          let pref = Profile.node_pref prof low.Lower.graph in
          let constraints = Chains.prefclus low.Lower.graph ~pref in
          match
            Driver.run
              (Driver.request ~heuristic:S.Pref_clus ~constraints ~pref machine)
              low.Lower.graph
          with
          | Error e ->
            Alcotest.failf "%s/%s does not schedule: %s" b.W.b_name l.W.l_name e
          | Ok schedule ->
            let oracle = Ir.Interp.run ~layout k in
            diff_engines
              (Printf.sprintf "%s/%s oracle+warm" b.W.b_name l.W.l_name)
              ~mode:(Sim.Oracle oracle) ~warm:true ~jseed:11
              (k, layout, low, low.Lower.graph, schedule))
        b.W.b_loops)
    [ List.hd W.figures ]

(* the shared-bus engine was extracted into lib/interconnect; these
   constants were pinned from the pre-extraction tree (epicdec, Table 2,
   PrefClus) and every non-timing counter must still match exactly *)
let test_bus_extraction_regression () =
  let module R = Vliw_harness.Runner in
  let bench = W.find "epicdec" in
  List.iter
    (fun (tech, name, cycles, compute, stall, stall_bus, comm, viol, null, verified) ->
      let r = R.run_bench ~machine:M.table2 tech S.Pref_clus bench in
      let ckf field expected got =
        Alcotest.(check (float 0.0))
          (Printf.sprintf "%s %s" name field)
          expected got
      in
      ckf "cycles" cycles r.R.br_cycles;
      ckf "compute" compute r.R.br_compute;
      ckf "stall" stall r.R.br_stall;
      ckf "stall_bus" stall_bus r.R.br_stall_bus;
      ckf "comm" comm r.R.br_comm;
      let ck field expected f =
        Alcotest.(check int) (name ^ " " ^ field) expected (R.total f r)
      in
      ck "violations" viol (fun s -> s.Sim.violations);
      ck "nullified" null (fun s -> s.Sim.nullified);
      Alcotest.(check int) (name ^ " verified") verified (R.verified r);
      (* the bus backend must not report directory traffic *)
      ck "hops" 0 (fun s -> s.Sim.packet_hops);
      ck "lookups" 0 (fun s -> s.Sim.dir_lookups))
    [
      (R.Mdc, "mdc", 22141., 9829., 12312., 9408., 7808., 0, 0, 3);
      (R.Ddgt, "ddgt", 18056., 10868., 7188., 5312., 11008., 0, 1152, 3);
      (R.Hybrid, "hybrid", 19235., 10127., 9108., 6848., 8320., 0, 384, 3);
      (R.Free, "free", 18794., 9044., 9750., 6784., 8320., 0, 0, 2);
    ]

(* deterministic engine-parity spot checks on the directory backend at
   scaled cluster counts (the fuzz sweep also samples these, but this one
   fails with a named configuration rather than a case index). Both
   engines send and deliver every leg through the one memory system, so
   parity cannot see a change to the ring's transport: each run is also
   held to its digest, recorded before the engines shared the transport
   (the sweep behind engine_digests.txt draws no 32-cluster machine). *)
let directory_digests =
  [
    (4, "00f6494b058a601d9dce72ad6c2cae19");
    (8, "f7260c173d1797dc17e2e1cfa5c598c1");
    (16, "31166f29877a1015bf53b069a9f4e04c");
    (32, "249b2cc9ebe8888ed3b534a9eefdbb08");
  ]

let test_directory_parity () =
  List.iter
    (fun (n, digest) ->
      let machine =
        M.with_attraction
          (M.with_interconnect (M.scale_clusters M.table2 n) M.Directory)
          (Some M.default_attraction)
      in
      let b = List.hd W.figures in
      let l = List.hd b.W.b_loops in
      let k = W.parse_loop l ~seed:b.W.b_exec_seed in
      let layout = Ir.Layout.make k in
      let low = Lower.lower k in
      let prof = Profile.run ~machine ~layout k in
      let pref = Profile.node_pref prof low.Lower.graph in
      let constraints = Chains.prefclus low.Lower.graph ~pref in
      match
        Driver.run
          (Driver.request ~heuristic:S.Pref_clus ~constraints ~pref machine)
          low.Lower.graph
      with
      | Error e -> Alcotest.failf "%d-cluster directory: no schedule: %s" n e
      | Ok schedule ->
        let oracle = Ir.Interp.run ~layout k in
        diff_engines
          (Printf.sprintf "directory %d clusters" n)
          ~mode:(Sim.Oracle oracle) ~warm:true ~jseed:5 ~digest
          (k, layout, low, low.Lower.graph, schedule))
    directory_digests

(* the wheel engine's traced-off hot path must stay allocation-light:
   compare minor-heap words against the reference engine on an identical
   sim — the closure calendar and tuple-keyed maps cost the reference an
   order of magnitude more *)
let test_allocation_budget () =
  let b = List.hd W.figures in
  let l = List.hd b.W.b_loops in
  let k = W.parse_loop l ~seed:b.W.b_exec_seed in
  let machine = M.table2 in
  let layout = Ir.Layout.make k in
  let low = Lower.lower k in
  let prof = Profile.run ~machine ~layout k in
  let pref = Profile.node_pref prof low.Lower.graph in
  let constraints = Chains.prefclus low.Lower.graph ~pref in
  match
    Driver.run
      (Driver.request ~heuristic:S.Pref_clus ~constraints ~pref machine)
      low.Lower.graph
  with
  | Error e -> Alcotest.failf "%s does not schedule: %s" l.W.l_name e
  | Ok schedule ->
    let words engine =
      let run () =
        ignore
          (Sim.run ~lowered:low ~graph:low.Lower.graph ~schedule ~layout
             ~engine ())
      in
      run () (* warm up so one-time lazies don't skew the measurement *);
      let before = Gc.minor_words () in
      run ();
      Gc.minor_words () -. before
    in
    let wheel = words `Wheel and reference = words `Reference in
    if wheel > reference /. 4.0 then
      Alcotest.failf
        "wheel engine allocates too much: %.0f minor words vs reference %.0f"
        wheel reference

(* ----- a prepared engine reused across runs -----
   Sim.exec resets the engine in place; every completed run on a reused
   engine must equal a fresh Sim.run byte for byte, whatever ran on it
   before — including a run a chooser abandoned partway — and so must
   every canonical state key it notes. *)

exception Abandon

(* draws 1 twice, then abandons the run at its third draw *)
let abandoning () =
  let n = ref 0 in
  {
    Sim.ch_jitter = 1;
    ch_note_state = None;
    ch_draw =
      (fun ~bound:_ ->
        incr n;
        if !n > 2 then raise Abandon;
        1);
  }

let stats_string s =
  let buf = Buffer.create 256 in
  add_stats buf s;
  Buffer.contents buf

(* a run under alternating draws that encodes the state at its first 16
   notes: its stats and those keys in note order *)
let noted run =
  let keys = ref [] and notes = ref 0 and n = ref 0 in
  let st =
    run
      {
        Sim.ch_jitter = 1;
        ch_note_state =
          Some
            (fun encode ->
              incr notes;
              if !notes <= 16 then keys := encode () :: !keys);
        ch_draw =
          (fun ~bound:_ ->
            incr n;
            !n land 1);
      }
  in
  (stats_string st, List.rev !keys)

let test_prepared_reuse () =
  let abandoned = ref 0 and cases = ref 0 in
  for i = 0 to 99 do
    match compile (Gen.generate ~seed:1 ~budget:30 i) with
    | None -> ()
    | Some (_, layout, low, graph, schedule) ->
      incr cases;
      let engine = Sim.prepare ~lowered:low ~graph ~schedule ~layout () in
      let reused ~jitter ~choices ~trace =
        Sim.exec engine ?jitter ?choices ?trace ()
      and fresh ~jitter ~choices ~trace =
        Sim.run ~lowered:low ~graph ~schedule ~layout ?jitter ?choices ?trace ()
      in
      let same tag ?(traced = false) ?jseed ?(abandon = false) () =
        let tag = Printf.sprintf "case %d %s" i tag in
        (* every run gets its own jitter stream, chooser and sink *)
        let go run =
          let trace = if traced then Some (Trace.create ()) else None in
          let jitter =
            Option.map
              (fun s -> (Prng.derive_named (Prng.create s) "engines", 3))
              jseed
          in
          let choices = if abandon then Some (abandoning ()) else None in
          (run ~jitter ~choices ~trace, trace)
        in
        match go reused with
        | exception Abandon -> incr abandoned
        | r, tr ->
          let f, tf = go fresh in
          Alcotest.(check string) (tag ^ ": stats and memory") (stats_string f)
            (stats_string r);
          Option.iter (fun tr -> check_traces_equal tag tr (Option.get tf)) tr
      in
      same "nominal" ();
      same "jitter 7" ~jseed:7 ();
      same "jitter 23" ~jseed:23 ();
      same "jitter 41" ~jseed:41 ();
      same "traced" ~traced:true ~jseed:7 ();
      same "abandoned" ~abandon:true ();
      (let run r choices = r ~jitter:None ~choices:(Some choices) ~trace:None in
       let fs, fk = noted (run fresh) and rs, rk = noted (run reused) in
       Alcotest.(check string)
         (Printf.sprintf "case %d noted: stats and memory" i)
         fs rs;
       Alcotest.(check int)
         (Printf.sprintf "case %d noted: keys" i)
         (List.length fk) (List.length rk);
       List.iteri
         (fun n (f, r) ->
           if f <> r then Alcotest.failf "case %d noted: state key %d differs" i n)
         (List.combine fk rk));
      same "nominal again" ~traced:true ()
  done;
  if !cases < 50 || !abandoned < !cases / 2 then
    Alcotest.failf "sweep too weak: %d cases compiled, %d runs abandoned" !cases
      !abandoned

let litmus_dir =
  if Sys.file_exists "litmus" then "litmus" else Filename.concat "test" "litmus"

(* ----- a run resumed from a checkpoint -----
   Sim.resume continues a run from any note's checkpoint. Over an
   alternating-draw run, a checkpoint taken at each note and resumed
   under the complementary draws must give what a run from cycle 0 gives
   with the alternating draws up to that cycle and the complementary ones
   after it: every stats field, the memory and the state keys noted after
   the checkpoint's cycle. On the litmus kernels every later key is
   compared; on the fuzz cases, whose runs note up to ~330 times, the
   first 4 (a fault in what a checkpoint holds shows in the first key
   after it; the final stats and memory cover the rest of the run). *)

(* draw [i]: alternating before draw [from], complementary from it on *)
let switched ~from i = if i < from then i land 1 else 1 - (i land 1)

(* a chooser drawing [switched ~from] from draw [start] on, recording the
   keys of at most [keys] notes after the first [skip] *)
let switching ~from ~start ~skip ~keys:limit =
  let n = ref start and notes = ref 0 and keys = ref [] in
  ( {
      Sim.ch_jitter = 1;
      ch_draw =
        (fun ~bound:_ ->
          let v = switched ~from !n in
          incr n;
          v);
      ch_note_state =
        Some
          (fun encode ->
            incr notes;
            if !notes > skip && !notes - skip <= limit then keys := encode () :: !keys);
    },
    keys )

(* returns the number of checkpoints resumed *)
let check_resumes tag ~keys ~lowered ~graph ~schedule ~layout =
  let engine = Sim.prepare ~lowered ~graph ~schedule ~layout () in
  let taken = ref [] and n = ref 0 in
  ignore
    (Sim.exec engine
       ~choices:
         {
           Sim.ch_jitter = 1;
           ch_draw =
             (fun ~bound:_ ->
               let v = !n land 1 in
               incr n;
               v);
           ch_note_state = Some (fun _ -> taken := (Sim.checkpoint engine, !n) :: !taken);
         }
       ());
  List.iteri
    (fun m (k, from) ->
      let choices, resumed_keys = switching ~from ~start:from ~skip:0 ~keys in
      let resumed = Sim.resume engine k ~choices () in
      let choices, replayed_keys = switching ~from ~start:0 ~skip:(m + 1) ~keys in
      let replayed = Sim.run ~lowered ~graph ~schedule ~layout ~choices () in
      let tag = Printf.sprintf "%s, checkpoint %d" tag m in
      Alcotest.(check string) (tag ^ ": stats and memory") (stats_string replayed)
        (stats_string resumed);
      Alcotest.(check int) (tag ^ ": later notes") (List.length !replayed_keys)
        (List.length !resumed_keys);
      List.iteri
        (fun i (a, b) -> if a <> b then Alcotest.failf "%s: later key %d differs" tag i)
        (List.combine !replayed_keys !resumed_keys))
    (List.rev !taken);
  List.length !taken

let test_resume_equivalence () =
  let resumed = ref 0 in
  for i = 0 to 99 do
    match compile (Gen.generate ~seed:1 ~budget:30 i) with
    | None -> ()
    | Some (_, layout, lowered, graph, schedule) ->
      resumed :=
        !resumed
        + check_resumes (Printf.sprintf "case %d" i) ~keys:4 ~lowered ~graph
            ~schedule ~layout
  done;
  Array.iter
    (fun file ->
      if Filename.check_suffix file ".lk" then
        List.iter
          (fun icn ->
            let case = Gen.load (Filename.concat litmus_dir file) in
            let case =
              {
                case with
                Gen.g_mconf = Gen.mconf_with ~icn ~clusters:4 case.Gen.g_mconf;
              }
            in
            List.iter
              (fun (tech, compiled) ->
                match compiled with
                | Error _ -> ()
                | Ok (a : Vliw_pipeline.Pipeline.compiled) ->
                  resumed :=
                    !resumed
                    + check_resumes
                        (Printf.sprintf "%s at %s x4, %s" file icn
                           (Vliw_fuzz.Diff.technique_name tech))
                        ~keys:max_int ~lowered:a.front.lowered ~graph:a.graph
                        ~schedule:a.schedule ~layout:a.front.layout)
              (Vliw_pipeline.Pipeline.compile_all
                 ~heuristic:(Vliw_fuzz.Diff.heuristic_for case)
                 (Vliw_fuzz.Diff.front case)))
          [ "bus"; "directory" ])
    (Sys.readdir litmus_dir);
  if !resumed < 10_000 then
    Alcotest.failf "sweep too weak: %d checkpoints resumed" !resumed

(* a checkpoint is taken only at a note, and resumed only where taken *)
let test_checkpoint_misuse () =
  let case = Gen.load (Filename.concat litmus_dir "carried.lk") in
  match
    Vliw_pipeline.Pipeline.compile
      ~heuristic:(Vliw_fuzz.Diff.heuristic_for case) (Vliw_fuzz.Diff.front case)
      S.Mdc
  with
  | Error e -> Alcotest.failf "carried does not schedule: %s" e
  | Ok a ->
    let prepare () =
      Sim.prepare ~lowered:a.Vliw_pipeline.Pipeline.front.lowered ~graph:a.graph
        ~schedule:a.schedule ~layout:a.front.layout ()
    in
    let engine = prepare () in
    Alcotest.check_raises "outside a note"
      (Invalid_argument "Sim.checkpoint: not inside a ch_note_state callback")
      (fun () -> ignore (Sim.checkpoint engine));
    let k = ref None in
    ignore
      (Sim.exec engine
         ~choices:
           {
             Sim.ch_jitter = 1;
             ch_draw = (fun ~bound:_ -> 0);
             ch_note_state = Some (fun _ -> if !k = None then k := Some (Sim.checkpoint engine));
           }
         ());
    match !k with
    | None -> Alcotest.fail "carried never notes"
    | Some k ->
      Alcotest.check_raises "another engine"
        (Invalid_argument "Sim.resume: checkpoint taken on another engine")
        (fun () -> ignore (Sim.resume (prepare ()) k ()))

(* after its first run, a prepared engine's runs allocate nothing
   directly in the major heap: prepare allocated every array, and the
   first run grew any that needed it *)
let test_prepared_major_heap () =
  let case = Gen.load (Filename.concat litmus_dir "carried.lk") in
  let case =
    {
      case with
      Gen.g_mconf = Gen.mconf_with ~icn:"directory" ~clusters:4 case.Gen.g_mconf;
    }
  in
  match
    Vliw_pipeline.Pipeline.compile
      ~heuristic:(Vliw_fuzz.Diff.heuristic_for case) (Vliw_fuzz.Diff.front case)
      S.Mdc
  with
  | Error e -> Alcotest.failf "carried does not schedule: %s" e
  | Ok a ->
    let engine =
      Sim.prepare ~lowered:a.Vliw_pipeline.Pipeline.front.lowered ~graph:a.graph
        ~schedule:a.schedule ~layout:a.front.layout ()
    in
    ignore (Sim.exec engine ());
    let direct () =
      let _, promoted, major = Gc.counters () in
      major -. promoted
    in
    let before = direct () in
    ignore (Sys.opaque_identity (Sim.exec engine ()));
    Alcotest.(check (float 0.)) "words allocated directly in the major heap" 0.
      (direct () -. before)

let () =
  Alcotest.run "engines"
    [
      ( "equivalence",
        [
          Alcotest.test_case "fuzz sweep, 300 cases x 3 jitters" `Slow
            test_fuzz_sweep;
          Alcotest.test_case "workloads oracle+warm+jitter" `Quick
            test_workloads_oracle_warm;
          Alcotest.test_case "directory backend at 4/8/16/32 clusters" `Quick
            test_directory_parity;
        ] );
      ( "frozen digests",
        [
          Alcotest.test_case "sweep digests recorded before the shared module"
            `Slow test_golden_digests;
        ] );
      ( "bus extraction",
        [
          Alcotest.test_case "pre-refactor counters byte-identical" `Quick
            test_bus_extraction_regression;
        ] );
      ( "allocation",
        [
          Alcotest.test_case "traced-off wheel budget" `Quick test_allocation_budget;
          Alcotest.test_case "prepared engine: no major-heap words per run" `Quick
            test_prepared_major_heap;
        ] );
      ( "reuse",
        [
          Alcotest.test_case "prepared engine equals fresh runs, cases 0-99" `Slow
            test_prepared_reuse;
        ] );
      ( "resume",
        [
          Alcotest.test_case "resumed runs equal runs from cycle 0" `Slow
            test_resume_equivalence;
          Alcotest.test_case "checkpoints stay with their note and engine" `Quick
            test_checkpoint_misuse;
        ] );
    ]
