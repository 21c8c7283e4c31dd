module M = Vliw_arch.Machine
module G = Vliw_ddg.Graph
module S = Vliw_sched.Schedule
module Driver = Vliw_sched.Driver
module Hybrid = Vliw_sched.Hybrid
module Chains = Vliw_core.Chains
module Lower = Vliw_lower.Lower
module Profile = Vliw_profile.Profile
module Sim = Vliw_sim.Sim
module W = Vliw_workloads.Workloads
module Ir = Vliw_ir
module Trace = Vliw_trace.Trace
module Audit = Vliw_trace.Audit
module Chrome = Vliw_trace.Chrome
module V = Vliw_verify.Verify

type technique = S.technique = Free | Mdc | Ddgt | Hybrid

let technique_name = S.technique_name

type loop_run = {
  lr_loop : W.loop;
  lr_graph : G.t;
  lr_schedule : S.t;
  lr_choice : Hybrid.choice option;
  lr_stats : Sim.stats;
  lr_verify : V.report;
  lr_mem_ops : int;
  lr_chain : int;
  lr_nodes : int;
  lr_trip : int;
}

type bench_run = {
  br_bench : W.benchmark;
  br_technique : technique;
  br_heuristic : S.heuristic;
  br_loops : loop_run list;
  br_cycles : float;
  br_compute : float;
  br_stall : float;
  br_stall_load : float;
  br_stall_copy : float;
  br_stall_bus : float;
  br_stall_drain : float;
  br_comm : float;
  br_violations : int;
  br_nullified : int;
  br_ab_hits : int;
  br_ab_flushed : int;
  br_verified : int;
  br_dir_lookups : int;
  br_dir_invalidates : int;
  br_dir_writebacks : int;
  br_packet_hops : int;
  br_prot_invalidations : int;
  br_prot_upgrades : int;
  br_prot_exclusive_hits : int;
}

let machine_for base (b : W.benchmark) = M.with_interleave base b.b_interleave

(* ----- observability configuration (explicit: no process-global state,
   so concurrent harnesses on the pool cannot cross-talk) ----- *)

type obs = { obs_audit : bool; obs_trace_dir : string option }

let obs_none = { obs_audit = false; obs_trace_dir = None }

let lat_policy_tag = function
  | Driver.Cache_sensitive -> "cs"
  | Driver.Fixed_min -> "fmin"
  | Driver.Fixed_max -> "fmax"

(* Atomic write: racing pool workers may regenerate the same (identical)
   trace; temp-file + rename keeps the published file whole either way. *)
let write_trace_file dir name sink =
  let tmp = Filename.temp_file ~temp_dir:dir "trace" ".tmp" in
  Chrome.write_file tmp sink;
  Sys.rename tmp (Filename.concat dir name)

let run_loop ~machine ?(obs = obs_none) ?(lat_policy = Driver.Cache_sensitive)
    ?(ordering = Vliw_sched.Ims.Height) ?transform technique
    heuristic ~(bench : W.benchmark) (loop : W.loop) =
  (* the technique/heuristic-independent front of the pipeline is shared
     across experiments; source-level transforms change the kernels, so
     their stages are rebuilt (only the parse is reused) *)
  let stages =
    match transform with
    | None -> Memo.stages ~machine ~bench loop
    | Some tr ->
      Memo.build ~machine
        ~kernel_prof:(tr (Memo.parse ~bench ~seed:bench.b_profile_seed loop))
        ~kernel_exec:(tr (Memo.parse ~bench ~seed:bench.b_exec_seed loop))
  in
  let k_exec = stages.Memo.kernel_exec in
  let layout = stages.Memo.layout in
  let prof = stages.Memo.prof in
  let low = stages.Memo.lowered in
  let fail e =
    failwith
      (Printf.sprintf "%s/%s: cannot schedule (%s, %s): %s" bench.b_name
         loop.l_name (technique_name technique) (S.heuristic_name heuristic) e)
  in
  (* MDC and DDGT promise coherence by construction: make the driver
     prove it, failing the compilation rather than emitting an unsafe
     schedule (free and hybrid are verified after the fact — free is the
     paper's unsafe baseline) *)
  let check =
    match technique with
    | Mdc | Ddgt ->
      Some (V.gate ~machine ~technique ~base:low.Lower.graph ~layout ())
    | Free | Hybrid -> None
  in
  let compiled =
    match
      Hybrid.compile ~machine ~heuristic ~pref_for:(Profile.node_pref prof)
        ~trip:k_exec.Ir.Ast.k_trip ~lat_policy ~ordering ?check technique
        low.Lower.graph
    with
    | Ok c -> c
    | Error e -> fail e
  in
  let graph = compiled.Hybrid.c_graph in
  let schedule = compiled.Hybrid.c_schedule in
  let verify =
    V.check ~machine ~technique ~base:low.Lower.graph ~layout ~graph ~schedule ()
  in
  let oracle = stages.Memo.oracle in
  let sink =
    if obs.obs_audit || obs.obs_trace_dir <> None then Some (Trace.create ())
    else None
  in
  let stats =
    Sim.run ~lowered:low ~graph ~schedule ~layout ~mode:(Sim.Oracle oracle)
      ~warm:true ?trace:sink ()
  in
  (* soundness cross-check: a certificate with dynamic violations means the
     verifier's rule system is wrong — abort, never report around it *)
  if verify.V.r_verified && stats.Sim.violations > 0 then
    failwith
      (Printf.sprintf
         "%s/%s (%s, %s): verifier UNSOUND: certified schedule ran with %d \
          coherence violations"
         bench.b_name loop.l_name (technique_name technique)
         (S.heuristic_name heuristic) stats.Sim.violations);
  (match sink with
  | None -> ()
  | Some s -> (
    (* replay coherence audit: the event stream must independently agree
       with the simulator's own violation/nullification accounting *)
    (match
       Audit.check s ~protocol:machine.M.protocol
         ~prot_invalidations:stats.Sim.prot_invalidations
         ~violations:stats.Sim.violations ~nullified:stats.Sim.nullified
     with
    | Ok _ -> ()
    | Error msg ->
      failwith
        (Printf.sprintf "%s/%s (%s, %s): %s" bench.b_name loop.l_name
           (technique_name technique) (S.heuristic_name heuristic) msg));
    match obs.obs_trace_dir with
    | Some dir when Option.is_none transform ->
      (* source-transformed kernels have no stable identity for a file
         name, so only untransformed runs are exported *)
      let name =
        Printf.sprintf "%s__%s__%s__%s__%s__%s__%s.trace.json"
          (String.sub (Memo.fingerprint machine) 0 12)
          bench.b_name loop.l_name (technique_name technique)
          (S.heuristic_name heuristic) (lat_policy_tag lat_policy)
          (Vliw_sched.Ims.ordering_name ordering)
      in
      write_trace_file dir name s
    | _ -> ()));
  {
    lr_loop = loop;
    lr_graph = graph;
    lr_schedule = schedule;
    lr_choice = Option.map (fun h -> h.Hybrid.choice) compiled.Hybrid.c_hybrid;
    lr_stats = stats;
    lr_verify = verify;
    lr_mem_ops = List.length (G.mem_refs low.Lower.graph);
    lr_chain = List.length (Chains.biggest low.Lower.graph);
    lr_nodes = G.node_count low.Lower.graph;
    lr_trip = k_exec.Ir.Ast.k_trip;
  }

let run_bench ~machine ?obs ?lat_policy ?ordering ?transform technique
    heuristic (bench : W.benchmark) =
  let machine = machine_for machine bench in
  let loops =
    Vliw_util.Pool.map
      (run_loop ~machine ?obs ?lat_policy ?ordering ?transform technique
         heuristic ~bench)
      bench.b_loops
  in
  let wsum f =
    List.fold_left
      (fun acc lr -> acc +. (float_of_int lr.lr_loop.W.l_weight *. f lr))
      0. loops
  in
  let isum f = List.fold_left (fun acc lr -> acc + f lr.lr_stats) 0 loops in
  {
    br_bench = bench;
    br_technique = technique;
    br_heuristic = heuristic;
    br_loops = loops;
    br_cycles = wsum (fun lr -> float_of_int lr.lr_stats.Sim.total_cycles);
    br_compute = wsum (fun lr -> float_of_int lr.lr_stats.Sim.compute_cycles);
    br_stall = wsum (fun lr -> float_of_int lr.lr_stats.Sim.stall_cycles);
    br_stall_load = wsum (fun lr -> float_of_int lr.lr_stats.Sim.stall_load_cycles);
    br_stall_copy = wsum (fun lr -> float_of_int lr.lr_stats.Sim.stall_copy_cycles);
    br_stall_bus = wsum (fun lr -> float_of_int lr.lr_stats.Sim.stall_bus_cycles);
    br_stall_drain = wsum (fun lr -> float_of_int lr.lr_stats.Sim.stall_drain_cycles);
    br_comm = wsum (fun lr -> float_of_int lr.lr_stats.Sim.comm_ops);
    br_violations = isum (fun s -> s.Sim.violations);
    br_nullified = isum (fun s -> s.Sim.nullified);
    br_ab_hits = isum (fun s -> s.Sim.ab_hits);
    br_ab_flushed = isum (fun s -> s.Sim.ab_flushed);
    br_verified =
      List.fold_left
        (fun acc lr -> if lr.lr_verify.V.r_verified then acc + 1 else acc)
        0 loops;
    br_dir_lookups = isum (fun s -> s.Sim.dir_lookups);
    br_dir_invalidates = isum (fun s -> s.Sim.dir_invalidates);
    br_dir_writebacks = isum (fun s -> s.Sim.dir_writebacks);
    br_packet_hops = isum (fun s -> s.Sim.packet_hops);
    br_prot_invalidations = isum (fun s -> s.Sim.prot_invalidations);
    br_prot_upgrades = isum (fun s -> s.Sim.prot_upgrades);
    br_prot_exclusive_hits = isum (fun s -> s.Sim.prot_exclusive_hits);
  }

type access_mix = {
  f_local_hit : float;
  f_remote_hit : float;
  f_local_miss : float;
  f_remote_miss : float;
  f_combined : float;
}

let access_mix br =
  let wsum f =
    List.fold_left
      (fun acc lr ->
        acc +. (float_of_int lr.lr_loop.W.l_weight *. float_of_int (f lr.lr_stats)))
      0. br.br_loops
  in
  let total = wsum Sim.accesses_total in
  let frac f = if total = 0. then 0. else wsum f /. total in
  {
    f_local_hit = frac (fun s -> s.Sim.local_hits);
    f_remote_hit = frac (fun s -> s.Sim.remote_hits);
    f_local_miss = frac (fun s -> s.Sim.local_misses);
    f_remote_miss = frac (fun s -> s.Sim.remote_misses);
    f_combined = frac (fun s -> s.Sim.combined);
  }

let cmr_car br =
  let wsum f =
    List.fold_left
      (fun acc lr ->
        acc
        +. float_of_int (lr.lr_loop.W.l_weight * lr.lr_trip * f lr))
      0. br.br_loops
  in
  let chain = wsum (fun lr -> lr.lr_chain) in
  let mems = wsum (fun lr -> lr.lr_mem_ops) in
  let nodes = wsum (fun lr -> lr.lr_nodes) in
  ( (if mems = 0. then 0. else chain /. mems),
    if nodes = 0. then 0. else chain /. nodes )
