module M = Vliw_arch.Machine
module G = Vliw_ddg.Graph
module S = Vliw_sched.Schedule
module Driver = Vliw_sched.Driver
module Chains = Vliw_core.Chains
module Lower = Vliw_lower.Lower
module Sim = Vliw_sim.Sim
module W = Vliw_workloads.Workloads
module Trace = Vliw_trace.Trace
module Chrome = Vliw_trace.Chrome
module V = Vliw_verify.Verify
module P = Vliw_pipeline.Pipeline

type technique = S.technique = Free | Mdc | Ddgt | Hybrid

let technique_name = S.technique_name

type loop_run = {
  lr_loop : W.loop;
  lr_compiled : P.compiled;
  lr_schedule : S.t;
  lr_stats : Sim.stats;
  lr_verify : V.report;
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
      P.front ~machine
        ~profile:(tr (Memo.parse ~bench ~seed:bench.b_profile_seed loop))
        (tr (Memo.parse ~bench ~seed:bench.b_exec_seed loop))
  in
  let fail e =
    failwith
      (Printf.sprintf "%s/%s: cannot schedule (%s, %s): %s" bench.b_name
         loop.l_name (technique_name technique) (S.heuristic_name heuristic) e)
  in
  let compiled =
    match P.compile ~lat_policy ~ordering ~heuristic stages technique with
    | Ok c -> c
    | Error e -> fail e
  in
  let verify = P.verify technique compiled in
  (* MDC and DDGT promise coherence by construction: a schedule the
     verifier cannot certify fails the run rather than being reported
     (free is the paper's unsafe baseline and the hybrid an estimate's
     pick, so their verdicts are reported, not enforced) *)
  (match (technique, V.verdict verify) with
  | (Mdc | Ddgt), Error e -> fail ("rejected by post-schedule check: " ^ e)
  | _ -> ());
  let sink =
    if obs.obs_audit || obs.obs_trace_dir <> None then Some (Trace.create ())
    else None
  in
  let stats = P.simulate ?trace:sink compiled in
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
    (match P.audit compiled s stats with
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
    lr_compiled = compiled;
    lr_schedule = compiled.P.schedule;
    lr_stats = stats;
    lr_verify = verify;
  }

(* one counter over the loops, each weighted by its [l_weight] *)
let weighted f loops =
  List.fold_left
    (fun acc lr ->
      acc +. (float_of_int lr.lr_loop.W.l_weight *. float_of_int (f lr.lr_stats)))
    0. loops

let run_bench ~machine ?obs ?lat_policy ?ordering ?transform technique
    heuristic (bench : W.benchmark) =
  let machine = machine_for machine bench in
  let loops =
    Vliw_util.Pool.map
      (run_loop ~machine ?obs ?lat_policy ?ordering ?transform technique
         heuristic ~bench)
      bench.b_loops
  in
  let wsum f = weighted f loops in
  {
    br_bench = bench;
    br_technique = technique;
    br_heuristic = heuristic;
    br_loops = loops;
    br_cycles = wsum (fun s -> s.Sim.total_cycles);
    br_compute = wsum (fun s -> s.Sim.compute_cycles);
    br_stall = wsum (fun s -> s.Sim.stall_cycles);
    br_stall_load = wsum (fun s -> s.Sim.stall_load_cycles);
    br_stall_copy = wsum (fun s -> s.Sim.stall_copy_cycles);
    br_stall_bus = wsum (fun s -> s.Sim.stall_bus_cycles);
    br_stall_drain = wsum (fun s -> s.Sim.stall_drain_cycles);
    br_comm = wsum (fun s -> s.Sim.comm_ops);
  }

let total f br = List.fold_left (fun acc lr -> acc + f lr.lr_stats) 0 br.br_loops

let verified br =
  List.length (List.filter (fun lr -> lr.lr_verify.V.r_verified) br.br_loops)

type access_mix = {
  f_local_hit : float;
  f_remote_hit : float;
  f_local_miss : float;
  f_remote_miss : float;
  f_combined : float;
}

let access_mix br =
  let wsum f = weighted f br.br_loops in
  let total = wsum Sim.accesses_total in
  let frac f = if total = 0. then 0. else wsum f /. total in
  {
    f_local_hit = frac (fun s -> s.Sim.local_hits);
    f_remote_hit = frac (fun s -> s.Sim.remote_hits);
    f_local_miss = frac (fun s -> s.Sim.local_misses);
    f_remote_miss = frac (fun s -> s.Sim.remote_misses);
    f_combined = frac (fun s -> s.Sim.combined);
  }

(* Table 3's counts are of the pre-transform graph, read off the front
   only here: no other table needs the biggest chain *)
let cmr_car br =
  let wsum f =
    List.fold_left
      (fun acc lr ->
        let fe = lr.lr_compiled.P.front in
        acc
        +. float_of_int
             (lr.lr_loop.W.l_weight * fe.P.kernel_exec.Vliw_ir.Ast.k_trip
             * f fe.P.lowered.Lower.graph))
      0. br.br_loops
  in
  let chain = wsum (fun g -> List.length (Chains.biggest g)) in
  let mems = wsum (fun g -> List.length (G.mem_refs g)) in
  let nodes = wsum G.node_count in
  ( (if mems = 0. then 0. else chain /. mems),
    if nodes = 0. then 0. else chain /. nodes )
