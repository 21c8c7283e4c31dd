module M = Vliw_arch.Machine
module S = Vliw_sched.Schedule
module W = Vliw_workloads.Workloads
module R = Runner

type scheme = Runner.technique * S.heuristic

module Pool = Vliw_util.Pool
module Cache = Vliw_util.Cache

(* memo keyed by machine + benchmark + scheme; the machine record is
   immutable data, so it is compared by value. Experiments fan benchmarks
   out over the domain pool, which the cache is safe under. *)
let cache : (M.t * string * R.technique * S.heuristic, R.bench_run) Cache.t =
  Cache.create ()

let clear_cache () =
  Cache.clear cache;
  Memo.clear ()

(* [obs] only adds observability side effects (audit, trace files), never
   changes results, so the cache is keyed without it: a hit returns the
   first computed run. Callers wanting every simulation audited must use
   one obs for the whole process, as bench/main.exe does. *)
let run ~machine ?obs ((tech, heur) : scheme) (b : W.benchmark) =
  Cache.find_or_compute cache (machine, b.W.b_name, tech, heur) (fun () ->
      R.run_bench ~machine ?obs tech heur b)

let cached_runs () =
  let entries =
    Cache.fold (fun (m, _, _, _) r acc -> (Memo.fingerprint m, m, r) :: acc) cache []
  in
  List.sort
    (fun (fa, _, (a : R.bench_run)) (fb, _, b) ->
      compare
        (fa, a.R.br_bench.W.b_name, R.technique_name a.R.br_technique,
         S.heuristic_name a.R.br_heuristic)
        (fb, b.R.br_bench.W.b_name, R.technique_name b.R.br_technique,
         S.heuristic_name b.R.br_heuristic))
    entries

(* ---------------- Figure 6 ---------------- *)

type fig6_row = {
  f6_bench : string;
  f6_free : R.access_mix;
  f6_mdc : R.access_mix;
  f6_ddgt : R.access_mix;
}

let fig6 ?(machine = M.table2) ?obs () =
  Pool.map
    (fun b ->
      {
        f6_bench = b.W.b_name;
        f6_free = R.access_mix (run ~machine ?obs (R.Free, S.Pref_clus) b);
        f6_mdc = R.access_mix (run ~machine ?obs (R.Mdc, S.Pref_clus) b);
        f6_ddgt = R.access_mix (run ~machine ?obs (R.Ddgt, S.Pref_clus) b);
      })
    W.figures

let amean_mix mixes =
  let n = float_of_int (max 1 (List.length mixes)) in
  let avg f = List.fold_left (fun acc m -> acc +. f m) 0. mixes /. n in
  {
    R.f_local_hit = avg (fun m -> m.R.f_local_hit);
    f_remote_hit = avg (fun m -> m.R.f_remote_hit);
    f_local_miss = avg (fun m -> m.R.f_local_miss);
    f_remote_miss = avg (fun m -> m.R.f_remote_miss);
    f_combined = avg (fun m -> m.R.f_combined);
  }

(* ---------------- Figures 7 / 9 ---------------- *)

type bar = { b_compute : float; b_stall : float }

type fig7_row = {
  f7_bench : string;
  f7_mdc_pref : bar;
  f7_mdc_min : bar;
  f7_ddgt_pref : bar;
  f7_ddgt_min : bar;
}

let fig7 ?(machine = M.table2) ?obs () =
  Pool.map
    (fun b ->
      let base = run ~machine ?obs (R.Free, S.Min_coms) b in
      let norm = if base.R.br_cycles = 0. then 1. else base.R.br_cycles in
      let bar scheme =
        let r = run ~machine ?obs scheme b in
        { b_compute = r.R.br_compute /. norm; b_stall = r.R.br_stall /. norm }
      in
      {
        f7_bench = b.W.b_name;
        f7_mdc_pref = bar (R.Mdc, S.Pref_clus);
        f7_mdc_min = bar (R.Mdc, S.Min_coms);
        f7_ddgt_pref = bar (R.Ddgt, S.Pref_clus);
        f7_ddgt_min = bar (R.Ddgt, S.Min_coms);
      })
    W.figures

let fig9 ?obs () =
  fig7 ~machine:(M.with_attraction M.table2 (Some M.default_attraction)) ?obs ()

(* ---------------- Table 3 ---------------- *)

type t3_row = { t3_bench : string; t3_cmr : float; t3_car : float }

let table3 ?obs () =
  Pool.map
    (fun b ->
      let r = run ~machine:M.table2 ?obs (R.Free, S.Pref_clus) b in
      let cmr, car = R.cmr_car r in
      { t3_bench = b.W.b_name; t3_cmr = cmr; t3_car = car })
    W.figures

(* ---------------- Table 4 ---------------- *)

type t4_row = {
  t4_bench : string;
  t4_dcom : float;
  t4_speedup : float option;
}

let table4 ?obs () =
  let machine = M.table2 in
  Pool.map
    (fun b ->
      let free = run ~machine ?obs (R.Free, S.Pref_clus) b in
      let mdc = run ~machine ?obs (R.Mdc, S.Pref_clus) b in
      let ddgt = run ~machine ?obs (R.Ddgt, S.Pref_clus) b in
      let dcom =
        if mdc.R.br_comm = 0. then if ddgt.R.br_comm = 0. then 1. else ddgt.R.br_comm
        else ddgt.R.br_comm /. mdc.R.br_comm
      in
      (* selected loops: >= 10% MDC slowdown vs the free baseline *)
      let selected =
        List.filter_map
          (fun (f, m, d) ->
            let fc = float_of_int f.R.lr_stats.Vliw_sim.Sim.total_cycles in
            let mc = float_of_int m.R.lr_stats.Vliw_sim.Sim.total_cycles in
            let dc = float_of_int d.R.lr_stats.Vliw_sim.Sim.total_cycles in
            if fc > 0. && mc >= 1.1 *. fc then Some (mc, dc) else None)
          (List.map2
             (fun f (m, d) -> (f, m, d))
             free.R.br_loops
             (List.map2 (fun m d -> (m, d)) mdc.R.br_loops ddgt.R.br_loops))
      in
      let speedup =
        match selected with
        | [] -> None
        | sel ->
          let mc = List.fold_left (fun a (m, _) -> a +. m) 0. sel in
          let dc = List.fold_left (fun a (_, d) -> a +. d) 0. sel in
          Some ((mc /. dc) -. 1.)
      in
      { t4_bench = b.W.b_name; t4_dcom = dcom; t4_speedup = speedup })
    W.figures

(* ---------------- NOBAL configurations ---------------- *)

type nobal_row = {
  nb_bench : string;
  nb_mem_best_mdc_over_ddgt : float;
  nb_reg_ddgtpref_over_best_mdc : float;
}

let nobal ?obs () =
  let best machine tech b =
    min
      (run ~machine ?obs (tech, S.Pref_clus) b).R.br_cycles
      (run ~machine ?obs (tech, S.Min_coms) b).R.br_cycles
  in
  Pool.map
    (fun b ->
      let mem_mdc = best M.nobal_mem R.Mdc b in
      let mem_ddgt = best M.nobal_mem R.Ddgt b in
      let reg_mdc = best M.nobal_reg R.Mdc b in
      let reg_ddgt_pref =
        (run ~machine:M.nobal_reg ?obs (R.Ddgt, S.Pref_clus) b).R.br_cycles
      in
      {
        nb_bench = b.W.b_name;
        nb_mem_best_mdc_over_ddgt =
          (if mem_mdc = 0. then 1. else mem_ddgt /. mem_mdc);
        nb_reg_ddgtpref_over_best_mdc =
          (if reg_ddgt_pref = 0. then 1. else reg_mdc /. reg_ddgt_pref);
      })
    W.figures

(* ---------------- Table 5 ---------------- *)

type t5_row = {
  t5_bench : string;
  t5_old_cmr : float;
  t5_old_car : float;
  t5_new_cmr : float;
  t5_new_car : float;
  t5_removed : int;
}

let table5 ?obs () =
  let machine = M.table2 in
  Pool.map
    (fun name ->
      let b = W.find name in
      let old_r = run ~machine ?obs (R.Free, S.Pref_clus) b in
      let old_cmr, old_car = R.cmr_car old_r in
      (* recompute per loop on the specialized (aggressive) graphs *)
      let acc_chain = ref 0. and acc_mem = ref 0. and acc_nodes = ref 0. in
      let removed = ref 0 in
      List.iter
        (fun (l : W.loop) ->
          let k = Memo.parse ~bench:b ~seed:b.W.b_profile_seed l in
          let layout = Vliw_ir.Layout.make k in
          let low = Vliw_lower.Lower.lower k in
          let profile = Vliw_ir.Interp.run ~layout k in
          let sp = Vliw_core.Specialize.specialize low ~profile in
          removed := !removed + sp.Vliw_core.Specialize.removed;
          let w = float_of_int (l.W.l_weight * k.Vliw_ir.Ast.k_trip) in
          acc_chain :=
            !acc_chain
            +. (w
               *. float_of_int
                    (List.length (Vliw_core.Chains.biggest sp.Vliw_core.Specialize.graph)));
          acc_mem :=
            !acc_mem
            +. (w *. float_of_int (List.length (Vliw_ddg.Graph.mem_refs low.Vliw_lower.Lower.graph)));
          acc_nodes :=
            !acc_nodes +. (w *. float_of_int (Vliw_ddg.Graph.node_count low.Vliw_lower.Lower.graph)))
        b.W.b_loops;
      {
        t5_bench = name;
        t5_old_cmr = old_cmr;
        t5_old_car = old_car;
        t5_new_cmr = (if !acc_mem = 0. then 0. else !acc_chain /. !acc_mem);
        t5_new_car = (if !acc_nodes = 0. then 0. else !acc_chain /. !acc_nodes);
        t5_removed = !removed;
      })
    [ "epicdec"; "pgpdec"; "rasta" ]

(* ------ machine grids: N-cluster scaling and coherence protocols ------ *)

type grid_row = { g_machine : M.t; g_runs : R.bench_run list }

(* a representative size mix rather than all figure benchmarks: the
   32-cluster points cost real wall clock and the sweep's job is coverage
   of the machine grid, not another full reproduction *)
let grid_benches = [ "epicdec"; "g721dec"; "rasta" ]
let grid_techniques = [ R.Mdc; R.Ddgt; R.Hybrid ]

(* every grid technique under PrefClus on every grid benchmark, one row
   per machine *)
let grid ?obs machines =
  let benches = List.map W.find grid_benches in
  Pool.map
    (fun machine ->
      {
        g_machine = machine;
        g_runs =
          List.concat_map
            (fun tech ->
              List.map (fun b -> run ~machine ?obs (tech, S.Pref_clus) b) benches)
            grid_techniques;
      })
    machines

let grid_cycles tech row =
  List.fold_left
    (fun a r -> if r.R.br_technique = tech then a +. r.R.br_cycles else a)
    0. row.g_runs

let grid_total f row = List.fold_left (fun a r -> a + f r) 0 row.g_runs

(* ABs on: without replicas the directory never forms sharers and the
   protocols have nothing to keep coherent *)
let grid_machine n icn =
  M.with_attraction
    (M.with_interconnect (M.scale_clusters M.table2 n) icn)
    (Some M.default_attraction)

let scale ?obs () =
  grid ?obs
    (List.concat_map
       (fun n -> [ grid_machine n M.Shared_bus; grid_machine n M.Directory ])
       [ 4; 8; 16; 32 ])

(* the protocol/backend pairings Machine.validate accepts: MSI snoops the
   shared buses, MESI routes ownership handoffs through the directory *)
let protocol ?obs () =
  grid ?obs
    (List.concat_map
       (fun n ->
         List.map
           (fun (icn, prot) -> M.with_protocol (grid_machine n icn) prot)
           [
             (M.Shared_bus, M.Install_flush);
             (M.Shared_bus, M.Msi);
             (M.Directory, M.Install_flush);
             (M.Directory, M.Mesi);
           ])
       [ 4; 8 ])

(* ------- static coherence verification coverage (not in the paper) ------- *)

type verif_row = {
  v_technique : R.technique;
  v_heuristic : S.heuristic;
  v_loops : int;
  v_verified : int;
  v_violations : int;
  v_proofs : (string * int) list;
}

let verification ?obs () =
  let machine = M.table2 in
  let schemes : scheme list =
    [
      (R.Free, S.Pref_clus); (R.Free, S.Min_coms);
      (R.Mdc, S.Pref_clus); (R.Mdc, S.Min_coms);
      (R.Ddgt, S.Pref_clus); (R.Ddgt, S.Min_coms);
      (R.Hybrid, S.Pref_clus); (R.Hybrid, S.Min_coms);
    ]
  in
  Pool.map
    (fun ((tech, heur) as scheme) ->
      let loops =
        List.concat_map
          (fun b -> (run ~machine ?obs scheme b).R.br_loops)
          W.figures
      in
      let proofs = Hashtbl.create 8 in
      List.iter
        (fun (lr : R.loop_run) ->
          List.iter
            (fun (p, c) ->
              Hashtbl.replace proofs p
                (c + Option.value (Hashtbl.find_opt proofs p) ~default:0))
            lr.R.lr_verify.Vliw_verify.Verify.r_proofs)
        loops;
      {
        v_technique = tech;
        v_heuristic = heur;
        v_loops = List.length loops;
        v_verified =
          List.fold_left
            (fun a (lr : R.loop_run) ->
              if lr.R.lr_verify.Vliw_verify.Verify.r_verified then a + 1 else a)
            0 loops;
        v_violations =
          List.fold_left
            (fun a (lr : R.loop_run) -> a + lr.R.lr_stats.Vliw_sim.Sim.violations)
            0 loops;
        v_proofs =
          List.filter_map
            (fun p ->
              match Hashtbl.find_opt proofs p with
              | Some c when c > 0 -> Some (p, c)
              | _ -> None)
            Vliw_verify.Verify.proof_names;
      })
    schemes
