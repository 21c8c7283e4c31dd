module M = Vliw_arch.Machine
module S = Vliw_sched.Schedule
module Driver = Vliw_sched.Driver
module Hybrid = Vliw_sched.Hybrid
module P = Vliw_pipeline.Pipeline
module W = Vliw_workloads.Workloads
module R = Runner
module Ir = Vliw_ir
module Pool = Vliw_util.Pool

let amean xs = Vliw_util.Stats.mean xs

(* ---------------- latency policies ---------------- *)

type lat_row = {
  la_policy : string;
  la_total : float;
  la_compute : float;
  la_stall : float;
}

let latency_policies ?obs () =
  let run policy b =
    (* Cache_sensitive with default ordering is exactly the memoized
       free/MinComs run of Figure 7's baseline — share it *)
    if policy = Driver.Cache_sensitive then
      Experiments.run ~machine:M.table2 ?obs (R.Free, S.Min_coms) b
    else R.run_bench ~machine:M.table2 ?obs ~lat_policy:policy R.Free S.Min_coms b
  in
  let base = Pool.map (run Driver.Cache_sensitive) W.figures in
  let norm = amean (List.map (fun r -> r.R.br_cycles) base) in
  let row name policy =
    let rs =
      if policy = Driver.Cache_sensitive then base
      else Pool.map (run policy) W.figures
    in
    {
      la_policy = name;
      la_total = amean (List.map (fun r -> r.R.br_cycles) rs) /. norm;
      la_compute = amean (List.map (fun r -> r.R.br_compute) rs) /. norm;
      la_stall = amean (List.map (fun r -> r.R.br_stall) rs) /. norm;
    }
  in
  [
    row "always local hit (min)" Driver.Fixed_min;
    row "cache-sensitive (paper)" Driver.Cache_sensitive;
    row "always remote miss (max)" Driver.Fixed_max;
  ]

(* ---------------- hybrid ---------------- *)

type hybrid_row = {
  hy_bench : string;
  hy_mdc : float;
  hy_ddgt : float;
  hy_hybrid : float;
  hy_choices : string;
}

let hybrid ?obs () =
  let machine = M.table2 in
  Pool.map
    (fun b ->
      let base = Experiments.run ~machine ?obs (R.Free, S.Min_coms) b in
      let norm = if base.R.br_cycles = 0. then 1. else base.R.br_cycles in
      let total scheme = (Experiments.run ~machine ?obs scheme b).R.br_cycles /. norm in
      let choices =
        (Experiments.run ~machine ?obs (R.Hybrid, S.Pref_clus) b).R.br_loops
        |> List.map (fun (lr : R.loop_run) ->
               Option.fold ~none:"?"
                 ~some:(fun h -> Hybrid.choice_name h.Hybrid.choice)
                 lr.R.lr_compiled.P.hybrid)
        |> String.concat ","
      in
      {
        hy_bench = b.W.b_name;
        hy_mdc = total (R.Mdc, S.Pref_clus);
        hy_ddgt = total (R.Ddgt, S.Pref_clus);
        hy_hybrid = total (R.Hybrid, S.Pref_clus);
        hy_choices = choices;
      })
    W.figures

(* ---------------- attraction buffer sizes ---------------- *)

type ab_row = { ab_entries : int; ab_mdc : float; ab_ddgt : float }

let ab_sizes ?obs () =
  let machine_of entries =
    if entries = 0 then M.table2
    else M.with_attraction M.table2 (Some { M.ab_entries = entries; ab_assoc = 2 })
  in
  let total machine tech =
    amean
      (Pool.map
         (fun b -> (Experiments.run ~machine ?obs (tech, S.Pref_clus) b).R.br_cycles)
         W.figures)
  in
  let mdc0 = total (machine_of 0) R.Mdc in
  let ddgt0 = total (machine_of 0) R.Ddgt in
  List.map
    (fun entries ->
      let m = machine_of entries in
      {
        ab_entries = entries;
        ab_mdc = total m R.Mdc /. mdc0;
        ab_ddgt = total m R.Ddgt /. ddgt0;
      })
    [ 0; 4; 8; 16; 32 ]

(* ---------------- memory-bus sweep under NOBAL+REG ---------------- *)

type bus_row = { bu_bench : string; bu_two_buses : float; bu_one_bus : float }

let bus_sweep ?obs () =
  let machine_of n = { M.nobal_reg with M.mem_buses = { M.bus_count = n; bus_latency = 4 } } in
  let speedup machine b =
    let best_mdc =
      min
        (Experiments.run ~machine ?obs (R.Mdc, S.Pref_clus) b).R.br_cycles
        (Experiments.run ~machine ?obs (R.Mdc, S.Min_coms) b).R.br_cycles
    in
    let ddgt = (Experiments.run ~machine ?obs (R.Ddgt, S.Pref_clus) b).R.br_cycles in
    if ddgt = 0. then 1. else best_mdc /. ddgt
  in
  Pool.map
    (fun name ->
      let b = W.find name in
      {
        bu_bench = name;
        bu_two_buses = speedup (machine_of 2) b;
        bu_one_bus = speedup (machine_of 1) b;
      })
    [ "epicdec"; "pgpdec"; "pgpenc"; "rasta" ]

(* ---------------- code specialization, executed ---------------- *)

type spec_row = {
  sp_bench : string;
  sp_mdc_before : float;
  sp_mdc_after : float;
  sp_ddgt : float;
}

let specialization ?obs () =
  let machine = M.table2 in
  Pool.map
    (fun name ->
      let b = W.find name in
      let m = R.machine_for machine b in
      let base = Experiments.run ~machine ?obs (R.Free, S.Min_coms) b in
      let norm = if base.R.br_cycles = 0. then 1. else base.R.br_cycles in
      let before = (Experiments.run ~machine ?obs (R.Mdc, S.Pref_clus) b).R.br_cycles in
      let ddgt = (Experiments.run ~machine ?obs (R.Ddgt, S.Pref_clus) b).R.br_cycles in
      (* the aggressive versions: per loop, drop the never-materialising
         ambiguous dependences, compile the pruned graph under MDC on the
         loop's front and simulate it; charge the entry checks *)
      let after =
        List.fold_left
          (fun acc (l : W.loop) ->
            let st = Memo.stages ~machine:m ~bench:b l in
            let k_prof = st.P.kernel_prof in
            let profile =
              Ir.Interp.run ~layout:(Ir.Layout.make k_prof) k_prof
            in
            let sp = Vliw_core.Specialize.specialize st.P.lowered ~profile in
            let pruned =
              { st with
                P.lowered =
                  { st.P.lowered with
                    Vliw_lower.Lower.graph = sp.Vliw_core.Specialize.graph } }
            in
            let stats =
              match P.compile ~heuristic:S.Pref_clus pruned R.Mdc with
              | Ok c -> P.simulate c
              | Error e -> failwith (name ^ "/" ^ l.W.l_name ^ ": " ^ e)
            in
            let check_overhead = 2 * sp.Vliw_core.Specialize.checks in
            acc
            +. (float_of_int l.W.l_weight
               *. float_of_int (stats.Vliw_sim.Sim.total_cycles + check_overhead)))
          0. b.W.b_loops
      in
      {
        sp_bench = name;
        sp_mdc_before = before /. norm;
        sp_mdc_after = after /. norm;
        sp_ddgt = ddgt /. norm;
      })
    [ "epicdec"; "pgpdec"; "rasta" ]

(* ---------------- interleaving factor ---------------- *)

type il_row = {
  il_bench : string;
  il_chosen : int;
  il_hit2 : float;
  il_hit4 : float;
  il_hit8 : float;
}

let interleave_sweep ?obs () =
  let hit il (b : W.benchmark) =
    (* bypass machine_for: force the interleave under test *)
    let machine = M.with_interleave M.table2 il in
    let fake = { b with W.b_interleave = il } in
    (R.access_mix (Experiments.run ~machine ?obs (R.Free, S.Pref_clus) fake)).R.f_local_hit
  in
  Pool.map
    (fun (b : W.benchmark) ->
      {
        il_bench = b.W.b_name;
        il_chosen = b.W.b_interleave;
        il_hit2 = hit 2 b;
        il_hit4 = hit 4 b;
        il_hit8 = hit 8 b;
      })
    W.figures

(* ---------------- loop unrolling ---------------- *)

type unroll_row = {
  un_bench : string;
  un_factors : string;
  un_hit_before : float;
  un_hit_after : float;
  un_cycles : float;  (* after / before, free PrefClus *)
}

let unrolling ?obs () =
  let machine = M.table2 in
  List.filter_map Fun.id
  @@ Pool.map
    (fun (b : W.benchmark) ->
      let m = R.machine_for machine b in
      let nxi = m.M.clusters * m.M.interleave_bytes in
      let factor_of k = Vliw_lower.Lower.best_unroll_factor ~nxi_bytes:nxi ~max_factor:8 k in
      let factors =
        List.map
          (fun (l : W.loop) ->
            factor_of (Memo.parse ~bench:b ~seed:b.W.b_exec_seed l))
          b.W.b_loops
      in
      if List.for_all (( = ) 1) factors then None
      else (
        let transform k = Vliw_ir.Unroll.unroll ~factor:(factor_of k) k in
        let before = Experiments.run ~machine ?obs (R.Free, S.Pref_clus) b in
        let after = R.run_bench ~machine ?obs ~transform R.Free S.Pref_clus b in
        Some
          {
            un_bench = b.W.b_name;
            un_factors =
              String.concat "," (List.map string_of_int factors);
            un_hit_before = (R.access_mix before).R.f_local_hit;
            un_hit_after = (R.access_mix after).R.f_local_hit;
            un_cycles =
              (if before.R.br_cycles = 0. then 1.
               else after.R.br_cycles /. before.R.br_cycles);
          }))
    W.figures

(* ---------------- register pressure ---------------- *)

type reg_row = {
  rp_scheme : string;
  rp_total : float;  (* AMEAN of summed per-cluster MaxLive *)
  rp_worst : float;  (* AMEAN of the hottest cluster's MaxLive *)
}

let reg_pressure ?obs () =
  let machine = M.table2 in
  let row name scheme =
    let per_bench =
      Pool.map
        (fun b ->
          let br = Experiments.run ~machine ?obs scheme b in
          List.map
            (fun (lr : R.loop_run) ->
              let ml =
                Vliw_sched.Regpressure.max_live lr.R.lr_compiled.P.graph
                  lr.R.lr_schedule
              in
              ( float_of_int (Array.fold_left ( + ) 0 ml),
                float_of_int (Array.fold_left max 0 ml) ))
            br.R.br_loops)
        W.figures
    in
    let all = List.concat per_bench in
    { rp_scheme = name;
      rp_total = amean (List.map fst all);
      rp_worst = amean (List.map snd all) }
  in
  [
    row "free/PrefClus" (R.Free, S.Pref_clus);
    row "MDC/PrefClus" (R.Mdc, S.Pref_clus);
    row "DDGT/PrefClus" (R.Ddgt, S.Pref_clus);
  ]

(* ---------------- scheduler node ordering ---------------- *)

type ord_row = {
  or_name : string;
  or_cycles : float;  (* AMEAN totals normalized to Height ordering *)
  or_maxlive : float;  (* AMEAN of the hottest cluster's MaxLive *)
  or_ii : float;  (* AMEAN II over all loops *)
}

let orderings ?obs () =
  let run ordering b =
    if ordering = Vliw_sched.Ims.Height then
      Experiments.run ~machine:M.table2 ?obs (R.Free, S.Min_coms) b
    else R.run_bench ~machine:M.table2 ?obs ~ordering R.Free S.Min_coms b
  in
  let collect ordering =
    let brs = Pool.map (run ordering) W.figures in
    let cycles = amean (List.map (fun r -> r.R.br_cycles) brs) in
    let per_loop f =
      amean
        (List.concat_map (fun br -> List.map f br.R.br_loops) brs)
    in
    ( cycles,
      per_loop (fun (lr : R.loop_run) ->
          float_of_int
            (Array.fold_left max 0
               (Vliw_sched.Regpressure.max_live lr.R.lr_compiled.P.graph
                  lr.R.lr_schedule))),
      per_loop (fun (lr : R.loop_run) ->
          float_of_int lr.R.lr_schedule.Vliw_sched.Schedule.ii) )
  in
  let hc, hm, hi = collect Vliw_sched.Ims.Height in
  let sc, sm, si = collect Vliw_sched.Ims.Swing in
  [
    { or_name = "height (classic IMS)"; or_cycles = 1.0; or_maxlive = hm; or_ii = hi };
    { or_name = "swing (SMS-style)"; or_cycles = sc /. hc; or_maxlive = sm; or_ii = si };
  ]
