module T = Vliw_util.Table
module Bars = Vliw_util.Bars
module M = Vliw_arch.Machine
module W = Vliw_workloads.Workloads
module E = Experiments
module R = Runner
module Sim = Vliw_sim.Sim

let table1 () =
  let t =
    T.create ~title:"Table 1. Benchmarks and inputs (synthetic stand-ins)"
      [
        ("benchmark", T.Left); ("profile seed", T.Right); ("exec seed", T.Right);
        ("interleave", T.Right); ("main data size", T.Left); ("loops", T.Right);
        ("in figures", T.Left);
      ]
  in
  List.iter
    (fun b ->
      T.add_row t
        [
          b.W.b_name;
          string_of_int b.W.b_profile_seed;
          string_of_int b.W.b_exec_seed;
          Printf.sprintf "%dB" b.W.b_interleave;
          Printf.sprintf "%d bytes (%d%%)" b.W.b_data_size b.W.b_data_pct;
          string_of_int (List.length b.W.b_loops);
          (if b.W.b_in_figures then "yes" else "no");
        ])
    W.all;
  T.render t

let table2 machine =
  let t =
    T.create ~title:"Table 2. Configuration parameters"
      [ ("parameter", T.Left); ("value", T.Left) ]
  in
  List.iter (fun (k, v) -> T.add_row t [ k; v ]) (M.describe machine);
  T.render t

let mix_cells (m : R.access_mix) =
  [
    T.cell_pct m.R.f_local_hit; T.cell_pct m.R.f_remote_hit;
    T.cell_pct m.R.f_local_miss; T.cell_pct m.R.f_remote_miss;
    T.cell_pct m.R.f_combined;
  ]

let mix_segments (m : R.access_mix) =
  [
    { Bars.label = 'L'; frac = m.R.f_local_hit };
    { Bars.label = 'r'; frac = m.R.f_remote_hit };
    { Bars.label = 'm'; frac = m.R.f_local_miss };
    { Bars.label = 'M'; frac = m.R.f_remote_miss };
    { Bars.label = 'c'; frac = m.R.f_combined };
  ]

let fig6 rows =
  let t =
    T.create
      ~title:
        "Figure 6. Memory access classification, PrefClus (per scheme: local \
         hit / remote hit / local miss / remote miss / combined)"
      [
        ("benchmark", T.Left); ("scheme", T.Left); ("local hit", T.Right);
        ("remote hit", T.Right); ("local miss", T.Right);
        ("remote miss", T.Right); ("combined", T.Right);
      ]
  in
  let add name (r : E.fig6_row) =
    T.add_row t (name :: "free" :: mix_cells r.f6_free);
    T.add_row t ("" :: "MDC" :: mix_cells r.f6_mdc);
    T.add_row t ("" :: "DDGT" :: mix_cells r.f6_ddgt);
    T.add_sep t
  in
  List.iter (fun r -> add r.E.f6_bench r) rows;
  let mean f = E.amean_mix (List.map f rows) in
  add "AMEAN"
    {
      E.f6_bench = "AMEAN";
      f6_free = mean (fun r -> r.E.f6_free);
      f6_mdc = mean (fun r -> r.E.f6_mdc);
      f6_ddgt = mean (fun r -> r.E.f6_ddgt);
    };
  let chart =
    Bars.chart ~width:50
      ~legend:
        [ ('L', "local hits"); ('r', "remote hits"); ('m', "local misses");
          ('M', "remote misses"); ('c', "combined") ]
      (List.concat_map
         (fun r ->
           [
             (r.E.f6_bench ^ "/free", mix_segments r.E.f6_free);
             (r.E.f6_bench ^ "/MDC", mix_segments r.E.f6_mdc);
             (r.E.f6_bench ^ "/DDGT", mix_segments r.E.f6_ddgt);
           ])
         rows)
  in
  T.render t ^ "\n" ^ chart

let bar_cells (b : E.bar) =
  [ T.cell_f (b.E.b_compute +. b.E.b_stall); T.cell_f b.E.b_compute; T.cell_f b.E.b_stall ]

let fig7 ~title ~baseline_label rows =
  let t =
    T.create
      ~title:
        (Printf.sprintf "%s (normalized to %s; total = compute + stall)" title
           baseline_label)
      [
        ("benchmark", T.Left); ("scheme", T.Left); ("total", T.Right);
        ("compute", T.Right); ("stall", T.Right);
      ]
  in
  let add name (r : E.fig7_row) =
    T.add_row t (name :: "MDC/PrefClus" :: bar_cells r.f7_mdc_pref);
    T.add_row t ("" :: "MDC/MinComs" :: bar_cells r.f7_mdc_min);
    T.add_row t ("" :: "DDGT/PrefClus" :: bar_cells r.f7_ddgt_pref);
    T.add_row t ("" :: "DDGT/MinComs" :: bar_cells r.f7_ddgt_min);
    T.add_sep t
  in
  List.iter (fun r -> add r.E.f7_bench r) rows;
  let avg f =
    let n = float_of_int (max 1 (List.length rows)) in
    {
      E.b_compute = List.fold_left (fun a r -> a +. (f r).E.b_compute) 0. rows /. n;
      b_stall = List.fold_left (fun a r -> a +. (f r).E.b_stall) 0. rows /. n;
    }
  in
  add "AMEAN"
    {
      E.f7_bench = "AMEAN";
      f7_mdc_pref = avg (fun r -> r.E.f7_mdc_pref);
      f7_mdc_min = avg (fun r -> r.E.f7_mdc_min);
      f7_ddgt_pref = avg (fun r -> r.E.f7_ddgt_pref);
      f7_ddgt_min = avg (fun r -> r.E.f7_ddgt_min);
    };
  let seg (b : E.bar) =
    [
      { Bars.label = '#'; frac = b.E.b_compute /. 2. };
      { Bars.label = '.'; frac = b.E.b_stall /. 2. };
    ]
  in
  let chart =
    Bars.chart ~width:60
      ~legend:[ ('#', "compute"); ('.', "stall"); (' ', "(full width = 2.0x baseline)") ]
      (List.concat_map
         (fun r ->
           [
             (r.E.f7_bench ^ "/MDC-P", seg r.E.f7_mdc_pref);
             (r.E.f7_bench ^ "/MDC-M", seg r.E.f7_mdc_min);
             (r.E.f7_bench ^ "/DDGT-P", seg r.E.f7_ddgt_pref);
             (r.E.f7_bench ^ "/DDGT-M", seg r.E.f7_ddgt_min);
           ])
         rows)
  in
  T.render t ^ "\n" ^ chart

let table3 rows =
  let t =
    T.create ~title:"Table 3. Analyzing the MDC solution (CMR / CAR)"
      [ ("benchmark", T.Left); ("CMR", T.Right); ("CAR", T.Right) ]
  in
  List.iter
    (fun r -> T.add_row t [ r.E.t3_bench; T.cell_f r.E.t3_cmr; T.cell_f r.E.t3_car ])
    rows;
  T.render t

let table4 rows =
  let t =
    T.create ~title:"Table 4. Analyzing the DDGT solution"
      [
        ("benchmark", T.Left); ("delta com. ops", T.Right);
        ("speedup selected loops", T.Right);
      ]
  in
  List.iter
    (fun r ->
      T.add_row t
        [
          r.E.t4_bench;
          T.cell_f r.E.t4_dcom;
          (match r.E.t4_speedup with
          | None -> "-"
          | Some s -> Printf.sprintf "%.1f%%" (100. *. s));
        ])
    rows;
  T.render t

let nobal rows =
  let t =
    T.create
      ~title:
        "Section 4.2, other configurations (speedups; >1.00 means the first \
         scheme wins)"
      [
        ("benchmark", T.Left);
        ("NOBAL+MEM: best MDC / best DDGT", T.Right);
        ("NOBAL+REG: DDGT-PrefClus / best MDC", T.Right);
      ]
  in
  List.iter
    (fun r ->
      T.add_row t
        [
          r.E.nb_bench;
          T.cell_f r.E.nb_mem_best_mdc_over_ddgt;
          T.cell_f r.E.nb_reg_ddgtpref_over_best_mdc;
        ])
    rows;
  T.render t

let table5 rows =
  let t =
    T.create
      ~title:"Table 5. Memory dependences before (OLD) and after (NEW) code specialization"
      [
        ("benchmark", T.Left); ("OLD CMR", T.Right); ("OLD CAR", T.Right);
        ("NEW CMR", T.Right); ("NEW CAR", T.Right); ("deps removed", T.Right);
      ]
  in
  List.iter
    (fun r ->
      T.add_row t
        [
          r.E.t5_bench; T.cell_f r.E.t5_old_cmr; T.cell_f r.E.t5_old_car;
          T.cell_f r.E.t5_new_cmr; T.cell_f r.E.t5_new_car;
          string_of_int r.E.t5_removed;
        ])
    rows;
  T.render t

(* ---------------- ablations ---------------- *)

let latency_policies rows =
  let t =
    T.create
      ~title:
        "Ablation: assumed-latency policy (Section 2.2's trade-off; free \
         MinComs, AMEAN normalized to cache-sensitive)"
      [ ("policy", T.Left); ("total", T.Right); ("compute", T.Right);
        ("stall", T.Right) ]
  in
  List.iter
    (fun (r : Ablations.lat_row) ->
      T.add_row t
        [ r.la_policy; T.cell_f r.la_total; T.cell_f r.la_compute;
          T.cell_f r.la_stall ])
    rows;
  T.render t

let hybrid rows =
  let t =
    T.create
      ~title:
        "Ablation: the Section 6 hybrid (PrefClus; totals normalized to \
         free MinComs)"
      [ ("benchmark", T.Left); ("MDC", T.Right); ("DDGT", T.Right);
        ("hybrid", T.Right); ("per-loop choices", T.Left) ]
  in
  List.iter
    (fun (r : Ablations.hybrid_row) ->
      T.add_row t
        [ r.hy_bench; T.cell_f r.hy_mdc; T.cell_f r.hy_ddgt;
          T.cell_f r.hy_hybrid; r.hy_choices ])
    rows;
  let col f = Vliw_util.Stats.mean (List.map f rows) in
  T.add_sep t;
  T.add_row t
    [ "AMEAN";
      T.cell_f (col (fun r -> r.Ablations.hy_mdc));
      T.cell_f (col (fun r -> r.Ablations.hy_ddgt));
      T.cell_f (col (fun r -> r.Ablations.hy_hybrid)); "" ];
  T.render t

let ab_sizes rows =
  let t =
    T.create
      ~title:
        "Ablation: Attraction Buffer capacity (AMEAN totals normalized to \
         the no-buffer run of each technique)"
      [ ("entries/cluster", T.Right); ("MDC/PrefClus", T.Right);
        ("DDGT/PrefClus", T.Right) ]
  in
  List.iter
    (fun (r : Ablations.ab_row) ->
      T.add_row t
        [ (if r.ab_entries = 0 then "none" else string_of_int r.ab_entries);
          T.cell_f r.ab_mdc; T.cell_f r.ab_ddgt ])
    rows;
  T.render t

let bus_sweep rows =
  let t =
    T.create
      ~title:
        "Ablation: memory buses under NOBAL+REG (DDGT-PrefClus speedup over \
         best MDC; the paper: speedups increase from two buses to one)"
      [ ("benchmark", T.Left); ("2 buses", T.Right); ("1 bus", T.Right) ]
  in
  List.iter
    (fun (r : Ablations.bus_row) ->
      T.add_row t
        [ r.bu_bench; T.cell_f r.bu_two_buses; T.cell_f r.bu_one_bus ])
    rows;
  T.render t

let interleave_sweep rows =
  let t =
    T.create
      ~title:
        "Ablation: interleaving factor (free PrefClus local-hit ratio; * \
         marks the Table 1 choice)"
      [ ("benchmark", T.Left); ("2B", T.Right); ("4B", T.Right);
        ("8B", T.Right) ]
  in
  List.iter
    (fun (r : Ablations.il_row) ->
      let mark il v =
        (if r.il_chosen = il then "*" else "") ^ T.cell_pct v
      in
      T.add_row t
        [ r.il_bench; mark 2 r.il_hit2; mark 4 r.il_hit4; mark 8 r.il_hit8 ])
    rows;
  T.render t

let specialization rows =
  let t =
    T.create
      ~title:
        "Ablation: code specialization executed (Section 6; totals \
         normalized to free MinComs, PrefClus)"
      [ ("benchmark", T.Left); ("MDC before", T.Right); ("MDC after", T.Right);
        ("DDGT (ref)", T.Right) ]
  in
  List.iter
    (fun (r : Ablations.spec_row) ->
      T.add_row t
        [ r.sp_bench; T.cell_f r.sp_mdc_before; T.cell_f r.sp_mdc_after;
          T.cell_f r.sp_ddgt ])
    rows;
  T.render t

let unrolling rows =
  let t =
    T.create
      ~title:
        "Ablation: loop unrolling to NxI strides (Section 2.2; free \
         PrefClus)"
      [ ("benchmark", T.Left); ("factors", T.Left); ("local hit before", T.Right);
        ("local hit after", T.Right); ("cycles after/before", T.Right) ]
  in
  List.iter
    (fun (r : Ablations.unroll_row) ->
      T.add_row t
        [ r.un_bench; r.un_factors; T.cell_pct r.un_hit_before;
          T.cell_pct r.un_hit_after; T.cell_f r.un_cycles ])
    rows;
  T.render t

let reg_pressure rows =
  let t =
    T.create
      ~title:"Ablation: register pressure (MaxLive; AMEAN over all loops)"
      [ ("scheme", T.Left); ("sum over clusters", T.Right);
        ("hottest cluster", T.Right) ]
  in
  List.iter
    (fun (r : Ablations.reg_row) ->
      T.add_row t [ r.rp_scheme; T.cell_f r.rp_total; T.cell_f r.rp_worst ])
    rows;
  T.render t

let orderings rows =
  let t =
    T.create
      ~title:"Ablation: scheduler node ordering (free MinComs)"
      [ ("ordering", T.Left); ("cycles (norm)", T.Right);
        ("hottest MaxLive", T.Right); ("mean II", T.Right) ]
  in
  List.iter
    (fun (r : Ablations.ord_row) ->
      T.add_row t
        [ r.or_name; T.cell_f r.or_cycles; T.cell_f r.or_maxlive;
          T.cell_f r.or_ii ])
    rows;
  T.render t

(* one table for both machine grids: the [machine] columns, cycles per
   technique, the [traffic] counters, violations and certified/loops *)
let grid ~title ~machine ~traffic rows =
  let right h = (h, T.Right) in
  let t =
    T.create ~title
      (List.map (fun (h, align, _) -> (h, align)) machine
      @ List.map
          (fun tech -> right (String.lowercase_ascii (R.technique_name tech)))
          E.grid_techniques
      @ List.map (fun (h, _) -> right h) traffic
      @ List.map right [ "violations"; "certified" ])
  in
  List.iter
    (fun (r : E.grid_row) ->
      let count f = string_of_int (E.grid_total (R.total f) r) in
      T.add_row t
        (List.map (fun (_, _, cell) -> cell r.E.g_machine) machine
        @ List.map
            (fun tech -> Printf.sprintf "%.0f" (E.grid_cycles tech r))
            E.grid_techniques
        @ List.map (fun (_, f) -> count f) traffic
        @ [
            count (fun s -> s.Sim.violations);
            Printf.sprintf "%d/%d" (E.grid_total R.verified r)
              (E.grid_total (fun b -> List.length b.R.br_loops) r);
          ]))
    rows;
  T.render t

let clusters = ("clusters", T.Right, fun m -> string_of_int m.M.clusters)

let interconnect name =
  (name, T.Left, fun m -> M.interconnect_name m.M.interconnect)

let scale =
  grid
    ~title:
      "N-cluster scaling: shared bus vs directory (PrefClus, 16-entry ABs; \
       cycles summed over epicdec/g721dec/rasta)"
    ~machine:[ clusters; interconnect "interconnect" ]
    ~traffic:
      [
        ("hops", fun s -> s.Sim.packet_hops);
        ("lookups", fun s -> s.Sim.dir_lookups);
        ("invalidates", fun s -> s.Sim.dir_invalidates);
        ("writebacks", fun s -> s.Sim.dir_writebacks);
      ]

let protocol rows =
  grid
    ~title:
      "Coherence protocols: install/flush vs MSI (bus) vs MESI (directory) \
       (PrefClus, 16-entry ABs; cycles summed over epicdec/g721dec/rasta)"
    ~machine:
      [
        clusters;
        interconnect "backend";
        ("protocol", T.Left, fun m -> M.protocol_name m.M.protocol);
      ]
    ~traffic:
      [
        ("invalidations", fun s -> s.Sim.prot_invalidations);
        ("upgrades", fun s -> s.Sim.prot_upgrades);
        ("excl. hits", fun s -> s.Sim.prot_exclusive_hits);
      ]
    rows
  ^ "(install-flush rows are controls: same cycles as the matching scale \
     point, zero protocol traffic)\n"

let verification rows =
  let t =
    T.create
      ~title:
        "Static coherence verification (figure benchmarks, Table 2 machine)"
      [
        ("technique", T.Left); ("heuristic", T.Left); ("loops", T.Right);
        ("certified", T.Right); ("flagged", T.Right); ("flag rate", T.Right);
        ("dyn. violations", T.Right);
      ]
  in
  List.iter
    (fun (r : E.verif_row) ->
      let flagged = r.E.v_loops - r.E.v_verified in
      T.add_row t
        [
          R.technique_name r.E.v_technique;
          Vliw_sched.Schedule.heuristic_name r.E.v_heuristic;
          string_of_int r.E.v_loops;
          string_of_int r.E.v_verified;
          string_of_int flagged;
          Printf.sprintf "%.1f%%"
            (100. *. float_of_int flagged /. float_of_int (max 1 r.E.v_loops));
          string_of_int r.E.v_violations;
        ])
    rows;
  let proofs = Hashtbl.create 8 in
  List.iter
    (fun (r : E.verif_row) ->
      List.iter
        (fun (p, c) ->
          Hashtbl.replace proofs p
            (c + Option.value (Hashtbl.find_opt proofs p) ~default:0))
        r.E.v_proofs)
    rows;
  let histogram =
    List.filter_map
      (fun p ->
        match Hashtbl.find_opt proofs p with
        | Some c when c > 0 -> Some (Printf.sprintf "%s %d" p c)
        | _ -> None)
      Vliw_verify.Verify.proof_names
  in
  T.render t
  ^ Printf.sprintf
      "obligations discharged across all schemes: %s\n\
       (a flagged free/hybrid schedule is not proven unsafe, only not \
       provably safe; MDC and DDGT runs are refused unless certified)\n"
      (match histogram with [] -> "none" | h -> String.concat ", " h)

let fuzz s = Vliw_fuzz.Fuzz.render s
