module G = Vliw_ddg.Graph
module M = Vliw_arch.Machine
module S = Vliw_sched.Schedule
module Driver = Vliw_sched.Driver
module Hybrid = Vliw_sched.Hybrid
module P = Vliw_pipeline.Pipeline
module Lower = Vliw_lower.Lower
module Ir = Vliw_ir
module R = Vliw_harness.Runner
module W = Vliw_workloads.Workloads

let prep src =
  let k = Ir.Parser.parse_kernel src in
  let low = Lower.lower k in
  let layout = Ir.Layout.make k in
  let prof = Vliw_profile.Profile.run ~machine:M.table2 ~layout k in
  (k, low, Vliw_profile.Profile.node_pref prof)

let choose src =
  let k, low, pref_for = prep src in
  match
    Hybrid.choose ~machine:M.table2 ~heuristic:S.Pref_clus ~pref_for
      ~trip:k.Ir.Ast.k_trip low.Lower.graph
  with
  | Ok h -> h
  | Error e -> Alcotest.fail e

let test_chain_free_loop_picks_mdc () =
  (* no chains: MDC == free; DDGT can only add replication overhead, so the
     estimate must prefer MDC *)
  let h =
    choose
      "kernel k { array a : i32[512] = zero array b : i32[512] = zero trip 128 body { b[4*i] = a[4*i] + 1 } }"
  in
  Alcotest.(check string) "choice" "MDC" (Hybrid.choice_name h.Hybrid.choice);
  Alcotest.(check bool) "estimates ordered" true
    (h.Hybrid.mdc_estimate <= h.Hybrid.ddgt_estimate)

let test_chain_heavy_loop_picks_ddgt () =
  (* a big chain over clusters: MDC serializes 6 memory ops on one Mem FU
     (II >= 6) while DDGT spreads them *)
  let h =
    choose
      "kernel k { array a : i32[532] = ramp(1,3) trip 128 body { let x = \
       a[4*i] + a[4*i + 1] + a[4*i + 2] + a[4*i + 3] a[(x & 511) + 4] = x } }"
  in
  Alcotest.(check string) "choice" "DDGT" (Hybrid.choice_name h.Hybrid.choice);
  Alcotest.(check bool) "estimates ordered" true
    (h.Hybrid.ddgt_estimate < h.Hybrid.mdc_estimate)

let test_estimate_monotone_in_trip () =
  let k, low, pref_for = prep
      "kernel k { array a : i32[512] = zero trip 64 body { a[4*i] = a[4*i] + 1 } }"
  in
  let g = low.Lower.graph in
  let s =
    Driver.run_exn (Driver.request ~pref:(pref_for g) M.table2) g
  in
  ignore k;
  let e32 = Hybrid.estimate ~machine:M.table2 ~pref:(pref_for g) ~trip:32 g s in
  let e64 = Hybrid.estimate ~machine:M.table2 ~pref:(pref_for g) ~trip:64 g s in
  Alcotest.(check bool) "longer trips cost more" true (e64 > e32)

let test_chosen_schedule_validates () =
  let h =
    choose
      "kernel k { array a : i32[532] = zero trip 128 body { a[4*i] = a[4*i] + a[4*i + 5] } }"
  in
  match S.validate h.Hybrid.graph h.Hybrid.schedule with
  | Ok () -> ()
  | Error e -> Alcotest.fail e

let test_runner_hybrid_never_worse_than_both_on_suite () =
  (* across the whole suite (weighted totals), the hybrid should be at most
     a whisker above the better pure technique on every benchmark, and
     strictly better than the worse one somewhere *)
  let machine = M.table2 in
  let strictly_better = ref false in
  List.iter
    (fun b ->
      let cycles tech =
        (R.run_bench ~machine tech S.Pref_clus b).R.br_cycles
      in
      let m = cycles R.Mdc and d = cycles R.Ddgt and h = cycles R.Hybrid in
      Alcotest.(check bool)
        (b.W.b_name ^ ": hybrid within 10% of the best pure technique")
        true
        (h <= 1.10 *. Float.min m d);
      if h < 0.95 *. Float.max m d then strictly_better := true)
    [ W.find "g721dec"; W.find "gsmdec"; W.find "pgpdec" ];
  Alcotest.(check bool) "hybrid beats the worse technique somewhere" true
    !strictly_better

(* --- the shared technique->schedule step --- *)

let src_chain_heavy =
  "kernel k { array a : i32[532] = ramp(1,3) trip 128 body { let x = \
   a[4*i] + a[4*i + 1] + a[4*i + 2] + a[4*i + 3] a[(x & 511) + 4] = x } }"

let compile ?lat_policy src technique =
  let k, low, pref_for = prep src in
  match
    Hybrid.compile ~machine:M.table2 ~heuristic:S.Pref_clus ~pref_for
      ~trip:k.Ir.Ast.k_trip ?lat_policy technique low.Lower.graph
  with
  | Ok c -> (low, c)
  | Error e -> Alcotest.fail e

let test_compile_hybrid_is_choose () =
  let h = choose src_chain_heavy in
  let _, c = compile src_chain_heavy S.Hybrid in
  match c.Hybrid.c_hybrid with
  | None -> Alcotest.fail "hybrid compile carries no choice"
  | Some h' ->
    Alcotest.(check string) "choice" (Hybrid.choice_name h.Hybrid.choice)
      (Hybrid.choice_name h'.Hybrid.choice);
    Alcotest.(check (pair int int)) "estimates"
      (h.Hybrid.mdc_estimate, h.Hybrid.ddgt_estimate)
      (h'.Hybrid.mdc_estimate, h'.Hybrid.ddgt_estimate);
    Alcotest.(check string) "schedule"
      (Format.asprintf "%a" S.pp h.Hybrid.schedule)
      (Format.asprintf "%a" S.pp c.Hybrid.c_schedule)

(* choose_of over arms already built: the same choice as choose, the
   chosen arm's own schedule value, and a failed arm leaves the other *)
let test_choose_of_built_arms () =
  let k, low, pref_for = prep src_chain_heavy in
  let trip = k.Ir.Ast.k_trip in
  let arm technique =
    Hybrid.compile ~machine:M.table2 ~heuristic:S.Pref_clus ~pref_for ~trip
      technique low.Lower.graph
  in
  let mdc = arm S.Mdc and ddgt = arm S.Ddgt in
  let choose_of = Hybrid.choose_of ~machine:M.table2 ~pref_for ~trip in
  let h = Result.get_ok (choose_of mdc ddgt) and h' = choose src_chain_heavy in
  Alcotest.(check string) "choice" (Hybrid.choice_name h'.Hybrid.choice)
    (Hybrid.choice_name h.Hybrid.choice);
  Alcotest.(check (pair int int)) "estimates"
    (h'.Hybrid.mdc_estimate, h'.Hybrid.ddgt_estimate)
    (h.Hybrid.mdc_estimate, h.Hybrid.ddgt_estimate);
  let chosen =
    Result.get_ok (match h.Hybrid.choice with Hybrid.Chose_mdc -> mdc | _ -> ddgt)
  in
  Alcotest.(check bool) "the arm's own schedule" true
    (h.Hybrid.schedule == chosen.Hybrid.c_schedule);
  (match choose_of (Error "no") ddgt with
  | Ok only ->
    Alcotest.(check string) "a failed MDC arm leaves DDGT" "DDGT"
      (Hybrid.choice_name only.Hybrid.choice);
    Alcotest.(check int) "no MDC estimate" max_int only.Hybrid.mdc_estimate
  | Error e -> Alcotest.fail e);
  Alcotest.(check (result reject string))
    "both arms failed" (Error "hybrid: neither MDC nor DDGT schedules")
    (Result.map ignore (choose_of (Error "no") (Error "no")))

let test_compile_graph_per_technique () =
  List.iter
    (fun (technique, same) ->
      let low, c = compile src_chain_heavy technique in
      Alcotest.(check bool)
        (S.technique_name technique ^ " schedules the input graph")
        same
        (c.Hybrid.c_graph == low.Lower.graph);
      Alcotest.(check bool)
        (S.technique_name technique ^ " carries a choice")
        (technique = S.Hybrid)
        (c.Hybrid.c_hybrid <> None))
    [ (S.Free, true); (S.Mdc, true); (S.Ddgt, false) ]

let test_compile_lat_policy_reaches_hybrid () =
  (* both candidates take the caller's policy: under always-remote-miss
     every memory op of the chosen graph assumes a remote miss *)
  let remote_miss = M.latency M.table2 M.Remote_miss in
  let _, c = compile ~lat_policy:Driver.Fixed_max src_chain_heavy S.Hybrid in
  G.mem_refs c.Hybrid.c_graph
  |> List.iter (fun ((n : G.node), _) ->
         Alcotest.(check int) "assumed = remote miss" remote_miss
           (S.assumed_of c.Hybrid.c_schedule n.n_id))

let src_chain_free =
  "kernel k { array a : i32[512] = zero array b : i32[512] = zero trip 128 \
   body { b[4*i] = a[4*i] + 1 } }"

(* Pipeline.compile_all's hybrid entry is the record of the arm it picks:
   Diff.check's engine reuse and Check.run_case's exploration reuse rely on
   that sharing, and its schedule is the hybrid's own *)
let test_compile_all_shares_the_arm () =
  List.iter
    (fun (src, arm) ->
      let fe = P.front ~machine:M.table2 (Ir.Parser.parse_kernel src) in
      let all = P.compile_all ~heuristic:S.Pref_clus fe in
      let own = Result.get_ok (P.compile ~heuristic:S.Pref_clus fe S.Hybrid) in
      let name = S.technique_name arm in
      Alcotest.(check (option string)) "the hybrid's own choice" (Some name)
        (Option.map (fun h -> Hybrid.choice_name h.Hybrid.choice) own.P.hybrid);
      let hybrid = Result.get_ok (List.assoc S.Hybrid all) in
      Alcotest.(check bool) (name ^ "'s record, physically") true
        (hybrid == Result.get_ok (List.assoc arm all));
      Alcotest.(check string) "the hybrid's own schedule"
        (Format.asprintf "%a" S.pp own.P.schedule)
        (Format.asprintf "%a" S.pp hybrid.P.schedule))
    [ (src_chain_free, S.Mdc); (src_chain_heavy, S.Ddgt) ]

let test_technique_names () =
  List.iter
    (fun t ->
      Alcotest.(check bool)
        (S.technique_name t ^ " parses in lowercase")
        true
        (S.technique_of_name (String.lowercase_ascii (S.technique_name t)) = Some t))
    S.techniques;
  Alcotest.(check bool) "display spelling is not a flag" true
    (S.technique_of_name "MDC" = None)

(* --- latency policy ablation --- *)

let sched_with policy src =
  let k, low, pref_for = prep src in
  ignore k;
  let g = low.Lower.graph in
  match
    Driver.run (Driver.request ~pref:(pref_for g) ~lat_policy:policy M.table2) g
  with
  | Ok s -> s
  | Error e -> Alcotest.fail e

let src_free_slack =
  "kernel k { array a : i32[512] = zero array b : i32[512] = zero trip 64 body { b[4*i] = a[4*i] * 3 } }"

let test_fixed_min_keeps_local_hit_assumption () =
  let s = sched_with Driver.Fixed_min src_free_slack in
  Vliw_ddg.Graph.mem_refs
    (Lower.lower (Ir.Parser.parse_kernel src_free_slack)).Lower.graph
  |> List.iter (fun ((n : G.node), _) ->
         Alcotest.(check int) "assumed = local hit" 1 (S.assumed_of s n.n_id))

let test_fixed_max_assumes_remote_miss () =
  let s = sched_with Driver.Fixed_max src_free_slack in
  Vliw_ddg.Graph.mem_refs
    (Lower.lower (Ir.Parser.parse_kernel src_free_slack)).Lower.graph
  |> List.iter (fun ((n : G.node), _) ->
         Alcotest.(check int) "assumed = remote miss" 15 (S.assumed_of s n.n_id))

let test_policies_order_schedule_length () =
  let len p = (sched_with p src_free_slack).S.length in
  Alcotest.(check bool) "min shortest" true (len Driver.Fixed_min <= len Driver.Cache_sensitive);
  Alcotest.(check bool) "max not shorter than sensitive" true
    (len Driver.Fixed_max >= len Driver.Fixed_min)

let () =
  Alcotest.run "hybrid"
    [
      ( "choice",
        [
          Alcotest.test_case "chain-free picks MDC" `Quick
            test_chain_free_loop_picks_mdc;
          Alcotest.test_case "chain-heavy picks DDGT" `Quick
            test_chain_heavy_loop_picks_ddgt;
          Alcotest.test_case "estimate monotone" `Quick test_estimate_monotone_in_trip;
          Alcotest.test_case "chosen schedule validates" `Quick
            test_chosen_schedule_validates;
          Alcotest.test_case "suite sanity" `Slow
            test_runner_hybrid_never_worse_than_both_on_suite;
        ] );
      ( "compile",
        [
          Alcotest.test_case "hybrid is choose" `Quick test_compile_hybrid_is_choose;
          Alcotest.test_case "choose_of over built arms" `Quick
            test_choose_of_built_arms;
          Alcotest.test_case "graph per technique" `Quick
            test_compile_graph_per_technique;
          Alcotest.test_case "lat policy reaches hybrid" `Quick
            test_compile_lat_policy_reaches_hybrid;
          Alcotest.test_case "technique names" `Quick test_technique_names;
        ] );
      ( "pipeline",
        [
          Alcotest.test_case "compile_all shares the chosen arm" `Quick
            test_compile_all_shares_the_arm;
        ] );
      ( "latency policy",
        [
          Alcotest.test_case "fixed min" `Quick test_fixed_min_keeps_local_hit_assumption;
          Alcotest.test_case "fixed max" `Quick test_fixed_max_assumes_remote_miss;
          Alcotest.test_case "length ordering" `Quick test_policies_order_schedule_length;
        ] );
    ]
