module M = Vliw_arch.Machine
module S = Vliw_sched.Schedule
module R = Vliw_harness.Runner

(* every simulation these tests trigger is traced and replay-audited; a
   coherence-accounting disagreement surfaces as Failure in the test that
   ran it *)
module E = struct
  include Vliw_harness.Experiments

  let obs = { R.obs_audit = true; obs_trace_dir = None }
  let run ~machine scheme b = run ~machine ~obs scheme b
  let fig6 () = fig6 ~obs ()
  let fig7 () = fig7 ~obs ()
  let table3 () = table3 ~obs ()
  let table5 () = table5 ~obs ()
  let scale () = scale ~obs ()
  let protocol () = protocol ~obs ()
end

module Render = Vliw_harness.Render
module W = Vliw_workloads.Workloads

let close ?(eps = 1e-9) = Alcotest.(check (float eps))

let g721 = W.find "g721dec"
let pgp = W.find "pgpdec"

let test_access_mix_sums_to_one () =
  let br = E.run ~machine:M.table2 (R.Free, S.Pref_clus) g721 in
  let m = R.access_mix br in
  close ~eps:1e-6 "fractions sum to 1" 1.
    (m.R.f_local_hit +. m.R.f_remote_hit +. m.R.f_local_miss +. m.R.f_remote_miss
    +. m.R.f_combined)

let test_no_chains_means_mdc_equals_free () =
  (* g721 has no memory dependent chains, so MDC imposes no constraint and
     must produce exactly the free baseline's cycle counts *)
  let free = E.run ~machine:M.table2 (R.Free, S.Pref_clus) g721 in
  let mdc = E.run ~machine:M.table2 (R.Mdc, S.Pref_clus) g721 in
  close "identical cycles" free.R.br_cycles mdc.R.br_cycles

let test_cmr_car_zero_for_g721 () =
  let br = E.run ~machine:M.table2 (R.Free, S.Pref_clus) g721 in
  let cmr, car = R.cmr_car br in
  close "CMR 0" 0. cmr;
  close "CAR 0" 0. car

let test_cmr_car_positive_for_pgp () =
  let br = E.run ~machine:M.table2 (R.Free, S.Pref_clus) pgp in
  let cmr, car = R.cmr_car br in
  Alcotest.(check bool) "CMR large" true (cmr > 0.5);
  Alcotest.(check bool) "CAR in (0, CMR)" true (car > 0. && car < cmr)

let test_memoization_returns_same_run () =
  let a = E.run ~machine:M.table2 (R.Free, S.Pref_clus) g721 in
  let b = E.run ~machine:M.table2 (R.Free, S.Pref_clus) g721 in
  Alcotest.(check bool) "physically equal (cached)" true (a == b);
  E.clear_cache ();
  let c = E.run ~machine:M.table2 (R.Free, S.Pref_clus) g721 in
  Alcotest.(check bool) "recomputed after clear" true (c != a);
  close "but numerically identical" a.R.br_cycles c.R.br_cycles

let test_weights_scale_cycles () =
  let br = E.run ~machine:M.table2 (R.Free, S.Min_coms) g721 in
  let manual =
    List.fold_left2
      (fun acc (l : W.loop) (lr : R.loop_run) ->
        acc
        +. (float_of_int l.W.l_weight
           *. float_of_int lr.R.lr_stats.Vliw_sim.Sim.total_cycles))
      0. g721.W.b_loops br.R.br_loops
  in
  close "weighted sum" manual br.R.br_cycles

(* split_widths' aliased pair straddles interleave units, so the verifier
   rejects every schedule of it (split-access): the runner refuses MDC
   and DDGT, which promise coherence, and reports free and the hybrid.
   dune runtest's cwd is _build/default/test; a bare `dune exec` runs
   from the project root *)
let split_widths =
  let path =
    if Sys.file_exists "litmus" then "litmus/split_widths.lk"
    else "test/litmus/split_widths.lk"
  in
  let src = In_channel.with_open_bin path In_channel.input_all in
  {
    W.b_name = "split_widths";
    b_interleave = 4;
    b_data_size = 8;
    b_data_pct = 100;
    b_in_figures = false;
    b_profile_seed = 1;
    b_exec_seed = 2;
    b_loops =
      [
        { W.l_name = "split_widths"; l_weight = 1; l_source = (fun ~seed:_ -> src) };
      ];
  }

let test_runner_refuses_uncertified () =
  let run tech =
    R.run_bench ~machine:M.table2 ~obs:E.obs tech S.Pref_clus split_widths
  in
  List.iter
    (fun tech ->
      let expected =
        Printf.sprintf
          "split_widths/split_widths: cannot schedule (%s, PrefClus): rejected \
           by post-schedule check: "
          (R.technique_name tech)
      in
      match run tech with
      | _ -> Alcotest.failf "%s ran" (R.technique_name tech)
      | exception Failure msg ->
        Alcotest.(check string) "refusal" expected
          (String.sub msg 0 (min (String.length msg) (String.length expected))))
    [ R.Mdc; R.Ddgt ];
  List.iter
    (fun tech ->
      let br = run tech in
      Alcotest.(check (pair int int))
        (R.technique_name tech ^ ": 0 of 1 loops certified")
        (0, 1)
        (R.verified br, List.length br.R.br_loops))
    [ R.Free; R.Hybrid ]

let test_amean_mix () =
  let mk lh rh =
    { R.f_local_hit = lh; f_remote_hit = rh; f_local_miss = 0.;
      f_remote_miss = 0.; f_combined = 0. }
  in
  let m = E.amean_mix [ mk 0.4 0.6; mk 0.8 0.2 ] in
  close "mean local" 0.6 m.R.f_local_hit;
  close "mean remote" 0.4 m.R.f_remote_hit

let test_table5_specialization_shrinks () =
  List.iter
    (fun r ->
      Alcotest.(check bool)
        (r.E.t5_bench ^ ": NEW CMR <= OLD CMR")
        true
        (r.E.t5_new_cmr <= r.E.t5_old_cmr +. 1e-9);
      Alcotest.(check bool)
        (r.E.t5_bench ^ ": removed some deps")
        true (r.E.t5_removed > 0))
    (E.table5 ())

let test_fig7_normalization_sane () =
  (* every bar's compute+stall is positive and within a sane multiple of
     the baseline *)
  List.iter
    (fun r ->
      List.iter
        (fun (b : E.bar) ->
          let total = b.E.b_compute +. b.E.b_stall in
          Alcotest.(check bool)
            (r.E.f7_bench ^ " bar in (0, 5]")
            true
            (total > 0. && total < 5.))
        [ r.E.f7_mdc_pref; r.E.f7_mdc_min; r.E.f7_ddgt_pref; r.E.f7_ddgt_min ])
    (E.fig7 ())

let test_fig6_headline_shape () =
  (* the paper's two headline claims about Figure 6:
     MDC lowers the mean local-hit ratio; DDGT raises it above MDC *)
  let rows = E.fig6 () in
  let mean f =
    (E.amean_mix (List.map f rows)).R.f_local_hit
  in
  let free = mean (fun r -> r.E.f6_free)
  and mdc = mean (fun r -> r.E.f6_mdc)
  and ddgt = mean (fun r -> r.E.f6_ddgt) in
  Alcotest.(check bool) "MDC below free" true (mdc < free);
  Alcotest.(check bool) "DDGT above MDC" true (ddgt > mdc)

(* the machine grids' documented invariants: an install-flush protocol row
   is a control, equal per technique to the scale row of the same cluster
   count and backend and free of protocol traffic, and every scheme of
   either grid runs clean and certified *)
let test_grid_invariants () =
  let module Sim = Vliw_sim.Sim in
  let scale = E.scale () and protocol = E.protocol () in
  let label (r : E.grid_row) =
    let m = r.E.g_machine in
    Printf.sprintf "%d/%s/%s" m.M.clusters (M.interconnect_name m.M.interconnect)
      (M.protocol_name m.M.protocol)
  in
  let total f r = E.grid_total (R.total f) r in
  let controls =
    List.filter (fun r -> r.E.g_machine.M.protocol = M.Install_flush) protocol
  in
  Alcotest.(check int) "install-flush controls" 4 (List.length controls);
  List.iter
    (fun (p : E.grid_row) ->
      let m = p.E.g_machine in
      let s =
        List.find
          (fun (s : E.grid_row) ->
            s.E.g_machine.M.clusters = m.M.clusters
            && s.E.g_machine.M.interconnect = m.M.interconnect)
          scale
      in
      List.iter
        (fun tech ->
          close ~eps:0.
            (label p ^ " " ^ R.technique_name tech ^ " cycles = scale's")
            (E.grid_cycles tech s) (E.grid_cycles tech p))
        E.grid_techniques;
      List.iter
        (fun (what, f) ->
          Alcotest.(check int) (label p ^ " " ^ what) 0 (total f p))
        [
          ("prot_invalidations", fun s -> s.Sim.prot_invalidations);
          ("prot_upgrades", fun s -> s.Sim.prot_upgrades);
          ("prot_exclusive_hits", fun s -> s.Sim.prot_exclusive_hits);
        ])
    controls;
  List.iter
    (fun r ->
      Alcotest.(check int) (label r ^ " violations") 0
        (total (fun s -> s.Sim.violations) r);
      Alcotest.(check int) (label r ^ " certified")
        (E.grid_total (fun b -> List.length b.R.br_loops) r)
        (E.grid_total R.verified r))
    (scale @ protocol)

(* --- pool + memo determinism --- *)

module Memo = Vliw_harness.Memo
module Pool = Vliw_util.Pool

let with_jobs n f =
  let old = Pool.jobs () in
  Pool.set_jobs n;
  Fun.protect ~finally:(fun () -> Pool.set_jobs old) f

let test_pooled_fig7_equals_sequential () =
  (* the acceptance bar of the parallel harness: a pooled sweep renders
     byte-identical tables. Both runs start from cold caches. *)
  let render () =
    Render.fig7 ~title:"Figure 7. Execution cycles"
      ~baseline_label:"free MinComs" (E.fig7 ())
  in
  E.clear_cache ();
  let sequential = with_jobs 1 render in
  E.clear_cache ();
  let pooled = with_jobs 4 render in
  Alcotest.(check string) "pooled output = sequential output" sequential pooled

let test_memo_shares_stages_across_schemes () =
  E.clear_cache ();
  let before = Memo.counters () in
  Alcotest.(check int) "cleared" 0 (before.Memo.hits + before.Memo.misses);
  let _ = E.run ~machine:M.table2 (R.Free, S.Pref_clus) pgp in
  let after_first = Memo.counters () in
  Alcotest.(check bool) "first scheme populates the cache" true
    (after_first.Memo.misses > 0);
  (* a different scheme on the same benchmark re-uses every front-end
     stage: stage lookups all hit, so misses stay put *)
  let _ = E.run ~machine:M.table2 (R.Mdc, S.Min_coms) pgp in
  let after_second = Memo.counters () in
  Alcotest.(check int) "no new misses for a second scheme"
    after_first.Memo.misses after_second.Memo.misses;
  Alcotest.(check bool) "second scheme hits" true
    (after_second.Memo.hits > after_first.Memo.hits);
  Alcotest.(check bool) "hit rate reported" true (Memo.hit_rate () > 0.)

let test_memo_fingerprint_distinguishes_machines () =
  Alcotest.(check string) "equal machines, equal fingerprints"
    (Memo.fingerprint M.table2) (Memo.fingerprint M.table2);
  Alcotest.(check bool) "interleave changes the fingerprint" true
    (Memo.fingerprint M.table2
    <> Memo.fingerprint (M.with_interleave M.table2 2));
  Alcotest.(check bool) "bus configuration changes the fingerprint" true
    (Memo.fingerprint M.table2 <> Memo.fingerprint M.nobal_reg)

(* --- the memo's two tables --- *)

module Cache = Vliw_util.Cache

let test_memo_stage_counters () =
  Memo.clear ();
  let z = Memo.counters () in
  Alcotest.(check int) "cleared hits" 0 z.Memo.hits;
  Alcotest.(check int) "cleared misses" 0 z.Memo.misses;
  let bench = W.find "g721dec" in
  let loop = List.hd bench.W.b_loops in
  let k1 = Memo.parse ~bench ~seed:1 loop in
  let k2 = Memo.parse ~bench ~seed:1 loop in
  Alcotest.(check bool) "second parse is the cached kernel" true (k1 == k2);
  let p = Memo.parse_stats () and s = Memo.stage_stats () in
  Alcotest.(check int) "one parse miss" 1 p.Cache.c_misses;
  Alcotest.(check int) "one parse hit" 1 p.Cache.c_hits;
  let c = Memo.counters () in
  Alcotest.(check int) "totals sum the tables" (c.Memo.hits + c.Memo.misses)
    (p.Cache.c_hits + p.Cache.c_misses + s.Cache.c_hits + s.Cache.c_misses)

(* the stage table is keyed by the machine's value: two equal machines
   whose records share differently (and so marshal, and fingerprint,
   differently) share one entry *)
let test_memo_equal_machines_share_stages () =
  let m1 = M.with_interleave M.table2 4 in
  let m2 = { m1 with M.mem_buses = { m1.M.mem_buses with M.bus_count = 4 } } in
  Alcotest.(check bool) "equal machines" true (m1 = m2);
  Alcotest.(check bool) "labelled differently" true
    (Memo.fingerprint m1 <> Memo.fingerprint m2);
  Memo.clear ();
  let bench = W.find "g721dec" in
  let loop = List.hd bench.W.b_loops in
  let a = Memo.stages ~machine:m1 ~bench loop in
  let b = Memo.stages ~machine:m2 ~bench loop in
  Alcotest.(check bool) "one shared entry" true (a == b);
  let s = Memo.stage_stats () in
  Alcotest.(check int) "one stage miss" 1 s.Cache.c_misses;
  Alcotest.(check int) "one stage hit" 1 s.Cache.c_hits

(* perfbench's paper op and --selfcheck name every run's machine by its
   fingerprint, so the label's bytes must not move *)
let test_memo_fingerprint_pinned () =
  List.iter
    (fun (name, m, hex) -> Alcotest.(check string) name hex (Memo.fingerprint m))
    [
      ("table2", M.table2, "7b91c62320845f748754fce2d2a6c42f");
      ("nobal_mem", M.nobal_mem, "718c4a62d158da526c40ca2a0bb21bcb");
      ("nobal_reg", M.nobal_reg, "0c5a791313c2a2f18b8f801796ba169a");
    ]

let test_renderers_produce_output () =
  let nonempty name s = Alcotest.(check bool) name true (String.length s > 100) in
  nonempty "table1" (Render.table1 ());
  nonempty "table2" (Render.table2 M.table2);
  nonempty "table3" (Render.table3 (E.table3 ()));
  nonempty "table5" (Render.table5 (E.table5 ()))

(* --- profile --- *)

module Profile = Vliw_profile.Profile
module Ir = Vliw_ir
module G = Vliw_ddg.Graph

let test_profile_histogram_exact () =
  (* a[4*i] with i32/4B interleave: every access lands in cluster 0 *)
  let k =
    Ir.Parser.parse_kernel
      "kernel k { array a : i32[128] = zero scalar s : i64 = 0 trip 32 body { s = s + a[4*i] } }"
  in
  let p = Profile.run ~machine:M.table2 ~layout:(Ir.Layout.make k) k in
  Alcotest.(check (array int)) "all 32 in cluster 0" [| 32; 0; 0; 0 |]
    (Profile.histogram p 0);
  Alcotest.(check int) "preferred" 0 (Profile.preferred p 0);
  close "fully predictable" 1.0 (Profile.predictability p)

let test_profile_rotating_home () =
  (* stride-1 i32: homes rotate 0,1,2,3 uniformly *)
  let k =
    Ir.Parser.parse_kernel
      "kernel k { array a : i32[64] = zero scalar s : i64 = 0 trip 32 body { s = s + a[i] } }"
  in
  let p = Profile.run ~machine:M.table2 ~layout:(Ir.Layout.make k) k in
  Alcotest.(check (array int)) "uniform homes" [| 8; 8; 8; 8 |]
    (Profile.histogram p 0);
  close "predictability 1/4" 0.25 (Profile.predictability p)

let test_profile_node_pref_through_replicas () =
  let k =
    Ir.Parser.parse_kernel
      "kernel k { array a : i32[132] = zero trip 32 body { a[4*i] = a[4*i] + a[4*i + 1] } }"
  in
  let low = Vliw_lower.Lower.lower k in
  let p = Profile.run ~machine:M.table2 ~layout:(Ir.Layout.make k) k in
  let r = Vliw_core.Ddgt.transform ~clusters:4 low.Vliw_lower.Lower.graph in
  (* every replica instance reports its original's histogram *)
  List.iter
    (fun (orig, insts) ->
      let h0 = Profile.node_pref p r.Vliw_core.Ddgt.graph orig in
      List.iter
        (fun inst ->
          Alcotest.(check bool) "replica histogram matches original" true
            (Profile.node_pref p r.Vliw_core.Ddgt.graph inst = h0))
        insts)
    r.Vliw_core.Ddgt.replicas

let test_profile_locality_sums () =
  let k =
    Ir.Parser.parse_kernel
      "kernel k { array a : i32[64] = zero array b : i32[64] = zero trip 16 body { b[i] = a[i] } }"
  in
  let p = Profile.run ~machine:M.table2 ~layout:(Ir.Layout.make k) k in
  Alcotest.(check int) "totals = dynamic accesses" 32
    (Array.fold_left ( + ) 0 (Profile.locality p))

let test_profile_nonneg_padding_score () =
  let k =
    Ir.Parser.parse_kernel
      "kernel k { array a : i32[64] = zero array b : i32[68] = zero trip 16 body { b[4*i + 1] = a[4*i] } }"
  in
  let pad, score = Profile.best_padding ~machine:M.table2 k in
  Alcotest.(check bool) "pad aligned to interleave" true (pad mod 4 = 0);
  Alcotest.(check bool) "score in (0,1]" true (score > 0. && score <= 1.)

(* --- counter-drift self-check --- *)

module Selfcheck = Vliw_harness.Selfcheck
module Json = Vliw_util.Json

let contains s frag =
  let n = String.length s and m = String.length frag in
  let rec go i = i + m <= n && (String.sub s i m = frag || go (i + 1)) in
  go 0

(* a real run, encoded, wrapped as a baseline document like the ones
   bench/main.exe --json writes *)
let selfcheck_fixture () =
  let br = E.run ~machine:M.table2 (R.Free, S.Pref_clus) g721 in
  let current =
    List.filter_map
      (fun (fp, m, (r : R.bench_run)) ->
        if r == br then Some (Selfcheck.run_json (fp, m, r)) else None)
      (E.cached_runs ())
  in
  Alcotest.(check int) "fixture run found" 1 (List.length current);
  (current, Json.Obj [ ("runs", Json.List current) ])

let test_selfcheck_clean () =
  let current, baseline = selfcheck_fixture () in
  Alcotest.(check int)
    "no drift against itself" 0
    (List.length (Selfcheck.check ~baseline ~current));
  (* round-tripping the baseline through its serialized form (Float ->
     textual -> Int for whole numbers) must still compare clean — this is
     exactly what happens against the committed file *)
  let reparsed = Json.of_string (Json.to_string baseline) in
  Alcotest.(check int)
    "no drift after serialization round-trip" 0
    (List.length (Selfcheck.check ~baseline:reparsed ~current))

let test_selfcheck_detects_drift () =
  let current, baseline = selfcheck_fixture () in
  let corrupt = function
    | Json.Obj kvs ->
      Json.Obj
        (List.map
           (function
             | "cycles", _ -> ("cycles", Json.Float 1.0)
             | kv -> kv)
           kvs)
    | v -> v
  in
  let bad =
    match baseline with
    | Json.Obj [ ("runs", Json.List rs) ] ->
      Json.Obj [ ("runs", Json.List (List.map corrupt rs)) ]
    | v -> v
  in
  let drifts = Selfcheck.check ~baseline:bad ~current in
  Alcotest.(check int) "exactly the corrupted field drifts" 1
    (List.length drifts);
  let d = List.hd drifts in
  Alcotest.(check string) "field name" "cycles" d.Selfcheck.d_field;
  Alcotest.(check bool) "render mentions the run" true
    (contains (Selfcheck.render drifts) "g721dec")

let test_selfcheck_missing_run () =
  let current, _ = selfcheck_fixture () in
  let drifts =
    Selfcheck.check ~baseline:(Json.Obj [ ("runs", Json.List []) ]) ~current
  in
  Alcotest.(check int) "missing run is one drift" 1 (List.length drifts);
  Alcotest.(check string) "flagged as missing" "(run)"
    (List.hd drifts).Selfcheck.d_field

let test_selfcheck_ignores_timing () =
  let current, baseline = selfcheck_fixture () in
  (* a timing field in the baseline with a wild value must not drift *)
  let with_timing =
    match (baseline, current) with
    | Json.Obj [ ("runs", Json.List rs) ], [ Json.Obj kvs ] ->
      ( Json.Obj [ ("runs", Json.List rs) ],
        [ Json.Obj (("wall_s", Json.Float 1e9) :: kvs) ] )
    | b, c -> (b, c)
  in
  let baseline, current = with_timing in
  Alcotest.(check int)
    "timing fields excluded" 0
    (List.length (Selfcheck.check ~baseline ~current))

let () =
  Alcotest.run "harness"
    [
      ( "runner",
        [
          Alcotest.test_case "access mix sums" `Quick test_access_mix_sums_to_one;
          Alcotest.test_case "no chains: MDC = free" `Quick
            test_no_chains_means_mdc_equals_free;
          Alcotest.test_case "g721 ratios" `Quick test_cmr_car_zero_for_g721;
          Alcotest.test_case "pgp ratios" `Quick test_cmr_car_positive_for_pgp;
          Alcotest.test_case "memoization" `Quick test_memoization_returns_same_run;
          Alcotest.test_case "weights" `Quick test_weights_scale_cycles;
          Alcotest.test_case "uncertified MDC/DDGT refused" `Quick
            test_runner_refuses_uncertified;
        ] );
      ( "profile",
        [
          Alcotest.test_case "exact histogram" `Quick test_profile_histogram_exact;
          Alcotest.test_case "rotating home" `Quick test_profile_rotating_home;
          Alcotest.test_case "replicas" `Quick test_profile_node_pref_through_replicas;
          Alcotest.test_case "locality sums" `Quick test_profile_locality_sums;
          Alcotest.test_case "padding score" `Quick test_profile_nonneg_padding_score;
        ] );
      ( "experiments",
        [
          Alcotest.test_case "amean" `Quick test_amean_mix;
          Alcotest.test_case "table5 shrinks" `Quick test_table5_specialization_shrinks;
          Alcotest.test_case "fig7 sanity" `Slow test_fig7_normalization_sane;
          Alcotest.test_case "fig6 headline" `Slow test_fig6_headline_shape;
          Alcotest.test_case "grid invariants" `Slow test_grid_invariants;
          Alcotest.test_case "renderers" `Quick test_renderers_produce_output;
        ] );
      ( "selfcheck",
        [
          Alcotest.test_case "clean against itself" `Quick test_selfcheck_clean;
          Alcotest.test_case "detects drift" `Quick test_selfcheck_detects_drift;
          Alcotest.test_case "missing run" `Quick test_selfcheck_missing_run;
          Alcotest.test_case "ignores timing" `Quick test_selfcheck_ignores_timing;
        ] );
      ( "pool+memo",
        [
          Alcotest.test_case "memo shares stages" `Quick
            test_memo_shares_stages_across_schemes;
          Alcotest.test_case "memo fingerprint" `Quick
            test_memo_fingerprint_distinguishes_machines;
          Alcotest.test_case "pooled fig7 = sequential" `Slow
            test_pooled_fig7_equals_sequential;
        ] );
      ( "memo",
        [
          Alcotest.test_case "stage counters" `Quick test_memo_stage_counters;
          Alcotest.test_case "equal machines share stages" `Quick
            test_memo_equal_machines_share_stages;
          Alcotest.test_case "fingerprint pinned" `Quick
            test_memo_fingerprint_pinned;
        ] );
    ]
