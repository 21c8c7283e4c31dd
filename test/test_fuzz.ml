(* The differential fuzzer itself: generator determinism and coverage,
   oracle-vs-interpreter agreement, the differential predicate's teeth
   (a weakened verifier must be caught and shrunk small), and sweep
   reproducibility across pool widths. *)

module Gen = Vliw_fuzz.Gen
module Oracle = Vliw_fuzz.Oracle
module Diff = Vliw_fuzz.Diff
module Shrink = Vliw_fuzz.Shrink
module Fuzz = Vliw_fuzz.Fuzz
module Ir = Vliw_ir
module M = Vliw_arch.Machine
module V = Vliw_verify.Verify

let gen i = Gen.generate ~seed:1 ~budget:30 i

(* --- generator --- *)

let test_gen_deterministic () =
  for i = 0 to 9 do
    Alcotest.(check string)
      (Printf.sprintf "case %d regenerates identically" i)
      (Gen.to_file_string (gen i))
      (Gen.to_file_string (gen i))
  done

let test_gen_valid () =
  for i = 0 to 39 do
    let c = gen i in
    (match Ir.Typecheck.check c.Gen.g_kernel with
    | Ok _ -> ()
    | Error e -> Alcotest.failf "case %d does not typecheck: %s" i e);
    Alcotest.(check bool)
      "shapes drawn from the taxonomy" true
      (List.for_all (fun s -> List.mem s Gen.shape_names) c.Gen.g_shapes);
    Alcotest.(check bool) "at least one motif" true (c.Gen.g_shapes <> []);
    (* the machine configuration must pass the architecture validator *)
    ignore (Gen.machine c.Gen.g_mconf)
  done

let test_gen_covers_taxonomy () =
  let seen = Hashtbl.create 16 in
  for i = 0 to 149 do
    List.iter (fun s -> Hashtbl.replace seen s ()) (gen i).Gen.g_shapes
  done;
  List.iter
    (fun s ->
      Alcotest.(check bool)
        (Printf.sprintf "motif %s generated within 150 cases" s)
        true (Hashtbl.mem seen s))
    Gen.shape_names

let test_gen_budget_scales () =
  let small = Gen.generate ~seed:1 ~budget:8 3
  and large = Gen.generate ~seed:1 ~budget:48 3 in
  Alcotest.(check bool) "larger budget, at least as many motifs" true
    (List.length large.Gen.g_shapes >= List.length small.Gen.g_shapes)

let test_case_roundtrip () =
  for i = 0 to 9 do
    let c = gen i in
    let c' = Gen.of_file_string (Gen.to_file_string c) in
    Alcotest.(check string)
      (Printf.sprintf "case %d survives serialization" i)
      (Gen.to_file_string c) (Gen.to_file_string c')
  done

let test_plain_kernel_loads () =
  (* a hand-written kernel with no directives replays under defaults *)
  let c =
    Gen.of_file_string
      "kernel hand { array a : i32[64] = zero trip 8 body { a[i] = i } }"
  in
  Alcotest.(check string) "default machine" "bal" c.Gen.g_mconf.Gen.mc_base;
  Alcotest.(check int) "no jitter" 0 c.Gen.g_jitter;
  Alcotest.(check string) "kernel kept" "hand" c.Gen.g_kernel.Ir.Ast.k_name

(* --- oracle --- *)

let test_oracle_matches_interp () =
  for i = 0 to 24 do
    let c = gen i in
    let layout = Ir.Layout.make c.Gen.g_kernel in
    let oracle = Oracle.run ~layout c.Gen.g_kernel in
    let interp = Ir.Interp.run ~layout c.Gen.g_kernel in
    match Oracle.compare_interp oracle interp with
    | Ok () -> ()
    | Error e -> Alcotest.failf "case %d: executors disagree: %s" i e
  done

(* --- differential predicate --- *)

let test_diff_clean_cases () =
  for i = 0 to 11 do
    let v = Diff.check (gen i) in
    if v.Diff.v_failures <> [] then
      Alcotest.failf "case %d flagged: %s (%s)" i
        (List.hd v.Diff.v_failures).Diff.f_kind
        (List.hd v.Diff.v_failures).Diff.f_detail;
    Alcotest.(check int) "one run per technique"
      (List.length Diff.techniques)
      (List.length v.Diff.v_runs)
  done

let test_diff_deterministic () =
  let c = gen 5 in
  let render (v : Diff.verdict) =
    String.concat ";"
      (List.map
         (fun (r : Diff.run) ->
           match r.Diff.d_status with
           | Diff.Unschedulable e -> "unsched:" ^ e
           | Diff.Ran { r_verified; r_nominal; _ } ->
             Printf.sprintf "%s:%b:%d"
               (Diff.technique_name r.Diff.d_technique)
               r_verified r_nominal.Diff.so_violations)
         v.Diff.v_runs)
  in
  Alcotest.(check string) "equal verdicts on equal cases"
    (render (Diff.check c)) (render (Diff.check c))

(* Diff.check compiles each arm once and takes the hybrid from the MDC
   and DDGT results in hand. What its verifier hook is shown must print
   exactly as one-technique compiles do, the hybrid's own compile of both
   arms included *)
let test_shared_compiles_match_reference () =
  let pp s = Format.asprintf "%a" Vliw_sched.Schedule.pp s in
  for i = 0 to 99 do
    let c = gen i in
    let seen = ref [] in
    let verifier ~machine ~technique ~base ~layout ~graph ~schedule =
      seen := (Diff.technique_name technique, pp schedule) :: !seen;
      Diff.default_verifier ~machine ~technique ~base ~layout ~graph ~schedule
    in
    ignore (Diff.check ~verifier c);
    let reference =
      List.filter_map
        (fun tech ->
          match Diff.compile c tech with
          | Ok a -> Some (Diff.technique_name tech, pp a.Diff.a_schedule)
          | Error _ -> None)
        Diff.techniques
    in
    Alcotest.(check (list (pair string string)))
      (Printf.sprintf "case %d schedules" i)
      reference (List.rev !seen)
  done

(* a verifier that certifies everything: the differential predicate must
   expose the lie as certified-violation (the free baseline really does
   violate), and shrinking must cut the witness down to a tiny kernel *)
let lying ~machine ~technique ~base ~layout ~graph ~schedule =
  let r =
    Diff.default_verifier ~machine ~technique ~base ~layout ~graph ~schedule
  in
  { r with V.r_verified = true; r_jitter_robust = true; r_diags = [] }

let test_weakened_verifier_caught () =
  let s =
    Fuzz.run ~verifier:lying (Fuzz.config ~seed:1 ~count:10 ~jobs:1 ())
  in
  Alcotest.(check bool) "sweep not clean" false s.Fuzz.s_clean;
  let cv =
    Option.value
      (List.assoc_opt "certified-violation" s.Fuzz.s_kind_hist)
      ~default:0
  in
  Alcotest.(check bool) "certified-violation reported" true (cv > 0);
  (* the acceptance bar: at least one repro minimized to <= 6 DDG nodes *)
  Alcotest.(check bool) "a repro shrank to <= 6 nodes" true
    (List.exists (fun r -> r.Fuzz.rp_nodes <= 6) s.Fuzz.s_repros);
  List.iter
    (fun (r : Fuzz.repro) ->
      Alcotest.(check bool) "minimized repro still fails" true
        (Diff.failing ~verifier:lying r.Fuzz.rp_case))
    s.Fuzz.s_repros

(* --- shrinking --- *)

let test_shrink_fixpoint () =
  let c = gen 0 in
  (* shrink against a structural predicate: "still has a store" — cheap
     and monotone enough to exercise every reduction kind *)
  let has_store (c : Gen.case) =
    List.exists
      (fun (s : Ir.Ast.stmt) ->
        match s with Ir.Ast.Store _ -> true | _ -> false)
      c.Gen.g_kernel.Ir.Ast.k_body
  in
  let small = Shrink.shrink ~pred:has_store c in
  Alcotest.(check bool) "result satisfies the predicate" true (has_store small);
  Alcotest.(check bool) "no smaller candidate satisfies it" true
    (List.for_all
       (fun c' -> (not (Shrink.viable c')) || not (has_store c'))
       (Shrink.candidates small));
  Alcotest.(check bool) "did not grow" true
    (Shrink.node_count small <= Shrink.node_count c)

(* --- regression: the attraction-buffer fill race (found by this fuzzer) ---

   A store's instance executes in a cluster before that cluster's AB holds
   the subblock; a fill then arrives carrying a home snapshot taken before
   the store applied. Nothing ever freshens the copy, and a later
   certified load reads provably-stale data. The simulator must refuse
   such fills; before the fix this exact case ran a verified DDGT
   schedule with 1 coherence violation. *)
let ab_fill_race_src =
  "# vliw-fuzz case\n\
   # seed=1 index=245 budget=30\n\
   # machine=nobal-reg interleave=4 membus=4 ab=1 jitter=0\n\
   # shapes=may-alias,may-alias,mf-chain\n\
   kernel fuzz_1_245 {\n\
  \  array a0 : i8[11] = modpat(12)\n\
  \  array a1 : i64[12] = modpat(9)\n\
  \  array b1 : i64[22] = modpat(5) mayoverlap a1\n\
  \  array a2 : i8[22] = random(293079)\n\
  \  array b2 : i8[33] = random(106371) mayoverlap a2\n\
  \  trip 2\n\
  \  body {\n\
  \    a0[i] = max(i, i)\n\
  \    let x0 = a0[i]\n\
  \    a1[i] = 1\n\
  \    let x1 = b1[2 * i]\n\
  \    a2[2 * i] = 1\n\
  \    let x2 = b2[3 * i + 1]\n\
  \  }\n\
   }\n"

let test_ab_fill_race_regression () =
  let v = Diff.check (Gen.of_file_string ab_fill_race_src) in
  (match v.Diff.v_failures with
  | [] -> ()
  | f :: _ ->
    Alcotest.failf "AB fill race regressed: %s (%s): %s" f.Diff.f_kind
      f.Diff.f_technique f.Diff.f_detail);
  (* the witness is only meaningful if DDGT still certifies the schedule *)
  List.iter
    (fun (r : Diff.run) ->
      if r.Diff.d_technique = Diff.Ddgt then
        match r.Diff.d_status with
        | Diff.Ran { r_verified; r_nominal; _ } ->
          Alcotest.(check bool) "DDGT certified" true r_verified;
          Alcotest.(check int) "zero violations" 0 r_nominal.Diff.so_violations
        | Diff.Unschedulable e -> Alcotest.failf "DDGT unschedulable: %s" e)
    v.Diff.v_runs

(* --- the sweep --- *)

let test_sweep_jobs_invariant () =
  let run jobs =
    Fuzz.run (Fuzz.config ~seed:1 ~count:16 ~jobs ())
  in
  let a = run 1 and b = run 4 in
  Alcotest.(check string) "byte-identical report across pool widths"
    (Fuzz.render a) (Fuzz.render b);
  Alcotest.(check string) "byte-identical JSON across pool widths"
    (Vliw_util.Json.to_string (Fuzz.summary_json a))
    (Vliw_util.Json.to_string (Fuzz.summary_json b))

let test_sweep_summary_shape () =
  let s = Fuzz.run (Fuzz.config ~seed:2 ~count:8 ~jobs:2 ()) in
  Alcotest.(check int) "every case counted" 8 s.Fuzz.s_cases;
  Alcotest.(check (list string)) "histogram spans the whole taxonomy"
    Gen.shape_names
    (List.map fst s.Fuzz.s_shape_hist);
  Alcotest.(check bool) "clean sweep" true s.Fuzz.s_clean;
  Alcotest.(check bool) "certified runs happened" true
    (s.Fuzz.s_certified_runs > 0)

let () =
  Alcotest.run "fuzz"
    [
      ( "gen",
        [
          Alcotest.test_case "deterministic" `Quick test_gen_deterministic;
          Alcotest.test_case "valid cases" `Quick test_gen_valid;
          Alcotest.test_case "covers the taxonomy" `Quick test_gen_covers_taxonomy;
          Alcotest.test_case "budget scales" `Quick test_gen_budget_scales;
          Alcotest.test_case "file roundtrip" `Quick test_case_roundtrip;
          Alcotest.test_case "plain kernel loads" `Quick test_plain_kernel_loads;
        ] );
      ( "oracle",
        [ Alcotest.test_case "matches interpreter" `Quick test_oracle_matches_interp ] );
      ( "diff",
        [
          Alcotest.test_case "clean cases" `Slow test_diff_clean_cases;
          Alcotest.test_case "deterministic" `Quick test_diff_deterministic;
          Alcotest.test_case "shared compiles match per-technique ones" `Slow
            test_shared_compiles_match_reference;
          Alcotest.test_case "weakened verifier caught" `Slow
            test_weakened_verifier_caught;
        ] );
      ( "shrink",
        [ Alcotest.test_case "greedy fixpoint" `Quick test_shrink_fixpoint ] );
      ( "regressions",
        [
          Alcotest.test_case "AB fill race stays fixed" `Quick
            test_ab_fill_race_regression;
        ] );
      ( "sweep",
        [
          Alcotest.test_case "jobs-invariant output" `Slow test_sweep_jobs_invariant;
          Alcotest.test_case "summary shape" `Quick test_sweep_summary_shape;
        ] );
    ]
