module G = Vliw_ddg.Graph
module M = Vliw_arch.Machine
module S = Vliw_sched.Schedule
module Driver = Vliw_sched.Driver
module Chains = Vliw_core.Chains
module Ddgt = Vliw_core.Ddgt
module Lower = Vliw_lower.Lower
module Ir = Vliw_ir
module Sim = Vliw_sim.Sim
module W = Vliw_workloads.Workloads
module Runner = Vliw_harness.Runner
module D = Vliw_util.Diag
module Json = Vliw_util.Json
module V = Vliw_verify.Verify

let contains s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  m = 0 || go 0

let codes r = List.map (fun d -> d.D.d_code) r.V.r_diags

let compile ?heuristic ?constraints ?(machine = M.table2) src =
  let k = Ir.Parser.parse_kernel src in
  let low = Lower.lower k in
  let layout = Ir.Layout.make k in
  let s =
    match
      Driver.run (Driver.request ?heuristic ?constraints machine) low.Lower.graph
    with
    | Ok s -> s
    | Error e -> Alcotest.fail e
  in
  (k, low, layout, s)

(* --- Diag unit tests --- *)

let test_diag_pp_and_promote () =
  let w = D.make D.Warning ~code:"some-code" ~context:[ ("k", "v") ] "msg %d" 7 in
  Alcotest.(check string) "pp" "warning[some-code]: msg 7"
    (Format.asprintf "%a" D.pp w);
  let i = D.make D.Info ~code:"fyi" "hi" in
  Alcotest.(check bool) "no errors yet" false (D.has_errors [ w; i ]);
  let promoted = D.promote_warnings [ w; i ] in
  Alcotest.(check bool) "promoted to error" true (D.has_errors promoted);
  Alcotest.(check int) "only the warning promoted" 1
    (List.length (D.errors promoted));
  (match promoted with
  | [ e; i' ] ->
    Alcotest.(check string) "code stable" "some-code" e.D.d_code;
    Alcotest.(check string) "context kept" "v" (List.assoc "k" e.D.d_context);
    Alcotest.(check bool) "info untouched" true (i'.D.d_severity = D.Info)
  | _ -> Alcotest.fail "promote changed the list shape");
  match D.to_json w with
  | Json.Obj fields ->
    Alcotest.(check bool) "json has severity/code/message" true
      (List.mem_assoc "severity" fields
      && List.mem_assoc "code" fields
      && List.mem_assoc "message" fields)
  | _ -> Alcotest.fail "to_json is not an object"

(* --- handcrafted schedules, one per rule --- *)

(* the paper's Figure 2 scenario (same kernel as test_sim's contention
   test): an aliased store/load pair plus junk stores that keep the single
   memory bus busy *)
let contend_src =
  "kernel k { array a : i32[520] = ramp(0,1) array junk : i32[4096] = zero \
   scalar s : i64 = 0 trip 128 body { junk[3*i] = i junk[5*i + 1] = i \
   a[4*i + 8] = i * 5 s = s + a[4*i] } }"

let test_mdc_colocated_certifies () =
  let k = Ir.Parser.parse_kernel contend_src in
  let low = Lower.lower k in
  let layout = Ir.Layout.make k in
  let constraints = Chains.mincoms low.Lower.graph in
  let s = Driver.run_exn (Driver.request ~constraints M.table2) low.Lower.graph in
  let r =
    V.check ~machine:M.table2 ~technique:V.Mdc ~base:low.Lower.graph ~layout
      ~graph:low.Lower.graph ~schedule:s ()
  in
  Alcotest.(check bool) "certified" true r.V.r_verified;
  Alcotest.(check bool) "discharged by co-location" true
    (List.mem_assoc "co-located" r.V.r_proofs);
  Alcotest.(check int) "every obligation proved" r.V.r_obligations
    (List.fold_left (fun a (_, c) -> a + c)
       0
       (List.filter (fun (p, _) -> p = "co-located") r.V.r_proofs))

(* the acceptance case: a naive cross-cluster schedule is flagged, and the
   same schedule really does violate coherence dynamically (jittered single
   bus, exactly test_sim's baseline-violations scenario) *)
let test_flagged_naive_schedule_violates () =
  let k = Ir.Parser.parse_kernel contend_src in
  let low = Lower.lower k in
  let layout = Ir.Layout.make k in
  let pinned = Hashtbl.create 4 in
  List.iter
    (fun ((n : G.node), (mr : G.mem_ref)) ->
      if mr.G.mr_array = "a" then
        Hashtbl.replace pinned n.G.n_id (if G.is_store n then 3 else 0))
    (G.mem_refs low.Lower.graph);
  let machine =
    { M.table2 with M.mem_buses = { M.bus_count = 1; bus_latency = 2 } }
  in
  let s =
    Driver.run_exn
      (Driver.request ~constraints:{ Chains.pinned; grouped = [] } machine)
      low.Lower.graph
  in
  let r =
    V.check ~machine ~technique:V.Free ~base:low.Lower.graph ~layout
      ~graph:low.Lower.graph ~schedule:s ()
  in
  Alcotest.(check bool) "flagged" false r.V.r_verified;
  Alcotest.(check bool) "unordered-pair reported" true
    (List.mem "unordered-pair" (codes r));
  let st =
    Sim.run ~lowered:low ~graph:low.Lower.graph ~schedule:s ~layout
      ~jitter:(Vliw_util.Prng.create 42, 6) ()
  in
  Alcotest.(check bool) "dynamic violations observed" true
    (st.Sim.violations > 0)

let test_mdc_chain_split_code () =
  (* same pinned-apart schedule, but judged as an MDC compilation: the
     verifier names the broken invariant *)
  let k = Ir.Parser.parse_kernel contend_src in
  let low = Lower.lower k in
  let pinned = Hashtbl.create 4 in
  List.iter
    (fun ((n : G.node), (mr : G.mem_ref)) ->
      if mr.G.mr_array = "a" then
        Hashtbl.replace pinned n.G.n_id (if G.is_store n then 3 else 0))
    (G.mem_refs low.Lower.graph);
  let s =
    Driver.run_exn
      (Driver.request ~constraints:{ Chains.pinned; grouped = [] } M.table2)
      low.Lower.graph
  in
  let r =
    V.check ~machine:M.table2 ~technique:V.Mdc ~base:low.Lower.graph
      ~graph:low.Lower.graph ~schedule:s ()
  in
  Alcotest.(check bool) "rejected" false r.V.r_verified;
  Alcotest.(check bool) "chain-split reported" true
    (List.mem "chain-split" (codes r))

let test_ddgt_certifies () =
  let k = Ir.Parser.parse_kernel contend_src in
  let low = Lower.lower k in
  let layout = Ir.Layout.make k in
  let tr = Ddgt.transform ~clusters:M.table2.M.clusters low.Lower.graph in
  let s = Driver.run_exn (Driver.request M.table2) tr.Ddgt.graph in
  let r =
    V.check ~machine:M.table2 ~technique:V.Ddgt ~base:low.Lower.graph ~layout
      ~graph:tr.Ddgt.graph ~schedule:s ()
  in
  Alcotest.(check bool) "certified" true r.V.r_verified;
  Alcotest.(check bool) "some obligations discharged" true
    (r.V.r_obligations > 0);
  Alcotest.(check bool) "replication proofs used" true
    (List.exists
       (fun p -> List.mem_assoc p r.V.r_proofs)
       [ "local-first"; "value-sync"; "replica-disjoint"; "disjoint-homes" ])

(* regression (found by the differential fuzzer): the DDGT transform's
   fake consumers carry an [n_orig] that names their own fresh id, which
   does not exist in the base graph — membership tests against the base
   must not raise on them *)
let test_ddgt_fake_consumers_verify () =
  let k =
    Ir.Parser.parse_kernel
      "kernel f { array a : i64[32] = zero array b : i64[64] = ramp(0,1) \
       mayoverlap a trip 8 body { let x = b[2*i] a[i] = 1 } }"
  in
  let low = Lower.lower k in
  let layout = Ir.Layout.make k in
  let tr = Ddgt.transform ~clusters:M.table2.M.clusters low.Lower.graph in
  Alcotest.(check bool) "transform added fake consumers" true
    (tr.Ddgt.fakes <> []);
  let s = Driver.run_exn (Driver.request M.table2) tr.Ddgt.graph in
  let r =
    V.check ~machine:M.table2 ~technique:V.Ddgt ~base:low.Lower.graph ~layout
      ~graph:tr.Ddgt.graph ~schedule:s ()
  in
  Alcotest.(check bool) "certified" true r.V.r_verified

let test_ddgt_missing_replication () =
  (* replicate for 2 clusters but schedule on the 4-cluster machine: the
     instances cannot cover every cluster *)
  let k = Ir.Parser.parse_kernel contend_src in
  let low = Lower.lower k in
  let tr = Ddgt.transform ~clusters:2 low.Lower.graph in
  let s = Driver.run_exn (Driver.request M.table2) tr.Ddgt.graph in
  let check technique =
    V.check ~machine:M.table2 ~technique ~base:low.Lower.graph
      ~graph:tr.Ddgt.graph ~schedule:s ()
  in
  let r = check V.Ddgt in
  Alcotest.(check bool) "rejected" false r.V.r_verified;
  Alcotest.(check bool) "coverage or replication error" true
    (List.mem "replica-coverage" (codes r)
    || List.mem "missing-replication" (codes r));
  (* a hybrid that chose DDGT is held to DDGT's replication check *)
  let h = check V.Hybrid in
  Alcotest.(check bool) "hybrid rejected" false h.V.r_verified;
  Alcotest.(check bool) "hybrid missing-replication reported" true
    (List.mem "missing-replication" (codes h));
  Alcotest.(check (list string)) "hybrid codes are DDGT's" (codes r) (codes h)

let test_split_access () =
  (* mayoverlap arrays with different element widths wider than the
     interleave unit: updates split across cache modules *)
  let src =
    "kernel k { array big : i64[64] = zero array small : i32[256] = zero \
     mayoverlap big trip 32 body { big[i] = i small[2*i] = i } }"
  in
  let _, low, layout, s = compile src in
  let r =
    V.check ~machine:M.table2 ~technique:V.Free ~base:low.Lower.graph ~layout
      ~graph:low.Lower.graph ~schedule:s ()
  in
  Alcotest.(check bool) "rejected" false r.V.r_verified;
  Alcotest.(check bool) "split-access reported" true
    (List.mem "split-access" (codes r))

let test_tampered_schedule_rejected () =
  (* soundness must be a property of the schedule, not of how it was
     produced: take a certified MDC schedule and push one aliased access to
     another cluster — the certificate must not survive *)
  let k = Ir.Parser.parse_kernel contend_src in
  let low = Lower.lower k in
  let constraints = Chains.mincoms low.Lower.graph in
  let s = Driver.run_exn (Driver.request ~constraints M.table2) low.Lower.graph in
  let check ?(technique = V.Mdc) sched =
    V.check ~machine:M.table2 ~technique ~base:low.Lower.graph
      ~graph:low.Lower.graph ~schedule:sched ()
  in
  Alcotest.(check bool) "pristine certified" true (check s).V.r_verified;
  let tampered = { s with S.place = Hashtbl.copy s.S.place } in
  let moved = ref false in
  List.iter
    (fun ((n : G.node), (mr : G.mem_ref)) ->
      if (not !moved) && mr.G.mr_array = "a" && G.is_store n then (
        let cyc, cl = Hashtbl.find tampered.S.place n.G.n_id in
        Hashtbl.replace tampered.S.place n.G.n_id
          (cyc, (cl + 1) mod M.table2.M.clusters);
        moved := true))
    (G.mem_refs low.Lower.graph);
  Alcotest.(check bool) "a store was moved" true !moved;
  let r = check tampered in
  Alcotest.(check bool) "tampered schedule rejected" false r.V.r_verified;
  Alcotest.(check bool) "chain-split reported" true
    (List.mem "chain-split" (codes r));
  (* a hybrid that chose MDC: its split chain is MDC's chain-split *)
  let h = check ~technique:V.Hybrid tampered in
  Alcotest.(check bool) "hybrid tampered schedule rejected" false h.V.r_verified;
  Alcotest.(check bool) "hybrid chain-split reported" true
    (List.mem "chain-split" (codes h));
  Alcotest.(check (list string)) "hybrid codes are MDC's" (codes r) (codes h)

let test_static_home_local_first () =
  (* stride N*I keeps the accessed addresses' home cluster constant: with
     the layout the verifier proves the cross-cluster in-place pair via
     local-first; without it the same schedule is unprovable *)
  let src =
    "kernel k { array a : i32[130] = ramp(0,1) scalar s : i64 = 0 trip 32 \
     body { a[4*i] = i s = s + a[4*i] } }"
  in
  let k = Ir.Parser.parse_kernel src in
  let low = Lower.lower k in
  let layout = Ir.Layout.make k in
  let home =
    M.home_cluster M.table2 ~addr:(Ir.Layout.base layout "a")
  in
  let pinned = Hashtbl.create 4 in
  List.iter
    (fun ((n : G.node), (mr : G.mem_ref)) ->
      if mr.G.mr_array = "a" then
        Hashtbl.replace pinned n.G.n_id
          (if G.is_store n then home else (home + 1) mod M.table2.M.clusters))
    (G.mem_refs low.Lower.graph);
  let s =
    Driver.run_exn
      (Driver.request ~constraints:{ Chains.pinned; grouped = [] } M.table2)
      low.Lower.graph
  in
  let with_layout =
    V.check ~machine:M.table2 ~technique:V.Free ~base:low.Lower.graph ~layout
      ~graph:low.Lower.graph ~schedule:s ()
  in
  Alcotest.(check bool) "certified with layout" true with_layout.V.r_verified;
  Alcotest.(check bool) "local-first used" true
    (List.mem_assoc "local-first" with_layout.V.r_proofs);
  let without =
    V.check ~machine:M.table2 ~technique:V.Free ~base:low.Lower.graph
      ~graph:low.Lower.graph ~schedule:s ()
  in
  Alcotest.(check bool) "layout-free proof is weaker" true
    (List.length (D.errors without.V.r_diags)
    >= List.length (D.errors with_layout.V.r_diags))

(* the proof rules are parameterized on the interconnect's declared
   guarantees: an Unordered transport must kill the co-located rule, a
   FIFO-under-jitter one (the directory ring) must keep its certificates
   jitter-robust, and the bus keeps its historical behaviour *)
let test_interconnect_guarantees () =
  let module Icn = Vliw_interconnect.Interconnect in
  let k = Ir.Parser.parse_kernel contend_src in
  let low = Lower.lower k in
  let layout = Ir.Layout.make k in
  let constraints = Chains.mincoms low.Lower.graph in
  let s =
    Driver.run_exn (Driver.request ~constraints M.table2) low.Lower.graph
  in
  let check ?guarantees machine =
    V.check ~machine ~technique:V.Mdc ?guarantees ~base:low.Lower.graph
      ~layout ~graph:low.Lower.graph ~schedule:s ()
  in
  (* bus (default guarantees): certified but not robust to bus jitter *)
  let bus = check M.table2 in
  Alcotest.(check bool) "bus certified" true bus.V.r_verified;
  Alcotest.(check bool) "bus co-located proof not jitter-robust" false
    bus.V.r_jitter_robust;
  (* directory: same schedule, same proofs, but per-link FIFO holds under
     jitter so the certificate is robust *)
  let dir = check (M.with_interconnect M.table2 M.Directory) in
  Alcotest.(check bool) "directory certified" true dir.V.r_verified;
  Alcotest.(check bool) "directory certificate jitter-robust" true
    dir.V.r_jitter_robust;
  Alcotest.(check bool) "directory uses co-location too" true
    (List.mem_assoc "co-located" dir.V.r_proofs);
  (* synthetic transport declaring no source ordering: the co-located rule
     may not fire for possibly-remote pairs, so the schedule is rejected
     with the dedicated diagnostic *)
  let unordered =
    {
      (Icn.guarantees M.table2) with
      Icn.g_source_order = Icn.Unordered;
      g_order_under_jitter = false;
    }
  in
  let r = check ~guarantees:unordered M.table2 in
  Alcotest.(check bool) "unordered transport rejected" false r.V.r_verified;
  Alcotest.(check bool) "interconnect-unordered diagnostic" true
    (List.mem "interconnect-unordered" (codes r))

(* --- wiring --- *)

let test_driver_check_gates () =
  let k = Ir.Parser.parse_kernel contend_src in
  let low = Lower.lower k in
  (match
     Driver.run
       (Driver.request ~check:(fun _ _ -> Error "nope") M.table2)
       low.Lower.graph
   with
  | Ok _ -> Alcotest.fail "driver accepted a schedule its check rejected"
  | Error e ->
    Alcotest.(check bool) "check message surfaced" true
      (contains e "rejected by post-schedule check" && contains e "nope"));
  match
    Driver.run (Driver.request ~check:(fun _ _ -> Ok ()) M.table2) low.Lower.graph
  with
  | Ok _ -> ()
  | Error e -> Alcotest.fail ("accepting check must not fail the request: " ^ e)

let test_gate_message () =
  let k = Ir.Parser.parse_kernel contend_src in
  let low = Lower.lower k in
  let pinned = Hashtbl.create 4 in
  List.iter
    (fun ((n : G.node), (mr : G.mem_ref)) ->
      if mr.G.mr_array = "a" then
        Hashtbl.replace pinned n.G.n_id (if G.is_store n then 3 else 0))
    (G.mem_refs low.Lower.graph);
  let s =
    Driver.run_exn
      (Driver.request ~constraints:{ Chains.pinned; grouped = [] } M.table2)
      low.Lower.graph
  in
  match
    V.gate ~machine:M.table2 ~technique:V.Free ~base:low.Lower.graph ()
      low.Lower.graph s
  with
  | Ok () -> Alcotest.fail "gate certified a cross-cluster aliased pair"
  | Error e -> Alcotest.(check bool) "codes in message" true
      (contains e "unordered-pair")

let test_report_json_shape () =
  let _, low, layout, s = compile contend_src in
  let r =
    V.check ~machine:M.table2 ~technique:V.Free ~base:low.Lower.graph ~layout
      ~graph:low.Lower.graph ~schedule:s ()
  in
  match V.report_json r with
  | Json.Obj fields ->
    Alcotest.(check bool) "fields present" true
      (List.mem_assoc "technique" fields
      && List.mem_assoc "verified" fields
      && List.mem_assoc "pairs" fields
      && List.mem_assoc "obligations" fields
      && List.mem_assoc "proofs" fields
      && List.mem_assoc "diagnostics" fields)
  | _ -> Alcotest.fail "report_json is not an object"

(* --- the empirical soundness sweep ---

   Every certified schedule must simulate with zero coherence violations.
   [Runner.run_loop] itself enforces the implication (it raises on any
   certified run with violations); this sweep drives it across the figure
   benchmarks x techniques x both heuristics and additionally asserts that
   the gated techniques really are certified on every loop. *)

let test_sweep_certified_runs_clean () =
  let schemes =
    [
      (Runner.Mdc, S.Pref_clus); (Runner.Mdc, S.Min_coms);
      (Runner.Ddgt, S.Pref_clus); (Runner.Ddgt, S.Min_coms);
      (Runner.Hybrid, S.Pref_clus); (Runner.Free, S.Min_coms);
    ]
  in
  let certified = ref 0 and flagged_free = ref 0 in
  List.iter
    (fun (technique, heuristic) ->
      List.iter
        (fun (bench : W.benchmark) ->
          let machine = Runner.machine_for M.table2 bench in
          List.iter
            (fun loop ->
              let lr = Runner.run_loop ~machine technique heuristic ~bench loop in
              (match technique with
              | Runner.Mdc | Runner.Ddgt ->
                Alcotest.(check bool)
                  (Printf.sprintf "%s/%s %s certified" bench.W.b_name
                     loop.W.l_name
                     (Runner.technique_name technique))
                  true lr.Runner.lr_verify.V.r_verified
              | Runner.Free | Runner.Hybrid -> ());
              if lr.Runner.lr_verify.V.r_verified then (
                incr certified;
                Alcotest.(check int)
                  (Printf.sprintf "%s/%s %s: certified => clean"
                     bench.W.b_name loop.W.l_name
                     (Runner.technique_name technique))
                  0 lr.Runner.lr_stats.Sim.violations)
              else if technique = Runner.Free then incr flagged_free)
            bench.W.b_loops)
        W.figures)
    schemes;
  Alcotest.(check bool) "sweep certified schedules" true (!certified > 0)

let () =
  Alcotest.run "verify"
    [
      ( "diag",
        [ Alcotest.test_case "pp/promote/json" `Quick test_diag_pp_and_promote ] );
      ( "rules",
        [
          Alcotest.test_case "MDC co-located" `Quick test_mdc_colocated_certifies;
          Alcotest.test_case "naive flagged + violates" `Quick
            test_flagged_naive_schedule_violates;
          Alcotest.test_case "chain-split code" `Quick test_mdc_chain_split_code;
          Alcotest.test_case "DDGT certifies" `Quick test_ddgt_certifies;
          Alcotest.test_case "fake consumers verify" `Quick
            test_ddgt_fake_consumers_verify;
          Alcotest.test_case "missing replication" `Quick
            test_ddgt_missing_replication;
          Alcotest.test_case "split access" `Quick test_split_access;
          Alcotest.test_case "tampered schedule" `Quick
            test_tampered_schedule_rejected;
          Alcotest.test_case "interconnect guarantees" `Quick
            test_interconnect_guarantees;
          Alcotest.test_case "static home local-first" `Quick
            test_static_home_local_first;
        ] );
      ( "wiring",
        [
          Alcotest.test_case "driver check gates" `Quick test_driver_check_gates;
          Alcotest.test_case "gate message" `Quick test_gate_message;
          Alcotest.test_case "report json" `Quick test_report_json_shape;
        ] );
      ( "soundness",
        [
          Alcotest.test_case "sweep: certified => clean" `Slow
            test_sweep_certified_runs_clean;
        ] );
    ]
