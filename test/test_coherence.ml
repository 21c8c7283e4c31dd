(* The protocol's transition discipline: every edge the event functions
   return must be a real state change that chains under the table,
   because Trace.Audit replays exactly those edges and rejects anything
   else.
   The refill cases are regressions for a bug the 200-case fuzz sweep
   caught: a fill arriving for a line its cluster already holds (two
   MSHRs over one subblock) was traced as E->E / M->E by the sole-fill
   promotion, which the audit rightly refused to chain. *)

module C = Vliw_coherence.Coherence
module M = Vliw_arch.Machine
module Trace = Vliw_trace.Trace
module Audit = Vliw_trace.Audit
module Attraction = Vliw_sim.Attraction

let edge =
  Alcotest.testable
    (fun fmt (tr : C.transition) ->
      Format.fprintf fmt "c%d sb%d %s->%s %s" tr.C.t_cluster tr.C.t_subblock
        (C.state_name tr.C.t_from) (C.state_name tr.C.t_to)
        (C.cause_name tr.C.t_cause))
    ( = )

(* A subblock's per-cluster line states, advanced by each returned
   transition the way the memory system applies them to its buffer
   lines; returns the transitions. *)
let advance states trs =
  List.iter (fun (tr : C.transition) -> states.(tr.C.t_cluster) <- tr.C.t_to) trs;
  trs

let test_install_flush_inert () =
  (* valid install/flush lines sit in S and no event ever moves them *)
  let p = M.Install_flush in
  let st = [| C.S; C.S; C.I; C.I |] in
  Alcotest.(check (list edge)) "fill no-op" [] (C.fill p ~cluster:2 ~subblock:1 st);
  Alcotest.(check (list edge)) "store no-op" []
    (C.store p ~writer:0 ~subblock:1 ~present:true ~replicated:false st);
  Alcotest.(check (list edge)) "invalidate no-op" []
    (C.remote_invalidate p ~cluster:1 ~subblock:1 C.S);
  Alcotest.(check (list edge)) "evict no-op" [] (C.evict p ~cluster:1 ~subblock:1 C.S)

let test_mesi_sole_fill_lands_e () =
  let st = Array.make 4 C.I in
  Alcotest.(check (list edge)) "I->E"
    [ { C.t_cluster = 0; t_subblock = 3; t_from = C.I; t_to = C.E; t_cause = C.Fill } ]
    (advance st (C.fill M.Mesi ~cluster:0 ~subblock:3 st));
  (* a second sharer downgrades the owner and lands Shared *)
  Alcotest.(check (list edge)) "E->S handoff + I->S"
    [
      { C.t_cluster = 0; t_subblock = 3; t_from = C.E; t_to = C.S; t_cause = C.Remote_read };
      { C.t_cluster = 1; t_subblock = 3; t_from = C.I; t_to = C.S; t_cause = C.Fill };
    ]
    (C.fill M.Mesi ~cluster:1 ~subblock:3 st)

let test_mesi_owner_refill_absorbed () =
  let st = [| C.E; C.I; C.I; C.I |] in
  (* refill by the Exclusive owner: no edge, so the line keeps E *)
  Alcotest.(check (list edge)) "E refill silent" []
    (C.fill M.Mesi ~cluster:0 ~subblock:3 st);
  (* silent E->M upgrade (the counted exclusive hit), then a refill by
     the Modified owner *)
  Alcotest.(check (list edge)) "E->M store"
    [ { C.t_cluster = 0; t_subblock = 3; t_from = C.E; t_to = C.M_; t_cause = C.Store } ]
    (advance st (C.store M.Mesi ~writer:0 ~subblock:3 ~present:true ~replicated:false st));
  Alcotest.(check (list edge)) "M refill silent" []
    (C.fill M.Mesi ~cluster:0 ~subblock:3 st);
  (* the buffer line a refill lands on keeps its state *)
  let m = M.with_attraction M.table2 (Some M.default_attraction) in
  let ab = Attraction.create m in
  let install () =
    ignore
      (Attraction.install ab ~subblock:3
         ~addrs:(Array.of_list (M.addrs_of_subblock m ~subblock:3))
         ~mem:(Bytes.make 64 '\000') ~sync:0)
  in
  List.iter
    (fun s ->
      install ();
      Attraction.set_line_state ab ~subblock:3 s;
      install ();
      Alcotest.(check string) ("still " ^ C.state_name s) (C.state_name s)
        (C.state_name (Attraction.line_state ab ~subblock:3)))
    [ C.E; C.M_ ]

let test_msi_owner_refill_demotes () =
  (* MSI has no Exclusive state to preserve: the table's documented
     choice is that a refill overwrites with fresh home data, S *)
  let st = Array.make 4 C.I in
  ignore (advance st (C.fill M.Msi ~cluster:0 ~subblock:3 st));
  ignore
    (advance st (C.store M.Msi ~writer:0 ~subblock:3 ~present:true ~replicated:false st));
  Alcotest.(check (list edge)) "M->S refill"
    [ { C.t_cluster = 0; t_subblock = 3; t_from = C.M_; t_to = C.S; t_cause = C.Fill } ]
    (C.fill M.Msi ~cluster:0 ~subblock:3 st)

let meta =
  Trace.Meta { clusters = 4; mem_buses = 4; msize = 32; ii = 1; vspan = 4; trip = 4 }

let replay_transitions protocol trs =
  let s = Trace.create () in
  Trace.emit s ~cycle:0 ~cluster:(-1) meta;
  List.iteri
    (fun i (tr : C.transition) ->
      Trace.emit s ~cycle:(i + 1) ~cluster:tr.C.t_cluster
        (Trace.Prot_transition
           {
             cluster = tr.C.t_cluster;
             subblock = tr.C.t_subblock;
             from_state = tr.C.t_from;
             to_state = tr.C.t_to;
             cause = tr.C.t_cause;
           }))
    trs;
  Audit.run ~protocol s

let test_audit_chains_protocol_stream () =
  (* everything the protocol functions return across a
     fill/share/store/invalidate/evict life cycle must replay with zero
     illegal edges *)
  let p = M.Mesi and st = Array.make 4 C.I in
  (* list literals evaluate right-to-left; the steps must run in
     life-cycle order, so bind each one explicitly *)
  let a = advance st (C.fill p ~cluster:0 ~subblock:3 st) in
  let b = advance st (C.fill p ~cluster:0 ~subblock:3 st) (* absorbed: none *) in
  let c = advance st (C.fill p ~cluster:1 ~subblock:3 st) in
  let d =
    advance st (C.store p ~writer:1 ~subblock:3 ~present:true ~replicated:false st)
  in
  let e = advance st (C.fill p ~cluster:2 ~subblock:3 st) in
  let f = advance st (C.remote_invalidate p ~cluster:2 ~subblock:3 st.(2)) in
  let g = advance st (C.evict p ~cluster:1 ~subblock:3 st.(1)) in
  let trs = List.concat [ a; b; c; d; e; f; g ] in
  Alcotest.(check int) "every step moved a line but the refill" 9 (List.length trs);
  let r = replay_transitions M.Mesi trs in
  Alcotest.(check int) "all edges legal" 0 r.Audit.prot_illegal;
  Alcotest.(check int) "edges replayed" (List.length trs) r.Audit.prot_transitions

let test_audit_rejects_non_edges () =
  (* the bug's shape, handcrafted: an E->E "fill" neither chains as a
     state change nor appears in the table *)
  let bogus =
    [
      { C.t_cluster = 0; t_subblock = 3; t_from = C.I; t_to = C.E; t_cause = C.Fill };
      { C.t_cluster = 0; t_subblock = 3; t_from = C.E; t_to = C.E; t_cause = C.Fill };
    ]
  in
  let r = replay_transitions M.Mesi bogus in
  Alcotest.(check int) "E->E flagged" 1 r.Audit.prot_illegal;
  (* under install/flush any protocol edge at all is illegal *)
  let r = replay_transitions M.Install_flush [ List.hd bogus ] in
  Alcotest.(check int) "install-flush: no edges allowed" 1 r.Audit.prot_illegal

let () =
  Alcotest.run "coherence"
    [
      (* the group and case names are kept as the suite's stable test ids *)
      ( "tracker",
        [
          Alcotest.test_case "install-flush inert" `Quick test_install_flush_inert;
          Alcotest.test_case "sole MESI fill lands E" `Quick
            test_mesi_sole_fill_lands_e;
          Alcotest.test_case "owner refill absorbed (MESI)" `Quick
            test_mesi_owner_refill_absorbed;
          Alcotest.test_case "owner refill demotes (MSI)" `Quick
            test_msi_owner_refill_demotes;
        ] );
      ( "audit",
        [
          Alcotest.test_case "tracker stream chains" `Quick
            test_audit_chains_protocol_stream;
          Alcotest.test_case "non-edges rejected" `Quick test_audit_rejects_non_edges;
        ] );
    ]
