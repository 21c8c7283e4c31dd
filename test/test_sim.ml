module G = Vliw_ddg.Graph
module M = Vliw_arch.Machine
module S = Vliw_sched.Schedule
module Driver = Vliw_sched.Driver
module Chains = Vliw_core.Chains
module Ddgt = Vliw_core.Ddgt
module Lower = Vliw_lower.Lower
module Ir = Vliw_ir
module Cachemod = Vliw_sim.Cachemod
module Attraction = Vliw_sim.Attraction
module Trace = Vliw_trace.Trace
module Audit = Vliw_trace.Audit

(* Shadow Sim so that every simulation in this file is traced and the replay
   auditor re-derives its coherence counters; a disagreement fails the test
   that ran it. *)
module Sim = struct
  include Vliw_sim.Sim

  let run ~lowered ~graph ~schedule ~layout ?mode ?jitter ?warm
      ?(trace = Trace.create ()) () =
    let st =
      Vliw_sim.Sim.run ~lowered ~graph ~schedule ~layout ?mode ?jitter ?warm
        ~trace ()
    in
    (match
       Audit.check trace ~violations:st.Vliw_sim.Sim.violations
         ~nullified:st.Vliw_sim.Sim.nullified
     with
    | Ok _ -> ()
    | Error msg -> Alcotest.fail ("replay audit: " ^ msg));
    st
end

let compile ?heuristic ?constraints ?pref ?(machine = M.table2) src =
  let k = Ir.Parser.parse_kernel src in
  let low = Lower.lower k in
  let layout = Ir.Layout.make k in
  let s =
    match
      Driver.run (Driver.request ?heuristic ?constraints ?pref machine) low.Lower.graph
    with
    | Ok s -> s
    | Error e -> Alcotest.fail e
  in
  (k, low, layout, s)

let simulate ?mode ?jitter (_k, low, layout, s) =
  Sim.run ~lowered:low ~graph:low.Lower.graph ~schedule:s ~layout ?mode ?jitter
    ()

(* --- cachemod unit tests --- *)

let test_cachemod_basic () =
  let m = M.table2 in
  let cm = Cachemod.create m ~cluster:0 in
  let sb = M.subblock_id m ~addr:0 in
  Alcotest.(check bool) "initially absent" false (Cachemod.present cm ~subblock:sb);
  Alcotest.(check (option int)) "install no eviction" None
    (Cachemod.install cm ~subblock:sb);
  Alcotest.(check bool) "present" true (Cachemod.present cm ~subblock:sb);
  (* a block of the same set stays absent: the install filled one way *)
  let same_set =
    M.subblock_id m ~addr:(M.module_sets m * m.M.cache.M.block_bytes)
  in
  Alcotest.(check bool) "one line filled" false
    (Cachemod.present cm ~subblock:same_set);
  Cachemod.invalidate_all cm;
  Alcotest.(check bool) "flushed" false (Cachemod.present cm ~subblock:sb)

let test_cachemod_lru_eviction () =
  let m = M.table2 in
  let cm = Cachemod.create m ~cluster:0 in
  let sets = M.module_sets m in
  (* three blocks mapping to the same set of a 2-way module *)
  let sb k = M.subblock_id m ~addr:(k * sets * m.M.cache.M.block_bytes) in
  Alcotest.(check (option int)) "fill way 0" None (Cachemod.install cm ~subblock:(sb 0));
  Alcotest.(check (option int)) "fill way 1" None (Cachemod.install cm ~subblock:(sb 1));
  (* touch sb0 so sb1 is LRU *)
  Cachemod.touch cm ~subblock:(sb 0);
  Alcotest.(check (option int)) "evicts LRU (sb1)" (Some (sb 1))
    (Cachemod.install cm ~subblock:(sb 2));
  Alcotest.(check bool) "sb0 survives" true (Cachemod.present cm ~subblock:(sb 0))

let test_cachemod_rejects_foreign_subblock () =
  let m = M.table2 in
  let cm = Cachemod.create m ~cluster:0 in
  let foreign = M.subblock_id m ~addr:4 (* cluster 1 *) in
  Alcotest.check_raises "foreign subblock"
    (Invalid_argument "Cachemod.install: subblock belongs to another cluster")
    (fun () -> ignore (Cachemod.install cm ~subblock:foreign))

(* --- cachemod state encoding --- *)

(* cluster 0's subblock of the [tag]-th block that maps to [set] *)
let cm_sb m ~set ~tag = m.M.clusters * (set + (tag * M.module_sets m))

let cm_encoding cm =
  let c = Vliw_util.Codec.create 64 in
  Cachemod.encode_state cm c;
  Vliw_util.Codec.contents c

let cm_fill cm l = List.iter (fun x -> ignore (Cachemod.install cm ~subblock:x)) l

let test_cachemod_encode_history_independent () =
  let m = M.table2 in
  let sb set tag = cm_sb m ~set ~tag in
  let a = Cachemod.create m ~cluster:0 in
  cm_fill a [ sb 0 0; sb 0 1; sb 3 2 ];
  (* the same lines in the same recency order, reached through a flush and
     an eviction, with set 0's lines in the opposite ways *)
  let b = Cachemod.create m ~cluster:0 in
  cm_fill b [ sb 5 0; sb 3 1 ];
  Cachemod.invalidate_all b;
  cm_fill b [ sb 0 2; sb 0 0 ];
  Alcotest.(check (option int)) "evicts the LRU line" (Some (sb 0 2))
    (Cachemod.install b ~subblock:(sb 0 1));
  cm_fill b [ sb 3 2 ];
  Alcotest.(check string) "same lines and order encode equal" (cm_encoding a)
    (cm_encoding b);
  Alcotest.(check bool) "sparse: under one byte per set" true
    (String.length (cm_encoding a) < M.module_sets m)

let test_cachemod_encode_distinguishes () =
  let m = M.table2 in
  let sb set tag = cm_sb m ~set ~tag in
  let a = Cachemod.create m ~cluster:0 in
  cm_fill a [ sb 0 0; sb 0 1 ];
  let swapped = Cachemod.create m ~cluster:0 in
  cm_fill swapped [ sb 0 0; sb 0 1 ];
  Cachemod.touch swapped ~subblock:(sb 0 0);
  Alcotest.(check bool) "recency swap encodes differently" false
    (cm_encoding a = cm_encoding swapped);
  let moved = Cachemod.create m ~cluster:0 in
  cm_fill moved [ sb 0 0; sb 1 1 ];
  Alcotest.(check bool) "line in another set encodes differently" false
    (cm_encoding a = cm_encoding moved)

let test_cachemod_encode_invalidated_is_fresh () =
  let m = M.table2 in
  let cm = Cachemod.create m ~cluster:0 in
  cm_fill cm (List.init 6 (fun i -> cm_sb m ~set:(i mod 3) ~tag:i));
  Cachemod.invalidate_all cm;
  Alcotest.(check string) "all-invalid = fresh"
    (cm_encoding (Cachemod.create m ~cluster:0))
    (cm_encoding cm)

(* Reference model of one module: per set, its valid subblocks most
   recently used first — the module's whole observable state. Over random
   install/touch/flush histories, two modules encode equal exactly when
   their models are equal, and every install evicts what the model
   predicts. *)
let prop_cachemod_encoding_is_lru_state =
  let m = M.table2 in
  let assoc = m.M.cache.M.assoc and nsets = 2 in
  let op = QCheck.Gen.(triple (int_bound 6) (int_bound (nsets - 1)) (int_bound 2)) in
  let history = QCheck.Gen.(list_size (int_range 0 12) op) in
  QCheck.Test.make ~name:"cachemod encoding identifies the LRU state" ~count:50
    (QCheck.make QCheck.Gen.(list_size (int_range 1 60) history))
    (fun histories ->
      let by_enc = Hashtbl.create 16 and by_model = Hashtbl.create 16 in
      let agrees tbl k v =
        match Hashtbl.find_opt tbl k with
        | Some v' -> v' = v
        | None ->
          Hashtbl.add tbl k v;
          true
      in
      List.for_all
        (fun ops ->
          let cm = Cachemod.create m ~cluster:0 in
          let model = Array.make nsets [] in
          let evictions_agree =
            List.for_all
              (fun (k, set, tag) ->
                let x = cm_sb m ~set ~tag in
                let rest = List.filter (( <> ) x) model.(set) in
                match k with
                | 0 ->
                  Cachemod.invalidate_all cm;
                  Array.fill model 0 nsets [];
                  true
                | 1 | 2 ->
                  Cachemod.touch cm ~subblock:x;
                  if List.mem x model.(set) then model.(set) <- x :: rest;
                  true
                | _ ->
                  let expected =
                    if List.mem x model.(set) || List.length rest < assoc then None
                    else Some (List.nth rest (assoc - 1))
                  in
                  model.(set) <-
                    x :: List.filter (fun y -> Some y <> expected) rest;
                  Cachemod.install cm ~subblock:x = expected)
              ops
          in
          let state = Array.to_list model and enc = cm_encoding cm in
          evictions_agree && agrees by_enc enc state && agrees by_model state enc)
        histories)

(* The module encodes only the sets its index says are occupied. Over
   random histories of installs, touches, flushes, checkpoints and
   restores across every set, that must give the bytes a test-local scan
   of every set gives — so the index holds exactly the occupied sets, in
   order — and a restored module must encode as it did when captured. *)
let prop_cachemod_index_is_full_scan =
  let m = M.table2 in
  let nsets = M.module_sets m in
  (* half the sets drawn from the first four, so sets fill and evict *)
  let op =
    QCheck.Gen.(
      triple (int_bound 19)
        (oneof [ int_bound 3; int_bound (nsets - 1) ])
        (int_bound 3))
  in
  let full_scan cm =
    let c = Vliw_util.Codec.create 64 in
    let sec = Vliw_util.Codec.open_section c in
    for s = 0 to nsets - 1 do
      Cachemod.encode_set cm c s
    done;
    Vliw_util.Codec.close_section c sec;
    Vliw_util.Codec.contents c
  in
  QCheck.Test.make ~name:"cachemod indexed encoding equals a full-set scan"
    ~count:200
    (QCheck.make QCheck.Gen.(list_size (int_range 0 120) op))
    (fun ops ->
      let cm = Cachemod.create m ~cluster:0 in
      let saved = ref (Cachemod.capture cm, cm_encoding cm) in
      List.for_all
        (fun (k, set, tag) ->
          let x = cm_sb m ~set ~tag in
          let restored_ok =
            match k with
            | 0 ->
              Cachemod.invalidate_all cm;
              true
            | 1 | 2 ->
              Cachemod.touch cm ~subblock:x;
              true
            | 3 ->
              saved := (Cachemod.capture cm, cm_encoding cm);
              true
            | 4 ->
              let snap, enc = !saved in
              Cachemod.restore cm snap;
              cm_encoding cm = enc
            | _ ->
              ignore (Cachemod.install cm ~subblock:x);
              true
          in
          restored_ok && cm_encoding cm = full_scan cm)
        ops)

(* --- attraction buffer unit tests --- *)

let ab_machine = M.with_attraction M.table2 (Some M.default_attraction)

(* install a subblock from its member addresses under machine [m] *)
let ab_install ?(m = ab_machine) ab ~subblock ~mem ~sync =
  let addrs = Array.of_list (M.addrs_of_subblock m ~subblock) in
  ignore (Attraction.install ab ~subblock ~addrs ~mem ~sync)

let test_ab_install_read () =
  let ab = Attraction.create ab_machine in
  let mem = Bytes.make 64 '\000' in
  Bytes.set mem 0 'A';
  Bytes.set mem 16 'B';
  let sb = M.subblock_id ab_machine ~addr:0 in
  let state () =
    Vliw_coherence.Coherence.state_name (Attraction.line_state ab ~subblock:sb)
  in
  Alcotest.(check string) "absent" "I" (state ());
  ab_install ab ~subblock:sb ~mem ~sync:7;
  Alcotest.(check string) "present" "S" (state ());
  Alcotest.(check (option int64)) "reads word 0" (Some 65L)
    (Attraction.read ab ~subblock:sb ~addr:0 ~size:1);
  Alcotest.(check (option int64)) "reads word 4 (addr 16)" (Some 66L)
    (Attraction.read ab ~subblock:sb ~addr:16 ~size:1);
  Alcotest.(check (option int)) "sync tag" (Some 7) (Attraction.sync_seq ab ~subblock:sb)

let test_ab_write_updates_copy () =
  let ab = Attraction.create ab_machine in
  let mem = Bytes.make 64 '\000' in
  let sb = M.subblock_id ab_machine ~addr:0 in
  ab_install ab ~subblock:sb ~mem ~sync:1;
  Alcotest.(check bool) "write hits" true
    (Attraction.write_if_present ab ~subblock:sb ~addr:0 ~size:4 0xDEADL ~sync:9);
  Alcotest.(check (option int64)) "fresh value" (Some 0xDEADL)
    (Attraction.read ab ~subblock:sb ~addr:0 ~size:4);
  Alcotest.(check (option int)) "sync raised" (Some 9) (Attraction.sync_seq ab ~subblock:sb)

let test_ab_straddling_access_bypasses () =
  (* 2-byte interleave machine: a 4-byte access spans two clusters and must
     not be served from the buffer *)
  let m = M.with_attraction (M.with_interleave M.table2 2) (Some M.default_attraction) in
  let ab = Attraction.create m in
  let mem = Bytes.make 64 '\000' in
  let sb = M.subblock_id m ~addr:0 in
  ab_install ~m ab ~subblock:sb ~mem ~sync:0;
  Alcotest.(check (option int64)) "2-byte ok" (Some 0L)
    (Attraction.read ab ~subblock:sb ~addr:0 ~size:2);
  Alcotest.(check (option int64)) "4-byte bypasses" None
    (Attraction.read ab ~subblock:sb ~addr:0 ~size:4)

let test_ab_flush_counts () =
  let ab = Attraction.create ab_machine in
  let mem = Bytes.make 128 '\000' in
  ab_install ab ~subblock:(M.subblock_id ab_machine ~addr:0) ~mem ~sync:0;
  ab_install ab ~subblock:(M.subblock_id ab_machine ~addr:32) ~mem ~sync:0;
  Alcotest.(check int) "two entries flushed" 2 (Attraction.flush ab);
  Alcotest.(check int) "now empty" 0 (Attraction.flush ab)

let test_ab_line_states () =
  (* each line carries its protocol state: a new line lands in S, a
     refill keeps the state, an eviction reports the victim's, and a
     dropped line reads I *)
  let module C = Vliw_coherence.Coherence in
  let ab = Attraction.create ab_machine in
  let mem = Bytes.make 64 '\000' in
  let install sb =
    Attraction.install ab ~subblock:sb
      ~addrs:(Array.of_list (M.addrs_of_subblock ab_machine ~subblock:sb))
      ~mem ~sync:0
  in
  let state what sb s =
    Alcotest.(check string) what (C.state_name s)
      (C.state_name (Attraction.line_state ab ~subblock:sb))
  in
  let victim =
    Alcotest.(option (pair int (of_pp (fun f s -> Format.pp_print_string f (C.state_name s)))))
  in
  (* subblocks [0], [sets] and [2 * sets] share set 0 of a 2-way buffer *)
  let sets = M.default_attraction.M.ab_entries / M.default_attraction.M.ab_assoc in
  state "absent" 0 C.I;
  Alcotest.check victim "free way" None (install 0);
  state "new line" 0 C.S;
  Attraction.set_line_state ab ~subblock:0 C.M_;
  Alcotest.check victim "refill" None (install 0);
  state "refill keeps M" 0 C.M_;
  ignore (install sets);
  Alcotest.check victim "LRU victim and its state" (Some (0, C.M_)) (install (2 * sets));
  state "evicted" 0 C.I;
  ignore (Attraction.invalidate ab ~subblock:sets);
  state "invalidated" sets C.I;
  Alcotest.check_raises "no line to move"
    (Invalid_argument "Attraction.set_line_state: no valid line to move")
    (fun () -> Attraction.set_line_state ab ~subblock:sets C.S)

(* --- directory sharer bookkeeping --- *)

(* Step the ring until it drains; returns the delivered invalidates as
   (destination, subblock) in delivery order. *)
let drain_invalidates dir ~from =
  let module D = Vliw_interconnect.Interconnect.Directory in
  let got = ref [] and now = ref from in
  while D.pending dir do
    D.step dir ~now:!now ~jit:(fun () -> 0)
      ~emit_hop:(fun ~txn:_ ~src:_ ~dst:_ -> ())
      ~deliver:(fun ~dst ~txn:_ -> function
        | D.Invalidate { subblock; _ } -> got := (dst, subblock) :: !got
        | _ -> Alcotest.fail "only invalidates were sent");
    incr now
  done;
  (List.rev !got, !now)

let test_directory_sharer_mask () =
  (* the present mask is the directory's own belief and lags the
     buffers: store_apply clears bits before the invalidates land, and a
     fill confirmed before its cluster's invalidate keeps a bit for a
     copy that invalidate then kills *)
  let module D = Vliw_interconnect.Interconnect.Directory in
  let dir = D.create ~clusters:4 ~hop_latency:1 in
  let sb = 5 and home = 1 in
  List.iter (fun c -> D.confirm_install dir ~cluster:c ~subblock:sb) [ 0; 2; 3 ];
  Alcotest.(check int) "three sharers" 0b1101 (D.lookup dir ~subblock:sb);
  Alcotest.(check int) "one invalidate per cleared bit" 2
    (D.store_apply dir ~now:0 ~home ~subblock:sb ~requester:2);
  Alcotest.(check int) "only the requester's bit left" 0b0100
    (D.lookup dir ~subblock:sb);
  (* cluster 0 refills before its invalidate arrives *)
  D.confirm_install dir ~cluster:0 ~subblock:sb;
  let got, now = drain_invalidates dir ~from:0 in
  Alcotest.(check (list (pair int int))) "invalidates delivered"
    [ (0, sb); (3, sb) ] (List.sort compare got);
  Alcotest.(check int) "cluster 0's bit survives its invalidate" 0b0101
    (D.lookup dir ~subblock:sb);
  Alcotest.(check int) "the next store invalidates it again" 1
    (D.store_apply dir ~now ~home ~subblock:sb ~requester:2);
  let got, _ = drain_invalidates dir ~from:now in
  Alcotest.(check (list (pair int int))) "to cluster 0" [ (0, sb) ] got;
  let st = D.stats dir in
  Alcotest.(check (pair int int)) "lookups, invalidates" (3, 3)
    (st.D.d_lookups, st.D.d_invalidates)

(* --- simulator timing and classification --- *)

let test_sim_all_local_hits_no_stall () =
  (* 8 i64 elements = one cluster-0..3 spread; constrain to PrefClus with a
     perfect profile so accesses are local; small array stays resident *)
  let src =
    "kernel k { array a : i64[16] = ramp(0,1) array b : i64[16] = zero trip 16 body { b[i] = a[i] + 1 } }"
  in
  let (k, low, layout, _) = compile src in
  let machine = M.table2 in
  let prof = Vliw_profile.Profile.run ~machine ~layout k in
  let pref = Vliw_profile.Profile.node_pref prof low.Lower.graph in
  let s =
    match
      Driver.run (Driver.request ~heuristic:S.Pref_clus ~pref machine) low.Lower.graph
    with
    | Ok s -> s
    | Error e -> Alcotest.fail e
  in
  let st = Sim.run ~lowered:low ~graph:low.Lower.graph ~schedule:s ~layout () in
  Alcotest.(check int) "32 accesses" 32 (Sim.accesses_total st);
  (* i64 stride 8 with 4-byte interleave alternates clusters each element:
     a single preferred cluster serves only half the accesses locally, and a
     cold cache makes the first touch of each subblock a miss *)
  Alcotest.(check bool) "some local traffic" true
    (st.Sim.local_hits + st.Sim.local_misses > 0);
  Alcotest.(check int) "no violations" 0 st.Sim.violations

let test_sim_memory_matches_interpreter_mdc () =
  (* in-place kernel with real aliasing, MDC pins the chain: execution-mode
     simulation must reproduce the interpreter's memory exactly *)
  let src =
    "kernel k { array a : i32[65] = ramp(3,7) trip 64 body { a[i] = a[i] + a[i + 1] } }"
  in
  let k = Ir.Parser.parse_kernel src in
  let low = Lower.lower k in
  let layout = Ir.Layout.make k in
  let machine = M.table2 in
  let prof = Vliw_profile.Profile.run ~machine ~layout k in
  let pref = Vliw_profile.Profile.node_pref prof low.Lower.graph in
  let constraints = Chains.prefclus low.Lower.graph ~pref in
  let s =
    match
      Driver.run
        (Driver.request ~heuristic:S.Pref_clus ~constraints ~pref machine)
        low.Lower.graph
    with
    | Ok s -> s
    | Error e -> Alcotest.fail e
  in
  let st = Sim.run ~lowered:low ~graph:low.Lower.graph ~schedule:s ~layout () in
  let ref_run = Ir.Interp.run ~layout k in
  Alcotest.(check int) "no violations under MDC" 0 st.Sim.violations;
  Alcotest.(check bool) "memory image identical" true
    (Bytes.equal st.Sim.memory ref_run.Ir.Interp.memory)

let test_sim_memory_matches_interpreter_ddgt () =
  let src =
    "kernel k { array a : i32[65] = ramp(3,7) trip 64 body { a[i] = a[i] + a[i + 1] } }"
  in
  let k = Ir.Parser.parse_kernel src in
  let low = Lower.lower k in
  let layout = Ir.Layout.make k in
  let machine = M.table2 in
  let r = Ddgt.transform ~clusters:4 low.Lower.graph in
  let s =
    match Driver.run (Driver.request machine) r.Ddgt.graph with
    | Ok s -> s
    | Error e -> Alcotest.fail e
  in
  let st = Sim.run ~lowered:low ~graph:r.Ddgt.graph ~schedule:s ~layout () in
  let ref_run = Ir.Interp.run ~layout k in
  Alcotest.(check int) "no violations under DDGT" 0 st.Sim.violations;
  Alcotest.(check bool) "memory image identical" true
    (Bytes.equal st.Sim.memory ref_run.Ir.Interp.memory);
  Alcotest.(check bool) "some instances nullified" true (st.Sim.nullified > 0)

let test_sim_remote_accesses_counted () =
  (* pin the load to a cluster that never owns its data: i64 stride over
     4B interleave alternates clusters 0/2, so pin to cluster 1 *)
  let src =
    "kernel k { array a : i64[16] = ramp(0,1) scalar s : i64 = 0 trip 16 body { s = s + a[i] } }"
  in
  let k = Ir.Parser.parse_kernel src in
  let low = Lower.lower k in
  let layout = Ir.Layout.make k in
  let pinned = Hashtbl.create 4 in
  List.iter
    (fun ((n : G.node), _) -> Hashtbl.replace pinned n.n_id 1)
    (G.mem_refs low.Lower.graph);
  let s =
    match
      Driver.run
        (Driver.request
           ~constraints:{ Chains.pinned; grouped = [] }
           M.table2)
        low.Lower.graph
    with
    | Ok s -> s
    | Error e -> Alcotest.fail e
  in
  let st = Sim.run ~lowered:low ~graph:low.Lower.graph ~schedule:s ~layout () in
  Alcotest.(check int) "no local traffic" 0 (st.Sim.local_hits + st.Sim.local_misses);
  Alcotest.(check bool) "remote traffic" true
    (st.Sim.remote_hits + st.Sim.remote_misses + st.Sim.combined = 16)

let test_sim_misses_on_large_array () =
  (* 16KB array vs 8KB cache: plenty of misses *)
  let src =
    "kernel k { array a : i64[2048] = zero scalar s : i64 = 0 trip 512 body { s = s + a[4 * i] } }"
  in
  let c = compile src in
  let st = simulate c in
  Alcotest.(check bool) "misses dominate" true
    (st.Sim.local_misses + st.Sim.remote_misses > 256)

let test_sim_combining () =
  (* two loads of the same subblock in one iteration, array too large to be
     resident: the second load combines with the first's pending fill *)
  let src =
    "kernel k { array a : i64[4096] = zero scalar s : i64 = 0 trip 128 body { s = s + a[16*i] + a[16*i + 2] } }"
  in
  let c = compile src in
  let st = simulate c in
  Alcotest.(check bool) "combined accesses observed" true (st.Sim.combined > 0)

let test_sim_stall_time_positive_on_misses () =
  (* pointer chase: the load sits on the recurrence, so cache-sensitive
     latency assignment cannot hide the miss latency behind a large assumed
     latency — the machine must stall on use *)
  let src =
    "kernel k { array a : i64[4096] = modpat(4096) scalar p : i64 = 0 trip 200 body { p = a[p] + 63 } }"
  in
  let c = compile src in
  let st = simulate c in
  Alcotest.(check bool) "stalls on misses" true (st.Sim.stall_cycles > 0);
  Alcotest.(check int) "total = compute + stall" st.Sim.total_cycles
    (st.Sim.compute_cycles + st.Sim.stall_cycles)

let test_sim_oracle_mode_counts_match () =
  let src =
    "kernel k { array a : i32[64] = ramp(1,3) array b : i32[64] = zero trip 64 body { b[i] = a[i] * 2 } }"
  in
  let ((k, _, layout, _) as c) = compile src in
  let ref_run = Ir.Interp.run ~layout k in
  let st_exec = simulate c in
  let st_oracle = simulate ~mode:(Sim.Oracle ref_run) c in
  Alcotest.(check int) "same access totals"
    (Sim.accesses_total st_exec)
    (Sim.accesses_total st_oracle);
  Alcotest.(check int) "same cycles" st_exec.Sim.total_cycles
    st_oracle.Sim.total_cycles

let test_sim_baseline_violations_under_contention () =
  (* the paper's Figure 2 scenario: an aliased store and load scheduled in
     different clusters; bus contention delays the store's remote update
     past the load's issue *)
  (* the aliased load is always local (addresses = 0 mod 16 live in cluster
     0, where it is pinned); the aliased store is pinned remote; junk stores
     have no consumers, so nothing throttles the bus queue and the store's
     update is delayed arbitrarily — exactly footnote 3's "no guarantee ...
     in any case" *)
  let src =
    "kernel k { array a : i32[520] = ramp(0,1) array junk : i32[4096] = zero \
     scalar s : i64 = 0 trip 128 body { junk[3*i] = i junk[5*i + 1] = i \
     a[4*i + 8] = i * 5 s = s + a[4*i] } }"
  in
  let k = Ir.Parser.parse_kernel src in
  let low = Lower.lower k in
  let layout = Ir.Layout.make k in
  (* force the aliased pair apart: store in cluster 3, load in cluster 0,
     like the free-scheduling baseline might *)
  let pinned = Hashtbl.create 4 in
  List.iter
    (fun ((n : G.node), (mr : G.mem_ref)) ->
      if mr.G.mr_array = "a" then
        Hashtbl.replace pinned n.n_id (if G.is_store n then 3 else 0))
    (G.mem_refs low.Lower.graph);
  (* a single memory bus makes queueing delay (footnote 2's
     non-determinism) large enough to reorder the store past the load *)
  let machine =
    { M.table2 with M.mem_buses = { M.bus_count = 1; bus_latency = 2 } }
  in
  let s =
    match
      Driver.run
        (Driver.request ~constraints:{ Chains.pinned; grouped = [] } machine)
        low.Lower.graph
    with
    | Ok s -> s
    | Error e -> Alcotest.fail e
  in
  let jitter = (Vliw_util.Prng.create 42, 6) in
  let st =
    Sim.run ~lowered:low ~graph:low.Lower.graph ~schedule:s ~layout ~jitter ()
  in
  Alcotest.(check bool) "coherence violations observed" true (st.Sim.violations > 0)

let test_sim_ab_hits_on_reuse () =
  (* repeated remote reads of a small working set (the subscript is
     non-affine, so the same 16 elements are re-read): with ABs, later
     rounds hit locally. i32 elements match the 4B interleave, so reads
     never straddle clusters. *)
  let src =
    "kernel k { array a : i32[16] = ramp(0,1) scalar s : i64 = 0 trip 64 body { s = s + a[i % 16] } }"
  in
  let k = Ir.Parser.parse_kernel src in
  let low = Lower.lower k in
  let layout = Ir.Layout.make k in
  let machine = M.with_attraction M.table2 (Some M.default_attraction) in
  let pinned = Hashtbl.create 4 in
  List.iter
    (fun ((n : G.node), _) -> Hashtbl.replace pinned n.n_id 1)
    (G.mem_refs low.Lower.graph);
  let s =
    match
      Driver.run
        (Driver.request ~constraints:{ Chains.pinned; grouped = [] } machine)
        low.Lower.graph
    with
    | Ok s -> s
    | Error e -> Alcotest.fail e
  in
  let st = Sim.run ~lowered:low ~graph:low.Lower.graph ~schedule:s ~layout () in
  Alcotest.(check bool) "AB hits observed" true (st.Sim.ab_hits > 0);
  Alcotest.(check bool) "AB hits counted as local" true
    (st.Sim.local_hits >= st.Sim.ab_hits);
  (* the trip wraps the 8-element array 8 times: most re-reads hit the AB *)
  Alcotest.(check bool) "remote traffic reduced" true
    (st.Sim.remote_hits + st.Sim.remote_misses < 32)

let test_sim_ab_correctness_preserved () =
  let src =
    "kernel k { array a : i32[65] = ramp(3,7) trip 64 body { a[i] = a[i] + a[i + 1] } }"
  in
  let k = Ir.Parser.parse_kernel src in
  let low = Lower.lower k in
  let layout = Ir.Layout.make k in
  let machine = M.with_attraction M.table2 (Some M.default_attraction) in
  let prof = Vliw_profile.Profile.run ~machine ~layout k in
  let pref = Vliw_profile.Profile.node_pref prof low.Lower.graph in
  let constraints = Chains.prefclus low.Lower.graph ~pref in
  let s =
    match
      Driver.run (Driver.request ~heuristic:S.Pref_clus ~constraints ~pref machine)
        low.Lower.graph
    with
    | Ok s -> s
    | Error e -> Alcotest.fail e
  in
  let st = Sim.run ~lowered:low ~graph:low.Lower.graph ~schedule:s ~layout () in
  let ref_run = Ir.Interp.run ~layout k in
  Alcotest.(check int) "no violations (MDC + AB)" 0 st.Sim.violations;
  Alcotest.(check bool) "memory identical" true
    (Bytes.equal st.Sim.memory ref_run.Ir.Interp.memory)

let test_sim_scalar_final_value_semantics () =
  (* accumulate and store once per iteration; memory must match interp *)
  let src =
    "kernel k { array a : i32[32] = ramp(2,3) array out : i64[32] = zero \
     scalar acc : i64 = 5 trip 32 body { acc = acc + a[i] out[i] = acc } }"
  in
  let ((k, _, layout, _) as c) = compile src in
  let st = simulate c in
  let ref_run = Ir.Interp.run ~layout k in
  Alcotest.(check int) "no violations" 0 st.Sim.violations;
  Alcotest.(check bool) "loop-carried scalar flows correctly" true
    (Bytes.equal st.Sim.memory ref_run.Ir.Interp.memory)

let test_sim_comm_ops_scale_with_trip () =
  let src =
    "kernel k { array a : i32[64] = zero array b : i32[64] = zero trip 32 body { b[i] = a[i] } }"
  in
  let k = Ir.Parser.parse_kernel src in
  let low = Lower.lower k in
  let layout = Ir.Layout.make k in
  let pinned = Hashtbl.create 4 in
  (* force the load and store apart so at least one copy is needed *)
  List.iter
    (fun ((n : G.node), _) ->
      Hashtbl.replace pinned n.n_id (if G.is_store n then 2 else 0))
    (G.mem_refs low.Lower.graph);
  let s =
    match
      Driver.run (Driver.request ~constraints:{ Chains.pinned; grouped = [] } M.table2)
        low.Lower.graph
    with
    | Ok s -> s
    | Error e -> Alcotest.fail e
  in
  let st = Sim.run ~lowered:low ~graph:low.Lower.graph ~schedule:s ~layout () in
  Alcotest.(check bool) "has copies" true (S.comm_ops s > 0);
  Alcotest.(check int) "dynamic comm ops = static x trip" (S.comm_ops s * 32)
    st.Sim.comm_ops

(* --- attraction buffer staleness detection --- *)

let test_sim_ab_stale_read_detected () =
  (* a load pinned to cluster 1 cycles over four addresses and caches their
     subblocks in its Attraction Buffer; a store pinned to cluster 3 keeps
     rewriting them at home without touching cluster 1's buffer. Later
     buffer hits read provably-stale copies: the checker must notice. *)
  let src =
    "kernel k { array a : i32[16] = ramp(0,1) scalar s : i64 = 0 trip 32 \
     body { s = s + a[i % 4] a[(i + 1) % 4] = i * 17 } }"
  in
  let k = Ir.Parser.parse_kernel src in
  let low = Lower.lower k in
  let layout = Ir.Layout.make k in
  let machine = M.with_attraction M.table2 (Some M.default_attraction) in
  let pinned = Hashtbl.create 4 in
  List.iter
    (fun ((n : G.node), _) ->
      Hashtbl.replace pinned n.n_id (if G.is_store n then 3 else 1))
    (G.mem_refs low.Lower.graph);
  let s =
    match
      Driver.run (Driver.request ~constraints:{ Chains.pinned; grouped = [] } machine)
        low.Lower.graph
    with
    | Ok s -> s
    | Error e -> Alcotest.fail e
  in
  let st = Sim.run ~lowered:low ~graph:low.Lower.graph ~schedule:s ~layout () in
  Alcotest.(check bool) "buffer hits happened" true (st.Sim.ab_hits > 0);
  Alcotest.(check bool) "stale reads were flagged" true (st.Sim.violations > 0)

(* --- conservation laws --- *)

let test_sim_access_conservation () =
  (* every dynamic memory operation is classified exactly once:
     accesses_total = trip * static memory ops (the executing instance of a
     replicated store counts, the nullified ones do not) *)
  let src =
    "kernel k { array a : i32[260] = ramp(0,1) scalar s : i64 = 0 trip 64 body { a[4*i] = a[4*i] + 2 s = s + a[4*i + 1] } }"
  in
  let k = Ir.Parser.parse_kernel src in
  let low = Lower.lower k in
  let layout = Ir.Layout.make k in
  let static_mem = List.length (G.mem_refs low.Lower.graph) in
  (* plain run *)
  let s = match Driver.run (Driver.request M.table2) low.Lower.graph with
    | Ok s -> s | Error e -> Alcotest.fail e in
  let st = Sim.run ~lowered:low ~graph:low.Lower.graph ~schedule:s ~layout () in
  Alcotest.(check int) "free: one classification per dynamic op"
    (64 * static_mem) (Sim.accesses_total st);
  (* DDGT run: replicas add nullified instances, not accesses *)
  let r = Ddgt.transform ~clusters:4 low.Lower.graph in
  let s2 = match Driver.run (Driver.request M.table2) r.Ddgt.graph with
    | Ok s -> s | Error e -> Alcotest.fail e in
  let st2 = Sim.run ~lowered:low ~graph:r.Ddgt.graph ~schedule:s2 ~layout () in
  Alcotest.(check int) "DDGT: same access count" (64 * static_mem)
    (Sim.accesses_total st2);
  let replicated = List.length r.Ddgt.replicas in
  Alcotest.(check int) "nullified = (N-1) x trip x replicated stores"
    (3 * 64 * replicated) st2.Sim.nullified

let test_sim_deterministic () =
  let src =
    "kernel k { array a : i64[512] = random(5) scalar s : i64 = 0 trip 128 body { s = s + a[4*i] a[4*i + 1] = s } }"
  in
  let c = compile src in
  let st1 = simulate c and st2 = simulate c in
  Alcotest.(check int) "same cycles" st1.Sim.total_cycles st2.Sim.total_cycles;
  Alcotest.(check int) "same stalls" st1.Sim.stall_cycles st2.Sim.stall_cycles;
  Alcotest.(check bool) "same memory" true (Bytes.equal st1.Sim.memory st2.Sim.memory)

let test_sim_oracle_equals_execution_when_coherent () =
  (* under MDC the data is identical either way, so the timing must be too *)
  let src =
    "kernel k { array a : i32[129] = ramp(1,5) trip 128 body { a[i] = a[i] + a[i + 1] } }"
  in
  let k = Ir.Parser.parse_kernel src in
  let low = Lower.lower k in
  let layout = Ir.Layout.make k in
  let machine = M.table2 in
  let prof = Vliw_profile.Profile.run ~machine ~layout k in
  let pref = Vliw_profile.Profile.node_pref prof low.Lower.graph in
  let constraints = Chains.prefclus low.Lower.graph ~pref in
  let s =
    match
      Driver.run (Driver.request ~heuristic:S.Pref_clus ~constraints ~pref machine)
        low.Lower.graph
    with
    | Ok s -> s
    | Error e -> Alcotest.fail e
  in
  let st_exec = Sim.run ~lowered:low ~graph:low.Lower.graph ~schedule:s ~layout () in
  let oracle = Ir.Interp.run ~layout k in
  let st_oracle =
    Sim.run ~lowered:low ~graph:low.Lower.graph ~schedule:s ~layout
      ~mode:(Sim.Oracle oracle) ()
  in
  Alcotest.(check int) "identical cycle count" st_exec.Sim.total_cycles
    st_oracle.Sim.total_cycles;
  Alcotest.(check int) "identical classification"
    (Sim.accesses_total st_exec) (Sim.accesses_total st_oracle)

let test_sim_warm_reduces_misses_never_hits () =
  let src =
    "kernel k { array a : i64[128] = random(9) scalar s : i64 = 0 trip 128 body { s = s + a[i % 128] } }"
  in
  let ((k, _, layout, _) as c) = compile src in
  let oracle = Ir.Interp.run ~layout k in
  let cold = simulate ~mode:(Sim.Oracle oracle) c in
  let _, low, _, s = c in
  let warm =
    Sim.run ~lowered:low ~graph:low.Lower.graph ~schedule:s ~layout
      ~mode:(Sim.Oracle oracle) ~warm:true ()
  in
  Alcotest.(check bool) "warm misses <= cold misses" true
    (warm.Sim.local_misses + warm.Sim.remote_misses
    <= cold.Sim.local_misses + cold.Sim.remote_misses);
  Alcotest.(check bool) "warm hits >= cold hits" true
    (warm.Sim.local_hits + warm.Sim.remote_hits
    >= cold.Sim.local_hits + cold.Sim.remote_hits);
  Alcotest.(check bool) "warm not slower" true
    (warm.Sim.total_cycles <= cold.Sim.total_cycles)

(* the parser accepts [trip 0] and only Typecheck rejects it, so the
   simulator refuses the kernel's own non-positive trip. Lowering
   typechecks, so the zero-trip kernel rides on its trip-16 twin's
   lowering and schedule *)
let test_sim_rejects_bad_trip () =
  let src trip =
    Printf.sprintf
      "kernel k { array a : i32[64] = zero trip %d body { a[4*i] = 1 } }" trip
  in
  let _, low, layout, s = compile (src 16) in
  let k0 = Ir.Parser.parse_kernel (src 0) in
  let c = (k0, { low with Lower.kernel = k0 }, layout, s) in
  Alcotest.(check bool) "zero trip rejected" true
    (try ignore (simulate c); false with Invalid_argument _ -> true)

(* --- property: simulated memory always matches the interpreter under MDC
   across random simple kernels --- *)

let gen_kernel_src =
  QCheck.Gen.(
    let* seed = int_range 0 1000 in
    let* stride = int_range 1 3 in
    let* off = int_range 1 4 in
    let* op = oneofl [ "+"; "-"; "^" ] in
    return
      (Printf.sprintf
         "kernel k { array a : i32[%d] = random(%d) trip 32 body { a[%d*i] = a[%d*i] %s a[%d*i + %d] } }"
         (100 * stride) seed stride stride op stride off))

let prop_mdc_execution_correct =
  QCheck.Test.make ~name:"MDC execution matches interpreter" ~count:30
    (QCheck.make gen_kernel_src ~print:Fun.id)
    (fun src ->
      let k = Ir.Parser.parse_kernel src in
      let low = Lower.lower k in
      let layout = Ir.Layout.make k in
      let machine = M.table2 in
      let prof = Vliw_profile.Profile.run ~machine ~layout k in
      let pref = Vliw_profile.Profile.node_pref prof low.Lower.graph in
      let constraints = Chains.prefclus low.Lower.graph ~pref in
      match
        Driver.run
          (Driver.request ~heuristic:S.Pref_clus ~constraints ~pref machine)
          low.Lower.graph
      with
      | Error _ -> false
      | Ok s ->
        let st = Sim.run ~lowered:low ~graph:low.Lower.graph ~schedule:s ~layout () in
        let ref_run = Ir.Interp.run ~layout k in
        st.Sim.violations = 0
        && Bytes.equal st.Sim.memory ref_run.Ir.Interp.memory)

let prop_ddgt_execution_correct =
  QCheck.Test.make ~name:"DDGT execution matches interpreter" ~count:30
    (QCheck.make gen_kernel_src ~print:Fun.id)
    (fun src ->
      let k = Ir.Parser.parse_kernel src in
      let low = Lower.lower k in
      let layout = Ir.Layout.make k in
      let r = Ddgt.transform ~clusters:4 low.Lower.graph in
      match Driver.run (Driver.request M.table2) r.Ddgt.graph with
      | Error _ -> false
      | Ok s ->
        let st = Sim.run ~lowered:low ~graph:r.Ddgt.graph ~schedule:s ~layout () in
        let ref_run = Ir.Interp.run ~layout k in
        st.Sim.violations = 0
        && Bytes.equal st.Sim.memory ref_run.Ir.Interp.memory)

(* --- tracing and replay audit --- *)

let test_sim_ab_flush_back_to_back () =
  (* the end-of-loop flush must account for every live AB entry, and a
     second back-to-back execution of the same loop must start from an
     empty buffer: identical stats, including the flush count itself *)
  let src =
    "kernel k { array a : i32[16] = ramp(0,1) scalar s : i64 = 0 trip 64 \
     body { s = s + a[i % 16] } }"
  in
  let k = Ir.Parser.parse_kernel src in
  let low = Lower.lower k in
  let layout = Ir.Layout.make k in
  let machine = M.with_attraction M.table2 (Some M.default_attraction) in
  let pinned = Hashtbl.create 4 in
  List.iter
    (fun ((n : G.node), _) -> Hashtbl.replace pinned n.n_id 1)
    (G.mem_refs low.Lower.graph);
  let s =
    match
      Driver.run
        (Driver.request ~constraints:{ Chains.pinned; grouped = [] } machine)
        low.Lower.graph
    with
    | Ok s -> s
    | Error e -> Alcotest.fail e
  in
  let run_once () =
    let sink = Trace.create () in
    let st =
      Sim.run ~lowered:low ~graph:low.Lower.graph ~schedule:s ~layout
        ~trace:sink ()
    in
    (st, sink)
  in
  let st1, sink1 = run_once () in
  let st2, _ = run_once () in
  Alcotest.(check bool) "entries were live at loop end" true
    (st1.Sim.ab_flushed > 0);
  (* the trace carries one flush event per cluster; their entry counts sum
     to the stats counter *)
  let flush_events = ref 0 and flushed = ref 0 in
  Trace.iter sink1 (fun ev ->
      match ev.Trace.ev_payload with
      | Trace.Ab_flush { entries; _ } ->
        incr flush_events;
        flushed := !flushed + entries
      | _ -> ());
  Alcotest.(check int) "one flush event per cluster" 4 !flush_events;
  Alcotest.(check int) "flush events account for ab_flushed" st1.Sim.ab_flushed
    !flushed;
  (* no warm-AB carryover between executions *)
  Alcotest.(check int) "same AB hits" st1.Sim.ab_hits st2.Sim.ab_hits;
  Alcotest.(check int) "same flush count" st1.Sim.ab_flushed st2.Sim.ab_flushed;
  Alcotest.(check int) "same cycles" st1.Sim.total_cycles st2.Sim.total_cycles

let test_sim_audit_execution_violations () =
  (* the contention scenario of Figure 2, run in Execution mode: the replay
     auditor must independently find the same nonzero violation count the
     simulator reports *)
  let src =
    "kernel k { array a : i32[520] = ramp(0,1) array junk : i32[4096] = zero \
     scalar s : i64 = 0 trip 128 body { junk[3*i] = i junk[5*i + 1] = i \
     a[4*i + 8] = i * 5 s = s + a[4*i] } }"
  in
  let k = Ir.Parser.parse_kernel src in
  let low = Lower.lower k in
  let layout = Ir.Layout.make k in
  let pinned = Hashtbl.create 4 in
  List.iter
    (fun ((n : G.node), (mr : G.mem_ref)) ->
      if mr.G.mr_array = "a" then
        Hashtbl.replace pinned n.n_id (if G.is_store n then 3 else 0))
    (G.mem_refs low.Lower.graph);
  let machine =
    { M.table2 with M.mem_buses = { M.bus_count = 1; bus_latency = 2 } }
  in
  let s =
    match
      Driver.run
        (Driver.request ~constraints:{ Chains.pinned; grouped = [] } machine)
        low.Lower.graph
    with
    | Ok s -> s
    | Error e -> Alcotest.fail e
  in
  let sink = Trace.create () in
  let jitter = (Vliw_util.Prng.create 42, 6) in
  let st =
    Sim.run ~lowered:low ~graph:low.Lower.graph ~schedule:s ~layout ~jitter
      ~mode:Sim.Execution ~trace:sink ()
  in
  Alcotest.(check bool) "violations engineered" true (st.Sim.violations > 0);
  let r = Audit.run sink in
  Alcotest.(check int) "auditor re-derives violations" st.Sim.violations
    r.Audit.violations;
  Alcotest.(check int) "auditor re-derives nullified" st.Sim.nullified
    r.Audit.nullified;
  Alcotest.(check int) "every access applied once" (Sim.accesses_total st)
    r.Audit.applies;
  (* and a tampered expectation is rejected *)
  Alcotest.(check bool) "tampered count rejected" true
    (Result.is_error
       (Audit.check sink
          ~violations:(st.Sim.violations + 1)
          ~nullified:st.Sim.nullified))

let () =
  Alcotest.run "sim"
    [
      ( "cachemod",
        [
          Alcotest.test_case "basic" `Quick test_cachemod_basic;
          Alcotest.test_case "lru eviction" `Quick test_cachemod_lru_eviction;
          Alcotest.test_case "foreign subblock" `Quick
            test_cachemod_rejects_foreign_subblock;
          Alcotest.test_case "encoding ignores history" `Quick
            test_cachemod_encode_history_independent;
          Alcotest.test_case "encoding distinguishes" `Quick
            test_cachemod_encode_distinguishes;
          Alcotest.test_case "invalidated encodes fresh" `Quick
            test_cachemod_encode_invalidated_is_fresh;
          QCheck_alcotest.to_alcotest prop_cachemod_encoding_is_lru_state;
          QCheck_alcotest.to_alcotest prop_cachemod_index_is_full_scan;
        ] );
      ( "attraction",
        [
          Alcotest.test_case "install/read" `Quick test_ab_install_read;
          Alcotest.test_case "write updates" `Quick test_ab_write_updates_copy;
          Alcotest.test_case "straddling bypass" `Quick
            test_ab_straddling_access_bypasses;
          Alcotest.test_case "flush counts" `Quick test_ab_flush_counts;
          Alcotest.test_case "line states" `Quick test_ab_line_states;
        ] );
      ( "directory",
        [ Alcotest.test_case "sharer mask lags" `Quick test_directory_sharer_mask ] );
      ( "timing",
        [
          Alcotest.test_case "local hits" `Quick test_sim_all_local_hits_no_stall;
          Alcotest.test_case "remote counted" `Quick test_sim_remote_accesses_counted;
          Alcotest.test_case "misses" `Quick test_sim_misses_on_large_array;
          Alcotest.test_case "combining" `Quick test_sim_combining;
          Alcotest.test_case "stall accounting" `Quick
            test_sim_stall_time_positive_on_misses;
          Alcotest.test_case "comm ops" `Quick test_sim_comm_ops_scale_with_trip;
        ] );
      ( "correctness",
        [
          Alcotest.test_case "MDC memory" `Quick test_sim_memory_matches_interpreter_mdc;
          Alcotest.test_case "DDGT memory" `Quick
            test_sim_memory_matches_interpreter_ddgt;
          Alcotest.test_case "oracle mode" `Quick test_sim_oracle_mode_counts_match;
          Alcotest.test_case "baseline violations" `Quick
            test_sim_baseline_violations_under_contention;
          Alcotest.test_case "scalar semantics" `Quick
            test_sim_scalar_final_value_semantics;
        ] );
      ( "attraction buffers end-to-end",
        [
          Alcotest.test_case "reuse hits" `Quick test_sim_ab_hits_on_reuse;
          Alcotest.test_case "correctness preserved" `Quick
            test_sim_ab_correctness_preserved;
        ] );
      ( "staleness",
        [
          Alcotest.test_case "stale AB read detected" `Quick
            test_sim_ab_stale_read_detected;
        ] );
      ( "conservation",
        [
          Alcotest.test_case "access counts" `Quick test_sim_access_conservation;
          Alcotest.test_case "determinism" `Quick test_sim_deterministic;
          Alcotest.test_case "oracle = execution when coherent" `Quick
            test_sim_oracle_equals_execution_when_coherent;
          Alcotest.test_case "warm monotone" `Quick
            test_sim_warm_reduces_misses_never_hits;
          Alcotest.test_case "bad trips" `Quick test_sim_rejects_bad_trip;
        ] );
      ( "tracing",
        [
          Alcotest.test_case "AB flush accounting, back-to-back" `Quick
            test_sim_ab_flush_back_to_back;
          Alcotest.test_case "audit agrees on execution violations" `Quick
            test_sim_audit_execution_violations;
        ] );
      ( "properties",
        List.map QCheck_alcotest.to_alcotest
          [ prop_mdc_execution_correct; prop_ddgt_execution_correct ] );
    ]
