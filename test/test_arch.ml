module M = Vliw_arch.Machine

let t2 = M.table2

let test_table2_valid () =
  match M.validate t2 with
  | Ok () -> ()
  | Error e -> Alcotest.fail e

let test_presets_valid () =
  List.iter
    (fun (name, m) ->
      match M.validate m with
      | Ok () -> ()
      | Error e -> Alcotest.failf "%s: %s" name e)
    [ ("nobal_mem", M.nobal_mem); ("nobal_reg", M.nobal_reg);
      ("interleave2", M.with_interleave t2 2);
      ("with AB", M.with_attraction t2 (Some M.default_attraction)) ]

let test_invalid_configs () =
  let bad1 = { t2 with M.clusters = 3 } in
  let bad2 = M.with_interleave t2 3 in
  let bad3 = { t2 with M.interleave_bytes = 0 } in
  List.iter
    (fun m ->
      match M.validate m with
      | Ok () -> Alcotest.fail "expected invalid"
      | Error _ -> ())
    [ bad1; bad2; bad3 ]

let test_scale_clusters () =
  List.iter
    (fun n ->
      List.iter
        (fun icn ->
          let m = M.with_interconnect (M.scale_clusters t2 n) icn in
          (match M.validate m with
          | Ok () -> ()
          | Error e ->
            Alcotest.failf "%d clusters / %s: %s" n (M.interconnect_name icn) e);
          Alcotest.(check int)
            (Printf.sprintf "%d clusters" n)
            n m.M.clusters;
          (* per-cluster resources stay constant across scales *)
          Alcotest.(check int)
            (Printf.sprintf "%d: module bytes" n)
            (t2.M.cache.M.total_bytes / t2.M.clusters)
            (m.M.cache.M.total_bytes / m.M.clusters);
          Alcotest.(check int)
            (Printf.sprintf "%d: mem buses per cluster" n)
            (t2.M.mem_buses.M.bus_count * n / t2.M.clusters)
            m.M.mem_buses.M.bus_count;
          (* the interleave unit still divides a subblock *)
          Alcotest.(check int)
            (Printf.sprintf "%d: subblock multiple of interleave" n)
            0
            (M.subblock_bytes m mod m.M.interleave_bytes))
        [ M.Shared_bus; M.Directory ])
    M.supported_clusters;
  (* scaling to the current count is the identity *)
  Alcotest.(check bool) "scale to 4 is identity" true (M.scale_clusters t2 4 = t2);
  (* unsupported counts are rejected by validation *)
  match M.validate (M.scale_clusters t2 12) with
  | Ok () -> Alcotest.fail "12 clusters must be rejected"
  | Error _ -> ()

let test_interconnect_names () =
  List.iter
    (fun icn ->
      Alcotest.(check bool)
        (M.interconnect_name icn ^ " roundtrips")
        true
        (M.interconnect_of_string (M.interconnect_name icn) = Some icn))
    [ M.Shared_bus; M.Directory ];
  Alcotest.(check bool) "unknown name" true
    (M.interconnect_of_string "mesh" = None)

let test_of_spec () =
  let spec ?clusters ?icn ?protocol ?membus name =
    M.of_spec ?clusters ?icn ?protocol ?membus ~name ~interleave:2 ~ab:true ()
  in
  (match
     spec ~clusters:8 ~icn:"directory" ~protocol:"mesi" ~membus:1 "nobal-reg"
   with
  | Error e -> Alcotest.fail e
  | Ok m ->
    let expected =
      M.with_protocol
        (M.with_interleave
           (M.with_attraction
              (M.with_interconnect (M.scale_clusters M.nobal_reg 8) M.Directory)
              (Some M.default_attraction))
           2)
        M.Mesi
    in
    let expected =
      { expected with M.mem_buses = { expected.M.mem_buses with M.bus_count = 1 } }
    in
    Alcotest.(check bool) "preset, scaled, then each field" true (m = expected));
  List.iter
    (fun (what, r, msg) ->
      match r with
      | Ok _ -> Alcotest.fail (what ^ " must be rejected")
      | Error e -> Alcotest.(check string) what msg e)
    [
      ( "machine", spec "bogus",
        "unknown machine \"bogus\" (bal, nobal-mem, nobal-reg)" );
      ( "interconnect", spec ~icn:"mesh" "bal",
        "unknown interconnect \"mesh\" (bus, directory)" );
      ( "protocol", spec ~protocol:"moesi" "bal",
        "unknown protocol \"moesi\" (install-flush, msi, mesi)" );
      ( "pairing", spec ~icn:"directory" ~protocol:"msi" "bal",
        "invalid machine configuration: protocol msi snoops the shared bus; it \
         requires interconnect bus" );
      ( "mesi pairing", spec ~protocol:"mesi" "bal",
        "invalid machine configuration: protocol mesi routes ownership \
         handoffs through the directory; it requires interconnect directory" );
    ]

let test_home_cluster_interleaving () =
  (* 4B interleave, 4 clusters: addresses 0..3 -> cl0, 4..7 -> cl1, ... *)
  Alcotest.(check int) "addr 0" 0 (M.home_cluster t2 ~addr:0);
  Alcotest.(check int) "addr 3" 0 (M.home_cluster t2 ~addr:3);
  Alcotest.(check int) "addr 4" 1 (M.home_cluster t2 ~addr:4);
  Alcotest.(check int) "addr 12" 3 (M.home_cluster t2 ~addr:12);
  Alcotest.(check int) "addr 16 wraps" 0 (M.home_cluster t2 ~addr:16);
  (* the paper's Figure 1: words 0 and 4 of a block -> cluster 1 (our 0) *)
  Alcotest.(check int) "word4 same cluster as word0" 0
    (M.home_cluster t2 ~addr:(4 * 4))

let test_home_cluster_interleave2 () =
  let m = M.with_interleave t2 2 in
  Alcotest.(check int) "addr 0" 0 (M.home_cluster m ~addr:0);
  Alcotest.(check int) "addr 2" 1 (M.home_cluster m ~addr:2);
  Alcotest.(check int) "addr 6" 3 (M.home_cluster m ~addr:6);
  Alcotest.(check int) "addr 8" 0 (M.home_cluster m ~addr:8)

let test_subblock_geometry () =
  Alcotest.(check int) "subblock bytes" 8 (M.subblock_bytes t2);
  Alcotest.(check int) "module sets" 128 (M.module_sets t2);
  (* a block contributes one subblock per cluster *)
  let sb0 = M.subblock_id t2 ~addr:0 in
  let sb4 = M.subblock_id t2 ~addr:4 in
  Alcotest.(check bool) "different cluster, different subblock" true (sb0 <> sb4);
  Alcotest.(check int) "word 0 and word 4 share a subblock" sb0
    (M.subblock_id t2 ~addr:16)

let test_addrs_of_subblock () =
  let sb = M.subblock_id t2 ~addr:0 in
  Alcotest.(check (list int)) "subblock 0 covers words 0 and 4" [ 0; 16 ]
    (M.addrs_of_subblock t2 ~subblock:sb);
  (* every 4B chunk of block 0 appears in exactly one of its subblocks *)
  let all =
    List.concat_map
      (fun c ->
        M.addrs_of_subblock t2 ~subblock:(M.subblock_id t2 ~addr:(4 * c)))
      [ 0; 1; 2; 3 ]
  in
  Alcotest.(check (list int)) "partition of the block" [ 0; 4; 8; 12; 16; 20; 24; 28 ]
    (List.sort compare all)

let test_latencies () =
  Alcotest.(check int) "local hit" 1 (M.latency t2 M.Local_hit);
  Alcotest.(check int) "remote hit" 5 (M.latency t2 M.Remote_hit);
  Alcotest.(check int) "local miss" 11 (M.latency t2 M.Local_miss);
  Alcotest.(check int) "remote miss" 15 (M.latency t2 M.Remote_miss);
  Alcotest.(check (list int)) "assumable sorted" [ 1; 5; 11; 15 ]
    (M.all_assumable_latencies t2)

let test_latency_ordering_nobal () =
  (* slower memory buses must raise remote latencies *)
  Alcotest.(check int) "nobal_reg remote hit" 9 (M.latency M.nobal_reg M.Remote_hit);
  Alcotest.(check bool) "remote miss dominates" true
    (M.latency M.nobal_reg M.Remote_miss > M.latency t2 M.Remote_miss)

let test_describe_mentions_table2 () =
  let d = M.describe t2 in
  Alcotest.(check string) "clusters" "4" (List.assoc "Number of clusters" d);
  Alcotest.(check bool) "has cache line" true
    (List.mem_assoc "Cache parameters" d)

let prop_home_cluster_in_range =
  QCheck.Test.make ~name:"home cluster in range" ~count:500
    QCheck.(int_bound 1_000_000)
    (fun addr ->
      let c = M.home_cluster t2 ~addr in
      c >= 0 && c < t2.M.clusters)

let prop_subblock_roundtrip =
  QCheck.Test.make ~name:"addrs_of_subblock covers its members" ~count:300
    QCheck.(int_bound 100_000)
    (fun addr ->
      let addr = addr / 4 * 4 in
      let sb = M.subblock_id t2 ~addr in
      List.mem addr (M.addrs_of_subblock t2 ~subblock:sb))

let prop_same_subblock_same_home =
  QCheck.Test.make ~name:"subblock members share a home" ~count:300
    QCheck.(int_bound 100_000)
    (fun addr ->
      let sb = M.subblock_id t2 ~addr in
      let homes =
        List.map (fun a -> M.home_cluster t2 ~addr:a)
          (M.addrs_of_subblock t2 ~subblock:sb)
      in
      List.sort_uniq compare homes = [ M.home_cluster t2 ~addr ])

let () =
  Alcotest.run "arch"
    [
      ( "validate",
        [
          Alcotest.test_case "table2" `Quick test_table2_valid;
          Alcotest.test_case "presets" `Quick test_presets_valid;
          Alcotest.test_case "invalid configs" `Quick test_invalid_configs;
          Alcotest.test_case "scale clusters 4/8/16/32" `Quick
            test_scale_clusters;
          Alcotest.test_case "interconnect names" `Quick
            test_interconnect_names;
          Alcotest.test_case "of_spec" `Quick test_of_spec;
        ] );
      ( "geometry",
        [
          Alcotest.test_case "home cluster 4B" `Quick test_home_cluster_interleaving;
          Alcotest.test_case "home cluster 2B" `Quick test_home_cluster_interleave2;
          Alcotest.test_case "subblocks" `Quick test_subblock_geometry;
          Alcotest.test_case "addrs of subblock" `Quick test_addrs_of_subblock;
        ] );
      ( "latency",
        [
          Alcotest.test_case "table2 latencies" `Quick test_latencies;
          Alcotest.test_case "nobal latencies" `Quick test_latency_ordering_nobal;
          Alcotest.test_case "describe" `Quick test_describe_mentions_table2;
        ] );
      ( "properties",
        List.map QCheck_alcotest.to_alcotest
          [ prop_home_cluster_in_range; prop_subblock_roundtrip;
            prop_same_subblock_same_home ] );
    ]
