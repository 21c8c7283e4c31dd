module G = Vliw_ddg.Graph
module A = Vliw_ddg.Analysis
module Dot = Vliw_ddg.Dot

let mr ?affine ?(bytes = 4) ?(site = 0) arr =
  { G.mr_array = arr; mr_affine = affine; mr_bytes = bytes; mr_float = false;
    mr_site = site }

let arith ?(lat = 1) name = G.Arith { aname = name; fu_int = true; latency = lat }

let ok_or_fail = function Ok () -> () | Error e -> Alcotest.fail e

(* --- construction and validation --- *)

let test_add_nodes_edges () =
  let g = G.create () in
  let a = G.add_node g (G.Load (mr "x")) in
  let b = G.add_node g (arith "add") in
  G.add_edge g G.RF ~src:a.n_id ~dst:b.n_id;
  Alcotest.(check int) "two nodes" 2 (G.node_count g);
  Alcotest.(check int) "one edge" 1 (List.length (G.edges g));
  Alcotest.(check int) "succ of a" 1 (List.length (G.succs g a.n_id));
  Alcotest.(check int) "pred of b" 1 (List.length (G.preds g b.n_id));
  ok_or_fail (G.validate g)

let test_duplicate_edge_ignored () =
  let g = G.create () in
  let a = G.add_node g (G.Load (mr "x")) in
  let b = G.add_node g (arith "add") in
  G.add_edge g G.RF ~src:a.n_id ~dst:b.n_id;
  G.add_edge g G.RF ~src:a.n_id ~dst:b.n_id;
  Alcotest.(check int) "deduplicated" 1 (List.length (G.edges g));
  (* same endpoints at another distance is a distinct edge *)
  G.add_edge g ~dist:1 G.RF ~src:a.n_id ~dst:b.n_id;
  Alcotest.(check int) "distinct distance kept" 2 (List.length (G.edges g))

let test_remove_edge () =
  let g = G.create () in
  let a = G.add_node g (G.Load (mr "x")) in
  let b = G.add_node g (arith "add") in
  G.add_edge g G.RF ~src:a.n_id ~dst:b.n_id;
  G.remove_edge g (List.hd (G.edges g));
  Alcotest.(check int) "removed" 0 (List.length (G.edges g))

let test_edge_endpoint_checks () =
  let g = G.create () in
  let a = G.add_node g (arith "add") in
  Alcotest.(check bool) "missing endpoint rejected" true
    (try G.add_edge g G.RF ~src:a.n_id ~dst:99; false
     with Invalid_argument _ -> true);
  Alcotest.(check bool) "negative distance rejected" true
    (try G.add_edge g ~dist:(-1) G.RF ~src:a.n_id ~dst:a.n_id; false
     with Invalid_argument _ -> true)

let test_validate_kind_shapes () =
  (* MF must be store -> load *)
  let g = G.create () in
  let l = G.add_node g (G.Load (mr "x")) in
  let l2 = G.add_node g (G.Load (mr "x")) in
  G.add_edge g G.MF ~src:l.n_id ~dst:l2.n_id;
  (match G.validate g with
  | Error _ -> ()
  | Ok () -> Alcotest.fail "MF load->load accepted");
  let g2 = G.create () in
  let s = G.add_node g2 (G.Store (mr "x")) in
  let c = G.add_node g2 (arith "add") in
  G.add_edge g2 G.RF ~src:s.n_id ~dst:c.n_id;
  match G.validate g2 with
  | Error _ -> ()
  | Ok () -> Alcotest.fail "RF out of a store accepted"

let test_validate_zero_cycle () =
  let g = G.create () in
  let a = G.add_node g (arith "a") in
  let b = G.add_node g (arith "b") in
  G.add_edge g G.RF ~src:a.n_id ~dst:b.n_id;
  G.add_edge g G.RF ~src:b.n_id ~dst:a.n_id;
  (match G.validate g with
  | Error _ -> ()
  | Ok () -> Alcotest.fail "distance-0 cycle accepted");
  (* breaking the cycle with a loop-carried edge is fine *)
  G.remove_edge g { G.e_src = b.n_id; e_dst = a.n_id; e_kind = G.RF; e_dist = 0 };
  G.add_edge g ~dist:1 G.RF ~src:b.n_id ~dst:a.n_id;
  ok_or_fail (G.validate g)

let test_self_rf_distance () =
  let g = G.create () in
  let a = G.add_node g (arith "acc") in
  G.add_edge g ~dist:1 G.RF ~src:a.n_id ~dst:a.n_id;
  ok_or_fail (G.validate g);
  let g2 = G.create () in
  let b = G.add_node g2 (arith "acc") in
  let rejected =
    try
      G.add_edge g2 G.RF ~src:b.n_id ~dst:b.n_id;
      G.validate g2 <> Ok ()
    with Invalid_argument _ -> true
  in
  Alcotest.(check bool) "self RF at distance 0 rejected" true rejected

let test_fu_kinds () =
  let g = G.create () in
  let l = G.add_node g (G.Load (mr "x")) in
  let f = G.add_node g (G.Arith { aname = "fadd"; fu_int = false; latency = 2 }) in
  let i = G.add_node g (arith "add") in
  let k = G.add_node g G.Fake in
  Alcotest.(check bool) "load on mem fu" true (G.fu_kind l = Vliw_arch.Machine.Mem_fu);
  Alcotest.(check bool) "fadd on fp fu" true (G.fu_kind f = Vliw_arch.Machine.Fp_fu);
  Alcotest.(check bool) "add on int fu" true (G.fu_kind i = Vliw_arch.Machine.Int_fu);
  Alcotest.(check bool) "fake on int fu" true (G.fu_kind k = Vliw_arch.Machine.Int_fu)

let test_op_latency () =
  let g = G.create () in
  let l = G.add_node g (G.Load (mr "x")) in
  let a = G.add_node g (arith ~lat:4 "div") in
  Alcotest.(check int) "mem op uses assumed" 7
    (G.op_latency l ~assumed:(fun _ -> 7));
  Alcotest.(check int) "arith uses opcode" 4 (G.op_latency a ~assumed:(fun _ -> 7))

(* --- analyses --- *)

let diamond () =
  let g = G.create () in
  let a = G.add_node g (arith "a") in
  let b = G.add_node g (arith "b") in
  let c = G.add_node g (arith "c") in
  let d = G.add_node g (arith "d") in
  G.add_edge g G.RF ~src:a.n_id ~dst:b.n_id;
  G.add_edge g G.RF ~src:a.n_id ~dst:c.n_id;
  G.add_edge g G.RF ~src:b.n_id ~dst:d.n_id;
  G.add_edge g G.RF ~src:c.n_id ~dst:d.n_id;
  (g, a, b, c, d)

let test_topo_order () =
  let g, a, _, _, d = diamond () in
  let order = A.topo_order g in
  Alcotest.(check int) "all nodes" 4 (List.length order);
  Alcotest.(check int) "source first" a.n_id (List.hd order);
  Alcotest.(check int) "sink last" d.n_id (List.nth order 3)

let test_sccs_acyclic () =
  let g, _, _, _, _ = diamond () in
  let comps = A.sccs g in
  Alcotest.(check int) "4 singleton SCCs" 4 (List.length comps);
  List.iter (fun c -> Alcotest.(check int) "singleton" 1 (List.length c)) comps

let test_sccs_recurrence () =
  let g = G.create () in
  let a = G.add_node g (arith "a") in
  let b = G.add_node g (arith "b") in
  let c = G.add_node g (arith "c") in
  G.add_edge g G.RF ~src:a.n_id ~dst:b.n_id;
  G.add_edge g ~dist:1 G.RF ~src:b.n_id ~dst:a.n_id;
  G.add_edge g G.RF ~src:b.n_id ~dst:c.n_id;
  let comps = A.sccs g in
  Alcotest.(check int) "two SCCs" 2 (List.length comps);
  Alcotest.(check bool) "a,b together" true
    (List.exists (fun comp -> comp = List.sort compare [ a.n_id; b.n_id ]) comps)

let test_reachable_same_iter () =
  let g, a, _, _, d = diamond () in
  Alcotest.(check bool) "a reaches d" true
    (A.reachable_same_iter g ~src:a.n_id ~dst:d.n_id);
  Alcotest.(check bool) "d does not reach a" false
    (A.reachable_same_iter g ~src:d.n_id ~dst:a.n_id);
  (* distance-1 edges do not count as same-iteration paths *)
  let e = G.add_node g (arith "e") in
  G.add_edge g ~dist:1 G.RF ~src:d.n_id ~dst:e.n_id;
  Alcotest.(check bool) "loop-carried edge ignored" false
    (A.reachable_same_iter g ~src:a.n_id ~dst:e.n_id)

let test_undirected_components () =
  let g = G.create () in
  let s1 = G.add_node g (G.Store (mr "x")) in
  let l1 = G.add_node g (G.Load (mr "x")) in
  let _s2 = G.add_node g (G.Store (mr "y")) in
  let a = G.add_node g (arith "a") in
  G.add_edge g ~dist:1 G.MF ~src:s1.n_id ~dst:l1.n_id;
  G.add_edge g G.RF ~src:l1.n_id ~dst:a.n_id;
  let comps = A.undirected_components g ~keep:(fun e -> G.is_mem_kind e.G.e_kind) in
  (* {s1,l1} joined by MF; s2 and a are singletons *)
  Alcotest.(check int) "three components" 3 (List.length comps);
  Alcotest.(check bool) "s1 l1 joined" true
    (List.mem (List.sort compare [ s1.n_id; l1.n_id ]) comps)

let test_rec_mii_acyclic () =
  let g, _, _, _, _ = diamond () in
  Alcotest.(check int) "acyclic MII is 1" 1
    (A.rec_mii g ~edge_lat:(fun _ -> 1))

(* cycle a -> b -> a with latencies 2 + 3 and total distance [dist] *)
let recurrence ~dist =
  let g = G.create () in
  let a = G.add_node g (arith ~lat:2 "a") in
  let b = G.add_node g (arith ~lat:3 "b") in
  G.add_edge g G.RF ~src:a.n_id ~dst:b.n_id;
  G.add_edge g ~dist G.RF ~src:b.n_id ~dst:a.n_id;
  (g, a, fun (e : G.edge) -> if e.e_src = a.n_id then 2 else 3)

let test_rec_mii_recurrence () =
  (* total distance 1: RecMII 5 *)
  let g, _, edge_lat = recurrence ~dist:1 in
  Alcotest.(check int) "RecMII = 5" 5 (A.rec_mii g ~edge_lat)

let test_rec_mii_distance_two () =
  (* distance 2: ceil(5/2) = 3 *)
  let g, _, edge_lat = recurrence ~dist:2 in
  Alcotest.(check int) "RecMII = 3" 3 (A.rec_mii g ~edge_lat)

let test_longest_paths () =
  let g, a, b, c, d = diamond () in
  match A.heights (A.flatten g) ~ii:1 ~edge_lat:(fun _ -> 1) with
  | None -> Alcotest.fail "an acyclic graph has heights at any II"
  | Some h ->
    Alcotest.(check int) "sink height" 0 h.(d.n_id);
    Alcotest.(check int) "mid height" 1 h.(b.n_id);
    Alcotest.(check int) "mid height c" 1 h.(c.n_id);
    Alcotest.(check int) "source height" 2 h.(a.n_id)

(* heights exist exactly from RecMII up: one below it the recurrence is a
   positive cycle *)
let test_longest_paths_rec_mii () =
  List.iter
    (fun dist ->
      let g, a, edge_lat = recurrence ~dist in
      let r = A.rec_mii g ~edge_lat in
      Alcotest.(check bool)
        (Printf.sprintf "dist %d: none at II %d" dist (r - 1))
        true
        (Option.is_none (A.heights (A.flatten g) ~ii:(r - 1) ~edge_lat));
      match A.heights (A.flatten g) ~ii:r ~edge_lat with
      | None -> Alcotest.failf "dist %d: no heights at RecMII %d" dist r
      | Some h ->
        (* a -> b weighs 2 and the back edge is not positive at RecMII *)
        Alcotest.(check int) (Printf.sprintf "dist %d: height of a" dist) 2
          h.(a.n_id))
    [ 1; 2 ]

let test_dot_output () =
  let g = G.create () in
  let s = G.add_node g (G.Store (mr "x")) in
  let l = G.add_node g (G.Load (mr "x")) in
  G.add_edge g ~dist:1 G.MF ~src:s.n_id ~dst:l.n_id;
  let dot = Dot.to_string g in
  let contains hay needle =
    let nh = String.length hay and nn = String.length needle in
    let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
    nn = 0 || go 0
  in
  Alcotest.(check bool) "digraph" true (contains dot "digraph");
  Alcotest.(check bool) "edge label" true (contains dot "MF d=1");
  Alcotest.(check bool) "store box" true (contains dot "shape=box")

(* --- QCheck: random DAG invariants --- *)

let gen_dag =
  QCheck.Gen.(
    let* n = int_range 2 15 in
    let* edges =
      list_size (int_range 0 (n * 2))
        (pair (int_range 0 (n - 1)) (int_range 0 (n - 1)))
    in
    return (n, edges))

let build_dag (n, edges) =
  let g = G.create () in
  let nodes = Array.init n (fun k -> (G.add_node g (arith (Printf.sprintf "n%d" k))).n_id) in
  List.iter
    (fun (a, b) ->
      (* orient edges forward to keep the distance-0 subgraph acyclic *)
      if a < b then G.add_edge g G.RF ~src:nodes.(a) ~dst:nodes.(b)
      else if b < a then G.add_edge g G.RF ~src:nodes.(b) ~dst:nodes.(a))
    edges;
  g

let prop_topo_respects_edges =
  QCheck.Test.make ~name:"topo order respects distance-0 edges" ~count:300
    (QCheck.make gen_dag)
    (fun spec ->
      let g = build_dag spec in
      let order = A.topo_order g in
      let pos = Hashtbl.create 16 in
      List.iteri (fun i id -> Hashtbl.replace pos id i) order;
      List.length order = G.node_count g
      && List.for_all
           (fun (e : G.edge) ->
             e.e_dist > 0 || Hashtbl.find pos e.e_src < Hashtbl.find pos e.e_dst)
           (G.edges g))

let prop_sccs_partition =
  QCheck.Test.make ~name:"SCCs partition the nodes" ~count:300
    (QCheck.make gen_dag)
    (fun spec ->
      let g = build_dag spec in
      let comps = A.sccs g in
      let all = List.concat comps |> List.sort compare in
      all = List.map (fun (n : G.node) -> n.n_id) (G.nodes g))

let prop_validate_random_dags =
  QCheck.Test.make ~name:"forward-oriented DAGs validate" ~count:300
    (QCheck.make gen_dag)
    (fun spec -> G.validate (build_dag spec) = Ok ())

(* --- QCheck: Bellman-Ford against the hashtable reference --- *)

(* The hashtable relaxations the array ones in [Analysis] replaced, kept
   verbatim as the reference model. *)
module Reference = struct
  let longest_path_lengths g ~ii ~edge_lat =
    let h = Hashtbl.create 32 in
    let ns = G.nodes g in
    List.iter (fun (n : G.node) -> Hashtbl.replace h n.n_id 0) ns;
    let nv = List.length ns in
    let changed = ref true in
    let rounds = ref 0 in
    while !changed && !rounds <= nv + 1 do
      changed := false;
      incr rounds;
      List.iter
        (fun (n : G.node) ->
          List.iter
            (fun (e : G.edge) ->
              let w = edge_lat e - (ii * e.e_dist) in
              let cand = w + Hashtbl.find h e.e_dst in
              if cand > Hashtbl.find h n.n_id then (
                Hashtbl.replace h n.n_id cand;
                changed := true))
            (G.succs g n.n_id))
        ns
    done;
    if !changed then None else Some (fun id -> Hashtbl.find h id)

  let longest_path_depths g ~ii ~edge_lat =
    let d = Hashtbl.create 32 in
    let ns = G.nodes g in
    List.iter (fun (n : G.node) -> Hashtbl.replace d n.n_id 0) ns;
    let nv = List.length ns in
    let changed = ref true in
    let rounds = ref 0 in
    while !changed && !rounds <= nv + 1 do
      changed := false;
      incr rounds;
      List.iter
        (fun (n : G.node) ->
          List.iter
            (fun (e : G.edge) ->
              let w = edge_lat e - (ii * e.e_dist) in
              let cand = Hashtbl.find d e.e_src + w in
              if cand > Hashtbl.find d e.e_dst then (
                Hashtbl.replace d e.e_dst cand;
                changed := true))
            (G.succs g n.n_id))
        ns
    done;
    fun id -> Hashtbl.find d id

  let has_positive_cycle g ~ii ~edge_lat =
    let dist = Hashtbl.create 32 in
    let ns = G.nodes g in
    List.iter (fun (n : G.node) -> Hashtbl.replace dist n.n_id 0) ns;
    let nv = List.length ns in
    let relax () =
      let changed = ref false in
      List.iter
        (fun (n : G.node) ->
          List.iter
            (fun (e : G.edge) ->
              let w = edge_lat e - (ii * e.e_dist) in
              let cand = Hashtbl.find dist n.n_id + w in
              if cand > Hashtbl.find dist e.e_dst then (
                Hashtbl.replace dist e.e_dst cand;
                changed := true))
            (G.succs g n.n_id))
        ns;
      !changed
    in
    let changed = ref true in
    let i = ref 0 in
    while !changed && !i < nv do
      changed := relax ();
      incr i
    done;
    !changed && relax ()

  let rec_mii g ~edge_lat =
    let ub =
      1 + List.fold_left (fun acc e -> acc + max 1 (edge_lat e)) 0 (G.edges g)
    in
    let rec go ii =
      if ii >= ub then ub
      else if has_positive_cycle g ~ii ~edge_lat then go (ii + 1)
      else ii
    in
    go 1
end

(* 1-12 nodes; edges of every kind between any two nodes, self-edges
   included, at distance 0-3 with latency 0-12 (so positive cycles, even
   at distance 0, are drawn too); an II of 1-20 *)
let gen_weighted =
  QCheck.Gen.(
    let* n = int_range 1 12 in
    let edge =
      let* src = int_bound (n - 1) and* dst = int_bound (n - 1) in
      let* kind = oneofl [ G.RF; G.MF; G.MA; G.MO; G.SYNC ] in
      let* dist = int_range 0 3 and* lat = int_range 0 12 in
      return (src, dst, kind, dist, lat)
    in
    let* edges = list_size (int_range 0 (2 * n)) edge in
    let* ii = int_range 1 20 in
    return (n, edges, ii))

let print_weighted (n, edges, ii) =
  Printf.sprintf "%d nodes, ii=%d: %s" n ii
    (String.concat "; "
       (List.map
          (fun (s, d, k, dist, lat) ->
            Printf.sprintf "%d-%s(d=%d,lat=%d)->%d" s (G.edge_kind_name k) dist lat d)
          edges))

(* the graph and its edge latencies; a repeated edge keeps its last draw *)
let build_weighted (n, edges, _) =
  let g = G.create () in
  for k = 0 to n - 1 do
    ignore (G.add_node g (arith (Printf.sprintf "n%d" k)))
  done;
  let lat = Hashtbl.create 16 in
  List.iter
    (fun (src, dst, kind, dist, l) ->
      G.add_edge g ~dist kind ~src ~dst;
      Hashtbl.replace lat { G.e_src = src; e_dst = dst; e_kind = kind; e_dist = dist } l)
    edges;
  (g, fun e -> Hashtbl.find lat e)

let prop_bellman_ford_model =
  QCheck.Test.make ~name:"Bellman-Ford matches the hashtable reference" ~count:500
    (QCheck.make ~print:print_weighted gen_weighted)
    (fun ((n, _, ii) as spec) ->
      let g, edge_lat = build_weighted spec in
      let ids = List.init n Fun.id in
      let same a f' = List.for_all (fun id -> a.(id) = f' id) ids in
      let f = A.flatten g in
      (match
         (A.heights f ~ii ~edge_lat, Reference.longest_path_lengths g ~ii ~edge_lat)
       with
      | None, None -> true
      | Some h, Some h' ->
        same h h'
        && same (A.depths f ~ii ~edge_lat)
             (Reference.longest_path_depths g ~ii ~edge_lat)
      | _ -> false)
      && A.rec_mii g ~edge_lat = Reference.rec_mii g ~edge_lat)

let () =
  Alcotest.run "ddg"
    [
      ( "graph",
        [
          Alcotest.test_case "add nodes/edges" `Quick test_add_nodes_edges;
          Alcotest.test_case "duplicate edges" `Quick test_duplicate_edge_ignored;
          Alcotest.test_case "remove edge" `Quick test_remove_edge;
          Alcotest.test_case "endpoint checks" `Quick test_edge_endpoint_checks;
          Alcotest.test_case "kind shapes" `Quick test_validate_kind_shapes;
          Alcotest.test_case "zero cycle" `Quick test_validate_zero_cycle;
          Alcotest.test_case "self RF" `Quick test_self_rf_distance;
          Alcotest.test_case "fu kinds" `Quick test_fu_kinds;
          Alcotest.test_case "op latency" `Quick test_op_latency;
        ] );
      ( "analysis",
        [
          Alcotest.test_case "topo order" `Quick test_topo_order;
          Alcotest.test_case "sccs acyclic" `Quick test_sccs_acyclic;
          Alcotest.test_case "sccs recurrence" `Quick test_sccs_recurrence;
          Alcotest.test_case "reachability" `Quick test_reachable_same_iter;
          Alcotest.test_case "components" `Quick test_undirected_components;
          Alcotest.test_case "rec_mii acyclic" `Quick test_rec_mii_acyclic;
          Alcotest.test_case "rec_mii cycle" `Quick test_rec_mii_recurrence;
          Alcotest.test_case "rec_mii distance 2" `Quick test_rec_mii_distance_two;
          Alcotest.test_case "longest paths" `Quick test_longest_paths;
          Alcotest.test_case "longest paths from rec_mii" `Quick
            test_longest_paths_rec_mii;
          Alcotest.test_case "dot output" `Quick test_dot_output;
        ] );
      ( "properties",
        List.map QCheck_alcotest.to_alcotest
          [
            prop_topo_respects_edges;
            prop_sccs_partition;
            prop_validate_random_dags;
            prop_bellman_ford_model;
          ] );
    ]
