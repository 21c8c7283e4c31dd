module G = Vliw_ddg.Graph
module M = Vliw_arch.Machine
module S = Vliw_sched.Schedule
module Driver = Vliw_sched.Driver
module Mrt = Vliw_sched.Mrt
module Chains = Vliw_core.Chains
module Ddgt = Vliw_core.Ddgt
module Lower = Vliw_lower.Lower
module Ims = Vliw_sched.Ims
module Hybrid = Vliw_sched.Hybrid
module W = Vliw_workloads.Workloads

let mr ?affine ?(bytes = 4) ?(site = 0) arr =
  { G.mr_array = arr; mr_affine = affine; mr_bytes = bytes; mr_float = false;
    mr_site = site }

let arith ?(lat = 1) name = G.Arith { aname = name; fu_int = true; latency = lat }

let sched ?heuristic ?constraints ?pref ?(machine = M.table2) g =
  match Driver.run (Driver.request ?heuristic ?constraints ?pref machine) g with
  | Ok s -> s
  | Error e -> Alcotest.fail e

let assert_valid ?pinned ?grouped g s =
  match S.validate g ?pinned ?grouped s with
  | Ok () -> ()
  | Error e -> Alcotest.fail e

(* --- MRT --- *)

let test_mrt_fu_capacity () =
  let mrt = Mrt.create M.table2 ~ii:2 in
  Alcotest.(check bool) "free" true (Mrt.fu_free mrt ~cycle:0 ~cluster:0 M.Int_fu);
  Mrt.fu_take mrt ~cycle:0 ~cluster:0 M.Int_fu;
  Alcotest.(check bool) "taken" false (Mrt.fu_free mrt ~cycle:0 ~cluster:0 M.Int_fu);
  Alcotest.(check bool) "other slot free" true
    (Mrt.fu_free mrt ~cycle:1 ~cluster:0 M.Int_fu);
  Alcotest.(check bool) "modulo wraps" false
    (Mrt.fu_free mrt ~cycle:2 ~cluster:0 M.Int_fu);
  Mrt.fu_release mrt ~cycle:0 ~cluster:0 M.Int_fu;
  Alcotest.(check bool) "released" true (Mrt.fu_free mrt ~cycle:0 ~cluster:0 M.Int_fu)

(* the copy Ims reserves in a window: bus_find's cycle and the lowest
   bus free there *)
let bus_found mrt ~lo ~hi =
  let cycle = Mrt.bus_find mrt ~lo ~hi in
  if cycle = max_int then None else Some (cycle, Mrt.bus_lowest mrt ~cycle)

let test_mrt_bus_occupancy () =
  let mrt = Mrt.create M.table2 ~ii:4 in
  (* bus transfers take 2 cycles; 4 buses *)
  (match bus_found mrt ~lo:0 ~hi:3 with
  | Some (0, 0) -> ()
  | _ -> Alcotest.fail "expected earliest slot on bus 0");
  Mrt.bus_take mrt ~cycle:0 ~bus:0;
  (match bus_found mrt ~lo:0 ~hi:1 with
  | Some (0, 1) -> ()
  | other ->
    Alcotest.failf "expected bus 1, got %s"
      (match other with
      | Some (c, b) -> Printf.sprintf "(%d,%d)" c b
      | None -> "none"));
  (* window too narrow for the 2-cycle transfer *)
  Alcotest.(check bool) "narrow window fails" true
    (bus_found mrt ~lo:3 ~hi:3 = None)

let test_mrt_bus_modulo_conflict () =
  let m = { M.table2 with M.reg_buses = { M.bus_count = 1; bus_latency = 2 } } in
  let mrt = Mrt.create m ~ii:2 in
  Mrt.bus_take mrt ~cycle:0 ~bus:0;
  (* ii=2 and a 2-cycle transfer saturate the single bus entirely *)
  Alcotest.(check bool) "bus saturated" true (bus_found mrt ~lo:0 ~hi:20 = None);
  Mrt.bus_release mrt ~cycle:0 ~bus:0;
  Alcotest.(check bool) "free again" true (bus_found mrt ~lo:0 ~hi:20 <> None)

let with_reg_buses ~count ~latency =
  { M.table2 with M.reg_buses = { M.bus_count = count; bus_latency = latency } }

let test_mrt_bus_mask_width () =
  (* the widest representable pool still finds its top bus *)
  let mrt = Mrt.create (with_reg_buses ~count:Mrt.max_buses ~latency:2) ~ii:1 in
  for bus = 0 to Mrt.max_buses - 2 do
    Mrt.bus_take mrt ~cycle:0 ~bus
  done;
  Alcotest.(check (option (pair int int))) "top bus" (Some (0, Mrt.max_buses - 1))
    (bus_found mrt ~lo:0 ~hi:5);
  Mrt.bus_take mrt ~cycle:0 ~bus:(Mrt.max_buses - 1);
  Alcotest.(check (option (pair int int))) "all taken" None
    (bus_found mrt ~lo:0 ~hi:5);
  match Mrt.create (with_reg_buses ~count:(Mrt.max_buses + 1) ~latency:2) ~ii:1 with
  | _ -> Alcotest.fail "a pool wider than the mask was accepted"
  | exception Invalid_argument _ -> ()

(* --- property: bus_find agrees with a slot-by-slot scan --- *)

type bus_op =
  | Take of int * int  (** reserve (cycle, bus), free or not *)
  | Take_found of int * int  (** reserve the window's copy, as Ims does *)
  | Release of int  (** release the i-th live reservation (mod count) *)
  | Find of int * int

(* II 1-16, 1-62 buses, bus latency 1-6 (also above II) *)
let gen_bus_case =
  QCheck.Gen.(
    let* ii = int_range 1 16 in
    let* buslat = int_range 1 6 in
    let* nbuses = int_range 1 Mrt.max_buses in
    let window = pair (int_range 0 40) (int_range (-1) 24) in
    let op =
      frequency
        [
          (2, map2 (fun c b -> Take (c, b)) (int_range 0 40) (int_bound (nbuses - 1)));
          (5, map (fun (lo, w) -> Take_found (lo, lo + w)) window);
          (2, map (fun i -> Release i) (int_bound 1000));
          (4, map (fun (lo, w) -> Find (lo, lo + w)) window);
        ]
    in
    let* ops = list_size (int_range 1 120) op in
    return (ii, buslat, nbuses, ops))

let print_bus_case (ii, buslat, nbuses, ops) =
  Printf.sprintf "ii=%d buslat=%d buses=%d: %s" ii buslat nbuses
    (String.concat "; "
       (List.map
          (function
            | Take (c, b) -> Printf.sprintf "take %d/%d" c b
            | Take_found (lo, hi) -> Printf.sprintf "take-found [%d,%d]" lo hi
            | Release i -> Printf.sprintf "release #%d" i
            | Find (lo, hi) -> Printf.sprintf "find [%d,%d]" lo hi)
          ops))

let prop_bus_find_model =
  QCheck.Test.make
    ~name:"bus_find matches a slot-by-slot reference scan and bus_earliest"
    ~count:500
    (QCheck.make ~print:print_bus_case gen_bus_case)
    (fun (ii, buslat, nbuses, ops) ->
      let mrt = Mrt.create (with_reg_buses ~count:nbuses ~latency:buslat) ~ii in
      (* shadow reservation counts per (slot, bus), and the live takes *)
      let count = Array.make (ii * nbuses) 0 in
      let live = ref [] in
      let shadow ~cycle ~bus delta =
        for k = 0 to buslat - 1 do
          let i = ((cycle + k) mod ii * nbuses) + bus in
          count.(i) <- count.(i) + delta
        done
      in
      let take ~cycle ~bus =
        Mrt.bus_take mrt ~cycle ~bus;
        shadow ~cycle ~bus 1;
        live := (cycle, bus) :: !live
      in
      let free ~cycle ~bus =
        let ok = ref true in
        for k = 0 to buslat - 1 do
          if count.(((cycle + k) mod ii * nbuses) + bus) > 0 then ok := false
        done;
        !ok
      in
      (* cycles outer, buses inner, every slot of the window probed *)
      let reference ~lo ~hi =
        let last = min (hi - buslat + 1) (lo + ii - 1) in
        let rec scan cycle bus =
          if cycle > last then None
          else if bus = nbuses then scan (cycle + 1) 0
          else if free ~cycle ~bus then Some (cycle, bus)
          else scan cycle (bus + 1)
        in
        scan lo 0
      in
      List.for_all
        (function
          | Take (cycle, bus) ->
            take ~cycle ~bus;
            true
          | Take_found (lo, hi) ->
            let r = bus_found mrt ~lo ~hi in
            let agree = r = reference ~lo ~hi in
            Option.iter (fun (cycle, bus) -> take ~cycle ~bus) r;
            agree
          | Release i ->
            (match !live with
            | [] -> ()
            | l ->
              let j = i mod List.length l in
              let cycle, bus = List.nth l j in
              Mrt.bus_release mrt ~cycle ~bus;
              shadow ~cycle ~bus (-1);
              live := List.filteri (fun k _ -> k <> j) l);
            true
          | Find (lo, hi) ->
            (* the placement scan's skips rest on the last two: a
               successful bus_find is the deadline-free lookup from lo,
               with the lowest bus free there, and that lookup never
               decreases as lo grows *)
            let r = bus_found mrt ~lo ~hi in
            let s = Mrt.bus_earliest mrt ~lo in
            r = reference ~lo ~hi
            && r
               = (if s = max_int || s + buslat - 1 > hi then None
                  else Some (s, Mrt.bus_lowest mrt ~cycle:s))
            && s <= Mrt.bus_earliest mrt ~lo:(lo + 1))
        ops)

(* --- basic scheduling --- *)

let test_schedule_single_op () =
  let g = G.create () in
  let _ = G.add_node g (arith "add") in
  let s = sched g in
  Alcotest.(check int) "II 1" 1 s.S.ii;
  assert_valid g s

let test_schedule_chain_latency () =
  let g = G.create () in
  let a = G.add_node g (arith ~lat:3 "mul") in
  let b = G.add_node g (arith "add") in
  G.add_edge g G.RF ~src:a.n_id ~dst:b.n_id;
  let s = sched g in
  assert_valid g s;
  let ta = S.cycle_of s a.n_id and tb = S.cycle_of s b.n_id in
  Alcotest.(check bool) "latency respected" true (tb >= ta + 3)

let test_schedule_fu_saturation () =
  (* 9 int ops over 4 clusters x 1 int FU: ResMII = 3 *)
  let g = G.create () in
  for k = 0 to 8 do
    ignore (G.add_node g (arith (Printf.sprintf "op%d" k)))
  done;
  let req = Driver.request M.table2 in
  Alcotest.(check int) "ResMII 3" 3 (Driver.res_mii M.table2 g req);
  let s = sched g in
  Alcotest.(check int) "II 3" 3 s.S.ii;
  assert_valid g s

let test_schedule_recurrence () =
  (* acc = acc * k: multiply latency 2, distance 1 -> RecMII 2 *)
  let g = G.create () in
  let a = G.add_node g (arith ~lat:2 "mul") in
  G.add_edge g ~dist:1 G.RF ~src:a.n_id ~dst:a.n_id;
  let req = Driver.request M.table2 in
  Alcotest.(check int) "MII 2" 2 (Driver.mii M.table2 g req);
  let s = sched g in
  Alcotest.(check int) "II 2" 2 s.S.ii;
  assert_valid g s

let test_schedule_pinned_cross_cluster_copy () =
  let g = G.create () in
  let a = G.add_node g (arith "a") in
  let b = G.add_node g (arith "b") in
  G.add_edge g G.RF ~src:a.n_id ~dst:b.n_id;
  let pinned = Hashtbl.create 2 in
  Hashtbl.replace pinned a.n_id 0;
  Hashtbl.replace pinned b.n_id 3;
  let constraints = { Chains.pinned; grouped = [] } in
  let s = sched ~constraints g in
  assert_valid ~pinned g s;
  Alcotest.(check int) "one copy" 1 (S.comm_ops s);
  Alcotest.(check int) "clusters as pinned" 0 (S.cluster_of s a.n_id);
  Alcotest.(check int) "clusters as pinned b" 3 (S.cluster_of s b.n_id);
  (* consumer must wait for producer latency + bus transfer *)
  Alcotest.(check bool) "bus delay respected" true
    (S.cycle_of s b.n_id >= S.cycle_of s a.n_id + 1 + 2)

let test_schedule_same_cluster_no_copy () =
  let g = G.create () in
  let a = G.add_node g (arith "a") in
  let b = G.add_node g (arith "b") in
  G.add_edge g G.RF ~src:a.n_id ~dst:b.n_id;
  let pinned = Hashtbl.create 2 in
  Hashtbl.replace pinned a.n_id 1;
  Hashtbl.replace pinned b.n_id 1;
  let s = sched ~constraints:{ Chains.pinned; grouped = [] } g in
  assert_valid ~pinned g s;
  Alcotest.(check int) "no copies" 0 (S.comm_ops s)

let test_schedule_grouped_chain_single_cluster () =
  let f = (fun () ->
    let g = G.create () in
    let l1 = G.add_node g (G.Load (mr "m" ~site:0)) in
    let l2 = G.add_node g (G.Load (mr "m" ~site:1)) in
    let st = G.add_node g (G.Store (mr "m" ~site:2)) in
    G.add_edge g G.MA ~src:l1.n_id ~dst:st.n_id;
    G.add_edge g G.MA ~src:l2.n_id ~dst:st.n_id;
    (g, [ l1.n_id; l2.n_id; st.n_id ])) ()
  in
  let g, chain = f in
  let grouped = [ chain ] in
  let s = sched ~constraints:{ Chains.pinned = Hashtbl.create 0; grouped } g in
  assert_valid ~grouped g s;
  let cl = S.cluster_of s (List.hd chain) in
  List.iter
    (fun id -> Alcotest.(check int) "same cluster" cl (S.cluster_of s id))
    chain

let test_schedule_mem_dep_order () =
  (* aliased store -> load in the same cluster must issue in order *)
  let g = G.create () in
  let st = G.add_node g (G.Store (mr "m" ~site:0)) in
  let ld = G.add_node g (G.Load (mr "m" ~site:1)) in
  G.add_edge g G.MF ~src:st.n_id ~dst:ld.n_id;
  let s = sched g in
  assert_valid g s;
  Alcotest.(check bool) "store issues strictly first" true
    (S.cycle_of s ld.n_id > S.cycle_of s st.n_id)

let test_schedule_sync_edge_same_cycle_ok () =
  let g = G.create () in
  let c = G.add_node g (arith "cons") in
  let st = G.add_node g (G.Store (mr "m")) in
  G.add_edge g G.SYNC ~src:c.n_id ~dst:st.n_id;
  let s = sched g in
  assert_valid g s;
  Alcotest.(check bool) "store not before consumer" true
    (S.cycle_of s st.n_id >= S.cycle_of s c.n_id)

let test_schedule_prefclus_places_mem_in_pref () =
  let g = G.create () in
  let l = G.add_node g (G.Load (mr "m" ~site:0)) in
  let pref id = if id = l.n_id then Some [| 0; 0; 90; 10 |] else None in
  let s = sched ~heuristic:S.Pref_clus ~pref g in
  assert_valid g s;
  Alcotest.(check int) "load in preferred cluster" 2 (S.cluster_of s l.n_id)

let test_schedule_mincoms_postpass_local_accesses () =
  (* one load with a strong preference and no other constraints: the
     virtual->physical post-pass must land it on its preferred cluster *)
  let g = G.create () in
  let l = G.add_node g (G.Load (mr "m" ~site:0)) in
  let a = G.add_node g (arith "a") in
  G.add_edge g G.RF ~src:l.n_id ~dst:a.n_id;
  let pref id = if id = l.n_id then Some [| 0; 0; 0; 100 |] else None in
  let s = sched ~heuristic:S.Min_coms ~pref g in
  assert_valid g s;
  Alcotest.(check int) "post-pass mapped load home" 3 (S.cluster_of s l.n_id)

let test_latency_assignment_stretches_free_slack () =
  (* load -> consumer, nothing else: raising the load's assumed latency to
     remote miss (15) cannot change II=1, so cache-sensitive assignment
     must pick it *)
  let g = G.create () in
  let l = G.add_node g (G.Load (mr "m")) in
  let c = G.add_node g (arith "use") in
  G.add_edge g G.RF ~src:l.n_id ~dst:c.n_id;
  let s = sched g in
  assert_valid g s;
  Alcotest.(check int) "assumed raised to remote miss" 15 (S.assumed_of s l.n_id);
  Alcotest.(check bool) "consumer placed behind assumed latency" true
    (S.cycle_of s c.n_id >= S.cycle_of s l.n_id + 15)

let test_latency_assignment_respects_recurrence () =
  (* load feeds a store that feeds the load of the next iteration through
     memory (MF d=1): raising latency would raise RecMII, so it must stay
     low for the op on the cycle *)
  let g = G.create () in
  let l = G.add_node g (G.Load (mr "m" ~site:0)) in
  let st = G.add_node g (G.Store (mr "m" ~site:1)) in
  G.add_edge g G.RF ~src:l.n_id ~dst:st.n_id (* store the loaded value *);
  G.add_edge g ~dist:1 G.MF ~src:st.n_id ~dst:l.n_id;
  let s = sched g in
  assert_valid g s;
  (* RF on the cycle: lat(load) + 1 <= ii * 1; ii = lat + 1; with local hit
     ii=2. Any higher assumed latency would force a larger ii. *)
  Alcotest.(check int) "II stays minimal" 2 s.S.ii;
  Alcotest.(check int) "assumed stays local hit" 1 (S.assumed_of s l.n_id)

let test_schedule_fig5_ddgt_graph () =
  (* end to end: Figure 3 -> DDGT -> schedule; replicas must sit in their
     pinned clusters and every SYNC hold *)
  let g = G.create () in
  let n1 = G.add_node g ~seq:1 (G.Load (mr "m" ~site:0)) in
  let n2 = G.add_node g ~seq:2 (G.Load (mr "m" ~site:1)) in
  let n3 = G.add_node g ~seq:3 (G.Store (mr "m" ~site:2)) in
  let n4 = G.add_node g ~seq:4 (G.Store (mr "m" ~site:3)) in
  let n5 = G.add_node g ~seq:5 (arith "add") in
  G.add_edge g G.RF ~src:n1.n_id ~dst:n4.n_id;
  G.add_edge g G.RF ~src:n2.n_id ~dst:n5.n_id;
  G.add_edge g ~dist:1 G.MF ~src:n3.n_id ~dst:n1.n_id;
  G.add_edge g ~dist:1 G.MF ~src:n3.n_id ~dst:n2.n_id;
  G.add_edge g ~dist:1 G.MF ~src:n4.n_id ~dst:n2.n_id;
  G.add_edge g G.MA ~src:n1.n_id ~dst:n3.n_id;
  G.add_edge g G.MA ~src:n1.n_id ~dst:n4.n_id;
  G.add_edge g G.MA ~src:n2.n_id ~dst:n3.n_id;
  G.add_edge g G.MA ~src:n2.n_id ~dst:n4.n_id;
  G.add_edge g G.MO ~src:n3.n_id ~dst:n4.n_id;
  G.add_edge g ~dist:1 G.MO ~src:n4.n_id ~dst:n3.n_id;
  let r = Ddgt.transform ~clusters:4 g in
  let s = sched r.Ddgt.graph in
  assert_valid r.Ddgt.graph s;
  (* every cluster hosts exactly one instance of each replicated store *)
  List.iter
    (fun (orig, insts) ->
      let clusters =
        List.map (S.cluster_of s) (orig :: insts) |> List.sort compare
      in
      Alcotest.(check (list int)) "instances cover all clusters" [ 0; 1; 2; 3 ]
        clusters)
    r.Ddgt.replicas

let test_schedule_mdc_vs_free_ii () =
  (* pinning a big chain into one cluster costs II: 4 independent loads
     free (II 1) vs chained (II 4, one Mem FU) *)
  let mk () =
    let g = G.create () in
    let ids =
      List.init 4 (fun k -> (G.add_node g (G.Load (mr "m" ~site:k))).n_id)
    in
    (g, ids)
  in
  let g_free, _ = mk () in
  let s_free = sched g_free in
  Alcotest.(check int) "free II 1" 1 s_free.S.ii;
  let g_mdc, ids = mk () in
  let pinned = Hashtbl.create 4 in
  List.iter (fun id -> Hashtbl.replace pinned id 2) ids;
  let s_mdc = sched ~constraints:{ Chains.pinned; grouped = [] } g_mdc in
  assert_valid ~pinned g_mdc s_mdc;
  Alcotest.(check int) "pinned II 4" 4 s_mdc.S.ii

let test_schedule_lowered_kernel () =
  let low =
    Lower.lower
      (Vliw_ir.Parser.parse_kernel
         "kernel k { array a : i32[128] = ramp(0,1) array b : i32[128] = zero scalar acc : i64 = 0 trip 64 body { let t = a[i] * 3 b[i] = t acc = acc + t } }")
  in
  let s = sched low.Lower.graph in
  assert_valid low.Lower.graph s

(* --- property: random DAGs schedule and validate on all presets --- *)

let gen_spec =
  QCheck.Gen.(
    let* n = int_range 2 12 in
    let* kinds = list_repeat n (int_range 0 3) in
    let* edges =
      list_size (int_range 0 (2 * n))
        (pair (int_range 0 (n - 1)) (int_range 0 (n - 1)))
    in
    return (kinds, edges))

let build_spec (kinds, edges) =
  let g = G.create () in
  let nodes =
    List.mapi
      (fun k kind ->
        let op =
          match kind with
          | 0 -> arith (Printf.sprintf "a%d" k)
          | 1 -> G.Arith { aname = "fmul"; fu_int = false; latency = 2 }
          | 2 -> G.Load (mr "m" ~site:k)
          | _ -> G.Store (mr "m" ~site:k)
        in
        (G.add_node g op).n_id)
      kinds
    |> Array.of_list
  in
  let kind_arr = Array.of_list kinds in
  List.iter
    (fun (a, b) ->
      if a < b then (
        (* RF only out of non-stores *)
        if kind_arr.(a) <> 3 then G.add_edge g G.RF ~src:nodes.(a) ~dst:nodes.(b)
        else
          match (kind_arr.(a), kind_arr.(b)) with
          | 3, 2 -> G.add_edge g G.MF ~src:nodes.(a) ~dst:nodes.(b)
          | 3, 3 -> G.add_edge g G.MO ~src:nodes.(a) ~dst:nodes.(b)
          | _ -> ())
      else if a > b && kind_arr.(a) <> 3 then
        G.add_edge g ~dist:1 G.RF ~src:nodes.(a) ~dst:nodes.(b))
    edges;
  g

let prop_random_dags_schedule machine name =
  QCheck.Test.make ~name ~count:60 (QCheck.make gen_spec) (fun spec ->
      let g = build_spec spec in
      QCheck.assume (G.validate g = Ok ());
      match Driver.run (Driver.request machine) g with
      | Ok s -> S.validate g s = Ok ()
      | Error _ -> false)

let prop_ddgt_then_schedule =
  QCheck.Test.make ~name:"DDGT output schedules and validates" ~count:40
    (QCheck.make gen_spec) (fun spec ->
      let g = build_spec spec in
      QCheck.assume (G.validate g = Ok ());
      (* give every mem op a dependence partner so replication kicks in *)
      let r = Ddgt.transform ~clusters:4 g in
      match Driver.run (Driver.request M.table2) r.Ddgt.graph with
      | Ok s -> S.validate r.Ddgt.graph s = Ok ()
      | Error _ -> false)

(* --- register pressure --- *)

let test_regpressure_simple_chain () =
  (* a -> b in one cluster: one value live for its latency *)
  let g = G.create () in
  let a = G.add_node g (arith ~lat:3 "a") in
  let b = G.add_node g (arith "b") in
  G.add_edge g G.RF ~src:a.n_id ~dst:b.n_id;
  let pinned = Hashtbl.create 2 in
  Hashtbl.replace pinned a.n_id 0;
  Hashtbl.replace pinned b.n_id 0;
  let s = sched ~constraints:{ Chains.pinned; grouped = [] } g in
  let ml = Vliw_sched.Regpressure.max_live g s in
  Alcotest.(check bool) "pressure in cluster 0" true (ml.(0) >= 1);
  Alcotest.(check int) "no pressure in cluster 3" 0 ml.(3)

let test_regpressure_cross_cluster_charges_destination () =
  let g = G.create () in
  let a = G.add_node g (arith "a") in
  let b = G.add_node g (arith "b") in
  G.add_edge g G.RF ~src:a.n_id ~dst:b.n_id;
  let pinned = Hashtbl.create 2 in
  Hashtbl.replace pinned a.n_id 0;
  Hashtbl.replace pinned b.n_id 2;
  let s = sched ~constraints:{ Chains.pinned; grouped = [] } g in
  let ml = Vliw_sched.Regpressure.max_live g s in
  Alcotest.(check bool) "source cluster holds the value" true (ml.(0) >= 1);
  Alcotest.(check bool) "destination holds the copy's value" true (ml.(2) >= 1)

let test_regpressure_long_liveness_overlaps () =
  (* a value consumed both immediately and after a long FP chain stays
     live past the II, so instances from successive iterations coexist *)
  let g = G.create () in
  let a = G.add_node g (arith "a") in
  let fmul k =
    G.Arith { aname = "fmul" ^ string_of_int k; fu_int = false; latency = 2 }
  in
  let m1 = G.add_node g (fmul 1) in
  let m2 = G.add_node g (fmul 2) in
  let m3 = G.add_node g (fmul 3) in
  let m4 = G.add_node g (fmul 4) in
  let fin = G.add_node g (arith "fin") in
  G.add_edge g G.RF ~src:a.n_id ~dst:m1.n_id;
  G.add_edge g G.RF ~src:m1.n_id ~dst:m2.n_id;
  G.add_edge g G.RF ~src:m2.n_id ~dst:m3.n_id;
  G.add_edge g G.RF ~src:m3.n_id ~dst:m4.n_id;
  G.add_edge g G.RF ~src:m4.n_id ~dst:fin.n_id;
  G.add_edge g G.RF ~src:a.n_id ~dst:fin.n_id;
  let pinned = Hashtbl.create 8 in
  List.iter (fun (n : G.node) -> Hashtbl.replace pinned n.n_id 1) (G.nodes g);
  let s = sched ~constraints:{ Chains.pinned; grouped = [] } g in
  (* a's value is live from t(a)+1 until fin, ~9 cycles; the II is bounded
     by the four FP ops on one FP unit (4), so at least two instances of
     the value coexist *)
  Alcotest.(check bool) "II bounded by the FP unit" true (s.S.ii <= 5);
  Alcotest.(check bool) "overlapping instances counted" true
    ((Vliw_sched.Regpressure.max_live g s).(1) > 1)

(* --- validator negative paths --- *)

let expect_invalid msg g s =
  match S.validate g s with
  | Ok () -> Alcotest.failf "%s: invalid schedule accepted" msg
  | Error _ -> ()

let test_validate_rejects_tampered_cycle () =
  let g = G.create () in
  let a = G.add_node g (arith ~lat:3 "a") in
  let b = G.add_node g (arith "b") in
  G.add_edge g G.RF ~src:a.n_id ~dst:b.n_id;
  let s = sched g in
  assert_valid g s;
  (* move the consumer onto its producer: latency violated *)
  Hashtbl.replace s.S.place b.n_id (S.cycle_of s a.n_id, S.cluster_of s a.n_id);
  expect_invalid "latency" g s

(* a -> b pinned to clusters 0 and 3: a schedule with one copy *)
let cross_cluster_pair () =
  let g = G.create () in
  let a = G.add_node g (arith "a") in
  let b = G.add_node g (arith "b") in
  G.add_edge g G.RF ~src:a.n_id ~dst:b.n_id;
  let pinned = Hashtbl.create 2 in
  Hashtbl.replace pinned a.n_id 0;
  Hashtbl.replace pinned b.n_id 3;
  let s = sched ~constraints:{ Chains.pinned; grouped = [] } g in
  assert_valid g s;
  (g, s)

let test_validate_rejects_missing_copy () =
  let g, s = cross_cluster_pair () in
  let s' = { s with S.copies = [] } in
  expect_invalid "missing copy" g s'

(* the bus check stops at the first bad copy, as every other check does:
   the invalid bus, not the double booking two copies later *)
let test_validate_reports_first_bus_problem () =
  let g, s = cross_cluster_pair () in
  let c = match s.S.copies with [ c ] -> c | _ -> Alcotest.fail "one copy" in
  Alcotest.(check (result unit string))
    "first problem" (Error "copy uses invalid bus 99")
    (S.validate g { s with S.copies = [ { c with S.cp_bus = 99 }; c; c ] })

let test_validate_rejects_fu_oversubscription () =
  let g = G.create () in
  let a = G.add_node g (arith "a") in
  let b = G.add_node g (arith "b") in
  let s = sched g in
  assert_valid g s;
  (* cram both int ops into the same cluster and slot *)
  Hashtbl.replace s.S.place a.n_id (0, 0);
  Hashtbl.replace s.S.place b.n_id (s.S.ii, 0);
  expect_invalid "FU oversubscription" g s

let test_validate_rejects_moved_replica () =
  let g = G.create () in
  let st = G.add_node g ~replica:2 (G.Store (mr "m")) in
  let s = sched g in
  assert_valid g s;
  Hashtbl.replace s.S.place st.n_id (S.cycle_of s st.n_id, 1);
  expect_invalid "replica pin" g s

(* --- phase 2 and memory nodes that source no RF edge --- *)

(* Every workload loop under MDC and DDGT on the balanced and NOBAL+MEM
   machines, as [Hybrid.compile] builds it (MinComs, no profile). *)
let workload_compiles () =
  List.concat_map
    (fun (b : W.benchmark) ->
      List.concat_map
        (fun (l : W.loop) ->
          let low = Lower.lower (W.parse_loop l ~seed:b.W.b_exec_seed) in
          List.concat_map
            (fun (mname, machine) ->
              let machine = M.with_interleave machine b.W.b_interleave in
              List.map
                (fun technique ->
                  let label =
                    Printf.sprintf "%s/%s/%s/%s" b.W.b_name l.W.l_name mname
                      (S.technique_name technique)
                  in
                  match
                    Hybrid.compile ~machine ~heuristic:S.Min_coms
                      ~pref_for:(fun _ _ -> None) ~trip:1 technique
                      (G.copy low.Lower.graph)
                  with
                  | Ok c -> (label, machine, c)
                  | Error e -> Alcotest.failf "%s: %s" label e)
                [ S.Mdc; S.Ddgt ])
            [ ("table2", M.table2); ("nobal-mem", M.nobal_mem) ])
        b.W.b_loops)
    W.all

let sources_no_rf g id =
  not (List.exists (fun (e : G.edge) -> e.e_kind = G.RF) (G.succs g id))

(* the candidates phase 2 tries, largest first *)
let raised_latencies machine =
  List.sort_uniq (fun a b -> compare b a) (M.all_assumable_latencies machine)
  |> List.filter (fun l -> l > M.latency machine M.Local_hit)

(* Driver.run skips the attempt for such a node because the attempt would
   rebuild the schedule it holds: Ims reads a latency only through RF edges
   out of its node. Check that premise attempt by attempt, and that every
   such node ends at the largest candidate, as the attempts gave it. *)
let test_phase2_skip_premise () =
  let checked = ref 0 in
  List.iter
    (fun (label, machine, (c : Hybrid.compiled)) ->
      let g = c.Hybrid.c_graph and s = c.Hybrid.c_schedule in
      let ctx assumed =
        {
          Ims.machine;
          heuristic = S.Min_coms;
          ordering = Ims.Height;
          pinned = c.Hybrid.c_constraints.Chains.pinned;
          grouped = c.Hybrid.c_constraints.Chains.grouped;
          pref = (fun _ -> None);
          assumed;
        }
      in
      (* the place bindings in fold order, the copies and the length *)
      let attempt assumed =
        Ims.attempt (ctx assumed) g ~ii:s.S.ii
        |> Option.map (fun (r : S.t) ->
               ( Hashtbl.fold (fun id p acc -> (id, p) :: acc) r.S.place [],
                 r.S.copies,
                 r.S.length ))
      in
      let cands = raised_latencies machine in
      List.iter
        (fun ((nd : G.node), _) ->
          if sources_no_rf g nd.n_id then (
            incr checked;
            Alcotest.(check int)
              (Printf.sprintf "%s: n%d assumed" label nd.n_id)
              (List.hd cands) (S.assumed_of s nd.n_id);
            let without = Hashtbl.copy s.S.assumed in
            Hashtbl.remove without nd.n_id;
            let base = attempt without in
            List.iter
              (fun lat ->
                let raised = Hashtbl.copy without in
                Hashtbl.replace raised nd.n_id lat;
                if attempt raised <> base then
                  Alcotest.failf "%s: raising n%d to %d moved the attempt" label
                    nd.n_id lat)
              cands))
        (G.mem_refs g))
    (workload_compiles ());
  Alcotest.(check bool) "some nodes checked" true (!checked > 0)

(* --- the register-bus bound on II ---
   Driver.run starts its II search at Driver.bus_mii, the least II whose
   register buses hold the copies the pins force (Driver.forced_copies).
   The bound skips attempts only if none of them could succeed. *)

(* three nodes fixed apart and a grouped pair fed from both sides *)
let test_bus_bound_counts () =
  let g = G.create () in
  let a = G.add_node g (arith "a") in
  let b = G.add_node g (arith "b") in
  let c = G.add_node g ~replica:2 (arith "c") in
  let x = G.add_node g (arith "x") in
  let y = G.add_node g (arith "y") in
  let rf src dst = G.add_edge g G.RF ~src ~dst in
  (* a->b and a->c cross clusters *)
  rf a.n_id b.n_id;
  rf a.n_id c.n_id;
  (* the free chain {x, y} reads from clusters 0 and 3: wherever it
     lands, one of the two edges crosses *)
  rf a.n_id x.n_id;
  rf b.n_id y.n_id;
  let pinned = Hashtbl.create 2 in
  Hashtbl.replace pinned a.n_id 0;
  Hashtbl.replace pinned b.n_id 3;
  let constraints = { Chains.pinned; grouped = [ [ x.n_id; y.n_id ] ] } in
  let machine = with_reg_buses ~count:1 ~latency:2 in
  let req = Driver.request ~constraints machine in
  Alcotest.(check int) "forced copies" 3 (Driver.forced_copies g req);
  Alcotest.(check int) "MII ignores the buses" 2 (Driver.mii machine g req);
  (* one bus holds one copy per 2 slots: three need II 6 *)
  Alcotest.(check int) "bus MII" 6 (Driver.bus_mii machine g req);
  let s = sched ~constraints ~machine g in
  assert_valid ~pinned ~grouped:constraints.grouped g s;
  Alcotest.(check int) "II at the bound" 6 s.S.ii;
  Alcotest.(check int) "copies held" 3 (S.comm_ops s);
  (* ungrouped, x and y each land beside their producer *)
  let req = Driver.request ~constraints:{ constraints with grouped = [] } machine in
  Alcotest.(check int) "free nodes apart" 2 (Driver.forced_copies g req);
  let free = { Chains.pinned = Hashtbl.create 0; grouped = [] } in
  Alcotest.(check int) "replica alone forces none" 0
    (Driver.forced_copies g (Driver.request ~constraints:free machine));
  Alcotest.(check int) "no bound without bus latency" 1
    (Driver.bus_mii (with_reg_buses ~count:1 ~latency:0) g req)

type pin = Unpinned | Replica of int | Hard of int

(* a random DDG with replica pins, hard pins and grouped chains (fixed
   members included), on 2-16 clusters with 1-8 register buses of
   latency 1-6 *)
let gen_bus_bound_case =
  QCheck.Gen.(
    let* spec = gen_spec in
    let n = List.length (fst spec) in
    let* clusters = oneofl [ 2; 4; 8; 16 ] in
    let* pins =
      list_repeat n
        (frequency
           [
             (3, return Unpinned);
             (2, map (fun c -> Replica c) (int_bound (clusters - 1)));
             (2, map (fun c -> Hard c) (int_bound (clusters - 1)));
           ])
    in
    let* chain_of = list_repeat n (int_range (-1) 2) in
    let* count = int_range 1 8 in
    let* latency = int_range 1 6 in
    let* heuristic = oneofl S.heuristics in
    let* ordering = oneofl Ims.orderings in
    return (spec, clusters, pins, chain_of, count, latency, heuristic, ordering))

let print_bus_bound_case
    (spec, clusters, pins, chain_of, count, latency, heuristic, ordering) =
  let kinds, edges = spec in
  let ints l = String.concat ";" (List.map string_of_int l) in
  let pin = function
    | Unpinned -> "-"
    | Replica c -> Printf.sprintf "r%d" c
    | Hard c -> Printf.sprintf "h%d" c
  in
  Printf.sprintf
    "kinds=[%s] edges=[%s] clusters=%d pins=[%s] chains=[%s] buses=%dx%d %s %s"
    (ints kinds)
    (String.concat ";" (List.map (fun (a, b) -> Printf.sprintf "%d>%d" a b) edges))
    clusters
    (String.concat ";" (List.map pin pins))
    (ints chain_of) count latency (S.heuristic_name heuristic)
    (Ims.ordering_name ordering)

let prop_bus_bound_sound =
  QCheck.Test.make
    ~name:"no attempt below bus_mii schedules, and every schedule holds the forced copies"
    ~count:300
    (QCheck.make ~print:print_bus_bound_case gen_bus_bound_case)
    (fun (spec, clusters, pins, chain_of, count, latency, heuristic, ordering) ->
      let g = build_spec spec in
      QCheck.assume (G.validate g = Ok ());
      let n = List.length pins in
      let pinned = Hashtbl.create 8 in
      List.iteri
        (fun id -> function
          | Unpinned -> ()
          | Replica c -> G.set_replica g id (Some c)
          | Hard c -> Hashtbl.replace pinned id c)
        pins;
      let grouped =
        List.filter_map
          (fun k ->
            match
              List.filter (fun id -> List.nth chain_of id = k) (List.init n Fun.id)
            with
            | [] -> None
            | ids -> Some ids)
          [ 0; 1; 2 ]
      in
      let machine =
        let m = M.scale_clusters M.table2 clusters in
        { m with M.reg_buses = { M.bus_count = count; bus_latency = latency } }
      in
      let constraints = { Chains.pinned; grouped } in
      let req = Driver.request ~heuristic ~ordering ~constraints machine in
      let forced = Driver.forced_copies g req
      and bound = Driver.bus_mii machine g req in
      let ctx =
        { Ims.machine; heuristic; ordering; pinned; grouped;
          pref = (fun _ -> None); assumed = Hashtbl.create 1 }
      in
      (* IIs below and above the bus latency, and past the bound *)
      let top = max (latency + 2) (min 24 (bound + 2)) in
      List.for_all
        (fun ii ->
          match Ims.attempt ctx g ~ii with
          | None -> true
          | Some s -> ii >= bound && List.length s.S.copies >= forced)
        (List.init top (fun i -> i + 1)))

(* The graph and request of each arm Hybrid.compile schedules (the
   hybrid's arms are MDC's and DDGT's), as Driver.run's phase 1 sees
   them. *)
let phase1_inputs ~machine ~heuristic ~pref_for g =
  let req constraints pref = Driver.request ~heuristic ~constraints ~pref machine in
  let pref = pref_for g in
  let mdc =
    match heuristic with
    | S.Pref_clus -> Chains.prefclus g ~pref
    | S.Min_coms -> Chains.mincoms g
  in
  let t = (Ddgt.transform ~clusters:machine.M.clusters g).Ddgt.graph in
  [
    ("free", g, req (Chains.no_constraints ()) pref);
    ("MDC", g, req mdc pref);
    ("DDGT", t, req (Chains.no_constraints ()) (pref_for t));
  ]

(* Every II the search no longer tries, from the MII up to the bus
   bound, fails in Ims.attempt: over seed-1 fuzz cases 0-99 and 186 and
   every workload loop on the three machines under both heuristics. *)
let test_bus_bound_premise () =
  let skipped = ref 0 in
  let check label (fe : Vliw_pipeline.Pipeline.front) heuristic =
    let machine = fe.Vliw_pipeline.Pipeline.machine in
    List.iter
      (fun (tech, g, (req : Driver.request)) ->
        let ctx =
          { Ims.machine; heuristic; ordering = Ims.Height;
            pinned = req.constraints.Chains.pinned;
            grouped = req.constraints.Chains.grouped; pref = req.pref;
            assumed = Hashtbl.create 1 }
        in
        for ii = Driver.mii machine g req to Driver.bus_mii machine g req - 1 do
          incr skipped;
          if Ims.attempt ctx g ~ii <> None then
            Alcotest.failf "%s/%s/%s: II %d below the bus bound schedules" label
              tech (S.heuristic_name heuristic) ii
        done)
      (phase1_inputs ~machine ~heuristic
         ~pref_for:(Vliw_profile.Profile.node_pref fe.Vliw_pipeline.Pipeline.prof)
         fe.Vliw_pipeline.Pipeline.lowered.Lower.graph)
  in
  List.iter
    (fun i ->
      let case = Vliw_fuzz.Gen.generate ~seed:1 ~budget:30 i in
      check (Printf.sprintf "case %d" i) (Vliw_fuzz.Diff.front case)
        (Vliw_fuzz.Diff.heuristic_for case))
    (List.init 100 Fun.id @ [ 186 ]);
  List.iter
    (fun (b : W.benchmark) ->
      List.iter
        (fun (l : W.loop) ->
          List.iter
            (fun (mname, base) ->
              let machine = M.with_interleave base b.W.b_interleave in
              let fe = Vliw_harness.Memo.stages ~machine ~bench:b l in
              List.iter
                (check (Printf.sprintf "%s/%s/%s" mname b.W.b_name l.W.l_name) fe)
                S.heuristics)
            [ ("table2", M.table2); ("nobal-mem", M.nobal_mem); ("nobal-reg", M.nobal_reg) ])
        b.W.b_loops)
    W.all;
  Alcotest.(check bool) "some IIs skipped" true (!skipped > 0)

(* --- a failing attempt's churn allocates nothing ---
   bench/micro's epicdec loops (NOBAL-mem, DDGT, PrefClus) whose attempt
   at the driver's starting II exhausts its ejection budget: that attempt
   places, ejects and copies for its whole budget, yet must allocate
   fewer minor words than the attempt that succeeds at the final II,
   which allocates the same per-attempt arrays plus its result tables.
   Both run on one view, as in Driver.run, with the profile read once
   per node, as Driver.run reads it. *)
let test_failing_attempt_allocation () =
  let module P = Vliw_pipeline.Pipeline in
  let b = W.find "epicdec" in
  let machine = M.with_interleave M.nobal_mem b.W.b_interleave in
  let checked =
    List.filter_map
      (fun (l : W.loop) ->
        let fe = P.front ~machine (W.parse_loop l ~seed:b.W.b_exec_seed) in
        match P.compile ~heuristic:S.Pref_clus fe S.Ddgt with
        | Error e -> Alcotest.failf "%s: %s" l.W.l_name e
        | Ok c ->
          let g = c.P.graph in
          let pref =
            let tab = Array.init (G.node_count g) (Vliw_profile.Profile.node_pref fe.P.prof g) in
            fun id -> tab.(id)
          in
          let constraints = Chains.no_constraints () in
          let ctx =
            { Ims.machine; heuristic = S.Pref_clus; ordering = Ims.Height;
              pinned = constraints.Chains.pinned; grouped = constraints.Chains.grouped;
              pref; assumed = Hashtbl.create 16 }
          in
          let req = Driver.request ~heuristic:S.Pref_clus ~constraints ~pref machine in
          let start = max (Driver.mii machine g req) (Driver.bus_mii machine g req) in
          let view = Ims.view g in
          let words ii =
            let w0 = Gc.minor_words () in
            let r = Ims.attempt_view ctx view ~ii in
            (Gc.minor_words () -. w0, r)
          in
          let fail_w, fail = words start and ok_w, ok = words c.P.schedule.S.ii in
          if fail <> None then None
          else (
            if ok = None then Alcotest.failf "%s: the final II fails" l.W.l_name;
            if fail_w >= ok_w then
              Alcotest.failf "%s: failing attempt at II %d allocates %.0f words, \
                              the successful one at II %d %.0f"
                l.W.l_name start fail_w c.P.schedule.S.ii ok_w;
            Some l.W.l_name))
      b.W.b_loops
  in
  Alcotest.(check (list string)) "loops that fail at the starting II"
    [ "wavelet"; "pyramid"; "unquant" ] checked

(* --- frozen schedules ---
   sched_digests.txt freezes what the fuzzer scheduled, one technique at
   a time and the hybrid by its own compile of both arms, for seed-1 fuzz
   cases 0-99 (the perfbench fuzz population) and case 186: one MD5 per
   case over every technique's II, length, place bindings in fold order,
   copies in list order and assumed latencies. The digests are taken from
   Pipeline.compile_all over the case's front, which compiles each arm
   once and takes the hybrid from their results, so they also pin that
   reuse. The cram identity blocks
   print no assumed latencies and cover neither PrefClus beyond 4 clusters
   nor NOBAL-mem at 16 clusters (case 186). *)

(* one MD5 over each compile's II, length, place bindings in fold order,
   copies in list order and assumed latencies *)
let digest_compiles compiles =
  let buf = Buffer.create 4096 in
  List.iter
    (fun (technique, compiled) ->
      Printf.bprintf buf "%s: " (S.technique_name technique);
      match compiled with
      | Error e -> Printf.bprintf buf "error %s\n" e
      | Ok a ->
        let s = a.Vliw_pipeline.Pipeline.schedule in
        Printf.bprintf buf "ii %d length %d\n" s.S.ii s.S.length;
        Hashtbl.iter
          (fun id (t, c) -> Printf.bprintf buf "place %d %d %d\n" id t c)
          s.S.place;
        List.iter
          (fun (cp : S.copy) ->
            Printf.bprintf buf "copy %d %d %d %d %d %d %d\n" cp.cp_src cp.cp_dst
              cp.cp_dist cp.cp_from cp.cp_to cp.cp_cycle cp.cp_bus)
          s.S.copies;
        List.iter
          (fun (id, lat) -> Printf.bprintf buf "assumed %d %d\n" id lat)
          (List.sort compare
             (Hashtbl.fold (fun id lat acc -> (id, lat) :: acc) s.S.assumed [])))
    compiles;
  Digest.to_hex (Digest.string (Buffer.contents buf))

let schedule_digest i =
  let case = Vliw_fuzz.Gen.generate ~seed:1 ~budget:30 i in
  digest_compiles
    (Vliw_pipeline.Pipeline.compile_all
       ~heuristic:(Vliw_fuzz.Diff.heuristic_for case)
       (Vliw_fuzz.Diff.front case))

(* the lines of a digest file: everything before the last field names
   the entry *)
let read_digests file =
  let ic = open_in file in
  let rec read acc =
    match input_line ic with
    | line ->
      let cut = String.rindex line ' ' in
      read
        ((String.sub line 0 cut, String.sub line (cut + 1) (String.length line - cut - 1))
        :: acc)
    | exception End_of_file ->
      close_in ic;
      List.rev acc
  in
  read []

let test_schedule_digests () =
  let golden = read_digests "sched_digests.txt" in
  Alcotest.(check int) "one digest per frozen case" 101 (List.length golden);
  List.iter
    (fun (name, expected) ->
      Alcotest.(check string) (name ^ " schedules") expected
        (schedule_digest (Scanf.sscanf name "case %d" Fun.id)))
    golden

(* Two populations the fuzz cases miss, recorded before Ims kept its
   placements and copies in arrays. sched_digests_wide.txt: every
   workload loop on table2, nobal-mem and nobal-reg with two FUs of each
   kind per cluster, where a force-placement's slot has two holders to
   eject. sched_digests_unrolled.txt: loops unrolled x8 past 128 nodes,
   where the place table doubles its buckets (and copies past 32 double
   theirs). Each digest covers compile_all under both heuristics. *)

let wide_fus (m : M.t) =
  { m with M.fus_per_cluster = List.map (fun (k, _) -> (k, 2)) m.M.fus_per_cluster }

let both_heuristics fe =
  List.concat_map
    (fun heuristic -> Vliw_pipeline.Pipeline.compile_all ~heuristic fe)
    S.heuristics

let loop_named name =
  match String.split_on_char '/' name with
  | [ bench; loop ] ->
    let b = W.find bench in
    (b, List.find (fun (l : W.loop) -> l.W.l_name = loop) b.W.b_loops)
  | _ -> Alcotest.failf "bad loop name %s" name

let test_wide_fu_digests () =
  let golden = read_digests "sched_digests_wide.txt" in
  Alcotest.(check int) "every loop on three machines"
    (3 * List.fold_left (fun n (b : W.benchmark) -> n + List.length b.W.b_loops) 0 W.all)
    (List.length golden);
  List.iter
    (fun (name, expected) ->
      let mname, loop = Scanf.sscanf name "%s %s" (fun m l -> (m, l)) in
      let base =
        List.assoc mname
          [ ("table2", M.table2); ("nobal-mem", M.nobal_mem); ("nobal-reg", M.nobal_reg) ]
      in
      let b, l = loop_named loop in
      let machine = M.with_interleave (wide_fus base) b.W.b_interleave in
      Alcotest.(check string) (name ^ " schedules") expected
        (digest_compiles (both_heuristics (Vliw_harness.Memo.stages ~machine ~bench:b l))))
    golden

let test_unrolled_digests () =
  let golden = read_digests "sched_digests_unrolled.txt" in
  Alcotest.(check int) "six unrolled loops" 6 (List.length golden);
  List.iter
    (fun (name, expected) ->
      let b, l = loop_named name in
      let parse seed = Vliw_ir.Unroll.unroll ~factor:8 (W.parse_loop l ~seed) in
      let fe =
        Vliw_pipeline.Pipeline.front
          ~machine:(M.with_interleave M.table2 b.W.b_interleave)
          ~profile:(parse b.W.b_profile_seed) (parse b.W.b_exec_seed)
      in
      let compiles = both_heuristics fe in
      let placed = function
        | _, Ok c -> Hashtbl.length c.Vliw_pipeline.Pipeline.schedule.S.place
        | _, Error _ -> 0
      in
      if not (List.exists (fun c -> placed c > 128) compiles) then
        Alcotest.failf "%s: no schedule places more than 128 nodes" name;
      Alcotest.(check string) (name ^ " schedules") expected (digest_compiles compiles))
    golden

(* --- the MinComs search against every permutation --- *)

(* all n! permutations in lexicographic order, keeping the first strict
   improvement on the identity *)
let scan_permutations weight =
  let n = Array.length weight in
  let score p =
    let acc = ref 0 in
    Array.iteri (fun cl ph -> acc := !acc + weight.(cl).(ph)) p;
    !acc
  in
  let best = ref (Array.init n Fun.id) in
  let best_score = ref (score !best) in
  let rec visit prefix = function
    | [] ->
      let p = Array.of_list (List.rev prefix) in
      let sc = score p in
      if sc > !best_score then (
        best := p;
        best_score := sc)
    | rest ->
      List.iter (fun ph -> visit (ph :: prefix) (List.filter (( <> ) ph) rest)) rest
  in
  visit [] (List.init n Fun.id);
  !best

(* n = 1-8: all-zero matrices, heavily tied ones (entries 0-2) and
   random ones *)
let gen_weights =
  QCheck.Gen.(
    let* n = int_range 1 8 in
    let* entry = oneofl [ return 0; int_range 0 2; int_range 0 999 ] in
    array_repeat n (array_repeat n entry))

let print_weights w =
  String.concat " | "
    (Array.to_list
       (Array.map
          (fun row -> String.concat " " (Array.to_list (Array.map string_of_int row)))
          w))

let prop_best_permutation_model =
  QCheck.Test.make ~name:"MinComs search matches a scan of all n! permutations"
    ~count:300
    (QCheck.make ~print:print_weights gen_weights)
    (fun w -> Driver.best_permutation w = scan_permutations w)

(* --- swing ordering --- *)

let test_swing_schedules_and_validates () =
  let g = G.create () in
  let a = G.add_node g (arith "a") in
  let b = G.add_node g (G.Arith { aname = "fmul"; fu_int = false; latency = 2 }) in
  let c = G.add_node g (arith "c") in
  G.add_edge g G.RF ~src:a.n_id ~dst:b.n_id;
  G.add_edge g G.RF ~src:b.n_id ~dst:c.n_id;
  G.add_edge g ~dist:1 G.RF ~src:c.n_id ~dst:a.n_id;
  let s =
    match Driver.run (Driver.request ~ordering:Vliw_sched.Ims.Swing M.table2) g with
    | Ok s -> s
    | Error e -> Alcotest.fail e
  in
  assert_valid g s

let test_swing_not_worse_ii_on_recurrence () =
  (* same recurrence scheduled both ways: swing must not lose on II *)
  let mk () =
    let g = G.create () in
    let a = G.add_node g (arith ~lat:2 "a") in
    let b = G.add_node g (arith ~lat:3 "b") in
    G.add_edge g G.RF ~src:a.n_id ~dst:b.n_id;
    G.add_edge g ~dist:1 G.RF ~src:b.n_id ~dst:a.n_id;
    g
  in
  let ii ordering =
    (Driver.run_exn (Driver.request ~ordering M.table2) (mk ())).S.ii
  in
  Alcotest.(check bool) "swing II <= height II" true
    (ii Vliw_sched.Ims.Swing <= ii Vliw_sched.Ims.Height)

let prop_swing_random_dags =
  QCheck.Test.make ~name:"random DAGs schedule under Swing ordering" ~count:60
    (QCheck.make gen_spec) (fun spec ->
      let g = build_spec spec in
      QCheck.assume (G.validate g = Ok ());
      match
        Driver.run (Driver.request ~ordering:Vliw_sched.Ims.Swing M.table2) g
      with
      | Ok s -> S.validate g s = Ok ()
      | Error _ -> false)

let () =
  Alcotest.run "sched"
    [
      ( "mrt",
        [
          Alcotest.test_case "fu capacity" `Quick test_mrt_fu_capacity;
          Alcotest.test_case "bus occupancy" `Quick test_mrt_bus_occupancy;
          Alcotest.test_case "bus modulo conflict" `Quick test_mrt_bus_modulo_conflict;
          Alcotest.test_case "bus mask width" `Quick test_mrt_bus_mask_width;
          QCheck_alcotest.to_alcotest prop_bus_find_model;
        ] );
      ( "basic",
        [
          Alcotest.test_case "single op" `Quick test_schedule_single_op;
          Alcotest.test_case "chain latency" `Quick test_schedule_chain_latency;
          Alcotest.test_case "fu saturation" `Quick test_schedule_fu_saturation;
          Alcotest.test_case "recurrence" `Quick test_schedule_recurrence;
        ] );
      ( "clustering",
        [
          Alcotest.test_case "cross-cluster copy" `Quick
            test_schedule_pinned_cross_cluster_copy;
          Alcotest.test_case "same cluster no copy" `Quick
            test_schedule_same_cluster_no_copy;
          Alcotest.test_case "grouped chain" `Quick
            test_schedule_grouped_chain_single_cluster;
          Alcotest.test_case "mem dep order" `Quick test_schedule_mem_dep_order;
          Alcotest.test_case "sync same cycle" `Quick
            test_schedule_sync_edge_same_cycle_ok;
          Alcotest.test_case "prefclus" `Quick test_schedule_prefclus_places_mem_in_pref;
          Alcotest.test_case "mincoms postpass" `Quick
            test_schedule_mincoms_postpass_local_accesses;
          QCheck_alcotest.to_alcotest prop_best_permutation_model;
        ] );
      ( "validator negatives",
        [
          Alcotest.test_case "tampered cycle" `Quick test_validate_rejects_tampered_cycle;
          Alcotest.test_case "missing copy" `Quick test_validate_rejects_missing_copy;
          Alcotest.test_case "fu oversubscription" `Quick
            test_validate_rejects_fu_oversubscription;
          Alcotest.test_case "moved replica" `Quick test_validate_rejects_moved_replica;
          Alcotest.test_case "first bus problem" `Quick
            test_validate_reports_first_bus_problem;
        ] );
      ( "swing ordering",
        [
          Alcotest.test_case "validates" `Quick test_swing_schedules_and_validates;
          Alcotest.test_case "recurrence II" `Quick test_swing_not_worse_ii_on_recurrence;
          QCheck_alcotest.to_alcotest prop_swing_random_dags;
        ] );
      ( "register pressure",
        [
          Alcotest.test_case "simple chain" `Quick test_regpressure_simple_chain;
          Alcotest.test_case "cross cluster" `Quick
            test_regpressure_cross_cluster_charges_destination;
          Alcotest.test_case "overlapping liveness" `Quick
            test_regpressure_long_liveness_overlaps;
        ] );
      ( "latency assignment",
        [
          Alcotest.test_case "stretches free slack" `Quick
            test_latency_assignment_stretches_free_slack;
          Alcotest.test_case "respects recurrence" `Quick
            test_latency_assignment_respects_recurrence;
          Alcotest.test_case "no-RF-source skip premise" `Slow
            test_phase2_skip_premise;
        ] );
      ( "bus bound",
        [
          Alcotest.test_case "forced copies" `Quick test_bus_bound_counts;
          QCheck_alcotest.to_alcotest prop_bus_bound_sound;
          Alcotest.test_case "skipped IIs fail" `Slow test_bus_bound_premise;
        ] );
      ( "allocation",
        [
          Alcotest.test_case "failing attempt allocates less than success" `Quick
            test_failing_attempt_allocation;
        ] );
      ( "end to end",
        [
          Alcotest.test_case "figure 5 schedules" `Quick test_schedule_fig5_ddgt_graph;
          Alcotest.test_case "MDC raises II" `Quick test_schedule_mdc_vs_free_ii;
          Alcotest.test_case "lowered kernel" `Quick test_schedule_lowered_kernel;
          Alcotest.test_case "frozen fuzz-case digests" `Slow test_schedule_digests;
          Alcotest.test_case "frozen two-FU digests" `Quick test_wide_fu_digests;
          Alcotest.test_case "frozen unrolled digests" `Slow test_unrolled_digests;
        ] );
      ( "properties",
        List.map QCheck_alcotest.to_alcotest
          [
            prop_random_dags_schedule M.table2 "random DAGs schedule (BAL)";
            prop_random_dags_schedule M.nobal_mem "random DAGs schedule (NOBAL+MEM)";
            prop_random_dags_schedule M.nobal_reg "random DAGs schedule (NOBAL+REG)";
            prop_ddgt_then_schedule;
          ] );
    ]

