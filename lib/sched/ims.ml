module G = Vliw_ddg.Graph
module A = Vliw_ddg.Analysis
module M = Vliw_arch.Machine

type ordering = Height | Swing

type ctx = {
  machine : M.t;
  heuristic : Schedule.heuristic;
  ordering : ordering;
  pinned : (int, int) Hashtbl.t;
  grouped : int list list;
  pref : int -> int array option;
  assumed : (int, int) Hashtbl.t;
}

(* A recurrence whose latency exceeds II times its distance: every schedule
   at this II violates one of its edges, so the attempt fails before
   placing anything. *)
exception Positive_recurrence

(* The inner loop probes placements thousands of times per attempt, so the
   per-node facts (latency under the current assumption, height, FU kind,
   adjacency) are snapshotted into dense arrays up front and the mutable
   placement state is mirrored in flat [place_t]/[place_c] arrays (-1 =
   unplaced). The [place] hashtable is still maintained op-for-op: its
   iteration order picks force_place victims and it is the [Schedule.place]
   the caller receives, so every replace/remove happens exactly as before —
   the arrays only accelerate reads. *)
let place_all ctx g ~ii =
  let m = ctx.machine in
  let nclusters = m.M.clusters in
  let buslat = m.M.reg_buses.M.bus_latency in
  let local_hit = M.latency m M.Local_hit in
  let assumed id =
    Option.value (Hashtbl.find_opt ctx.assumed id) ~default:local_hit
  in
  let ns = G.nodes g in
  let nmax = List.fold_left (fun acc (n : G.node) -> max acc (n.G.n_id + 1)) 0 ns in
  let dummy =
    match ns with
    | n :: _ -> n
    | [] -> { G.n_id = 0; n_op = G.Fake; n_seq = 0; n_orig = 0; n_replica = None }
  in
  let node_arr = Array.make nmax dummy in
  List.iter (fun (n : G.node) -> node_arr.(n.G.n_id) <- n) ns;
  let oplat = Array.make nmax 0 in
  List.iter
    (fun (n : G.node) -> oplat.(n.G.n_id) <- G.op_latency n ~assumed)
    ns;
  let elat (e : G.edge) =
    match e.e_kind with
    | G.SYNC -> 0
    | G.MF | G.MA | G.MO -> 1
    | G.RF -> oplat.(e.e_src)
  in
  let preds_arr = Array.init nmax (fun id -> Array.of_list (G.preds g id)) in
  let succs_arr = Array.init nmax (fun id -> Array.of_list (G.succs g id)) in
  let fukindv = Array.make nmax M.Int_fu in
  let memv = Array.make nmax false in
  List.iter
    (fun (n : G.node) ->
      fukindv.(n.G.n_id) <- G.fu_kind n;
      memv.(n.G.n_id) <- G.mem_node g n.G.n_id)
    ns;
  let height =
    match A.longest_path_lengths g ~ii ~edge_lat:elat with
    | Some h -> h
    | None -> raise_notrace Positive_recurrence
  in
  let heightv = Array.make nmax 0 in
  List.iter (fun (n : G.node) -> heightv.(n.G.n_id) <- height n.G.n_id) ns;
  (* Swing-style order: start from the least-mobile node, then grow the
     ordered set through graph adjacency, always taking the least-mobile
     candidate (critical recurrences first, neighbours kept together). *)
  let swing_rank =
    match ctx.ordering with
    | Height -> None
    | Swing ->
      let depth = A.longest_path_depths g ~ii ~edge_lat:elat in
      let depthv = Array.make nmax 0 in
      List.iter (fun (n : G.node) -> depthv.(n.G.n_id) <- depth n.G.n_id) ns;
      let cp =
        List.fold_left
          (fun acc (n : G.node) ->
            max acc (depthv.(n.G.n_id) + heightv.(n.G.n_id)))
          0 ns
      in
      let mobility id = cp - heightv.(id) - depthv.(id) in
      let rankv = Array.make nmax max_int in
      let remainingv = Array.make nmax false in
      List.iter (fun (n : G.node) -> remainingv.(n.G.n_id) <- true) ns;
      let nrem = ref (List.length ns) in
      let next_rank = ref 0 in
      let ranked id = rankv.(id) <> max_int in
      let touches id =
        Array.exists (fun (e : G.edge) -> ranked e.e_src) preds_arr.(id)
        || Array.exists (fun (e : G.edge) -> ranked e.e_dst) succs_arr.(id)
      in
      while !nrem > 0 do
        (* least-mobile candidate adjacent to the ordered set, falling back
           to all remaining nodes; the minimum is unique (the key embeds the
           node id) so scan order does not matter *)
        let best = ref (-1) and bm = ref 0 and bh = ref 0 in
        let consider id =
          let mo = mobility id and h = heightv.(id) in
          if
            !best < 0
            || mo < !bm
            || (mo = !bm && (h > !bh || (h = !bh && id < !best)))
          then (
            best := id;
            bm := mo;
            bh := h)
        in
        for id = 0 to nmax - 1 do
          if remainingv.(id) && touches id then consider id
        done;
        if !best < 0 then
          for id = 0 to nmax - 1 do
            if remainingv.(id) then consider id
          done;
        if !best >= 0 then (
          rankv.(!best) <- !next_rank;
          incr next_rank;
          remainingv.(!best) <- false;
          decr nrem)
      done;
      Some rankv
  in
  let mrt = Mrt.create m ~ii in
  let place : (int, int * int) Hashtbl.t = Hashtbl.create 64 in
  let place_t = Array.make nmax (-1) in
  let place_c = Array.make nmax (-1) in
  let unschedv = Array.make nmax false in
  let copies : (int * int * int, Schedule.copy) Hashtbl.t = Hashtbl.create 16 in
  let group_of : (int, int) Hashtbl.t = Hashtbl.create 16 in
  List.iteri
    (fun gi chain -> List.iter (fun id -> Hashtbl.replace group_of id gi) chain)
    ctx.grouped;
  let group_pin : (int, int) Hashtbl.t = Hashtbl.create 8 in
  let pin_of (n : G.node) =
    match n.n_replica with
    | Some c -> Some c
    | None -> (
      match Hashtbl.find_opt ctx.pinned n.n_id with
      | Some c -> Some c
      | None ->
        Option.bind (Hashtbl.find_opt group_of n.n_id)
          (Hashtbl.find_opt group_pin))
  in
  List.iter (fun (n : G.node) -> unschedv.(n.G.n_id) <- true) ns;
  let last_forced : (int, int) Hashtbl.t = Hashtbl.create 16 in
  let budget = ref (12 * G.node_count g) in

  (* argmax / argmin over the unscheduled set; the keys are unique (they
     embed the node id) so a plain ascending scan finds the same node the
     old hashtable folds did *)
  let pick () =
    match swing_rank with
    | Some rankv ->
      let best = ref (-1) and br = ref max_int in
      for id = 0 to nmax - 1 do
        if unschedv.(id) && rankv.(id) < !br then (
          best := id;
          br := rankv.(id))
      done;
      if !best < 0 then None else Some !best
    | None ->
      let best = ref (-1) and bh = ref min_int and bs = ref min_int in
      for id = 0 to nmax - 1 do
        if unschedv.(id) then (
          let h = heightv.(id) and s = -node_arr.(id).G.n_seq in
          (* key (height, -seq, -id): under an ascending id scan a strict
             improvement on the first two components suffices, since the
             -id component prefers the earliest id at equal (h, s) *)
          if !best < 0 || h > !bh || (h = !bh && s > !bs) then (
            best := id;
            bh := h;
            bs := s))
      done;
      if !best < 0 then None else Some !best
  in

  (* Earliest start assuming same-cluster placement relative to scheduled
     predecessors. *)
  let earliest id =
    let acc = ref 0 in
    let es = preds_arr.(id) in
    for i = 0 to Array.length es - 1 do
      let e = es.(i) in
      let ts = place_t.(e.G.e_src) in
      if ts >= 0 then acc := max !acc (ts + elat e - (ii * e.G.e_dist))
    done;
    !acc
  in

  (* clusters in ascending (key, index) order *)
  let by_key key =
    List.sort
      (fun a b ->
        let d = Int.compare key.(a) key.(b) in
        if d <> 0 then d else Int.compare a b)
      (List.init nclusters Fun.id)
  in
  let rf_in = Array.make nclusters 0 in
  let candidates (n : G.node) =
    match pin_of n with
    | Some c -> [ c ]
    | None ->
      (* key = 10 * cross-cluster RF edges to placed neighbours + FU load.
         One pass counts the placed RF neighbours per cluster; each of
         them costs every other cluster one copy. *)
      let by_cost () =
        Array.fill rf_in 0 nclusters 0;
        let placed = ref 0 in
        let count cl =
          if cl >= 0 then (
            incr placed;
            rf_in.(cl) <- rf_in.(cl) + 1)
        in
        Array.iter
          (fun (e : G.edge) -> if e.e_kind = G.RF then count place_c.(e.e_src))
          preds_arr.(n.n_id);
        Array.iter
          (fun (e : G.edge) -> if e.e_kind = G.RF then count place_c.(e.e_dst))
          succs_arr.(n.n_id);
        by_key
          (Array.init nclusters (fun c ->
               (10 * (!placed - rf_in.(c))) + Mrt.fu_load mrt ~cluster:c))
      in
      if ctx.heuristic = Schedule.Pref_clus && memv.(n.n_id) then
        match ctx.pref n.n_id with
        | Some h when Array.length h = nclusters -> by_key (Array.map ( ~- ) h)
        | _ -> by_cost ()
      else by_cost ()
  in

  let do_place id t c =
    Hashtbl.replace place id (t, c);
    place_t.(id) <- t;
    place_c.(id) <- c;
    unschedv.(id) <- false
  in

  (* short-circuiting left-to-right scan, same visit order as the old
     List.for_all over the adjacency lists *)
  let all_ok f (es : G.edge array) =
    let ok = ref true in
    let i = ref 0 in
    let len = Array.length es in
    while !ok && !i < len do
      if not (f es.(!i)) then ok := false;
      incr i
    done;
    !ok
  in

  let add_copy (e : G.edge) ~from ~to_ ~cycle ~bus =
    Hashtbl.replace copies
      (e.e_src, e.e_dst, e.e_dist)
      {
        Schedule.cp_src = e.e_src;
        cp_dst = e.e_dst;
        cp_dist = e.e_dist;
        cp_from = from;
        cp_to = to_;
        cp_cycle = cycle;
        cp_bus = bus;
      }
  in

  (* Try to place node n at cycle t in cluster c. On success, commits the FU
     slot, any needed copies (bus slots), and the placement. *)
  let try_place (n : G.node) t c =
    let kind = fukindv.(n.n_id) in
    (* [check] sees each placed neighbour's edge, preds then succs, as the
       producer's issue cycle, the neighbour's cluster and the consumer's
       issue deadline; the scan stops at the first false *)
    let neighbours_ok check =
      all_ok
        (fun (e : G.edge) ->
          let ts = place_t.(e.e_src) in
          ts < 0
          || check e ~src_cycle:ts ~other:place_c.(e.e_src)
               ~deadline:(t + (ii * e.e_dist)))
        preds_arr.(n.n_id)
      && all_ok
           (fun (e : G.edge) ->
             let td = place_t.(e.e_dst) in
             td < 0
             || check e ~src_cycle:t ~other:place_c.(e.e_dst)
                  ~deadline:(td + (ii * e.e_dist)))
           succs_arr.(n.n_id)
    in
    let cross (e : G.edge) other = e.e_kind = G.RF && other <> c in
    (* a cross-cluster RF edge's copy leaves once the value is ready and
       arrives by the consumer's issue: ready + bus_latency <= deadline,
       which Mrt.bus_find requires of any window it returns *)
    let fits e ~src_cycle ~other ~deadline =
      src_cycle + elat e + (if cross e other then buslat else 0) <= deadline
    in
    (* every timing first: a placement some edge rules out fails without
       reserving, and rolling back, any bus *)
    if
      t < 0
      || (not (Mrt.fu_free mrt ~cycle:t ~cluster:c kind))
      || not (neighbours_ok fits)
    then false
    else (
      let new_copies = ref [] in
      let copied e ~src_cycle ~other ~deadline =
        (not (cross e other))
        ||
        (* the transfer's last busy slot must precede the consumer's issue:
           arrival = start + bus_latency <= deadline *)
        match Mrt.bus_find mrt ~lo:(src_cycle + elat e) ~hi:(deadline - 1) with
        | None -> false
        | Some (cycle, bus) ->
          Mrt.bus_take mrt ~cycle ~bus;
          new_copies := (e, cycle, bus) :: !new_copies;
          true
      in
      if neighbours_ok copied then (
        Mrt.fu_take mrt ~cycle:t ~cluster:c kind;
        do_place n.n_id t c;
        List.iter
          (fun ((e : G.edge), cycle, bus) ->
            add_copy e ~from:place_c.(e.e_src) ~to_:place_c.(e.e_dst) ~cycle
              ~bus)
          !new_copies;
        (match Hashtbl.find_opt group_of n.n_id with
        | Some gi when not (Hashtbl.mem group_pin gi) ->
          Hashtbl.replace group_pin gi c
        | _ -> ());
        true)
      else (
        List.iter
          (fun (_, cycle, bus) -> Mrt.bus_release mrt ~cycle ~bus)
          !new_copies;
        false))
  in

  let eject id =
    if place_t.(id) >= 0 then (
      let t = place_t.(id) and c = place_c.(id) in
      Mrt.fu_release mrt ~cycle:t ~cluster:c fukindv.(id);
      Hashtbl.remove place id;
      place_t.(id) <- -1;
      place_c.(id) <- -1;
      unschedv.(id) <- true;
      let doomed =
        Hashtbl.fold
          (fun key (cp : Schedule.copy) acc ->
            if cp.cp_src = id || cp.cp_dst = id then (key, cp) :: acc else acc)
          copies []
      in
      List.iter
        (fun (key, (cp : Schedule.copy)) ->
          Mrt.bus_release mrt ~cycle:cp.cp_cycle ~bus:cp.cp_bus;
          Hashtbl.remove copies key)
        doomed;
      decr budget)
  in

  (* Force-place n at cycle t cluster c, ejecting whatever stands in the
     way: FU conflictors in the same slot, then any placed neighbour whose
     dependence with n cannot be satisfied. *)
  let force_place (n : G.node) t c =
    let kind = fukindv.(n.n_id) in
    (* eject FU conflictors *)
    while not (Mrt.fu_free mrt ~cycle:t ~cluster:c kind) do
      let victim =
        Hashtbl.fold
          (fun id (tv, cv) acc ->
            if
              acc = None && id <> n.n_id && cv = c
              && tv mod ii = t mod ii
              && fukindv.(id) = kind
            then Some id
            else acc)
          place None
      in
      match victim with
      | Some v -> eject v
      | None -> assert false (* slot busy implies a holder exists *)
    done;
    Mrt.fu_take mrt ~cycle:t ~cluster:c kind;
    do_place n.n_id t c;
    (match Hashtbl.find_opt group_of n.n_id with
    | Some gi when not (Hashtbl.mem group_pin gi) ->
      Hashtbl.replace group_pin gi c
    | _ -> ());
    (* fix up edges to placed neighbours *)
    let fix_edge (e : G.edge) ~n_is_src =
      let other = if n_is_src then e.e_dst else e.e_src in
      if other = n.n_id then (
        (* self edge: check directly; ejecting n would not help *)
        let lat = elat e in
        if lat > ii * e.e_dist then decr budget)
      else if place_t.(other) >= 0 then (
        let to_ = place_t.(other) and co = place_c.(other) in
        let ok =
          if n_is_src then
            let deadline = to_ + (ii * e.e_dist) in
            if e.e_kind <> G.RF || co = c then t + elat e <= deadline
            else
              match Mrt.bus_find mrt ~lo:(t + elat e) ~hi:(deadline - 1) with
              | None -> false
              | Some (cycle, bus) ->
                Mrt.bus_take mrt ~cycle ~bus;
                add_copy e ~from:c ~to_:co ~cycle ~bus;
                true
          else
            let deadline = t + (ii * e.e_dist) in
            if e.e_kind <> G.RF || co = c then to_ + elat e <= deadline
            else
              match Mrt.bus_find mrt ~lo:(to_ + elat e) ~hi:(deadline - 1) with
              | None -> false
              | Some (cycle, bus) ->
                Mrt.bus_take mrt ~cycle ~bus;
                add_copy e ~from:co ~to_:c ~cycle ~bus;
                true
        in
        if not ok then eject other)
    in
    Array.iter (fun e -> fix_edge e ~n_is_src:false) preds_arr.(n.n_id);
    Array.iter (fun e -> fix_edge e ~n_is_src:true) succs_arr.(n.n_id)
  in

  let ok = ref true in
  let continue_ = ref true in
  while !continue_ do
    if !budget < 0 then (
      ok := false;
      continue_ := false)
    else
      match pick () with
      | None -> continue_ := false
      | Some id ->
        let n = node_arr.(id) in
        let e0 = earliest id in
        let cands = candidates n in
        let placed = ref false in
        (* memory operations try hard to stay in their first-choice cluster
           (their preferred one, or their chain's) before spilling over:
           locality is worth a few extra cycles of schedule space *)
        let is_mem = memv.(id) in
        (* Swing placement: a node whose placed neighbours are all
           successors scans downward from its latest feasible cycle *)
        let downward =
          ctx.ordering = Swing
          && (not
                (Array.exists
                   (fun (e : G.edge) -> place_t.(e.e_src) >= 0)
                   preds_arr.(id)))
          && Array.exists
               (fun (e : G.edge) -> place_t.(e.e_dst) >= 0)
               succs_arr.(id)
        in
        let latest =
          let acc = ref max_int in
          let es = succs_arr.(id) in
          for i = 0 to Array.length es - 1 do
            let e = es.(i) in
            let td = place_t.(e.G.e_dst) in
            if td >= 0 then acc := min !acc (td + (ii * e.G.e_dist) - elat e)
          done;
          !acc
        in
        List.iteri
          (fun ci c ->
            if not !placed then
              let span =
                if ci = 0 && is_mem then (3 * ii) + buslat else ii + buslat
              in
              if downward && latest < max_int then (
                let t = ref latest in
                while (not !placed) && !t >= max 0 (latest - span) do
                  if try_place n !t c then placed := true;
                  decr t
                done)
              else
                (* past [latest] some placed successor's edge fails in
                   every cluster, so the scan stops there *)
                let t = ref e0 in
                let stop = min (e0 + span) latest in
                while (not !placed) && !t <= stop do
                  if try_place n !t c then placed := true;
                  incr t
                done)
          cands;
        if not !placed then (
          let c = List.hd cands in
          let tf =
            max e0
              (match Hashtbl.find_opt last_forced id with
              | Some prev -> prev + 1
              | None -> e0)
          in
          Hashtbl.replace last_forced id tf;
          decr budget;
          force_place n tf c)
  done;
  if not !ok then None
  else (
    let length =
      1 + Hashtbl.fold (fun _ (t, _) acc -> max acc t) place 0
    in
    Some
      {
        Schedule.ii;
        machine = m;
        place;
        assumed = Hashtbl.copy ctx.assumed;
        copies = Hashtbl.fold (fun _ c acc -> c :: acc) copies [];
        length;
      })

let attempt ctx g ~ii =
  try place_all ctx g ~ii with Positive_recurrence -> None
