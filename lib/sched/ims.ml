module G = Vliw_ddg.Graph
module A = Vliw_ddg.Analysis
module M = Vliw_arch.Machine

type ordering = Height | Swing

let orderings = [ Height; Swing ]
let ordering_name = function Height -> "height" | Swing -> "swing"
let ordering_of_name s = List.find_opt (fun o -> ordering_name o = s) orderings

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
  (* the keys of [copies] by endpoint: each added copy's key goes on both
     its endpoints' lists, and an entry whose copy is gone is skipped *)
  let copies_at = Array.make nmax [] in
  (* a node's pin that does not move during the attempt (its replica
     instance's cluster, else its hard pin), its chain, and each chain's
     cluster once its first member is placed; -1 = none *)
  let fixed_pin = Array.make nmax (-1) in
  List.iter
    (fun (n : G.node) ->
      fixed_pin.(n.G.n_id) <-
        (match n.n_replica with
        | Some c -> c
        | None -> Option.value (Hashtbl.find_opt ctx.pinned n.n_id) ~default:(-1)))
    ns;
  let group_of = Array.make nmax (-1) in
  List.iteri
    (fun gi chain ->
      List.iter (fun id -> if id >= 0 && id < nmax then group_of.(id) <- gi) chain)
    ctx.grouped;
  let group_pin = Array.make (List.length ctx.grouped) (-1) in
  let pin id =
    if fixed_pin.(id) >= 0 then fixed_pin.(id)
    else if group_of.(id) >= 0 then group_pin.(group_of.(id))
    else -1
  in
  let pin_group id c =
    let gi = group_of.(id) in
    if gi >= 0 && group_pin.(gi) < 0 then group_pin.(gi) <- c
  in
  List.iter (fun (n : G.node) -> unschedv.(n.G.n_id) <- true) ns;
  let last_forced = Array.make nmax (-1) in
  let budget = ref (12 * G.node_count g) in

  (* argmax / argmin over the unscheduled set, or -1; the keys are unique
     (they embed the node id) so a plain ascending scan finds the same node
     the old hashtable folds did *)
  let pick () =
    match swing_rank with
    | Some rankv ->
      let best = ref (-1) and br = ref max_int in
      for id = 0 to nmax - 1 do
        if unschedv.(id) && rankv.(id) < !br then (
          best := id;
          br := rankv.(id))
      done;
      !best
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
      !best
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

  (* [cand.(0 .. !ncand - 1)]: the clusters to try, in ascending (key,
     index) order of [keyv]; an insertion sort that shifts only strictly
     larger keys keeps equal keys in index order *)
  let cand = Array.make nclusters 0 and ncand = ref 0 in
  let keyv = Array.make nclusters 0 in
  let sort_by_key () =
    for c = 0 to nclusters - 1 do
      let k = keyv.(c) in
      let j = ref c in
      while !j > 0 && keyv.(cand.(!j - 1)) > k do
        cand.(!j) <- cand.(!j - 1);
        decr j
      done;
      cand.(!j) <- c
    done;
    ncand := nclusters
  in
  (* key = 10 * cross-cluster RF edges to placed neighbours + FU load. One
     pass counts the placed RF neighbours per cluster; each of them costs
     every other cluster one copy. *)
  let rf_in = Array.make nclusters 0 in
  let tally cl = if cl >= 0 then rf_in.(cl) <- rf_in.(cl) + 1 in
  let cost_keys id =
    Array.fill rf_in 0 nclusters 0;
    let es = preds_arr.(id) in
    for i = 0 to Array.length es - 1 do
      if es.(i).G.e_kind = G.RF then tally place_c.(es.(i).G.e_src)
    done;
    let es = succs_arr.(id) in
    for i = 0 to Array.length es - 1 do
      if es.(i).G.e_kind = G.RF then tally place_c.(es.(i).G.e_dst)
    done;
    let placed = Array.fold_left ( + ) 0 rf_in in
    for c = 0 to nclusters - 1 do
      keyv.(c) <- (10 * (placed - rf_in.(c))) + Mrt.fu_load mrt ~cluster:c
    done
  in
  let candidates id =
    let p = pin id in
    if p >= 0 then (
      cand.(0) <- p;
      ncand := 1)
    else (
      (if ctx.heuristic = Schedule.Pref_clus && memv.(id) then
         match ctx.pref id with
         | Some h when Array.length h = nclusters ->
           for c = 0 to nclusters - 1 do
             keyv.(c) <- -h.(c)
           done
         | _ -> cost_keys id
       else cost_keys id);
      sort_by_key ())
  in

  let do_place id t c =
    Hashtbl.replace place id (t, c);
    place_t.(id) <- t;
    place_c.(id) <- c;
    unschedv.(id) <- false
  in

  let add_copy (e : G.edge) ~from ~to_ ~cycle ~bus =
    let key = (e.e_src, e.e_dst, e.e_dist) in
    Hashtbl.replace copies key
      {
        Schedule.cp_src = e.e_src;
        cp_dst = e.e_dst;
        cp_dist = e.e_dist;
        cp_from = from;
        cp_to = to_;
        cp_cycle = cycle;
        cp_bus = bus;
      };
    copies_at.(e.e_src) <- key :: copies_at.(e.e_src);
    copies_at.(e.e_dst) <- key :: copies_at.(e.e_dst)
  in

  (* A scan tries one node at successive cycles of one cluster. A failed
     probe reserves nothing, so the table is the same at every probe of a
     scan, and what a failure proves about the node's edges holds at the
     scan's other cycles too: every cycle below [lo_b] or above [hi_b]
     fails. The scan jumps past those cycles instead of probing them. *)
  let lo_b = ref 0 and hi_b = ref 0 in
  let raise_lo b = if b > !lo_b then lo_b := b in
  let lower_hi b = if b < !hi_b then hi_b := b in
  (* the copies a probe has reserved, in reservation order *)
  let maxdeg =
    Array.fold_left max 0
      (Array.init nmax (fun id ->
           Array.length preds_arr.(id) + Array.length succs_arr.(id)))
  in
  let taken_e =
    Array.make maxdeg { G.e_src = 0; e_dst = 0; e_kind = G.SYNC; e_dist = 0 }
  in
  let taken_cycle = Array.make maxdeg 0 and taken_bus = Array.make maxdeg 0 in
  let ntaken = ref 0 in
  let take e cycle =
    let bus = Mrt.bus_lowest mrt ~cycle in
    Mrt.bus_take mrt ~cycle ~bus;
    taken_e.(!ntaken) <- e;
    taken_cycle.(!ntaken) <- cycle;
    taken_bus.(!ntaken) <- bus;
    incr ntaken
  in
  (* a cross-cluster RF edge's copy leaves once the value is ready and
     arrives by the consumer's issue: ready + bus_latency <= deadline,
     which Mrt.bus_find requires of any window it returns *)
  let bus_extra (e : G.edge) other c =
    if e.e_kind = G.RF && other <> c then buslat else 0
  in

  (* Try to place node [id] at cycle t in cluster c. On success, commits the
     FU slot, any needed copies (bus slots), and the placement. *)
  let try_place id t c =
    let kind = fukindv.(id) in
    let preds = preds_arr.(id) and succs = succs_arr.(id) in
    (* every timing first, placed predecessors then successors: a
       placement some edge rules out fails without reserving, and rolling
       back, any bus. A predecessor's edge fails below its bound at every
       cycle, a successor's above its bound. *)
    let ok = ref (t >= 0 && Mrt.fu_free mrt ~cycle:t ~cluster:c kind) in
    let i = ref 0 in
    while !ok && !i < Array.length preds do
      let e = preds.(!i) in
      let ts = place_t.(e.e_src) in
      if ts >= 0 then (
        let need =
          ts + elat e + bus_extra e place_c.(e.e_src) c - (ii * e.e_dist)
        in
        if t < need then (
          ok := false;
          raise_lo need));
      incr i
    done;
    i := 0;
    while !ok && !i < Array.length succs do
      let e = succs.(!i) in
      let td = place_t.(e.e_dst) in
      if td >= 0 then (
        let bound =
          td + (ii * e.e_dist) - elat e - bus_extra e place_c.(e.e_dst) c
        in
        if t > bound then (
          ok := false;
          lower_hi bound));
      incr i
    done;
    if not !ok then false
    else (
      (* then the copies, in the same order. A predecessor's copy window
         opens at a fixed cycle, so at every cycle of the scan the earlier
         predecessor copies take the same (earliest) slots, and this one
         fits iff its earliest free start, deadline ignored, arrives in
         time. The first successor copy after them sees that same table
         and a window that only shrinks as t grows: failing once, it fails
         at every later cycle. *)
      ntaken := 0;
      i := 0;
      while !ok && !i < Array.length preds do
        let e = preds.(!i) in
        let ts = place_t.(e.e_src) in
        if ts >= 0 && bus_extra e place_c.(e.e_src) c > 0 then (
          let s = Mrt.bus_earliest mrt ~lo:(ts + elat e) in
          (* no start in the ring is free: nothing fits in this cluster *)
          let need =
            if s = max_int then max_int else s + buslat - (ii * e.e_dist)
          in
          if t < need then (
            ok := false;
            raise_lo need)
          else take e s);
        incr i
      done;
      let pred_copies = !ntaken in
      i := 0;
      while !ok && !i < Array.length succs do
        let e = succs.(!i) in
        let td = place_t.(e.e_dst) in
        if td >= 0 && bus_extra e place_c.(e.e_dst) c > 0 then (
          let s = Mrt.bus_earliest mrt ~lo:(t + elat e) in
          if s = max_int || s + buslat > td + (ii * e.e_dist) then (
            ok := false;
            if !ntaken = pred_copies then lower_hi (t - 1))
          else take e s);
        incr i
      done;
      if !ok then (
        Mrt.fu_take mrt ~cycle:t ~cluster:c kind;
        do_place id t c;
        (* copies enter the table latest reservation first, as the list the
           probe used to build did *)
        for k = !ntaken - 1 downto 0 do
          let e = taken_e.(k) in
          add_copy e ~from:place_c.(e.e_src) ~to_:place_c.(e.e_dst)
            ~cycle:taken_cycle.(k) ~bus:taken_bus.(k)
        done;
        pin_group id c)
      else
        for k = 0 to !ntaken - 1 do
          Mrt.bus_release mrt ~cycle:taken_cycle.(k) ~bus:taken_bus.(k)
        done;
      !ok)
  in

  (* drop every copy whose key is listed; the order of removals does not
     change the iteration order of the bindings that survive *)
  let rec drop_copies = function
    | [] -> ()
    | key :: rest ->
      if Hashtbl.mem copies key then (
        let (cp : Schedule.copy) = Hashtbl.find copies key in
        Mrt.bus_release mrt ~cycle:cp.cp_cycle ~bus:cp.cp_bus;
        Hashtbl.remove copies key);
      drop_copies rest
  in
  let eject id =
    if place_t.(id) >= 0 then (
      let t = place_t.(id) and c = place_c.(id) in
      Mrt.fu_release mrt ~cycle:t ~cluster:c fukindv.(id);
      Hashtbl.remove place id;
      place_t.(id) <- -1;
      place_c.(id) <- -1;
      unschedv.(id) <- true;
      drop_copies copies_at.(id);
      copies_at.(id) <- [];
      decr budget)
  in

  (* Force-place n at cycle t cluster c, ejecting whatever stands in the
     way: FU conflictors in the same slot, then any placed neighbour whose
     dependence with n cannot be satisfied. *)
  let force_place id t c =
    let kind = fukindv.(id) in
    (* eject FU conflictors *)
    while not (Mrt.fu_free mrt ~cycle:t ~cluster:c kind) do
      let victim =
        Hashtbl.fold
          (fun v (tv, cv) acc ->
            if
              acc = None && v <> id && cv = c
              && tv mod ii = t mod ii
              && fukindv.(v) = kind
            then Some v
            else acc)
          place None
      in
      match victim with
      | Some v -> eject v
      | None -> assert false (* slot busy implies a holder exists *)
    done;
    Mrt.fu_take mrt ~cycle:t ~cluster:c kind;
    do_place id t c;
    pin_group id c;
    (* fix up edges to placed neighbours *)
    let fix_edge (e : G.edge) ~n_is_src =
      let other = if n_is_src then e.e_dst else e.e_src in
      if other = id then (
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
    Array.iter (fun e -> fix_edge e ~n_is_src:false) preds_arr.(id);
    Array.iter (fun e -> fix_edge e ~n_is_src:true) succs_arr.(id)
  in

  let ok = ref true in
  let continue_ = ref true in
  while !continue_ do
    if !budget < 0 then (
      ok := false;
      continue_ := false)
    else
      let id = pick () in
      if id < 0 then continue_ := false
      else (
        let e0 = earliest id in
        candidates id;
        let placed = ref false in
        (* memory operations try hard to stay in their first-choice cluster
           (their preferred one, or their chain's) before spilling over:
           locality is worth a few extra cycles of schedule space *)
        let is_mem = memv.(id) in
        let preds = preds_arr.(id) and succs = succs_arr.(id) in
        let any_pred = ref false and any_succ = ref false in
        for i = 0 to Array.length preds - 1 do
          if place_t.(preds.(i).G.e_src) >= 0 then any_pred := true
        done;
        (* [latest]: the tightest bound a placed successor sets *)
        let latest = ref max_int in
        for i = 0 to Array.length succs - 1 do
          let e = succs.(i) in
          let td = place_t.(e.G.e_dst) in
          if td >= 0 then (
            any_succ := true;
            latest := min !latest (td + (ii * e.G.e_dist) - elat e))
        done;
        let latest = !latest in
        (* Swing placement: a node whose placed neighbours are all
           successors scans downward from its latest feasible cycle *)
        let downward = ctx.ordering = Swing && (not !any_pred) && !any_succ in
        for ci = 0 to !ncand - 1 do
          if not !placed then (
            let c = cand.(ci) in
            let span =
              if ci = 0 && is_mem then (3 * ii) + buslat else ii + buslat
            in
            if downward then (
              lo_b := max 0 (latest - span);
              hi_b := latest;
              let t = ref latest in
              while (not !placed) && !t >= !lo_b do
                if try_place id !t c then placed := true
                else t := min (!t - 1) !hi_b
              done)
            else (
              (* past [latest] some placed successor's edge fails in every
                 cluster, so the scan stops there *)
              lo_b := e0;
              hi_b := min (e0 + span) latest;
              let t = ref e0 in
              while (not !placed) && !t <= !hi_b do
                if try_place id !t c then placed := true
                else t := max (!t + 1) !lo_b
              done))
        done;
        if not !placed then (
          let c = cand.(0) in
          let prev = last_forced.(id) in
          let tf = if prev >= 0 then max e0 (prev + 1) else e0 in
          last_forced.(id) <- tf;
          decr budget;
          force_place id tf c))
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
