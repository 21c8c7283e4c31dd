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

(* What an attempt reads of the graph, in dense arrays indexed by node id
   (or by copy slot): built once per graph, so that the attempts of one
   Driver.run share it. Every cross-node register-flow edge owns one copy
   slot, which its source's [succ_slot] and its sink's [pred_slot] entry
   both name. *)
type view = {
  nmax : int;  (** 1 + the largest node id: per-node arrays' length *)
  ids : int array;  (** node ids, ascending *)
  node : G.node array;
  preds : G.edge array array;  (** [Graph.preds] order *)
  succs : G.edge array array;  (** [Graph.succs] order *)
  pred_slot : int array array;  (** beside [preds]: copy slot, or -1 *)
  succ_slot : int array array;
  slot_edge : G.edge array;
  kind : M.fu_kind array;
  mem : bool array;
  maxdeg : int;
  flat : A.flat;  (** the longest-path rounds' edges *)
}

let view g =
  let ns = G.nodes g in
  let nmax = List.fold_left (fun acc (n : G.node) -> max acc (n.G.n_id + 1)) 0 ns in
  let dummy =
    match ns with
    | n :: _ -> n
    | [] -> { G.n_id = 0; n_op = G.Fake; n_seq = 0; n_orig = 0; n_replica = None }
  in
  let node = Array.make nmax dummy in
  List.iter (fun (n : G.node) -> node.(n.G.n_id) <- n) ns;
  let preds = Array.init nmax (fun id -> Array.of_list (G.preds g id)) in
  let succs = Array.init nmax (fun id -> Array.of_list (G.succs g id)) in
  let slots = Hashtbl.create 64 and slot_edges = ref [] in
  let slot_of (e : G.edge) =
    if e.e_kind <> G.RF || e.e_src = e.e_dst then -1
    else
      match Hashtbl.find_opt slots e with
      | Some s -> s
      | None ->
        let s = Hashtbl.length slots in
        Hashtbl.replace slots e s;
        slot_edges := e :: !slot_edges;
        s
  in
  let succ_slot = Array.map (Array.map slot_of) succs in
  let pred_slot = Array.map (Array.map slot_of) preds in
  let kind = Array.make nmax M.Int_fu and mem = Array.make nmax false in
  List.iter
    (fun (n : G.node) ->
      kind.(n.G.n_id) <- G.fu_kind n;
      mem.(n.G.n_id) <- G.mem_node g n.G.n_id)
    ns;
  {
    nmax;
    ids = Array.of_list (List.map (fun (n : G.node) -> n.G.n_id) ns);
    node;
    preds;
    succs;
    pred_slot;
    succ_slot;
    slot_edge = Array.of_list (List.rev !slot_edges);
    kind;
    mem;
    maxdeg =
      Array.fold_left max 0
        (Array.init nmax (fun id -> Array.length preds.(id) + Array.length succs.(id)));
    flat = A.flatten g;
  }

(* The smallest power-of-two bucket count from [b] that a table whose
   size peaked at [peak] has grown to: OCaml's Hashtbl doubles its
   buckets when an insertion takes its size past twice their count. *)
let rec buckets b ~peak = if peak > 2 * b then buckets (2 * b) ~peak else b

(* One attempt over flat state. Placements live in [place_t]/[place_c]
   (-1 = unplaced) and copies in their RF edge's slot; every placement and
   every copy also takes an insertion stamp. The [place] and [copies]
   hashtables of a successful attempt are built once at its end, oldest
   stamp first, in tables of the bucket count the loop's peaks would have
   grown them to. Those are the tables writing them through the loop
   would leave: an absent key's insertion conses it at the head of its
   bucket, a removal unlinks without reordering, a resize keeps each
   bucket's order, and the loop only ever writes absent keys (a node is
   placed only while unplaced; a copy only while both its endpoints are
   placed, and ejecting either drops it). So both fold, bucket by bucket
   and newest first, exactly as tables written op for op did. A
   force-placement's victim is the first placed node such a fold meets
   holding the slot: the holder in the least bucket, newest first (with
   one FU of the kind per cluster, the slot's one holder). *)
let place_all ctx v ~ii =
  let m = ctx.machine in
  let nclusters = m.M.clusters in
  let buslat = m.M.reg_buses.M.bus_latency in
  let local_hit = M.latency m M.Local_hit in
  let assumed id =
    Option.value (Hashtbl.find_opt ctx.assumed id) ~default:local_hit
  in
  let nmax = v.nmax and nnodes = Array.length v.ids and node_arr = v.node in
  let preds_arr = v.preds and succs_arr = v.succs in
  let fukindv = v.kind and memv = v.mem in
  let oplat = Array.make nmax 0 in
  Array.iter (fun id -> oplat.(id) <- G.op_latency node_arr.(id) ~assumed) v.ids;
  let elat (e : G.edge) =
    match e.e_kind with
    | G.SYNC -> 0
    | G.MF | G.MA | G.MO -> 1
    | G.RF -> oplat.(e.e_src)
  in
  let heightv =
    match A.heights v.flat ~ii ~edge_lat:elat with
    | Some h -> h
    | None -> raise_notrace Positive_recurrence
  in
  (* the pick order: [order.(r)] is the node of rank [r], [rank] its
     inverse, and each pick takes the unplaced node of least rank *)
  let order = Array.copy v.ids in
  let rank = Array.make nmax 0 in
  (match ctx.ordering with
  | Height ->
    (* classic IMS priority: greatest height, then earliest in program
       order, then least id *)
    Array.sort
      (fun a b ->
        if heightv.(a) <> heightv.(b) then Int.compare heightv.(b) heightv.(a)
        else if node_arr.(a).G.n_seq <> node_arr.(b).G.n_seq then
          Int.compare node_arr.(a).G.n_seq node_arr.(b).G.n_seq
        else Int.compare a b)
      order;
    Array.iteri (fun r id -> rank.(id) <- r) order
  | Swing ->
    (* start from the least-mobile node, then grow the ordered set
       through graph adjacency, always taking the least-mobile candidate
       (critical recurrences first, neighbours kept together) *)
    let depthv = A.depths v.flat ~ii ~edge_lat:elat in
    let cp =
      Array.fold_left (fun acc id -> max acc (depthv.(id) + heightv.(id))) 0 v.ids
    in
    let mobility id = cp - heightv.(id) - depthv.(id) in
    let ranked = Array.make nmax false and remainingv = Array.make nmax false in
    Array.iter (fun id -> remainingv.(id) <- true) v.ids;
    let touches id =
      Array.exists (fun (e : G.edge) -> ranked.(e.e_src)) preds_arr.(id)
      || Array.exists (fun (e : G.edge) -> ranked.(e.e_dst)) succs_arr.(id)
    in
    for r = 0 to nnodes - 1 do
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
      order.(r) <- !best;
      rank.(!best) <- r;
      ranked.(!best) <- true;
      remainingv.(!best) <- false
    done);
  (* the unplaced nodes' ranks, a binary min-heap in [heap.(0 .. !hsize -
     1)]; ranks in ascending order already are one *)
  let heap = Array.init nnodes Fun.id and hsize = ref nnodes in
  let push r =
    let i = ref !hsize in
    incr hsize;
    while !i > 0 && heap.((!i - 1) / 2) > r do
      heap.(!i) <- heap.((!i - 1) / 2);
      i := (!i - 1) / 2
    done;
    heap.(!i) <- r
  in
  let pick () =
    if !hsize = 0 then -1
    else (
      let top = heap.(0) in
      decr hsize;
      let last = heap.(!hsize) and i = ref 0 and sifting = ref true in
      while !sifting do
        let l = (2 * !i) + 1 in
        let c = if l + 1 < !hsize && heap.(l + 1) < heap.(l) then l + 1 else l in
        if c < !hsize && heap.(c) < last then (
          heap.(!i) <- heap.(c);
          i := c)
        else sifting := false
      done;
      heap.(!i) <- last;
      order.(top))
  in

  let mrt = Mrt.create m ~ii in
  let place_t = Array.make nmax (-1) and place_c = Array.make nmax (-1) in
  let stamp = Array.make nmax 0 and clock = ref 0 in
  let nplaced = ref 0 and peak = ref 0 in
  let nslots = Array.length v.slot_edge in
  let cp_cycle = Array.make nslots 0 and cp_bus = Array.make nslots 0 in
  let cp_from = Array.make nslots 0 and cp_to = Array.make nslots 0 in
  let cp_stamp = Array.make nslots (-1) in
  let live = ref 0 and cpeak = ref 0 in
  (* a node's pin that does not move during the attempt (its replica
     instance's cluster, else its hard pin), its chain, and each chain's
     cluster once its first member is placed; -1 = none *)
  let fixed_pin = Array.make nmax (-1) in
  Array.iter
    (fun id ->
      fixed_pin.(id) <-
        (match node_arr.(id).G.n_replica with
        | Some c -> c
        | None -> Option.value (Hashtbl.find_opt ctx.pinned id) ~default:(-1)))
    v.ids;
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
  let last_forced = Array.make nmax (-1) in
  let budget = ref (12 * nnodes) in

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

  (* take node [id]'s FU slot and place it *)
  let do_place id t c =
    Mrt.fu_take mrt ~cycle:t ~cluster:c fukindv.(id);
    place_t.(id) <- t;
    place_c.(id) <- c;
    stamp.(id) <- !clock;
    incr clock;
    incr nplaced;
    if !nplaced > !peak then peak := !nplaced
  in

  let add_copy slot ~from ~to_ ~cycle ~bus =
    cp_cycle.(slot) <- cycle;
    cp_bus.(slot) <- bus;
    cp_from.(slot) <- from;
    cp_to.(slot) <- to_;
    cp_stamp.(slot) <- !clock;
    incr clock;
    incr live;
    if !live > !cpeak then cpeak := !live
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
  let taken_slot = Array.make v.maxdeg 0 in
  let taken_cycle = Array.make v.maxdeg 0 and taken_bus = Array.make v.maxdeg 0 in
  let ntaken = ref 0 in
  let take slot cycle =
    let bus = Mrt.bus_lowest mrt ~cycle in
    Mrt.bus_take mrt ~cycle ~bus;
    taken_slot.(!ntaken) <- slot;
    taken_cycle.(!ntaken) <- cycle;
    taken_bus.(!ntaken) <- bus;
    incr ntaken
  in
  (* a cross-cluster RF edge's copy leaves once the value is ready and
     arrives by the consumer's issue: ready + bus_latency <= deadline,
     the window Mrt.bus_find searches *)
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
          else take v.pred_slot.(id).(!i) s);
        incr i
      done;
      let pred_copies = !ntaken in
      i := 0;
      while !ok && !i < Array.length succs do
        let e = succs.(!i) in
        let td = place_t.(e.e_dst) in
        if td >= 0 && bus_extra e place_c.(e.e_dst) c > 0 then (
          let s =
            Mrt.bus_find mrt ~lo:(t + elat e) ~hi:(td + (ii * e.e_dist) - 1)
          in
          if s = max_int then (
            ok := false;
            if !ntaken = pred_copies then lower_hi (t - 1))
          else take v.succ_slot.(id).(!i) s);
        incr i
      done;
      if !ok then (
        do_place id t c;
        (* copies take their stamps latest reservation first: the
           insertion order every recorded schedule's copy list holds *)
        for k = !ntaken - 1 downto 0 do
          let e = v.slot_edge.(taken_slot.(k)) in
          add_copy taken_slot.(k) ~from:place_c.(e.e_src) ~to_:place_c.(e.e_dst)
            ~cycle:taken_cycle.(k) ~bus:taken_bus.(k)
        done;
        pin_group id c)
      else
        for k = 0 to !ntaken - 1 do
          Mrt.bus_release mrt ~cycle:taken_cycle.(k) ~bus:taken_bus.(k)
        done;
      !ok)
  in

  (* free a copy slot, if it holds a copy *)
  let drop slot =
    if slot >= 0 && cp_stamp.(slot) >= 0 then (
      Mrt.bus_release mrt ~cycle:cp_cycle.(slot) ~bus:cp_bus.(slot);
      cp_stamp.(slot) <- -1;
      decr live)
  in
  let eject id =
    if place_t.(id) >= 0 then (
      let t = place_t.(id) and c = place_c.(id) in
      Mrt.fu_release mrt ~cycle:t ~cluster:c fukindv.(id);
      place_t.(id) <- -1;
      place_c.(id) <- -1;
      decr nplaced;
      push rank.(id);
      Array.iter drop v.pred_slot.(id);
      Array.iter drop v.succ_slot.(id);
      decr budget)
  in
  (* the placed node holding (cycle [t]'s slot, [c], [kind]) that a fold
     of the [place] table meets first: least bucket, newest first *)
  let first_holder t c kind =
    let mask = buckets 64 ~peak:!peak - 1 and slot = t mod ii in
    let best = ref (-1) and bb = ref max_int and bs = ref 0 in
    for w = 0 to nmax - 1 do
      if
        place_t.(w) >= 0 && place_c.(w) = c && fukindv.(w) = kind
        && place_t.(w) mod ii = slot
      then (
        let b = Hashtbl.hash w land mask in
        if b < !bb || (b = !bb && stamp.(w) > !bs) then (
          best := w;
          bb := b;
          bs := stamp.(w)))
    done;
    !best
  in

  (* Fix up the edge [e] between node [id], just force-placed at cycle
     [t] in cluster [c], and a placed neighbour: reserve its copy, or
     eject the neighbour when the dependence cannot hold. *)
  let fix_edge id t c (e : G.edge) slot ~n_is_src =
    let other = if n_is_src then e.e_dst else e.e_src in
    if other = id then (
      (* self edge: check directly; ejecting n would not help *)
      if elat e > ii * e.e_dist then decr budget)
    else if place_t.(other) >= 0 then (
      let to_ = place_t.(other) and co = place_c.(other) in
      let ready = (if n_is_src then t else to_) + elat e in
      let deadline = (if n_is_src then to_ else t) + (ii * e.e_dist) in
      let ok =
        if e.e_kind <> G.RF || co = c then ready <= deadline
        else (
          let cycle = Mrt.bus_find mrt ~lo:ready ~hi:(deadline - 1) in
          if cycle = max_int then false
          else (
            let bus = Mrt.bus_lowest mrt ~cycle in
            Mrt.bus_take mrt ~cycle ~bus;
            if n_is_src then add_copy slot ~from:c ~to_:co ~cycle ~bus
            else add_copy slot ~from:co ~to_:c ~cycle ~bus;
            true))
      in
      if not ok then eject other)
  in

  (* Force-place n at cycle t cluster c, ejecting whatever stands in the
     way: the FU slot's holders, then any placed neighbour whose
     dependence with n cannot be satisfied. *)
  let force_place id t c =
    let kind = fukindv.(id) in
    while not (Mrt.fu_free mrt ~cycle:t ~cluster:c kind) do
      let w = first_holder t c kind in
      (* slot busy implies a holder exists *)
      assert (w >= 0);
      eject w
    done;
    do_place id t c;
    pin_group id c;
    let es = preds_arr.(id) and slots = v.pred_slot.(id) in
    for i = 0 to Array.length es - 1 do
      fix_edge id t c es.(i) slots.(i) ~n_is_src:false
    done;
    let es = succs_arr.(id) and slots = v.succ_slot.(id) in
    for i = 0 to Array.length es - 1 do
      fix_edge id t c es.(i) slots.(i) ~n_is_src:true
    done
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
    (* every node is placed; the tables, oldest stamp first *)
    let by_stamp stamps ids =
      Array.sort (fun a b -> Int.compare stamps.(a) stamps.(b)) ids;
      ids
    in
    let place = Hashtbl.create (buckets 64 ~peak:!peak) in
    Array.iter
      (fun id -> Hashtbl.add place id (place_t.(id), place_c.(id)))
      (by_stamp stamp (Array.copy v.ids));
    let copies = Hashtbl.create (buckets 16 ~peak:!cpeak) in
    Array.iter
      (fun s ->
        let e = v.slot_edge.(s) in
        Hashtbl.add copies (e.e_src, e.e_dst, e.e_dist)
          {
            Schedule.cp_src = e.e_src;
            cp_dst = e.e_dst;
            cp_dist = e.e_dist;
            cp_from = cp_from.(s);
            cp_to = cp_to.(s);
            cp_cycle = cp_cycle.(s);
            cp_bus = cp_bus.(s);
          })
      (by_stamp cp_stamp
         (Array.of_list
            (List.filter (fun s -> cp_stamp.(s) >= 0) (List.init nslots Fun.id))));
    Some
      {
        Schedule.ii;
        machine = m;
        place;
        assumed = Hashtbl.copy ctx.assumed;
        copies = Hashtbl.fold (fun _ c acc -> c :: acc) copies [];
        length = 1 + Array.fold_left (fun acc id -> max acc place_t.(id)) 0 v.ids;
      })

let attempt_view ctx v ~ii =
  try place_all ctx v ~ii with Positive_recurrence -> None

let attempt ctx g ~ii = attempt_view ctx (view g) ~ii
