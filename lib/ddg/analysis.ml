let sccs g =
  let index = Hashtbl.create 32 in
  let low = Hashtbl.create 32 in
  let on_stack = Hashtbl.create 32 in
  let stack = ref [] in
  let counter = ref 0 in
  let comps = ref [] in
  let rec strongconnect v =
    Hashtbl.replace index v !counter;
    Hashtbl.replace low v !counter;
    incr counter;
    stack := v :: !stack;
    Hashtbl.replace on_stack v true;
    List.iter
      (fun (e : Graph.edge) ->
        let w = e.e_dst in
        if not (Hashtbl.mem index w) then (
          strongconnect w;
          Hashtbl.replace low v (min (Hashtbl.find low v) (Hashtbl.find low w)))
        else if Option.value (Hashtbl.find_opt on_stack w) ~default:false then
          Hashtbl.replace low v (min (Hashtbl.find low v) (Hashtbl.find index w)))
      (Graph.succs g v);
    if Hashtbl.find low v = Hashtbl.find index v then (
      let comp = ref [] in
      let continue = ref true in
      while !continue do
        match !stack with
        | [] -> continue := false
        | w :: rest ->
          stack := rest;
          Hashtbl.replace on_stack w false;
          comp := w :: !comp;
          if w = v then continue := false
      done;
      comps := List.sort compare !comp :: !comps)
  in
  List.iter
    (fun (n : Graph.node) -> if not (Hashtbl.mem index n.n_id) then strongconnect n.n_id)
    (Graph.nodes g);
  List.rev !comps

let reachable_same_iter g ~src ~dst =
  let seen = Hashtbl.create 16 in
  let rec go v =
    v = dst
    || (not (Hashtbl.mem seen v))
       && (Hashtbl.replace seen v ();
           List.exists
             (fun (e : Graph.edge) -> e.e_dist = 0 && go e.e_dst)
             (Graph.succs g v))
  in
  go src

let undirected_components g ~keep =
  let parent = Hashtbl.create 32 in
  let rec find x =
    match Hashtbl.find_opt parent x with
    | None | Some (-1) -> x
    | Some p ->
      let r = find p in
      Hashtbl.replace parent x r;
      r
  in
  let union a b =
    let ra = find a and rb = find b in
    if ra <> rb then Hashtbl.replace parent (max ra rb) (min ra rb)
  in
  List.iter
    (fun (e : Graph.edge) -> if keep e then union e.e_src e.e_dst)
    (Graph.edges g);
  let buckets = Hashtbl.create 32 in
  List.iter
    (fun (n : Graph.node) ->
      let r = find n.n_id in
      Hashtbl.replace buckets r
        (n.n_id :: Option.value (Hashtbl.find_opt buckets r) ~default:[]))
    (Graph.nodes g);
  Hashtbl.fold (fun _ ids acc -> List.sort compare ids :: acc) buckets []
  |> List.sort (fun a b -> compare (List.hd a) (List.hd b))

let topo_order g =
  let indeg = Hashtbl.create 32 in
  List.iter (fun (n : Graph.node) -> Hashtbl.replace indeg n.n_id 0) (Graph.nodes g);
  List.iter
    (fun (e : Graph.edge) ->
      if e.e_dist = 0 then
        Hashtbl.replace indeg e.e_dst (Hashtbl.find indeg e.e_dst + 1))
    (Graph.edges g);
  let ready =
    ref
      (List.filter_map
         (fun (n : Graph.node) ->
           if Hashtbl.find indeg n.n_id = 0 then Some n.n_id else None)
         (Graph.nodes g))
  in
  let order = ref [] in
  while !ready <> [] do
    let v = List.hd !ready in
    ready := List.tl !ready;
    order := v :: !order;
    List.iter
      (fun (e : Graph.edge) ->
        if e.e_dist = 0 then (
          let d = Hashtbl.find indeg e.e_dst - 1 in
          Hashtbl.replace indeg e.e_dst d;
          if d = 0 then ready := e.e_dst :: !ready))
      (Graph.succs g v)
  done;
  List.rev !order

(* Bellman-Ford longest paths on the reversed graph: height.(v) = max over
   edges v->w of weight(e) + height(w), iterated to fixpoint. Without a
   positive cycle the fixpoint is reached within |V| rounds; with one some
   height grows in every round, so a change in the last round means one
   exists. *)
let longest_path_lengths g ~ii ~edge_lat =
  let h = Hashtbl.create 32 in
  let ns = Graph.nodes g in
  List.iter (fun (n : Graph.node) -> Hashtbl.replace h n.n_id 0) ns;
  let nv = List.length ns in
  let changed = ref true in
  let rounds = ref 0 in
  while !changed && !rounds <= nv + 1 do
    changed := false;
    incr rounds;
    List.iter
      (fun (n : Graph.node) ->
        List.iter
          (fun (e : Graph.edge) ->
            let w = edge_lat e - (ii * e.e_dist) in
            let cand = w + Hashtbl.find h e.e_dst in
            if cand > Hashtbl.find h n.n_id then (
              Hashtbl.replace h n.n_id cand;
              changed := true))
          (Graph.succs g n.n_id))
      ns
  done;
  if !changed then None else Some (fun id -> Hashtbl.find h id)

let longest_path_depths g ~ii ~edge_lat =
  let d = Hashtbl.create 32 in
  let ns = Graph.nodes g in
  List.iter (fun (n : Graph.node) -> Hashtbl.replace d n.n_id 0) ns;
  let nv = List.length ns in
  let changed = ref true in
  let rounds = ref 0 in
  while !changed && !rounds <= nv + 1 do
    changed := false;
    incr rounds;
    List.iter
      (fun (n : Graph.node) ->
        List.iter
          (fun (e : Graph.edge) ->
            let w = edge_lat e - (ii * e.e_dist) in
            let cand = Hashtbl.find d e.e_src + w in
            if cand > Hashtbl.find d e.e_dst then (
              Hashtbl.replace d e.e_dst cand;
              changed := true))
          (Graph.succs g n.n_id))
      ns
  done;
  fun id -> Hashtbl.find d id

(* A cycle has positive weight at ii iff sum(lat) - ii * sum(dist) > 0.
   Scan ii upward from 1; detect positive cycles with Bellman-Ford over
   -weights (negative cycle detection). Loop recurrences are short, so the
   scan terminates quickly; the upper bound is sum of all latencies. *)
let has_positive_cycle g ~ii ~edge_lat =
  let dist = Hashtbl.create 32 in
  let ns = Graph.nodes g in
  List.iter (fun (n : Graph.node) -> Hashtbl.replace dist n.n_id 0) ns;
  let nv = List.length ns in
  let relax () =
    let changed = ref false in
    List.iter
      (fun (n : Graph.node) ->
        List.iter
          (fun (e : Graph.edge) ->
            let w = edge_lat e - (ii * e.e_dist) in
            let cand = Hashtbl.find dist n.n_id + w in
            if cand > Hashtbl.find dist e.e_dst then (
              Hashtbl.replace dist e.e_dst cand;
              changed := true))
          (Graph.succs g n.n_id))
      ns;
    !changed
  in
  let changed = ref true in
  let i = ref 0 in
  while !changed && !i < nv do
    changed := relax ();
    incr i
  done;
  (* If still relaxable after |V| rounds, a positive cycle exists. *)
  !changed && relax ()

let rec_mii g ~edge_lat =
  let ub =
    1 + List.fold_left (fun acc e -> acc + max 1 (edge_lat e)) 0 (Graph.edges g)
  in
  let rec go ii =
    if ii >= ub then ub
    else if has_positive_cycle g ~ii ~edge_lat then go (ii + 1)
    else ii
  in
  go 1
