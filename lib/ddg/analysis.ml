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

(* The successor edges of every node, flattened in node-id order and then
   [Graph.succs] order. Every relaxation round below visits them in that
   order, reading each edge's [edge_lat] once per call; [test_ddg] checks
   the results against per-node hashtable rounds over the same order. *)
type flat = {
  nv : int;  (** node count *)
  nmax : int;  (** 1 + largest node id: the value arrays' length *)
  edges : Graph.edge array;
  src : int array;
  dst : int array;
  dist : int array;
}

let flatten g =
  let ns = Graph.nodes g in
  let es =
    Array.of_list (List.concat_map (fun (n : Graph.node) -> Graph.succs g n.n_id) ns)
  in
  {
    nv = List.length ns;
    nmax = List.fold_left (fun acc (n : Graph.node) -> max acc (n.n_id + 1)) 0 ns;
    edges = es;
    src = Array.map (fun (e : Graph.edge) -> e.e_src) es;
    dst = Array.map (fun (e : Graph.edge) -> e.e_dst) es;
    dist = Array.map (fun (e : Graph.edge) -> e.e_dist) es;
  }

(* Run [round] until it changes nothing or [rounds] rounds have run;
   [true] iff the last round run still changed a value. *)
let relax_rounds ~rounds round =
  let changed = ref true and i = ref 0 in
  while !changed && !i < rounds do
    changed := round ();
    incr i
  done;
  !changed

(* One round raising [v] along every edge at [ii]: edge [i] raises
   [v.(into.(i))] to [v.(from.(i))] plus its weight [lat.(i) - ii *
   dist]. [from]/[into] are [src]/[dst] for depths and the reverse for
   heights. *)
let relax f lat v ~ii ~from ~into () =
  let changed = ref false in
  for i = 0 to Array.length from - 1 do
    let cand = v.(from.(i)) + lat.(i) - (ii * f.dist.(i)) in
    if cand > v.(into.(i)) then (
      v.(into.(i)) <- cand;
      changed := true)
  done;
  !changed

(* Bellman-Ford longest paths on the reversed graph: height.(v) = max over
   edges v->w of weight(e) + height(w), iterated to fixpoint. Without a
   positive cycle the fixpoint is reached within |V| rounds; with one some
   height grows in every round, so a change in the last round means one
   exists. *)
let heights f ~ii ~edge_lat =
  let lat = Array.map edge_lat f.edges in
  let h = Array.make f.nmax 0 in
  if relax_rounds ~rounds:(f.nv + 2) (relax f lat h ~ii ~from:f.dst ~into:f.src)
  then None
  else Some h

let depths f ~ii ~edge_lat =
  let lat = Array.map edge_lat f.edges in
  let d = Array.make f.nmax 0 in
  ignore (relax_rounds ~rounds:(f.nv + 2) (relax f lat d ~ii ~from:f.src ~into:f.dst));
  d

(* A cycle has positive weight at ii iff sum(lat) - ii * sum(dist) > 0.
   Scan ii upward from 1; detect positive cycles with Bellman-Ford over
   -weights (negative cycle detection): still relaxable after |V| rounds
   means one exists. Loop recurrences are short, so the scan terminates
   quickly; the upper bound is sum of all latencies. *)
let rec_mii g ~edge_lat =
  let f = flatten g in
  let lat = Array.map edge_lat f.edges in
  let ub = 1 + Array.fold_left (fun acc l -> acc + max 1 l) 0 lat in
  let dist = Array.make f.nmax 0 in
  let has_positive_cycle ii =
    Array.fill dist 0 f.nmax 0;
    relax_rounds ~rounds:(f.nv + 1) (relax f lat dist ~ii ~from:f.src ~into:f.dst)
  in
  let rec go ii =
    if ii >= ub then ub else if has_positive_cycle ii then go (ii + 1) else ii
  in
  go 1
