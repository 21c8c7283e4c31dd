module G = Vliw_ddg.Graph
module A = Vliw_ddg.Analysis
module M = Vliw_arch.Machine
module C = Vliw_core.Chains

type lat_policy = Cache_sensitive | Fixed_min | Fixed_max

type request = {
  machine : M.t;
  heuristic : Schedule.heuristic;
  constraints : C.constraints;
  pref : int -> int array option;
  lat_policy : lat_policy;
  ordering : Ims.ordering;
  check : G.t -> Schedule.t -> (unit, string) result;
}

(* the II search cap: plenty for loops *)
let max_ii = 512

let request ?(heuristic = Schedule.Min_coms) ?constraints ?(pref = fun _ -> None)
    ?(lat_policy = Cache_sensitive) ?(ordering = Ims.Height)
    ?(check = fun _ _ -> Ok ()) machine =
  let constraints =
    match constraints with Some c -> c | None -> C.no_constraints ()
  in
  { machine; heuristic; constraints; pref; lat_policy; ordering; check }

let ceil_div a b = (a + b - 1) / b

let res_mii machine g req =
  let cap k =
    Option.value (List.assoc_opt k machine.M.fus_per_cluster) ~default:1
  in
  let total = Hashtbl.create 4 in
  let per_cluster = Hashtbl.create 8 in
  List.iter
    (fun (n : G.node) ->
      let k = G.fu_kind n in
      Hashtbl.replace total k (1 + Option.value (Hashtbl.find_opt total k) ~default:0);
      let pin =
        match n.n_replica with
        | Some c -> Some c
        | None -> Hashtbl.find_opt req.constraints.C.pinned n.n_id
      in
      match pin with
      | None -> ()
      | Some c ->
        Hashtbl.replace per_cluster (c, k)
          (1 + Option.value (Hashtbl.find_opt per_cluster (c, k)) ~default:0))
    (G.nodes g);
  let base =
    Hashtbl.fold
      (fun k count acc -> max acc (ceil_div count (cap k * machine.M.clusters)))
      total 1
  in
  Hashtbl.fold
    (fun (_, k) count acc -> max acc (ceil_div count (cap k)))
    per_cluster base

let base_edge_lat machine g (e : G.edge) =
  match e.e_kind with
  | G.SYNC -> 0
  | G.MF | G.MA | G.MO -> 1
  | G.RF ->
    G.op_latency (G.node g e.e_src) ~assumed:(fun _ -> M.latency machine M.Local_hit)

let mii machine g req =
  max (res_mii machine g req)
    (A.rec_mii g ~edge_lat:(base_edge_lat machine g))

(* Ims places a node in its replica instance's cluster, else in its hard
   pin, and a grouped chain's other members all in the cluster its first
   placed member took (the last chain listing a node wins, as in Ims). So
   an RF edge between nodes fixed in two clusters needs a copy (the graph
   holds each (src, dst, kind, dist) edge once, and copies are keyed by
   (src, dst, dist)); and a free node, or a chain's free members
   together, keeps local only its RF edges to nodes fixed in the one
   cluster it lands in, so the rest of its edges to fixed nodes need
   copies too. *)
let forced_copies g req =
  let ns = G.nodes g in
  let nmax = List.fold_left (fun acc (n : G.node) -> max acc (n.n_id + 1)) 0 ns in
  let pinned = req.constraints.C.pinned in
  let fixed = Array.make nmax (-1) in
  List.iter
    (fun (n : G.node) ->
      fixed.(n.n_id) <-
        (match n.n_replica with
        | Some c -> c
        | None -> Option.value (Hashtbl.find_opt pinned n.n_id) ~default:(-1)))
    ns;
  (* the unit a free node lands with: its chain, else itself *)
  let unit_of = Array.init nmax (fun id -> -1 - id) in
  List.iteri
    (fun gi ids ->
      List.iter (fun id -> if id >= 0 && id < nmax then unit_of.(id) <- gi) ids)
    req.constraints.C.grouped;
  let count tbl k = Option.value (Hashtbl.find_opt tbl k) ~default:0 in
  (* (unit, cluster) -> the unit's RF edges to nodes fixed there *)
  let per_cluster = Hashtbl.create 16 in
  let to_fixed id c =
    let k = (unit_of.(id), c) in
    Hashtbl.replace per_cluster k (1 + count per_cluster k)
  in
  let across = ref 0 in
  List.iter
    (fun (n : G.node) ->
      List.iter
        (fun (e : G.edge) ->
          if e.e_kind = G.RF && e.e_src <> e.e_dst then (
            let cs = fixed.(e.e_src) and cd = fixed.(e.e_dst) in
            if cs >= 0 && cd >= 0 then (if cs <> cd then incr across)
            else if cs >= 0 then to_fixed e.e_dst cs
            else if cd >= 0 then to_fixed e.e_src cd))
        (G.succs g n.n_id))
    ns;
  (* a unit keeps local at most its largest count *)
  let kept = Hashtbl.create 16 in
  Hashtbl.iter (fun (u, _) n -> Hashtbl.replace kept u (max n (count kept u))) per_cluster;
  let sum tbl = Hashtbl.fold (fun _ n acc -> acc + n) tbl 0 in
  !across + sum per_cluster - sum kept

(* A copy holds one register bus for [bus_latency] consecutive slots of
   the II-slot ring, and Mrt books a bus slot once: a bus holds [II /
   bus_latency] copies, and one when the window covers the whole ring. *)
let bus_mii machine g req =
  let { M.bus_count; bus_latency } = machine.M.reg_buses in
  let forced = forced_copies g req in
  if bus_latency <= 0 || forced <= bus_count then 1
  else if bus_count <= 0 then max_int
  else ceil_div forced bus_count * bus_latency

let best_permutation weight =
  let n = Array.length weight in
  let score perm =
    let acc = ref 0 in
    for cl = 0 to n - 1 do
      acc := !acc + weight.(cl).(perm.(cl))
    done;
    !acc
  in
  let identity = Array.init n Fun.id in
  let best = ref identity and best_score = ref (score identity) in
  (if n <= 8 then begin
     (* exhaustive n! search: exact, and cheap up to 8! = 40320. Depth
        [cl] picks perm.(cl) in ascending order, so leaves come in
        lexicographic order and the first strict improvement wins ties.
        [bound.(cl)] sums the row maxima of rows [cl..n-1]: a subtree
        whose partial score plus that cannot strictly beat the best holds
        no leaf that would replace it, so it is skipped. *)
     let bound = Array.make (n + 1) 0 in
     for cl = n - 1 downto 0 do
       bound.(cl) <- bound.(cl + 1) + Array.fold_left max min_int weight.(cl)
     done;
     let perm = Array.make n 0 and used = Array.make n false in
     let rec dfs cl sc =
       if sc + bound.(cl) > !best_score then
         if cl = n then (
           best := Array.copy perm;
           best_score := sc)
         else
           for ph = 0 to n - 1 do
             if not used.(ph) then (
               used.(ph) <- true;
               perm.(cl) <- ph;
               dfs (cl + 1) (sc + weight.(cl).(ph));
               used.(ph) <- false)
           done
     in
     dfs 0 0
   end
   else begin
     (* scaled machines: n! is unusable at 16+, so solve the linear
        assignment greedily — highest-weight (cl, phys) pair first, ties
        broken by index for determinism. Approximate where the small-n
        search was exact, which only costs MinComs some locality, never
        correctness: any permutation yields a valid schedule. *)
     let pairs = ref [] in
     for cl = 0 to n - 1 do
       for ph = 0 to n - 1 do
         pairs := (weight.(cl).(ph), cl, ph) :: !pairs
       done
     done;
     let sorted =
       List.sort
         (fun (wa, ca, pa) (wb, cb, pb) -> compare (-wa, ca, pa) (-wb, cb, pb))
         !pairs
     in
     let perm = Array.make n (-1) in
     let taken = Array.make n false in
     List.iter
       (fun (_, cl, ph) ->
         if perm.(cl) < 0 && not taken.(ph) then begin
           perm.(cl) <- ph;
           taken.(ph) <- true
         end)
       sorted;
     let sc = score perm in
     if sc > !best_score then (
       best := perm;
       best_score := sc)
   end);
  !best

(* MinComs post-pass: permute clusters to maximise profiled local
   accesses. *)
let postpass req g ~mems (s : Schedule.t) =
  let n = req.machine.M.clusters in
  (* weight.(cl).(phys): profiled local-access score of mapping virtual
     cluster [cl] onto physical cluster [phys]; any permutation's score is
     the sum of its n picks, so the search only needs this matrix *)
  let weight = Array.make_matrix n n 0 in
  List.iter
    (fun ((nd : G.node), _) ->
      match (Hashtbl.find_opt s.place nd.n_id, req.pref nd.n_id) with
      | Some (_, cl), Some h when Array.length h = n ->
        for phys = 0 to n - 1 do
          weight.(cl).(phys) <- weight.(cl).(phys) + h.(phys)
        done
      | _ -> ())
    mems;
  let perm = best_permutation weight in
  if perm = Array.init n Fun.id then s
  else (
    let place' = Hashtbl.create (Hashtbl.length s.place) in
    Hashtbl.iter (fun id (t, c) -> Hashtbl.replace place' id (t, perm.(c))) s.place;
    (* keep replica pin labels consistent with the permuted placement *)
    List.iter
      (fun (nd : G.node) ->
        match nd.n_replica with
        | Some c -> G.set_replica g nd.n_id (Some perm.(c))
        | None -> ())
      (G.nodes g);
    {
      s with
      place = place';
      copies =
        List.map
          (fun (cp : Schedule.copy) ->
            { cp with cp_from = perm.(cp.cp_from); cp_to = perm.(cp.cp_to) })
          s.copies;
    })

(* [pref] read once per memory node of [mems]: Ims asks it on every pick
   of a memory node under PrefClus, where each call would repeat the
   lookup and allocate its answer again *)
let tabulate pref mems =
  let nmax =
    List.fold_left (fun acc ((nd : G.node), _) -> max acc (nd.n_id + 1)) 0 mems
  in
  let tab = Array.make nmax None and is_mem = Array.make nmax false in
  List.iter
    (fun ((nd : G.node), _) ->
      tab.(nd.n_id) <- pref nd.n_id;
      is_mem.(nd.n_id) <- true)
    mems;
  fun id -> if id < nmax && is_mem.(id) then tab.(id) else pref id

let run req g =
  let mems = G.mem_refs g in
  let req = { req with pref = tabulate req.pref mems } in
  let machine = req.machine in
  let pinned = req.constraints.C.pinned and grouped = req.constraints.C.grouped in
  let ctx assumed =
    {
      Ims.machine;
      heuristic = req.heuristic;
      ordering = req.ordering;
      pinned;
      grouped;
      pref = req.pref;
      assumed;
    }
  in
  (* one view and one staged validator for every attempt: [g] does not
     change until the post-pass *)
  let view = Ims.view g in
  let valid =
    let check = Schedule.validator g ~pinned ~grouped in
    fun s -> Result.is_ok (check s)
  in
  (* Phase 1: find the II. Cache-sensitive and Fixed_min start from
     local-hit latencies; Fixed_max assumes remote misses from the start
     (longer recurrences may force a larger II — the trade-off of
     Section 2.2). *)
  let assumed = Hashtbl.create 16 in
  (if req.lat_policy = Fixed_max then
     let l = M.latency machine M.Remote_miss in
     List.iter
       (fun ((nd : G.node), _) -> Hashtbl.replace assumed nd.n_id l)
       mems);
  (* no attempt below [bus_mii] can hold the copies the pins force *)
  let start = max (mii machine g req) (bus_mii machine g req) in
  let rec search ii =
    if ii > max_ii then Error (Printf.sprintf "no schedule up to II=%d" max_ii)
    else
      match Ims.attempt_view (ctx assumed) view ~ii with
      | Some s when valid s -> Ok s
      | _ -> search (ii + 1)
  in
  match search start with
  | Error _ as e -> e
  | Ok s0 ->
    let ii0 = s0.Schedule.ii in
    (* Phase 2: cache-sensitive latency assignment at fixed II. *)
    let best = ref s0 in
    let candidates =
      List.sort_uniq (fun a b -> compare b a) (M.all_assumable_latencies machine)
      |> List.filter (fun l -> l > M.latency machine M.Local_hit)
    in
    if req.lat_policy = Cache_sensitive then
      List.iter
        (fun ((nd : G.node), _) ->
          (* Ims reads a node's latency only through RF edges out of it,
             and [assumed] now reads as it did for the attempt that built
             [!best]. So for a node that sources no RF edge (every store)
             the attempt would rebuild [!best], placement for placement,
             under the raised latency; take that result without it. It
             needs no validation either: validation reads the latency
             through the same RF edges, and [!best] passed it. *)
          let attempt =
            if List.exists (fun (e : G.edge) -> e.e_kind = G.RF) (G.succs g nd.n_id)
            then fun () ->
              match Ims.attempt_view (ctx assumed) view ~ii:ii0 with
              | Some s when valid s -> Some s
              | _ -> None
            else fun () -> Some { !best with assumed = Hashtbl.copy assumed }
          in
          let rec try_cands = function
            | [] -> ()
            | lat :: rest -> (
              Hashtbl.replace assumed nd.n_id lat;
              match attempt () with
              | Some s -> best := s
              | None ->
                Hashtbl.remove assumed nd.n_id;
                try_cands rest)
          in
          try_cands candidates)
        mems;
    (* Phase 3: MinComs virtual->physical mapping. *)
    let s =
      if req.heuristic = Schedule.Min_coms then postpass req g ~mems !best else !best
    in
    (* the post-pass may have relabelled replica pins in [g], which
       [valid]'s staged node list predates, so this check stages afresh *)
    if Result.is_error (Schedule.validate g ~pinned ~grouped s) then
      (* the permuted schedule re-validates by construction; failure here is
         a bug worth surfacing loudly *)
      Error "internal: post-pass produced an invalid schedule"
    else
      (* post-schedule acceptance check (e.g. the static coherence verifier,
         injected by callers above this library in the dependency order) *)
      match req.check g s with
      | Ok () -> Ok s
      | Error e -> Error ("rejected by post-schedule check: " ^ e)

let run_exn req g =
  match run req g with Ok s -> s | Error e -> failwith ("Driver.run: " ^ e)
