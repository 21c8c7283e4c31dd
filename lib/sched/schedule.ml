module G = Vliw_ddg.Graph
module M = Vliw_arch.Machine

type heuristic = Pref_clus | Min_coms

let heuristics = [ Pref_clus; Min_coms ]
let heuristic_name = function Pref_clus -> "PrefClus" | Min_coms -> "MinComs"

let heuristic_of_name s =
  List.find_opt (fun h -> String.lowercase_ascii (heuristic_name h) = s) heuristics

type technique = Free | Mdc | Ddgt | Hybrid

let techniques = [ Free; Mdc; Ddgt; Hybrid ]

let technique_name = function
  | Free -> "free"
  | Mdc -> "MDC"
  | Ddgt -> "DDGT"
  | Hybrid -> "hybrid"

let technique_of_name s =
  List.find_opt (fun t -> String.lowercase_ascii (technique_name t) = s) techniques

type copy = {
  cp_src : int;
  cp_dst : int;
  cp_dist : int;
  cp_from : int;
  cp_to : int;
  cp_cycle : int;
  cp_bus : int;
}

type t = {
  ii : int;
  machine : M.t;
  place : (int, int * int) Hashtbl.t;
  assumed : (int, int) Hashtbl.t;
  copies : copy list;
  length : int;
}

let place_of t id =
  match Hashtbl.find_opt t.place id with
  | Some p -> p
  | None -> invalid_arg (Printf.sprintf "Schedule: node %d not placed" id)

let cycle_of t id = fst (place_of t id)
let cluster_of t id = snd (place_of t id)

let assumed_of t id =
  match Hashtbl.find_opt t.assumed id with
  | Some l -> l
  | None -> M.latency t.machine M.Local_hit

let stage_count t = max 1 ((t.length + t.ii - 1) / t.ii)
let comm_ops t = List.length t.copies

let edge_latency t g (e : G.edge) =
  match e.e_kind with
  | G.SYNC -> 0
  | G.MF | G.MA | G.MO -> 1
  | G.RF -> G.op_latency (G.node g e.e_src) ~assumed:(assumed_of t)

let find_copy t (e : G.edge) =
  List.find_opt
    (fun c -> c.cp_src = e.e_src && c.cp_dst = e.e_dst && c.cp_dist = e.e_dist)
    t.copies

(* The checks, given [g]'s node and edge lists in sorted order. *)
let check g ~nodes ~edges ~pinned ~grouped t =
  let err fmt = Printf.ksprintf (fun s -> Error s) fmt in
  let m = t.machine in
  let rec first_err = function
    | [] -> Ok ()
    | f :: rest -> ( match f () with Ok () -> first_err rest | e -> e)
  in
  let check_placed () =
    first_err
      (List.map
         (fun (n : G.node) () ->
           match Hashtbl.find_opt t.place n.n_id with
           | None -> err "node %d not placed" n.n_id
           | Some (cy, cl) ->
             if cy < 0 || cy >= t.length then
               err "node %d issue cycle %d outside [0,%d)" n.n_id cy t.length
             else if cl < 0 || cl >= m.M.clusters then
               err "node %d in invalid cluster %d" n.n_id cl
             else Ok ())
         nodes)
  in
  let check_pins () =
    first_err
      (List.map
         (fun (n : G.node) () ->
           match n.n_replica with
           | Some c when Hashtbl.mem t.place n.n_id ->
             let _, cl = place_of t n.n_id in
             if cl <> c then
               err "replica node %d scheduled in cluster %d, pinned to %d"
                 n.n_id cl c
             else Ok ()
           | _ -> Ok ())
         nodes)
  in
  let check_explicit_pins () =
    let bad = ref None in
    Hashtbl.iter
      (fun id c ->
        if !bad = None && Hashtbl.mem t.place id then
          let _, cl = place_of t id in
          if cl <> c then bad := Some (id, cl, c))
      pinned;
    match !bad with
    | Some (id, cl, c) ->
      err "node %d scheduled in cluster %d, constrained to %d" id cl c
    | None -> Ok ()
  in
  let check_groups () =
    first_err
      (List.map
         (fun chain () ->
           match chain with
           | [] -> Ok ()
           | first :: rest ->
             let _, c0 = place_of t first in
             if List.for_all (fun id -> snd (place_of t id) = c0) rest then
               Ok ()
             else err "memory dependent chain %d... split across clusters" first)
         grouped)
  in
  let check_fus () =
    (* capacity per (slot, cluster, fu kind) *)
    let usage = Hashtbl.create 64 in
    List.iter
      (fun (n : G.node) ->
        let cy, cl = place_of t n.n_id in
        let key = (cy mod t.ii, cl, G.fu_kind n) in
        Hashtbl.replace usage key
          (1 + Option.value (Hashtbl.find_opt usage key) ~default:0))
      nodes;
    let cap k =
      Option.value (List.assoc_opt k m.M.fus_per_cluster) ~default:0
    in
    let bad = ref None in
    Hashtbl.iter
      (fun (slot, cl, k) v ->
        if !bad = None && v > cap k then bad := Some (slot, cl, v))
      usage;
    match !bad with
    | Some (slot, cl, v) ->
      err "FU oversubscription: %d ops in slot %d of cluster %d" v slot cl
    | None -> Ok ()
  in
  let check_buses () =
    (* each copy occupies its bus for bus_latency consecutive cycles,
       modulo ii; the first bad copy, in list order, is the error *)
    let usage = Hashtbl.create 64 in
    let rec hold c k =
      if k = m.M.reg_buses.M.bus_latency then Ok ()
      else
        let key = ((c.cp_cycle + k) mod t.ii, c.cp_bus) in
        if Hashtbl.mem usage key then
          err "register bus %d double-booked in slot %d" c.cp_bus (fst key)
        else (
          Hashtbl.replace usage key ();
          hold c (k + 1))
    in
    first_err
      (List.map
         (fun c () ->
           if c.cp_bus < 0 || c.cp_bus >= m.M.reg_buses.M.bus_count then
             err "copy uses invalid bus %d" c.cp_bus
           else hold c 0)
         t.copies)
  in
  let check_edges () =
    let buslat = m.M.reg_buses.M.bus_latency in
    first_err
      (List.map
         (fun (e : G.edge) () ->
           let tsrc, csrc = place_of t e.e_src in
           let tdst, cdst = place_of t e.e_dst in
           let lat = edge_latency t g e in
           let deadline = tdst + (t.ii * e.e_dist) in
           match e.e_kind with
           | G.RF when csrc <> cdst -> (
             match find_copy t e with
             | None ->
               err "cross-cluster RF edge %d->%d has no copy" e.e_src e.e_dst
             | Some c ->
               if c.cp_from <> csrc || c.cp_to <> cdst then
                 err "copy for edge %d->%d connects wrong clusters" e.e_src
                   e.e_dst
               else if c.cp_cycle < tsrc + lat then
                 err "copy for edge %d->%d starts before data ready" e.e_src
                   e.e_dst
               else if c.cp_cycle + buslat > deadline then
                 err "copy for edge %d->%d arrives after consumer issue"
                   e.e_src e.e_dst
               else Ok ())
           | _ ->
             if tsrc + lat > deadline then
               err "edge %d-%s(d=%d)->%d violated: src@%d lat=%d dst@%d ii=%d"
                 e.e_src (G.edge_kind_name e.e_kind) e.e_dist e.e_dst tsrc lat
                 tdst t.ii
             else Ok ())
         edges)
  in
  if t.ii <= 0 then err "non-positive II"
  else
    first_err
      [ check_placed; check_pins; check_explicit_pins; check_groups; check_fus;
        check_buses; check_edges ]

(* Staged: sorting the graph's nodes and edges is the part of a check that
   does not depend on the schedule. *)
let validator g ~pinned ~grouped =
  check g ~nodes:(G.nodes g) ~edges:(G.edges g) ~pinned ~grouped

let validate g ?(pinned = Hashtbl.create 0) ?(grouped = []) t =
  validator g ~pinned ~grouped t

let pp ppf t =
  Format.fprintf ppf "II=%d length=%d stages=%d copies=%d@." t.ii t.length
    (stage_count t) (comm_ops t);
  let by_cycle =
    Hashtbl.fold (fun id (cy, cl) acc -> (cy, cl, id) :: acc) t.place []
    |> List.sort compare
  in
  List.iter
    (fun (cy, cl, id) ->
      Format.fprintf ppf "  cycle %-3d cluster %d : n%d@." cy cl id)
    by_cycle;
  List.iter
    (fun c ->
      Format.fprintf ppf "  copy n%d->n%d cl%d->cl%d @%d bus%d@." c.cp_src
        c.cp_dst c.cp_from c.cp_to c.cp_cycle c.cp_bus)
    t.copies
