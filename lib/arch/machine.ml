type fu_kind = Int_fu | Fp_fu | Mem_fu

type bus = { bus_count : int; bus_latency : int }

type cache = {
  total_bytes : int;
  block_bytes : int;
  assoc : int;
  hit_latency : int;
}

type attraction = { ab_entries : int; ab_assoc : int }

type interconnect = Shared_bus | Directory

type protocol = Install_flush | Msi | Mesi

type t = {
  clusters : int;
  fus_per_cluster : (fu_kind * int) list;
  issue_width : int;
  cache : cache;
  interleave_bytes : int;
  reg_buses : bus;
  mem_buses : bus;
  l2_ports : int;
  l2_latency : int;
  attraction : attraction option;
  interconnect : interconnect;
  protocol : protocol;
}

let interconnect_name = function Shared_bus -> "bus" | Directory -> "directory"

let interconnect_of_string = function
  | "bus" | "shared-bus" -> Some Shared_bus
  | "directory" | "dir" -> Some Directory
  | _ -> None

let protocol_name = function
  | Install_flush -> "install-flush"
  | Msi -> "msi"
  | Mesi -> "mesi"

let protocol_of_string = function
  | "install-flush" | "installflush" | "none" -> Some Install_flush
  | "msi" -> Some Msi
  | "mesi" -> Some Mesi
  | _ -> None

let supported_clusters = [ 4; 8; 16; 32 ]

let table2 =
  {
    clusters = 4;
    fus_per_cluster = [ (Fp_fu, 1); (Int_fu, 1); (Mem_fu, 1) ];
    issue_width = 4;
    cache =
      { total_bytes = 8 * 1024; block_bytes = 32; assoc = 2; hit_latency = 1 };
    interleave_bytes = 4;
    reg_buses = { bus_count = 4; bus_latency = 2 };
    mem_buses = { bus_count = 4; bus_latency = 2 };
    l2_ports = 4;
    l2_latency = 10;
    attraction = None;
    interconnect = Shared_bus;
    protocol = Install_flush;
  }

let nobal_mem =
  {
    table2 with
    mem_buses = { bus_count = 4; bus_latency = 2 };
    reg_buses = { bus_count = 2; bus_latency = 4 };
  }

let nobal_reg =
  {
    table2 with
    mem_buses = { bus_count = 2; bus_latency = 4 };
    reg_buses = { bus_count = 4; bus_latency = 2 };
  }

let with_interleave t i = { t with interleave_bytes = i }
let with_attraction t a = { t with attraction = a }
let with_interconnect t icn = { t with interconnect = icn }
let with_protocol t p = { t with protocol = p }
let default_attraction = { ab_entries = 16; ab_assoc = 2 }

(* Grow a base configuration to [n] clusters, keeping per-cluster
   resources constant: every cluster still owns a same-sized cache
   module, the block grows so the interleave unit keeps dividing a
   subblock, and shared resources (memory buses, next-level ports) scale
   with the cluster count so per-cluster pressure is comparable across
   scales. *)
let scale_clusters t n =
  if n = t.clusters then t
  else
    let module_bytes = t.cache.total_bytes / t.clusters in
    let block_bytes = max t.cache.block_bytes (t.interleave_bytes * n) in
    {
      t with
      clusters = n;
      cache =
        { t.cache with total_bytes = module_bytes * n; block_bytes };
      mem_buses =
        { t.mem_buses with bus_count = t.mem_buses.bus_count * n / t.clusters };
      reg_buses =
        { t.reg_buses with bus_count = t.reg_buses.bus_count * n / t.clusters };
      l2_ports = t.l2_ports * n / t.clusters;
    }

let home_cluster t ~addr = addr / t.interleave_bytes mod t.clusters
let block_number t ~addr = addr / t.cache.block_bytes
let subblock_bytes t = t.cache.block_bytes / t.clusters

(* A block contributes exactly one subblock to each cluster, so
   (block, home-cluster) identifies a subblock. *)
let subblock_id t ~addr =
  (block_number t ~addr * t.clusters) + home_cluster t ~addr

let module_bytes t = t.cache.total_bytes / t.clusters

let module_sets t =
  module_bytes t / (subblock_bytes t * t.cache.assoc)

let module_set_index t ~addr = block_number t ~addr mod module_sets t

let addrs_of_subblock t ~subblock =
  let blk = subblock / t.clusters and cl = subblock mod t.clusters in
  let base = blk * t.cache.block_bytes in
  let i = t.interleave_bytes in
  List.filter
    (fun a -> home_cluster t ~addr:a = cl)
    (List.init (t.cache.block_bytes / i) (fun k -> base + (k * i)))

type access_class = Local_hit | Remote_hit | Local_miss | Remote_miss | Combined

let access_class_name = function
  | Local_hit -> "local hit"
  | Remote_hit -> "remote hit"
  | Local_miss -> "local miss"
  | Remote_miss -> "remote miss"
  | Combined -> "combined"

(* A remote access pays a request and a response trip on a memory bus; a miss
   additionally pays the (always-hit) next level. *)
let latency t = function
  | Local_hit -> t.cache.hit_latency
  | Remote_hit -> (2 * t.mem_buses.bus_latency) + t.cache.hit_latency
  | Local_miss -> t.cache.hit_latency + t.l2_latency
  | Remote_miss ->
    (2 * t.mem_buses.bus_latency) + t.cache.hit_latency + t.l2_latency
  | Combined -> (2 * t.mem_buses.bus_latency) + t.cache.hit_latency

let all_assumable_latencies t =
  List.sort_uniq compare
    [ latency t Local_hit; latency t Remote_hit; latency t Local_miss;
      latency t Remote_miss ]

let is_pow2 n = n > 0 && n land (n - 1) = 0

let validate t =
  let err fmt = Printf.ksprintf (fun s -> Error s) fmt in
  if t.clusters <= 0 then err "clusters must be positive"
  else if not (is_pow2 t.clusters) then err "clusters must be a power of two"
  else if not (List.mem t.clusters supported_clusters) then
    err "clusters must be one of %s (got %d)"
      (String.concat "/" (List.map string_of_int supported_clusters))
      t.clusters
  else if t.cache.block_bytes mod t.clusters <> 0 then
    err "block size %d not divisible among %d clusters" t.cache.block_bytes
      t.clusters
  else if t.cache.total_bytes mod t.clusters <> 0 then
    err "cache size %d not divisible among %d clusters" t.cache.total_bytes
      t.clusters
  else if t.interleave_bytes <= 0 then err "interleave factor must be positive"
  else if subblock_bytes t mod t.interleave_bytes <> 0 then
    err "subblock size %d not a multiple of interleave factor %d"
      (subblock_bytes t) t.interleave_bytes
  else if module_sets t <= 0 || not (is_pow2 (module_sets t)) then
    err "cache module must have a power-of-two number of sets"
  else if t.reg_buses.bus_count <= 0 || t.mem_buses.bus_count <= 0 then
    err "bus counts must be positive"
  else if List.exists (fun (_, n) -> n <= 0) t.fus_per_cluster then
    err "functional unit counts must be positive"
  else if t.l2_ports <= 0 then err "l2 ports must be positive"
  else if t.protocol = Msi && t.interconnect <> Shared_bus then
    err "protocol msi snoops the shared bus; it requires interconnect bus"
  else if t.protocol = Mesi && t.interconnect <> Directory then
    err
      "protocol mesi routes ownership handoffs through the directory; it \
       requires interconnect directory"
  else
    match t.attraction with
    | Some a when a.ab_entries <= 0 || a.ab_assoc <= 0 ->
      err "attraction buffer geometry must be positive"
    | Some a when a.ab_entries mod a.ab_assoc <> 0 ->
      err "attraction buffer entries must be divisible by associativity"
    | _ -> Ok ()

let of_spec ?(clusters = 4) ?(icn = "bus") ?(protocol = "install-flush") ?membus
    ~name ~interleave ~ab () =
  let ( let* ) = Result.bind in
  let* base =
    match name with
    | "bal" -> Ok table2
    | "nobal-mem" -> Ok nobal_mem
    | "nobal-reg" -> Ok nobal_reg
    | other ->
      Error (Printf.sprintf "unknown machine %S (bal, nobal-mem, nobal-reg)" other)
  in
  let* interconnect =
    match interconnect_of_string icn with
    | Some i -> Ok i
    | None -> Error (Printf.sprintf "unknown interconnect %S (bus, directory)" icn)
  in
  let* protocol =
    match protocol_of_string protocol with
    | Some p -> Ok p
    | None ->
      Error
        (Printf.sprintf "unknown protocol %S (install-flush, msi, mesi)" protocol)
  in
  let t = with_interconnect (scale_clusters base clusters) interconnect in
  let t = if ab then with_attraction t (Some default_attraction) else t in
  let t = with_interleave t interleave in
  let t =
    (* an unchanged count keeps the preset's record, so a machine
       marshals the same whether or not its spelling names the count *)
    match membus with
    | Some n when n <> t.mem_buses.bus_count ->
      { t with mem_buses = { t.mem_buses with bus_count = n } }
    | _ -> t
  in
  let t = with_protocol t protocol in
  match validate t with
  | Ok () -> Ok t
  | Error e -> Error ("invalid machine configuration: " ^ e)

let fu_name = function Int_fu -> "Int" | Fp_fu -> "FP" | Mem_fu -> "Mem"

let describe t =
  let fus =
    String.concat " + "
      (List.map
         (fun (k, n) -> Printf.sprintf "%d %s / cluster" n (fu_name k))
         t.fus_per_cluster)
  in
  [
    ("Number of clusters", string_of_int t.clusters);
    ( "Interconnect",
      match t.interconnect with
      | Shared_bus -> "shared memory buses (snooping-style, global FIFO)"
      | Directory ->
        "packet-switched ring with distributed directory (per-link FIFO)" );
    ("Functional units", fus);
    ( "Cache parameters",
      Printf.sprintf "%dKB total (%d x %dB modules), %dB blocks, %d-way, %d cycle"
        (t.cache.total_bytes / 1024) t.clusters
        (t.cache.total_bytes / t.clusters)
        t.cache.block_bytes t.cache.assoc t.cache.hit_latency );
    ("Interleaving factor", Printf.sprintf "%d bytes" t.interleave_bytes);
    ( "Register buses",
      Printf.sprintf "%d buses, %d-cycle transfer" t.reg_buses.bus_count
        t.reg_buses.bus_latency );
    ( "Memory buses",
      Printf.sprintf "%d buses, %d-cycle transfer" t.mem_buses.bus_count
        t.mem_buses.bus_latency );
    ( "Next memory level",
      Printf.sprintf "%d ports + %d cycle total latency, always hit" t.l2_ports
        t.l2_latency );
    ( "Attraction Buffers",
      match t.attraction with
      | None -> "none"
      | Some a ->
        Printf.sprintf "%d entries, %d-way set-associative" a.ab_entries
          a.ab_assoc );
  ]
  @
  (* only surfaced off the default so install-flush output stays
     byte-identical to the pre-protocol tool *)
  match t.protocol with
  | Install_flush -> []
  | Msi ->
    [ ("Coherence protocol", "MSI snooping on the shared memory buses") ]
  | Mesi ->
    [ ("Coherence protocol", "MESI with Exclusive state over the directory") ]

let pp ppf t =
  List.iter (fun (k, v) -> Format.fprintf ppf "%-22s %s@." k v) (describe t)
