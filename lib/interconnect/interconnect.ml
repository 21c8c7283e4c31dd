(* The interconnect's two backends, driven by the simulator's memory
   system ([Vliw_sim.Memsys]) alone. All arbitration decisions, PRNG draws
   and delivery orderings happen here, so the wheel and reference engines
   agree bit-for-bit by construction. *)

module M = Vliw_arch.Machine
module Codec = Vliw_util.Codec

type source_order = Global_fifo | Per_link_fifo | Unordered

type guarantees = {
  g_interconnect : M.interconnect;
  g_source_order : source_order;
  g_order_under_jitter : bool;
  g_min_remote_latency : int;
}

let hop_latency (m : M.t) = max 1 m.M.mem_buses.M.bus_latency

let guarantees (m : M.t) =
  match m.M.interconnect with
  | M.Shared_bus ->
    {
      g_interconnect = M.Shared_bus;
      g_source_order = Global_fifo;
      (* every grant draws its own transfer latency, so under jitter a
         later grant can arrive before an earlier one *)
      g_order_under_jitter = false;
      g_min_remote_latency = m.M.mem_buses.M.bus_latency;
    }
  | M.Directory ->
    {
      g_interconnect = M.Directory;
      g_source_order = Per_link_fifo;
      (* links are non-overtaking channels: a delayed packet delays its
         followers instead of being passed by them *)
      g_order_under_jitter = true;
      g_min_remote_latency = hop_latency m;
    }

(* ------------------------------------------------------------------ *)
(* Bus: pool of memory buses draining one global FIFO queue.          *)
(*                                                                    *)
(* Grants scan buses in index order, the queue head is popped when a  *)
(* bus is free, and the jitter draw happens once per grant after the  *)
(* pop. The queue is a growable ring over plain int arrays (the       *)
(* payloads are the memory system's int leg keys), so the simulation  *)
(* hot path allocates nothing.                                        *)
(* ------------------------------------------------------------------ *)

module Bus = struct
  type t = {
    latency : int;
    bus_free : int array;
    mutable cap : int;
    mutable head : int;
    mutable len : int;
    mutable q_req : int array;
    mutable q_txn : int array;
    mutable q_payload : int array;
    mutable txn_counter : int;
  }

  let create ~buses ~latency =
    let cap = 256 in
    {
      latency;
      bus_free = Array.make buses 0;
      cap;
      head = 0;
      len = 0;
      q_req = Array.make cap 0;
      q_txn = Array.make cap 0;
      q_payload = Array.make cap 0;
      txn_counter = 0;
    }

  let grow t =
    let cap' = t.cap * 2 in
    let regrow_int r =
      let a = Array.make cap' 0 in
      for i = 0 to t.len - 1 do
        a.(i) <- r.((t.head + i) mod t.cap)
      done;
      a
    in
    t.q_req <- regrow_int t.q_req;
    t.q_txn <- regrow_int t.q_txn;
    t.q_payload <- regrow_int t.q_payload;
    t.head <- 0;
    t.cap <- cap'

  let request t ~now payload =
    let txn = t.txn_counter in
    t.txn_counter <- txn + 1;
    if t.len >= t.cap then grow t;
    let i = (t.head + t.len) mod t.cap in
    t.len <- t.len + 1;
    t.q_req.(i) <- now;
    t.q_txn.(i) <- txn;
    t.q_payload.(i) <- payload;
    txn

  let pending t = t.len > 0

  (* [dispatch]'s grant condition, read before it runs: a queued request
     and a free bus *)
  let draws t ~now = t.len > 0 && Array.exists (fun f -> f <= now) t.bus_free

  (* Canonical serialization for model-checking state keys: per-bus busy
     horizons relativized to [now] (all past values behave identically —
     [dispatch] only compares them against [now]) plus the queued payloads
     in FIFO order. Transaction ids and request stamps are excluded: they
     only feed the [Bus_grant] trace fields, never arbitration. *)
  let encode_state t ~now c =
    Array.iter (fun f -> Codec.int c (max 0 (f - now))) t.bus_free;
    Codec.int c t.len;
    for i = 0 to t.len - 1 do
      Codec.int c t.q_payload.((t.head + i) mod t.cap)
    done

  let dispatch t ~now ~jit ~grant =
    let nbuses = Array.length t.bus_free in
    for b = 0 to nbuses - 1 do
      if t.bus_free.(b) <= now && t.len > 0 then begin
        let h = t.head in
        t.head <- (h + 1) mod t.cap;
        t.len <- t.len - 1;
        let lat = t.latency + jit () in
        t.bus_free.(b) <- now + lat;
        grant ~txn:t.q_txn.(h) ~bus:b
          ~wait:(now - t.q_req.(h))
          ~lat ~arrival:(now + lat) t.q_payload.(h)
      end
    done

  (* checkpoints: the busy horizons, the queue in FIFO order (three ints
     per entry) and the next transaction id *)
  type snapshot = { k_bus_free : int array; k_queue : int array; k_txn : int }

  let capture t =
    let q = Array.make (3 * t.len) 0 in
    for i = 0 to t.len - 1 do
      let j = (t.head + i) mod t.cap in
      q.(3 * i) <- t.q_req.(j);
      q.((3 * i) + 1) <- t.q_txn.(j);
      q.((3 * i) + 2) <- t.q_payload.(j)
    done;
    { k_bus_free = Array.copy t.bus_free; k_queue = q; k_txn = t.txn_counter }

  let restore t k =
    let n = Array.length k.k_queue / 3 in
    t.head <- 0;
    t.len <- 0;
    while t.cap < n do
      grow t
    done;
    for i = 0 to n - 1 do
      t.q_req.(i) <- k.k_queue.(3 * i);
      t.q_txn.(i) <- k.k_queue.((3 * i) + 1);
      t.q_payload.(i) <- k.k_queue.((3 * i) + 2)
    done;
    t.len <- n;
    Array.blit k.k_bus_free 0 t.bus_free 0 (Array.length t.bus_free);
    t.txn_counter <- k.k_txn
end

(* ------------------------------------------------------------------ *)
(* Directory: packet-switched bidirectional ring + distributed        *)
(* directory sharded by home cluster.                                 *)
(*                                                                    *)
(* Routing: shortest path around the ring, ties broken clockwise; the *)
(* direction is fixed at injection. Each directed link serializes     *)
(* entry (one departure per cycle) and is a FIFO channel: a packet's  *)
(* arrival is clamped to after its link predecessor's arrival, so     *)
(* jitter cannot reorder same-link traffic.                           *)
(*                                                                    *)
(* The directory bank at each home cluster tracks, per subblock, the  *)
(* present-bit mask of clusters it believes hold an Attraction-Buffer *)
(* replica. A store at the home clears every other sharer's bit and   *)
(* enqueues an invalidate to each; a sharer invalidating a            *)
(* locally-written replica answers with a writeback acknowledgement.  *)
(* The mask is the directory's own lagging belief, not a view of the  *)
(* buffers: a copy whose invalidate is in flight has no bit, and a    *)
(* fill confirmed before that invalidate lands keeps a bit for a copy *)
(* the invalidate then kills.                                         *)
(* ------------------------------------------------------------------ *)

module Directory = struct
  type delivery =
    | Leg of { leg : int; key : int }
    | Invalidate of { subblock : int; home : int }
    | Writeback_ack of { subblock : int; from : int }

  type stats = {
    d_lookups : int;
    d_invalidates : int;
    d_writebacks : int;
    d_hops : int;
  }

  (* A packet's scheduled entry is its arrival at [p_at] (deliver) when
     [p_at = p_dst], a departure attempt from [p_at] otherwise. *)
  type packet = {
    p_txn : int;
    p_payload : delivery;
    p_dst : int;
    p_dir : int; (* +1 clockwise / -1 counter-clockwise *)
    p_at : int; (* current node *)
  }

  module Int_map = Map.Make (Int)

  type t = {
    clusters : int;
    hop_latency : int;
    (* directed link u->u+1 has id 2u, link u->u-1 has id 2u+1 *)
    link_free : int array; (* next cycle the link entry accepts a packet *)
    link_last : int array; (* arrival time of the link's last traversal *)
    (* the calendar: (cycle, packets newest first) in ascending cycle
       order. Every [schedule] targets a cycle after [now], so [step] and
       [draws] find the current cycle at the head. *)
    mutable due : (int * packet list) list;
    mutable sharers : int Int_map.t; (* subblock -> nonzero mask *)
    mutable txn_counter : int;
    mutable lookups : int;
    mutable invalidates : int;
    mutable writebacks : int;
    mutable hops : int;
  }

  let create ~clusters ~hop_latency =
    {
      clusters;
      hop_latency;
      link_free = Array.make (2 * clusters) 0;
      link_last = Array.make (2 * clusters) 0;
      due = [];
      sharers = Int_map.empty;
      txn_counter = 0;
      lookups = 0;
      invalidates = 0;
      writebacks = 0;
      hops = 0;
    }

  let pending t = t.due <> []

  let schedule t cycle p =
    let rec insert = function
      | (c, l) :: rest when c = cycle -> (c, p :: l) :: rest
      | ((c, _) as b) :: rest when c < cycle -> b :: insert rest
      | later -> (cycle, [ p ]) :: later
    in
    t.due <- insert t.due

  (* Shortest way around the ring; ties go clockwise. *)
  let direction t ~src ~dst =
    let n = t.clusters in
    let cw = (dst - src + n) mod n in
    if cw <= n - cw then 1 else -1

  (* Injection takes effect next cycle: [step] for the current cycle may
     already have run when the memory system injects (module service and
     issue happen after the network phase), so a same-cycle calendar entry
     would never be stepped. *)
  let inject t ~now ~src ~dst payload =
    let txn = t.txn_counter in
    t.txn_counter <- txn + 1;
    schedule t (now + 1)
      {
        p_txn = txn;
        p_payload = payload;
        p_dst = dst;
        p_dir = direction t ~src ~dst;
        p_at = src;
      };
    txn

  let send t ~now ~src ~dst ~leg key = inject t ~now ~src ~dst (Leg { leg; key })

  let mask t subblock =
    Option.value (Int_map.find_opt subblock t.sharers) ~default:0

  let set_mask t subblock m =
    t.sharers <-
      (if m = 0 then Int_map.remove subblock t.sharers
       else Int_map.add subblock m t.sharers)

  let lookup t ~subblock =
    t.lookups <- t.lookups + 1;
    mask t subblock

  let store_apply t ~now ~home ~subblock ~requester =
    let m = mask t subblock in
    let keep = if requester >= 0 then 1 lsl requester else 0 in
    let sharers = m land lnot keep in
    set_mask t subblock (m land keep);
    let sent = ref 0 in
    for c = 0 to t.clusters - 1 do
      if sharers land (1 lsl c) <> 0 then begin
        ignore (inject t ~now ~src:home ~dst:c (Invalidate { subblock; home }));
        incr sent
      end
    done;
    t.invalidates <- t.invalidates + !sent;
    !sent

  let confirm_install t ~cluster ~subblock =
    set_mask t subblock (mask t subblock lor (1 lsl cluster))

  let drop_replica t ~cluster ~subblock =
    set_mask t subblock (mask t subblock land lnot (1 lsl cluster))

  let writeback t ~now ~src ~home ~subblock =
    ignore (inject t ~now ~src ~dst:home (Writeback_ack { subblock; from = src }))

  let link_of p = (2 * p.p_at) + if p.p_dir > 0 then 0 else 1

  (* [step]'s departure condition, read before it runs: a packet due now
     that is not at its destination and whose link is open. Deliveries
     earlier in the same step move no link horizon, so the first such
     packet of each open link departs and draws. *)
  let draws t ~now =
    match t.due with
    | (c, l) :: _ when c = now ->
      List.exists
        (fun p -> p.p_at <> p.p_dst && t.link_free.(link_of p) <= now)
        l
    | _ -> false

  (* Canonical serialization for model-checking state keys. Link horizons
     are relativized to [now]: [link_free <= now] means "open" and
     [link_last <= now] cannot clamp an arrival (hop latency is >= 1), so
     both collapse to 0. The calendar is emitted in its ascending-cycle
     order, packets within a cycle in processing (injection) order, each
     with a bool that is true when its entry is an arrival: [p_at] and
     [p_dst] already say so, but the bool keeps keys byte-identical to
     test/key_digests.txt, as does writing a leg's number where requests
     and responses had their tags (0 and 1). Transaction ids are
     trace-only and excluded.
     The sharer map holds no empty mask, so it is emitted as it stands,
     in subblock order. The traffic counters are included because they
     surface in the final run stats. *)
  let encode_state t ~now c =
    Array.iter (fun f -> Codec.int c (max 0 (f - now))) t.link_free;
    Array.iter (fun f -> Codec.int c (max 0 (f - now))) t.link_last;
    let delivery = function
      | Leg { leg; key } ->
        Codec.byte c leg;
        Codec.int c key
      | Invalidate { subblock; home } ->
        Codec.byte c 2;
        Codec.int c subblock;
        Codec.int c home
      | Writeback_ack { subblock; from } ->
        Codec.byte c 3;
        Codec.int c subblock;
        Codec.int c from
    in
    (* oldest first: the tail, then the head *)
    let rec packets = function
      | [] -> ()
      | p :: older ->
        packets older;
        Codec.int c p.p_dst;
        Codec.int c p.p_dir;
        Codec.int c p.p_at;
        Codec.bool c (p.p_at = p.p_dst);
        delivery p.p_payload
    in
    Codec.int c (List.length t.due);
    List.iter
      (fun (cy, l) ->
        Codec.int c (cy - now);
        Codec.int c (List.length l);
        packets l)
      t.due;
    Codec.int c (Int_map.cardinal t.sharers);
    Int_map.iter
      (fun sb m ->
        Codec.int c sb;
        Codec.int c m)
      t.sharers;
    Codec.int c t.lookups;
    Codec.int c t.invalidates;
    Codec.int c t.writebacks;
    Codec.int c t.hops

  let step t ~now ~jit ~emit_hop ~deliver =
    match t.due with
    | (c, l) :: later when c = now ->
      t.due <- later;
      List.iter
        (fun p ->
          if p.p_at = p.p_dst then begin
            (match p.p_payload with
            | Writeback_ack _ -> t.writebacks <- t.writebacks + 1
            | _ -> ());
            deliver ~dst:p.p_dst ~txn:p.p_txn p.p_payload
          end
          else begin
            (* departure attempt from p_at in direction p_dir *)
            let u = p.p_at in
            let link = link_of p in
            let free = t.link_free.(link) in
            if free > now then
              (* link entry busy this cycle: retry when it opens *)
              schedule t free p
            else begin
              t.link_free.(link) <- now + 1;
              let v = (u + p.p_dir + t.clusters) mod t.clusters in
              let lat = t.hop_latency + jit () in
              (* FIFO channel: never overtake the link predecessor *)
              let arrival = max (now + lat) (t.link_last.(link) + 1) in
              t.link_last.(link) <- arrival;
              t.hops <- t.hops + 1;
              emit_hop ~txn:p.p_txn ~src:u ~dst:v;
              schedule t arrival { p with p_at = v }
            end
          end)
        (List.rev l)
    | _ -> ()

  let stats t =
    {
      d_lookups = t.lookups;
      d_invalidates = t.invalidates;
      d_writebacks = t.writebacks;
      d_hops = t.hops;
    }

  (* checkpoints: copies of the two link arrays; the calendar, its
     packets and the sharer map are immutable, so the snapshot shares
     them, as it does the counters *)
  type snapshot = t

  let capture t =
    {
      t with
      link_free = Array.copy t.link_free;
      link_last = Array.copy t.link_last;
    }

  let restore t k =
    Array.blit k.link_free 0 t.link_free 0 (Array.length t.link_free);
    Array.blit k.link_last 0 t.link_last 0 (Array.length t.link_last);
    t.due <- k.due;
    t.sharers <- k.sharers;
    t.txn_counter <- k.txn_counter;
    t.lookups <- k.lookups;
    t.invalidates <- k.invalidates;
    t.writebacks <- k.writebacks;
    t.hops <- k.hops
end
