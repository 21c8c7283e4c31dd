(* Sharded response cache with in-flight request coalescing and bounded
   per-shard LRU eviction.

   Values are keyed by the request fingerprint (Protocol.key). A lookup
   either finds a completed value, joins an in-flight computation (its
   waiter fires when the computing caller fills the entry), or claims the
   key for computation. Claims can be aborted (backpressure rejected the
   task), which hands any joined waiters back to the caller so they can
   be told to retry. Each shard has its own lock; the shard index doubles
   as the service's placement hint, so repeated kernels contend on the
   same shard only with themselves — and land on the worker whose caches
   are warm.

   Capacity: each shard holds at most [cap] completed entries; filling
   past the cap evicts the least-recently-used Ready entry (a hit
   refreshes recency). In-flight claims are never evicted — they are
   owned by a running compile that will fill or abort them — and do not
   count against the cap. Recency is a per-shard monotonic tick stamped
   on hit and fill; eviction is a linear scan for the minimum stamp,
   bounded by the cap itself. *)

type 'v entry =
  | In_flight of ('v option -> unit) list
      (* joined waiters, most recent first; [fill] delivers [Some v] in
         arrival order, [abort] delivers [None] *)
  | Ready of { v : 'v; mutable stamp : int }

type 'v shard = {
  lock : Mutex.t;
  tbl : (string, 'v entry) Hashtbl.t;
  mutable tick : int;
  mutable ready : int;  (* Ready entries, the population the cap bounds *)
  mutable hits : int;
  mutable coalesced : int;
  mutable misses : int;
  mutable contended : int;
  mutable evicted : int;
}

type 'v t = { shards : 'v shard array; mask : int; cap : int }

let create ?(shards = 16) ?(max_entries = 0) () =
  let n =
    let rec pow2 p = if p >= shards then p else pow2 (p * 2) in
    pow2 1
  in
  {
    shards =
      Array.init n (fun _ ->
          {
            lock = Mutex.create ();
            tbl = Hashtbl.create 64;
            tick = 0;
            ready = 0;
            hits = 0;
            coalesced = 0;
            misses = 0;
            contended = 0;
            evicted = 0;
          });
    mask = n - 1;
    (* a total bound distributed over shards (rounded up, so the sum may
       slightly exceed [max_entries]); 0 = unbounded *)
    cap = (if max_entries <= 0 then 0 else (max_entries + n - 1) / n);
  }

let shard_count t = Array.length t.shards
let capacity t = if t.cap = 0 then 0 else t.cap * Array.length t.shards
let shard_of_key t key = Hashtbl.hash key land t.mask

let with_shard sh f =
  let waited = not (Mutex.try_lock sh.lock) in
  if waited then Mutex.lock sh.lock;
  Fun.protect
    ~finally:(fun () -> Mutex.unlock sh.lock)
    (fun () ->
      if waited then sh.contended <- sh.contended + 1;
      f ())

let touch sh =
  sh.tick <- sh.tick + 1;
  sh.tick

(* evict least-recently-stamped Ready entries until the shard is back at
   its cap; In_flight claims are invisible to the scan *)
let enforce_cap t sh =
  if t.cap > 0 then
    while sh.ready > t.cap do
      let victim =
        Hashtbl.fold
          (fun key e acc ->
            match (e, acc) with
            | In_flight _, _ -> acc
            | Ready r, Some (_, best) when best <= r.stamp -> acc
            | Ready r, _ -> Some (key, r.stamp))
          sh.tbl None
      in
      match victim with
      | Some (key, _) ->
        Hashtbl.remove sh.tbl key;
        sh.ready <- sh.ready - 1;
        sh.evicted <- sh.evicted + 1
      | None -> sh.ready <- 0 (* unreachable: ready counts Ready entries *)
    done

let lookup t ~key ~waiter =
  let sh = t.shards.(shard_of_key t key) in
  with_shard sh (fun () ->
      match Hashtbl.find_opt sh.tbl key with
      | Some (Ready r) ->
        sh.hits <- sh.hits + 1;
        r.stamp <- touch sh;
        `Ready r.v
      | Some (In_flight ws) ->
        sh.coalesced <- sh.coalesced + 1;
        Hashtbl.replace sh.tbl key (In_flight (waiter :: ws));
        `Joined
      | None ->
        sh.misses <- sh.misses + 1;
        Hashtbl.replace sh.tbl key (In_flight []);
        `Must_compute)

let take_in_flight sh key =
  match Hashtbl.find_opt sh.tbl key with
  | Some (In_flight ws) -> List.rev ws
  | _ -> []

let fill t ~key v =
  let sh = t.shards.(shard_of_key t key) in
  with_shard sh (fun () ->
      let ws = take_in_flight sh key in
      (match Hashtbl.find_opt sh.tbl key with
      | Some (Ready _) -> ()
      | Some (In_flight _) | None -> sh.ready <- sh.ready + 1);
      Hashtbl.replace sh.tbl key (Ready { v; stamp = touch sh });
      enforce_cap t sh;
      ws)

let abort t ~key =
  let sh = t.shards.(shard_of_key t key) in
  with_shard sh (fun () ->
      let ws = take_in_flight sh key in
      (match Hashtbl.find_opt sh.tbl key with
      | Some (In_flight _) -> Hashtbl.remove sh.tbl key
      | _ -> ());
      ws)

type stats = {
  c_hits : int;
  c_coalesced : int;
  c_misses : int;
  c_contended : int;
  c_entries : int;
  c_evictions : int;
}

let stats t =
  Array.fold_left
    (fun acc sh ->
      with_shard sh (fun () ->
          {
            c_hits = acc.c_hits + sh.hits;
            c_coalesced = acc.c_coalesced + sh.coalesced;
            c_misses = acc.c_misses + sh.misses;
            c_contended = acc.c_contended + sh.contended;
            c_entries = acc.c_entries + Hashtbl.length sh.tbl;
            c_evictions = acc.c_evictions + sh.evicted;
          }))
    {
      c_hits = 0;
      c_coalesced = 0;
      c_misses = 0;
      c_contended = 0;
      c_entries = 0;
      c_evictions = 0;
    }
    t.shards
