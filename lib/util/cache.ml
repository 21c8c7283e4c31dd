(* Sharded concurrent memo table with in-flight claims and bounded
   per-shard LRU eviction.

   A lookup either finds a completed value, joins an in-flight
   computation (its waiter fires when the computing caller fills the
   entry), or claims the key for computation. Claims can be aborted (the
   computation raised, or backpressure rejected the task), which hands
   any joined waiters back to the caller. Each shard has its own lock,
   selected by key hash; the shard index doubles as the compile
   service's placement hint.

   Capacity: each shard holds at most [cap] completed entries; filling
   past the cap evicts the least-recently-used Ready entry (a hit
   refreshes recency). In-flight claims are never evicted — they are
   owned by a running computation that will fill or abort them — and do
   not count against the cap. Recency is a per-shard monotonic tick
   stamped on hit and fill; eviction is a linear scan for the minimum
   stamp, bounded by the cap itself. *)

type 'v entry =
  | In_flight of ('v option -> unit) list
      (* joined waiters, most recent first; [fill] delivers [Some v] in
         arrival order, [abort] delivers [None] *)
  | Ready of { v : 'v; mutable stamp : int }

type ('k, 'v) shard = {
  lock : Mutex.t;
  tbl : ('k, 'v entry) Hashtbl.t;
  mutable tick : int;
  mutable ready : int;  (* Ready entries, the population the cap bounds *)
  mutable hits : int;
  mutable coalesced : int;
  mutable misses : int;
  mutable contended : int;
  mutable evicted : int;
}

type ('k, 'v) t = { shards : ('k, 'v) shard array; cap : int }

(* a power of two, comfortably above the domain count of the hosts this
   runs on, so that workers hashing to different shards never contend *)
let shard_count = 16

let create ?(max_entries = 0) () =
  {
    shards =
      Array.init shard_count (fun _ ->
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
    (* a total bound distributed over shards (rounded up, so the sum may
       slightly exceed [max_entries]); 0 = unbounded *)
    cap =
      (if max_entries <= 0 then 0 else (max_entries + shard_count - 1) / shard_count);
  }

let capacity t = t.cap * shard_count
let shard_of_key key = Hashtbl.hash key land (shard_count - 1)

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

(* [join] decides what an in-flight key means to this caller: register a
   waiter and count a coalesced lookup, or count a miss and compute alone *)
let claim t key ~join =
  let sh = t.shards.(shard_of_key key) in
  with_shard sh (fun () ->
      match Hashtbl.find_opt sh.tbl key with
      | Some (Ready r) ->
        sh.hits <- sh.hits + 1;
        r.stamp <- touch sh;
        `Ready r.v
      | Some (In_flight ws) -> join sh ws
      | None ->
        sh.misses <- sh.misses + 1;
        Hashtbl.replace sh.tbl key (In_flight []);
        `Must_compute)

let lookup t ~key ~waiter =
  claim t key ~join:(fun sh ws ->
      sh.coalesced <- sh.coalesced + 1;
      Hashtbl.replace sh.tbl key (In_flight (waiter :: ws));
      `Joined)

let take_in_flight sh key =
  match Hashtbl.find_opt sh.tbl key with
  | Some (In_flight ws) -> List.rev ws
  | _ -> []

let fill t ~key v =
  let sh = t.shards.(shard_of_key key) in
  with_shard sh (fun () ->
      let ws = take_in_flight sh key in
      (match Hashtbl.find_opt sh.tbl key with
      | Some (Ready _) -> ()
      | Some (In_flight _) | None -> sh.ready <- sh.ready + 1);
      Hashtbl.replace sh.tbl key (Ready { v; stamp = touch sh });
      enforce_cap t sh;
      ws)

let abort t ~key =
  let sh = t.shards.(shard_of_key key) in
  with_shard sh (fun () ->
      let ws = take_in_flight sh key in
      (match Hashtbl.find_opt sh.tbl key with
      | Some (In_flight _) -> Hashtbl.remove sh.tbl key
      | _ -> ());
      ws)

(* A joined caller computes its own copy outside every lock instead of
   waiting: two domains racing on a cold key duplicate pure work rather
   than block each other, and both count a miss. *)
let find_or_compute t key compute =
  match
    claim t key ~join:(fun sh _ ->
        sh.misses <- sh.misses + 1;
        `Joined)
  with
  | `Ready v -> v
  | `Joined -> compute ()
  | `Must_compute -> (
    match compute () with
    | v ->
      List.iter (fun w -> w (Some v)) (fill t ~key v);
      v
    | exception e ->
      let bt = Printexc.get_raw_backtrace () in
      List.iter (fun w -> w None) (abort t ~key);
      Printexc.raise_with_backtrace e bt)

let fold f t acc =
  Array.fold_left
    (fun acc sh ->
      with_shard sh (fun () ->
          Hashtbl.fold
            (fun k e acc -> match e with Ready r -> f k r.v acc | In_flight _ -> acc)
            sh.tbl acc))
    acc t.shards

let clear t =
  Array.iter
    (fun sh ->
      with_shard sh (fun () ->
          Hashtbl.reset sh.tbl;
          sh.tick <- 0;
          sh.ready <- 0;
          sh.hits <- 0;
          sh.coalesced <- 0;
          sh.misses <- 0;
          sh.contended <- 0;
          sh.evicted <- 0))
    t.shards

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
