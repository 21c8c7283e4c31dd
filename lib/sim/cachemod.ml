module M = Vliw_arch.Machine
module Codec = Vliw_util.Codec

type t = {
  machine : M.t;
  cluster : int;
  sets : int;
  assoc : int;
  (* ways.(set * assoc + way) = subblock id, -1 when invalid *)
  ways : int array;
  (* LRU as monotonic touch stamps: larger = more recently used. Seeded
     descending by way index so an untouched set evicts from the highest
     way first, exactly like the old most-recent-first list [0; 1; ...].
     An invalid way's stamp is never read: install fills an invalid way
     before it evicts, and refreshes the stamp of the way it fills. *)
  stamp : int array;
  mutable clock : int;
  (* the sets holding a valid line, ascending in [occ.(0 .. n_occ - 1)],
     and a flag per set. Only [install] fills a set, and only clearing
     the whole module empties one. *)
  occ : int array;
  mutable n_occ : int;
  live : Bytes.t;
}

let create machine ~cluster =
  let sets = M.module_sets machine in
  let assoc = machine.M.cache.M.assoc in
  {
    machine;
    cluster;
    sets;
    assoc;
    ways = Array.make (sets * assoc) (-1);
    stamp = Array.init (sets * assoc) (fun i -> -(i mod assoc));
    clock = 1;
    occ = Array.make sets 0;
    n_occ = 0;
    live = Bytes.make sets '\000';
  }

let set_of t subblock =
  let block = subblock / t.machine.M.clusters in
  block mod t.sets

let cluster_of t subblock = subblock mod t.machine.M.clusters

(* way index within the set, or -1 *)
let find_way t subblock =
  let base = set_of t subblock * t.assoc in
  let r = ref (-1) in
  let w = ref 0 in
  while !r < 0 && !w < t.assoc do
    if t.ways.(base + !w) = subblock then r := !w;
    incr w
  done;
  !r

let present t ~subblock = find_way t subblock >= 0

let bump t set way =
  t.stamp.((set * t.assoc) + way) <- t.clock;
  t.clock <- t.clock + 1

let touch t ~subblock =
  let w = find_way t subblock in
  if w >= 0 then bump t (set_of t subblock) w

(* enter set [s] in the ascending index *)
let occupy t s =
  if Bytes.get t.live s = '\000' then begin
    Bytes.set t.live s '\001';
    let i = ref t.n_occ in
    while !i > 0 && t.occ.(!i - 1) > s do
      t.occ.(!i) <- t.occ.(!i - 1);
      decr i
    done;
    t.occ.(!i) <- s;
    t.n_occ <- t.n_occ + 1
  end

let install t ~subblock =
  if cluster_of t subblock <> t.cluster then
    invalid_arg "Cachemod.install: subblock belongs to another cluster";
  let s = set_of t subblock in
  let base = s * t.assoc in
  let w = find_way t subblock in
  if w >= 0 then (
    bump t s w;
    None)
  else begin
    (* prefer an invalid way, otherwise evict least recently used *)
    let victim_way = ref (-1) in
    let w = ref 0 in
    while !victim_way < 0 && !w < t.assoc do
      if t.ways.(base + !w) = -1 then victim_way := !w;
      incr w
    done;
    if !victim_way < 0 then begin
      victim_way := 0;
      for w = 1 to t.assoc - 1 do
        if t.stamp.(base + w) < t.stamp.(base + !victim_way) then victim_way := w
      done
    end;
    let prev = t.ways.(base + !victim_way) in
    let evicted = if prev = -1 then None else Some prev in
    t.ways.(base + !victim_way) <- subblock;
    bump t s !victim_way;
    occupy t s;
    evicted
  end

let invalidate_all t =
  for i = 0 to t.n_occ - 1 do
    let s = t.occ.(i) in
    Array.fill t.ways (s * t.assoc) t.assoc (-1);
    Bytes.set t.live s '\000'
  done;
  t.n_occ <- 0

(* One set's record for model-checking state keys, nothing when it holds
   no valid line: its index, its valid-line count and its valid subblocks
   in most-recently-used-first order. Absolute stamp/clock values are
   erased — only the LRU order affects future behavior (install fills any
   invalid way first, otherwise evicts the minimum stamp, and a filled
   way's stamp is always refreshed), so two modules with equal records
   are behaviorally identical. Stamps within a set are pairwise distinct
   (seeded descending, bumped from a monotonic clock), so the order is
   unique: it is produced by selecting, [valid] times, the largest stamp
   below the previous pick. *)
let encode_set t c s =
  let base = s * t.assoc in
  let valid = ref 0 in
  for w = base to base + t.assoc - 1 do
    if t.ways.(w) <> -1 then incr valid
  done;
  if !valid > 0 then begin
    Codec.int c s;
    Codec.int c !valid;
    let below = ref max_int in
    for _ = 1 to !valid do
      let pick = ref (-1) in
      for w = base to base + t.assoc - 1 do
        let st = t.stamp.(w) in
        if
          t.ways.(w) <> -1 && st < !below
          && (!pick < 0 || st > t.stamp.(!pick))
        then pick := w
      done;
      Codec.int c t.ways.(!pick);
      below := t.stamp.(!pick)
    done
  end

(* The occupied sets' records in ascending set order, as one section:
   the same bytes a scan of every set would write, at the cost of the
   occupied ones. *)
let encode_state t c =
  let sec = Codec.open_section c in
  for i = 0 to t.n_occ - 1 do
    encode_set t c t.occ.(i)
  done;
  Codec.close_section c sec

(* ----- checkpoints: the occupied sets' ways and stamps, and the clock.
   Restoring clears the sets occupied now and writes the saved ones
   back; the stamps of other sets are never read before they are
   refreshed. ----- *)

type snapshot = {
  k_sets : int array;
  k_ways : int array;
  k_stamp : int array;
  k_clock : int;
}

let capture t =
  let n = t.n_occ and a = t.assoc in
  let ways = Array.make (n * a) (-1) and stamp = Array.make (n * a) 0 in
  for i = 0 to n - 1 do
    let s = t.occ.(i) in
    Array.blit t.ways (s * a) ways (i * a) a;
    Array.blit t.stamp (s * a) stamp (i * a) a
  done;
  { k_sets = Array.sub t.occ 0 n; k_ways = ways; k_stamp = stamp; k_clock = t.clock }

let restore t k =
  invalidate_all t;
  let n = Array.length k.k_sets and a = t.assoc in
  Array.blit k.k_sets 0 t.occ 0 n;
  t.n_occ <- n;
  for i = 0 to n - 1 do
    let s = k.k_sets.(i) in
    Bytes.set t.live s '\001';
    Array.blit k.k_ways (i * a) t.ways (s * a) a;
    Array.blit k.k_stamp (i * a) t.stamp (s * a) a
  done;
  t.clock <- k.k_clock
