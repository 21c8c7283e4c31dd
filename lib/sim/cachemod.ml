module M = Vliw_arch.Machine
module Dec = Vliw_util.Dec

type t = {
  machine : M.t;
  cluster : int;
  sets : int;
  assoc : int;
  (* ways.(set * assoc + way) = subblock id, -1 when invalid *)
  ways : int array;
  (* LRU as monotonic touch stamps: larger = more recently used. Seeded
     descending by way index so an untouched set evicts from the highest
     way first, exactly like the old most-recent-first list [0; 1; ...]. *)
  stamp : int array;
  mutable clock : int;
}

(* Every way invalid, stamps seeded, clock at 1: the state [create]
   returns *)
let reset t =
  Array.fill t.ways 0 (Array.length t.ways) (-1);
  for s = 0 to t.sets - 1 do
    for w = 0 to t.assoc - 1 do
      t.stamp.((s * t.assoc) + w) <- -w
    done
  done;
  t.clock <- 1

let create machine ~cluster =
  let sets = M.module_sets machine in
  let assoc = machine.M.cache.M.assoc in
  let t =
    {
      machine;
      cluster;
      sets;
      assoc;
      ways = Array.make (sets * assoc) (-1);
      stamp = Array.make (sets * assoc) 0;
      clock = 1;
    }
  in
  reset t;
  t

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
    evicted
  end

(* Canonical serialization for model-checking state keys: only the sets
   holding a valid line, each as its index and then its valid subblocks in
   most-recently-used-first order; a '/' closes the module. Absolute
   stamp/clock values are erased — only the LRU order affects future
   behavior (install fills any invalid way first, otherwise evicts the
   minimum stamp, and a filled way's stamp is always refreshed), so two
   modules with equal encodings are behaviorally identical. Stamps within
   a set are pairwise distinct (seeded descending, bumped from a monotonic
   clock), so the order is unique: it is produced by selecting, [valid]
   times, the largest stamp below the previous pick. *)
let encode_state t buf =
  for s = 0 to t.sets - 1 do
    let base = s * t.assoc in
    let valid = ref 0 in
    for w = base to base + t.assoc - 1 do
      if t.ways.(w) <> -1 then incr valid
    done;
    if !valid > 0 then begin
      Dec.add_int buf s;
      Buffer.add_char buf ':';
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
        Dec.add_int buf t.ways.(!pick);
        Buffer.add_char buf ',';
        below := t.stamp.(!pick)
      done;
      Buffer.add_char buf ';'
    end
  done;
  Buffer.add_char buf '/'

let invalidate_all t = Array.fill t.ways 0 (Array.length t.ways) (-1)

let valid_lines t =
  Array.fold_left (fun a w -> if w = -1 then a else a + 1) 0 t.ways
