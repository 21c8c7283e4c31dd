module M = Vliw_arch.Machine
module C = Vliw_coherence.Coherence
module Codec = Vliw_util.Codec

type entry = {
  mutable subblock : int;
  mutable data : Bytes.t;
  mutable base : int;  (** first byte address covered *)
  mutable state : C.state;  (** protocol state; [I] = invalid way *)
  mutable sync : int;
  mutable written : bool;  (** a store freshened this copy since install *)
}

type t = {
  machine : M.t;
  sets : int;
  assoc : int;
  entries : entry array array;
  (* LRU as monotonic touch stamps per (set, way): larger = more recently
     used; seeded descending by way index to match a most-recent-first
     [0; 1; ...] ordering for untouched sets *)
  stamp : int array;
  mutable clock : int;
}

let create machine =
  match machine.M.attraction with
  | None -> invalid_arg "Attraction.create: machine has no attraction buffers"
  | Some a ->
    let sets = a.M.ab_entries / a.M.ab_assoc and assoc = a.M.ab_assoc in
    let sb = M.subblock_bytes machine in
    (* every way invalid with zeroed data: an invalid way's bytes are
       observable (see [encode_state]) *)
    {
      machine;
      sets;
      assoc;
      entries =
        Array.init sets (fun _ ->
            Array.init assoc (fun _ ->
                { subblock = -1; data = Bytes.make sb '\000'; base = 0;
                  state = C.I; sync = -1; written = false }));
      stamp = Array.init (sets * assoc) (fun i -> -(i mod assoc));
      clock = 1;
    }

let set_of t subblock = subblock mod t.sets

(* way index of a valid entry holding [subblock], or -1 *)
let find_way t subblock =
  let s = set_of t subblock in
  let row = t.entries.(s) in
  let r = ref (-1) in
  let w = ref 0 in
  while !r < 0 && !w < t.assoc do
    let e = row.(!w) in
    if e.state <> C.I && e.subblock = subblock then r := !w;
    incr w
  done;
  !r

let bump t set way =
  t.stamp.((set * t.assoc) + way) <- t.clock;
  t.clock <- t.clock + 1

let lookup t ~subblock =
  let w = find_way t subblock in
  if w >= 0 then (
    bump t (set_of t subblock) w;
    true)
  else false

(* Map a byte address to its offset inside the entry's packed data: a
   subblock's addresses are interleave-spaced in memory, packed densely in
   the entry. [-1] when the access leaves its interleave chunk — an
   access wider than the interleave factor straddles clusters (jpegdec /
   mpeg2dec in Table 1) and must bypass the buffered copy. *)
let offset_in_entry t e addr size =
  let i = t.machine.M.interleave_bytes in
  let stride = i * t.machine.M.clusters in
  let delta = addr - e.base in
  if delta < 0 then -1
  else
    let chunk = delta / stride and within = delta mod stride in
    let off = (chunk * i) + within in
    if within + size <= i && off + size <= Bytes.length e.data then off else -1

let read t ~subblock ~addr ~size =
  let w = find_way t subblock in
  if w < 0 then None
  else begin
    let s = set_of t subblock in
    let e = t.entries.(s).(w) in
    bump t s w;
    let off = offset_in_entry t e addr size in
    if off < 0 then None
    else begin
      let v = ref 0L in
      for k = size - 1 downto 0 do
        v :=
          Int64.logor (Int64.shift_left !v 8)
            (Int64.of_int (Char.code (Bytes.get e.data (off + k))))
      done;
      Some !v
    end
  end

let write_if_present t ~subblock ~addr ~size value ~sync =
  let w = find_way t subblock in
  if w < 0 then false
  else begin
    let e = t.entries.(set_of t subblock).(w) in
    let off = offset_in_entry t e addr size in
    if off < 0 then false
    else begin
      for k = 0 to size - 1 do
        Bytes.set e.data (off + k)
          (Char.chr
             (Int64.to_int
                (Int64.logand (Int64.shift_right_logical value (8 * k)) 0xFFL)))
      done;
      e.sync <- max e.sync sync;
      e.written <- true;
      true
    end
  end

let invalidate t ~subblock =
  let w = find_way t subblock in
  if w < 0 then `Absent
  else begin
    let e = t.entries.(set_of t subblock).(w) in
    e.state <- C.I;
    let r = if e.written then `Written else `Clean in
    e.written <- false;
    r
  end

let install t ~subblock ~(addrs : int array) ~mem ~sync =
  let base = addrs.(0) in
  let s = set_of t subblock in
  let row = t.entries.(s) in
  let way =
    let w = find_way t subblock in
    if w >= 0 then w
    else begin
      (* prefer an invalid way, otherwise evict least recently used *)
      let free = ref (-1) in
      let w = ref 0 in
      while !free < 0 && !w < t.assoc do
        if row.(!w).state = C.I then free := !w;
        incr w
      done;
      if !free >= 0 then !free
      else begin
        let victim = ref 0 in
        let sbase = s * t.assoc in
        for w = 1 to t.assoc - 1 do
          if t.stamp.(sbase + w) < t.stamp.(sbase + !victim) then victim := w
        done;
        !victim
      end
    end
  in
  let e = row.(way) in
  let evicted =
    if e.state <> C.I && e.subblock <> subblock then Some (e.subblock, e.state)
    else None
  in
  (* a refill keeps the line's state; a new line lands in S *)
  if e.subblock <> subblock || e.state = C.I then e.state <- C.S;
  e.subblock <- subblock;
  e.base <- base;
  e.sync <- sync;
  e.written <- false;
  let i = t.machine.M.interleave_bytes in
  (* a scaled machine's block can extend past the kernel's memory image;
     bytes beyond it are unaddressable, so copying the in-image prefix of
     each chunk covers every access the entry can legally serve *)
  let mlen = Bytes.length mem in
  for chunk = 0 to Array.length addrs - 1 do
    let len = min i (mlen - addrs.(chunk)) in
    if len > 0 then Bytes.blit mem addrs.(chunk) e.data (chunk * i) len
  done;
  bump t s way;
  evicted

let sync_seq t ~subblock =
  let w = find_way t subblock in
  if w < 0 then None else Some t.entries.(set_of t subblock).(w).sync

let line_state t ~subblock =
  let w = find_way t subblock in
  if w < 0 then C.I else t.entries.(set_of t subblock).(w).state

let set_line_state t ~subblock state =
  let w = find_way t subblock in
  if w < 0 || state = C.I then
    invalid_arg "Attraction.set_line_state: no valid line to move";
  t.entries.(set_of t subblock).(w).state <- state

let state_code = function C.I -> 0 | C.S -> 1 | C.E -> 2 | C.M_ -> 3

(* Canonical serialization for model-checking state keys. Entries are
   encoded in way-index order (install prefers the first invalid way by
   index, so positions are observable), with each way's LRU stamp reduced
   to its rank within the set, the count of more recent ways (absolute
   stamp/clock values are not observable; stamps within a set are
   pairwise distinct, so ranks are too).
   Entry data is included even for invalid ways: [install] reuses the
   buffer and only blits the in-image prefix of each chunk, so stale bytes
   of a previous occupant can survive into a live entry and — because
   {!read} does not bounds-check against the image — be served to a load.
   Including them over-distinguishes harmlessly; excluding them could
   merge states with different observable futures. *)
let encode_state t c =
  for s = 0 to t.sets - 1 do
    let base = s * t.assoc in
    for w = 0 to t.assoc - 1 do
      let e = t.entries.(s).(w) in
      let rank = ref 0 in
      for v = base to base + t.assoc - 1 do
        if t.stamp.(v) > t.stamp.(base + w) then incr rank
      done;
      Codec.int c e.subblock;
      Codec.int c e.base;
      Codec.int c e.sync;
      Codec.bool c e.written;
      Codec.byte c (state_code e.state);
      Codec.int c !rank;
      Codec.bytes c e.data
    done
  done

let flush t =
  let n = ref 0 in
  Array.iter
    (fun set ->
      Array.iter
        (fun e ->
          if e.state <> C.I then incr n;
          e.state <- C.I)
        set)
    t.entries;
  !n

(* ----- checkpoints: every way's fields and bytes, the stamps and the
   clock ----- *)

type snapshot = {
  k_subblock : int array;
  k_base : int array;
  k_state : C.state array;
  k_sync : int array;
  k_written : bool array;
  k_data : Bytes.t;
  k_stamp : int array;
  k_clock : int;
}

let ways t = t.sets * t.assoc
let entry t i = t.entries.(i / t.assoc).(i mod t.assoc)

let capture t =
  let n = ways t and sb = Bytes.length t.entries.(0).(0).data in
  let data = Bytes.create (n * sb) in
  for i = 0 to n - 1 do
    Bytes.blit (entry t i).data 0 data (i * sb) sb
  done;
  {
    k_subblock = Array.init n (fun i -> (entry t i).subblock);
    k_base = Array.init n (fun i -> (entry t i).base);
    k_state = Array.init n (fun i -> (entry t i).state);
    k_sync = Array.init n (fun i -> (entry t i).sync);
    k_written = Array.init n (fun i -> (entry t i).written);
    k_data = data;
    k_stamp = Array.copy t.stamp;
    k_clock = t.clock;
  }

let restore t k =
  let sb = Bytes.length t.entries.(0).(0).data in
  for i = 0 to ways t - 1 do
    let e = entry t i in
    e.subblock <- k.k_subblock.(i);
    e.base <- k.k_base.(i);
    e.state <- k.k_state.(i);
    e.sync <- k.k_sync.(i);
    e.written <- k.k_written.(i);
    Bytes.blit k.k_data (i * sb) e.data 0 sb
  done;
  Array.blit k.k_stamp 0 t.stamp 0 (ways t);
  t.clock <- k.k_clock
