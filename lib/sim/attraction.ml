module M = Vliw_arch.Machine
module C = Vliw_coherence.Coherence
module Codec = Vliw_util.Codec

(* Way [w] of set [s] is index [s * assoc + w] of every per-way array,
   and its bytes are [data] from [(s * assoc + w) * sb]. *)
type t = {
  machine : M.t;
  sets : int;
  assoc : int;
  tag : int array;  (* the subblock held *)
  base : int array;  (* first byte address covered *)
  state : C.state array;  (* protocol state; [I] = invalid way *)
  sync : int array;
  written : bool array;  (* a store freshened this copy since install *)
  sb : int;  (* bytes per way: a subblock *)
  data : Bytes.t;
  (* LRU as monotonic touch stamps: larger = more recently used; seeded
     descending by way index to match a most-recent-first [0; 1; ...]
     ordering for untouched sets *)
  stamp : int array;
  mutable clock : int;
}

let create machine =
  match machine.M.attraction with
  | None -> invalid_arg "Attraction.create: machine has no attraction buffers"
  | Some a ->
    let sets = a.M.ab_entries / a.M.ab_assoc and assoc = a.M.ab_assoc in
    let n = sets * assoc and sb = M.subblock_bytes machine in
    (* every way invalid with zeroed data: an invalid way's bytes are
       observable (see [encode_state]) *)
    {
      machine;
      sets;
      assoc;
      tag = Array.make n (-1);
      base = Array.make n 0;
      state = Array.make n C.I;
      sync = Array.make n (-1);
      written = Array.make n false;
      sb;
      data = Bytes.make (n * sb) '\000';
      stamp = Array.init n (fun i -> -(i mod assoc));
      clock = 1;
    }

(* the first way of [subblock]'s set *)
let set_base t subblock = (subblock mod t.sets) * t.assoc

(* the way holding a valid copy of [subblock], or -1 *)
let find_way t subblock =
  let base = set_base t subblock in
  let r = ref (-1) in
  let w = ref base in
  while !r < 0 && !w < base + t.assoc do
    if t.state.(!w) <> C.I && t.tag.(!w) = subblock then r := !w;
    incr w
  done;
  !r

let bump t w =
  t.stamp.(w) <- t.clock;
  t.clock <- t.clock + 1

(* Map a byte address to its position in [data], inside way [w]'s packed
   bytes: a subblock's addresses are interleave-spaced in memory, packed
   densely in the way. [-1] when the access leaves its interleave chunk —
   an access wider than the interleave factor straddles clusters (jpegdec
   / mpeg2dec in Table 1) and must bypass the buffered copy. *)
let offset_in_way t w addr size =
  let i = t.machine.M.interleave_bytes in
  let stride = i * t.machine.M.clusters in
  let delta = addr - t.base.(w) in
  if delta < 0 then -1
  else
    let chunk = delta / stride and within = delta mod stride in
    let off = (chunk * i) + within in
    if within + size <= i && off + size <= t.sb then (w * t.sb) + off
    else -1

let read t ~subblock ~addr ~size =
  let w = find_way t subblock in
  if w < 0 then None
  else begin
    bump t w;
    let off = offset_in_way t w addr size in
    if off < 0 then None
    else begin
      let v = ref 0L in
      for k = size - 1 downto 0 do
        v :=
          Int64.logor (Int64.shift_left !v 8)
            (Int64.of_int (Char.code (Bytes.get t.data (off + k))))
      done;
      Some !v
    end
  end

let write_if_present t ~subblock ~addr ~size value ~sync =
  let w = find_way t subblock in
  if w < 0 then false
  else begin
    let off = offset_in_way t w addr size in
    if off < 0 then false
    else begin
      for k = 0 to size - 1 do
        Bytes.set t.data (off + k)
          (Char.chr
             (Int64.to_int
                (Int64.logand (Int64.shift_right_logical value (8 * k)) 0xFFL)))
      done;
      t.sync.(w) <- max t.sync.(w) sync;
      t.written.(w) <- true;
      true
    end
  end

let invalidate t ~subblock =
  let w = find_way t subblock in
  if w < 0 then `Absent
  else begin
    t.state.(w) <- C.I;
    let r = if t.written.(w) then `Written else `Clean in
    t.written.(w) <- false;
    r
  end

let install t ~subblock ~(addrs : int array) ~mem ~sync =
  let sbase = set_base t subblock in
  let w =
    let w = find_way t subblock in
    if w >= 0 then w
    else begin
      (* prefer an invalid way, otherwise evict least recently used *)
      let free = ref (-1) in
      let w = ref sbase in
      while !free < 0 && !w < sbase + t.assoc do
        if t.state.(!w) = C.I then free := !w;
        incr w
      done;
      if !free >= 0 then !free
      else begin
        let victim = ref sbase in
        for w = sbase + 1 to sbase + t.assoc - 1 do
          if t.stamp.(w) < t.stamp.(!victim) then victim := w
        done;
        !victim
      end
    end
  in
  let evicted =
    if t.state.(w) <> C.I && t.tag.(w) <> subblock then
      Some (t.tag.(w), t.state.(w))
    else None
  in
  (* a refill keeps the line's state; a new line lands in S *)
  if t.tag.(w) <> subblock || t.state.(w) = C.I then t.state.(w) <- C.S;
  t.tag.(w) <- subblock;
  t.base.(w) <- addrs.(0);
  t.sync.(w) <- sync;
  t.written.(w) <- false;
  let i = t.machine.M.interleave_bytes in
  (* a scaled machine's block can extend past the kernel's memory image;
     bytes beyond it are unaddressable, so copying the in-image prefix of
     each chunk covers every access the way can legally serve *)
  let mlen = Bytes.length mem in
  for chunk = 0 to Array.length addrs - 1 do
    let len = min i (mlen - addrs.(chunk)) in
    if len > 0 then
      Bytes.blit mem addrs.(chunk) t.data ((w * t.sb) + (chunk * i)) len
  done;
  bump t w;
  evicted

let sync_seq t ~subblock =
  let w = find_way t subblock in
  if w < 0 then None else Some t.sync.(w)

let line_state t ~subblock =
  let w = find_way t subblock in
  if w < 0 then C.I else t.state.(w)

let set_line_state t ~subblock state =
  let w = find_way t subblock in
  if w < 0 || state = C.I then
    invalid_arg "Attraction.set_line_state: no valid line to move";
  t.state.(w) <- state

let state_code = function C.I -> 0 | C.S -> 1 | C.E -> 2 | C.M_ -> 3

(* Canonical serialization for model-checking state keys. Ways are
   encoded in index order (install prefers the first invalid way by
   index, so positions are observable), with each way's LRU stamp reduced
   to its rank within the set, the count of more recent ways (absolute
   stamp/clock values are not observable; stamps within a set are
   pairwise distinct, so ranks are too).
   A way's data is included even when it is invalid: [install] reuses
   the buffer and only blits the in-image prefix of each chunk, so stale
   bytes of a previous occupant can survive into a live way and — because
   {!read} does not bounds-check against the image — be served to a load.
   Including them over-distinguishes harmlessly; excluding them could
   merge states with different observable futures. *)
let encode_state t c =
  for w = 0 to Array.length t.tag - 1 do
    let base = w - (w mod t.assoc) in
    let rank = ref 0 in
    for v = base to base + t.assoc - 1 do
      if t.stamp.(v) > t.stamp.(w) then incr rank
    done;
    Codec.int c t.tag.(w);
    Codec.int c t.base.(w);
    Codec.int c t.sync.(w);
    Codec.bool c t.written.(w);
    Codec.byte c (state_code t.state.(w));
    Codec.int c !rank;
    Codec.sub_bytes c t.data (w * t.sb) t.sb
  done

let flush t =
  let n = Array.fold_left (fun n s -> if s = C.I then n else n + 1) 0 t.state in
  Array.fill t.state 0 (Array.length t.state) C.I;
  n

(* ----- checkpoints: a copy of every per-way array, the bytes and the
   clock ----- *)

type snapshot = t

let capture t =
  {
    t with
    tag = Array.copy t.tag;
    base = Array.copy t.base;
    state = Array.copy t.state;
    sync = Array.copy t.sync;
    written = Array.copy t.written;
    data = Bytes.copy t.data;
    stamp = Array.copy t.stamp;
  }

let restore t k =
  let n = Array.length t.tag in
  Array.blit k.tag 0 t.tag 0 n;
  Array.blit k.base 0 t.base 0 n;
  Array.blit k.state 0 t.state 0 n;
  Array.blit k.sync 0 t.sync 0 n;
  Array.blit k.written 0 t.written 0 n;
  Bytes.blit k.data 0 t.data 0 (Bytes.length t.data);
  Array.blit k.stamp 0 t.stamp 0 n;
  t.clock <- k.clock
