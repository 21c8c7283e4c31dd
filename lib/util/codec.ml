type t = { mutable buf : Bytes.t; mutable pos : int }

let create n = { buf = Bytes.create (max 16 n); pos = 0 }
let clear t = t.pos <- 0
let contents t = Bytes.sub_string t.buf 0 t.pos

let reserve t n =
  if t.pos + n > Bytes.length t.buf then begin
    let cap = ref (2 * Bytes.length t.buf) in
    while t.pos + n > !cap do
      cap := 2 * !cap
    done;
    let b = Bytes.create !cap in
    Bytes.blit t.buf 0 b 0 t.pos;
    t.buf <- b
  end

(* Unsigned LEB128 of [z] read as a 63-bit unsigned pattern (at most 9
   bytes); the caller has reserved the room. *)
let put_varint t z =
  let b = t.buf in
  let pos = ref t.pos and z = ref z in
  while !z land lnot 0x7f <> 0 do
    Bytes.unsafe_set b !pos (Char.unsafe_chr (!z land 0x7f lor 0x80));
    incr pos;
    z := !z lsr 7
  done;
  Bytes.unsafe_set b !pos (Char.unsafe_chr !z);
  t.pos <- !pos + 1

(* zigzag: 0, -1, 1, -2, ... map to 0, 1, 2, 3, ... so small magnitudes of
   either sign take one byte *)
let int t v =
  reserve t 9;
  put_varint t ((v lsl 1) lxor (v asr 62))

(* The 64-bit zigzag value as unsigned LEB128: its low 56 bits are eight
   7-bit groups, the top 8 bits at most two more bytes. *)
let int64 t v =
  reserve t 10;
  let z = Int64.logxor (Int64.shift_left v 1) (Int64.shift_right v 63) in
  let lo = Int64.to_int (Int64.logand z 0xFF_FFFF_FFFF_FFFFL)
  and hi = Int64.to_int (Int64.shift_right_logical z 56) in
  if hi = 0 then put_varint t lo
  else begin
    let b = t.buf in
    let lo = ref lo in
    for i = 0 to 7 do
      Bytes.unsafe_set b (t.pos + i) (Char.unsafe_chr (!lo land 0x7f lor 0x80));
      lo := !lo lsr 7
    done;
    t.pos <- t.pos + 8;
    put_varint t hi
  end

let byte t v =
  reserve t 1;
  Bytes.unsafe_set t.buf t.pos (Char.unsafe_chr (v land 0xff));
  t.pos <- t.pos + 1

let bool t v = byte t (if v then 1 else 0)

(* A count or header: plain LEB128, as it is never negative. *)
let nat t n =
  reserve t 9;
  put_varint t n

(* An array is its length, then groups covering it in order. A group's
   header is [count lsl 1 lor kind]: kind 0, [count] elements follow;
   kind 1, one element follows, standing for [count] equal ones. Every
   run of [run_min] or more equal elements is one kind-1 group, and the
   elements between two runs one kind-0 group, so an array has exactly
   one encoding, and a run costs its value however long it is. *)
let run_min = 3

let literal_ints t a lo hi =
  if hi > lo then begin
    nat t ((hi - lo) lsl 1);
    reserve t (9 * (hi - lo));
    for k = lo to hi - 1 do
      let v = Array.unsafe_get a k in
      put_varint t ((v lsl 1) lxor (v asr 62))
    done
  end

let ints t a =
  let n = Array.length a in
  nat t n;
  let lit = ref 0 and i = ref 0 in
  while !i < n do
    let v = Array.unsafe_get a !i in
    let j = ref (!i + 1) in
    while !j < n && Array.unsafe_get a !j = v do
      incr j
    done;
    if !j - !i >= run_min then begin
      literal_ints t a !lit !i;
      nat t (((!j - !i) lsl 1) lor 1);
      int t v;
      lit := !j
    end;
    i := !j
  done;
  literal_ints t a !lit n

let literal_int64s t a lo hi =
  if hi > lo then begin
    nat t ((hi - lo) lsl 1);
    for k = lo to hi - 1 do
      int64 t (Array.unsafe_get a k)
    done
  end

let int64s t a =
  let n = Array.length a in
  nat t n;
  let lit = ref 0 and i = ref 0 in
  while !i < n do
    let v = Array.unsafe_get a !i in
    let j = ref (!i + 1) in
    while !j < n && Int64.equal (Array.unsafe_get a !j) v do
      incr j
    done;
    if !j - !i >= run_min then begin
      literal_int64s t a !lit !i;
      nat t (((!j - !i) lsl 1) lor 1);
      int64 t v;
      lit := !j
    end;
    i := !j
  done;
  literal_int64s t a !lit n

let sub_bytes t s pos n =
  nat t n;
  reserve t n;
  Bytes.blit s pos t.buf t.pos n;
  t.pos <- t.pos + n

let bytes t s = sub_bytes t s 0 (Bytes.length s)

(* A section's length is patched into a fixed four-byte slot when it
   closes, so its writer need not count its records first. *)
type section = int

let open_section t =
  reserve t 4;
  t.pos <- t.pos + 4;
  t.pos

let close_section t start =
  let n = t.pos - start in
  if n > 0x3fff_ffff then invalid_arg "Codec.close_section: section too long";
  Bytes.set_int32_le t.buf (start - 4) (Int32.of_int n)
