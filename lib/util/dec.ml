(* Digits are produced most significant first from the non-positive copy
   of the value, whose range includes [-max_int - 1], so [min_int] needs
   no special case. [p] is the largest power of ten not above |v|; the
   guard keeps [p * 10] from overflowing. *)
let add_int buf v =
  let n = if v > 0 then -v else v in
  if v < 0 then Buffer.add_char buf '-';
  let p = ref 1 in
  while !p <= max_int / 10 && n / (!p * 10) <> 0 do
    p := !p * 10
  done;
  while !p > 0 do
    Buffer.add_char buf (Char.unsafe_chr (48 - ((n / !p) mod 10)));
    p := !p / 10
  done

(* An int64 outside the 63-bit range has |v| >= 2^62, so [v / 10] fits in
   an [int] and is non-zero: its digits, then the last digit, spell [v]. *)
let add_int64 buf v =
  let i = Int64.to_int v in
  if (Int64.of_int i : int64) = v then add_int buf i
  else begin
    add_int buf (Int64.to_int (Int64.div v 10L));
    Buffer.add_char buf
      (Char.unsafe_chr (48 + abs (Int64.to_int (Int64.rem v 10L))))
  end

let add_bool buf b = Buffer.add_string buf (if b then "true" else "false")
