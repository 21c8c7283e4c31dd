type t = { mutable state : int64 }

let golden_gamma = 0x9E3779B97F4A7C15L

let create seed = { state = Int64.of_int seed }
let copy t = { state = t.state }

let mix z =
  let z = Int64.(mul (logxor z (shift_right_logical z 30)) 0xBF58476D1CE4E5B9L) in
  let z = Int64.(mul (logxor z (shift_right_logical z 27)) 0x94D049BB133111EBL) in
  Int64.(logxor z (shift_right_logical z 31))

let next t =
  t.state <- Int64.add t.state golden_gamma;
  mix t.state

let int t bound =
  if bound <= 0 then invalid_arg "Prng.int: bound must be positive";
  (* Rejection-free modulo is fine here: bounds are tiny relative to 2^62. *)
  let r = Int64.to_int (Int64.shift_right_logical (next t) 2) in
  r mod bound

let int_in t lo hi =
  if hi < lo then invalid_arg "Prng.int_in: empty range";
  lo + int t (hi - lo + 1)

let float t bound =
  let r = Int64.to_float (Int64.shift_right_logical (next t) 11) in
  bound *. (r /. 9007199254740992.0 (* 2^53 *))

let bool t = Int64.logand (next t) 1L = 1L

let choice t arr =
  if Array.length arr = 0 then invalid_arg "Prng.choice: empty array";
  arr.(int t (Array.length arr))

let shuffle t arr =
  for i = Array.length arr - 1 downto 1 do
    let j = int t (i + 1) in
    let tmp = arr.(i) in
    arr.(i) <- arr.(j);
    arr.(j) <- tmp
  done

let split t = { state = next t }

(* Pure stream derivation: children are keyed off the parent's *current*
   state without advancing it, so [derive t i] is a function of
   (state, i) alone.  Mixing the key with a second golden-gamma step keeps
   sibling streams (indices i and i+1, or a name and its prefix)
   statistically independent. *)
let derive t i =
  let k = Int64.add (Int64.mul (Int64.of_int i) golden_gamma) 1L in
  { state = mix (Int64.add t.state (mix k)) }

let derive_named t name =
  let h = ref 0L in
  String.iter
    (fun c ->
      h := Int64.add (Int64.mul !h 0x100000001B3L) (Int64.of_int (Char.code c)))
    name;
  { state = mix (Int64.add t.state (mix (Int64.add !h golden_gamma))) }
