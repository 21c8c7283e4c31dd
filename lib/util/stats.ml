let sum = List.fold_left ( +. ) 0.

let mean = function
  | [] -> 0.
  | xs -> sum xs /. float_of_int (List.length xs)

let geomean = function
  | [] -> 0.
  | xs ->
    let n = float_of_int (List.length xs) in
    exp (sum (List.map log xs) /. n)

let stddev xs =
  match xs with
  | [] | [ _ ] -> 0.
  | _ ->
    let m = mean xs in
    let var = mean (List.map (fun x -> (x -. m) ** 2.) xs) in
    sqrt var

let median xs =
  match List.sort compare xs with
  | [] -> 0.
  | sorted -> List.nth sorted ((List.length sorted - 1) / 2)

let minmax = function
  | [] -> invalid_arg "Stats.minmax: empty list"
  | x :: xs ->
    List.fold_left (fun (lo, hi) v -> (min lo v, max hi v)) (x, x) xs

let ratio num den = if den = 0 then 0. else float_of_int num /. float_of_int den
let pct f = f *. 100.
let speedup base x = if x = 0. then 0. else base /. x
