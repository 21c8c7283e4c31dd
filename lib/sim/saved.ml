type 'a t = Uniform of 'a | Copy of 'a array

let capture eq a =
  let n = Array.length a in
  if n = 0 then Copy [||]
  else begin
    let i = ref 1 in
    while !i < n && eq a.(!i) a.(0) do
      incr i
    done;
    if !i = n then Uniform a.(0) else Copy (Array.copy a)
  end

let ints a = capture Int.equal a
let int64s a = capture Int64.equal a
let bools a = capture Bool.equal a

let restore s a =
  match s with
  | Uniform v -> Array.fill a 0 (Array.length a) v
  | Copy c -> Array.blit c 0 a 0 (Array.length a)
