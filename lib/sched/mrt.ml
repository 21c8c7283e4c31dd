module M = Vliw_arch.Machine

(* Flat reservation arrays: the table is dense and small (II x clusters x 3
   FU kinds, II x buses), and the scheduler probes it millions of times per
   sweep — tuple-keyed hashtables were the dominant allocation and lookup
   cost of the whole pipeline. *)

type t = {
  ii : int;
  nclusters : int;
  nbuses : int;
  buslat : int;
  cap : int array; (* per FU-kind capacity per cluster *)
  fu : int array; (* (slot * nclusters + cluster) * 3 + kind -> count *)
  bus : int array; (* slot * nbuses + bus -> reservation count *)
  busy : int array; (* slot -> bit b set iff bus b's count there is > 0 *)
  cluster_load : int array;
}

let kindex = function M.Int_fu -> 0 | M.Fp_fu -> 1 | M.Mem_fu -> 2
let kinds = [| M.Int_fu; M.Fp_fu; M.Mem_fu |]

(* one bit per bus in a non-negative int *)
let max_buses = Sys.int_size - 1

let create machine ~ii =
  if ii <= 0 then invalid_arg "Mrt.create: non-positive II";
  let nclusters = machine.M.clusters in
  let nbuses = machine.M.reg_buses.M.bus_count in
  if nbuses > max_buses then
    invalid_arg
      (Printf.sprintf "Mrt.create: %d register buses exceed the %d-bit mask"
         nbuses max_buses);
  {
    ii;
    nclusters;
    nbuses;
    buslat = machine.M.reg_buses.M.bus_latency;
    cap =
      Array.init 3 (fun i ->
          Option.value
            (List.assoc_opt kinds.(i) machine.M.fus_per_cluster)
            ~default:0);
    fu = Array.make (ii * nclusters * 3) 0;
    bus = Array.make (ii * nbuses) 0;
    busy = Array.make ii 0;
    cluster_load = Array.make nclusters 0;
  }

let slot t cycle = ((cycle mod t.ii) + t.ii) mod t.ii
let next_slot t s = if s + 1 = t.ii then 0 else s + 1
let fu_idx t ~slot ~cluster k = ((slot * t.nclusters) + cluster) * 3 + k

let fu_free t ~cycle ~cluster kind =
  let k = kindex kind in
  t.fu.(fu_idx t ~slot:(slot t cycle) ~cluster k) < t.cap.(k)

let bump a i delta =
  let v = a.(i) + delta in
  if v < 0 then invalid_arg "Mrt: released an empty reservation";
  a.(i) <- v

let fu_take t ~cycle ~cluster kind =
  bump t.fu (fu_idx t ~slot:(slot t cycle) ~cluster (kindex kind)) 1;
  bump t.cluster_load cluster 1

let fu_release t ~cycle ~cluster kind =
  bump t.fu (fu_idx t ~slot:(slot t cycle) ~cluster (kindex kind)) (-1);
  bump t.cluster_load cluster (-1)

let fu_load t ~cluster = t.cluster_load.(cluster)

(* The buses free for a transfer starting in slot [s0], as a mask: the
   complement of the busy masks of the [buslat] slots it would hold. *)
let free_from t s0 =
  let mask = ref 0 and s = ref s0 in
  for _ = 1 to t.buslat do
    mask := !mask lor t.busy.(!s);
    s := next_slot t !s
  done;
  lnot !mask land ((1 lsl t.nbuses) - 1)

(* The first start in [lo, last] with a free bus, or [max_int]: the same
   cycle as scanning cycles outer and buses inner, slot by slot. *)
let first_start t ~lo ~last =
  let cycle = ref lo and s0 = ref (slot t lo) in
  while !cycle <= last && free_from t !s0 = 0 do
    incr cycle;
    s0 := next_slot t !s0
  done;
  if !cycle > last then max_int else !cycle

let bus_earliest t ~lo = first_start t ~lo ~last:(lo + t.ii - 1)

let bus_lowest t ~cycle =
  let free = free_from t (slot t cycle) in
  if free = 0 then -1
  else (
    let b = ref 0 in
    while free land (1 lsl !b) = 0 do
      incr b
    done;
    !b)

let bus_find t ~lo ~hi =
  let hi_start = hi - t.buslat + 1 in
  if lo > hi_start then max_int
  else first_start t ~lo ~last:(min hi_start (lo + t.ii - 1))

let bus_update t ~cycle ~bus delta =
  let bit = 1 lsl bus in
  let s = ref (slot t cycle) in
  for _ = 1 to t.buslat do
    let i = (!s * t.nbuses) + bus in
    bump t.bus i delta;
    if t.bus.(i) = 0 then t.busy.(!s) <- t.busy.(!s) land lnot bit
    else t.busy.(!s) <- t.busy.(!s) lor bit;
    s := next_slot t !s
  done

let bus_take t ~cycle ~bus = bus_update t ~cycle ~bus 1
let bus_release t ~cycle ~bus = bus_update t ~cycle ~bus (-1)
