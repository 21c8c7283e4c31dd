module M = Vliw_arch.Machine
module G = Vliw_ddg.Graph

type t = { clusters : int; site_hist : int array array }

let of_events ~machine ~nsites events =
  let clusters = machine.M.clusters in
  let site_hist = Array.init nsites (fun _ -> Array.make clusters 0) in
  Array.iter
    (fun (ev : Vliw_ir.Interp.event) ->
      if ev.ev_site < nsites then (
        let h = site_hist.(ev.ev_site) in
        let c = M.home_cluster machine ~addr:ev.ev_addr in
        h.(c) <- h.(c) + 1))
    events;
  { clusters; site_hist }

let run ~machine ~layout kernel =
  let res = Vliw_ir.Interp.run ~layout kernel in
  of_events ~machine ~nsites:(Vliw_ir.Sites.count kernel) res.events

let histogram t s =
  if s < 0 || s >= Array.length t.site_hist then Array.make t.clusters 0
  else t.site_hist.(s)

let preferred t s =
  let h = histogram t s in
  let best = ref 0 in
  Array.iteri (fun c v -> if v > h.(!best) then best := c) h;
  !best

let node_pref t g id =
  match (G.node g id).n_op with
  | G.Load mr | G.Store mr -> Some (histogram t mr.G.mr_site)
  | G.Arith _ | G.Fake -> None

let locality t =
  let total = Array.make t.clusters 0 in
  Array.iter
    (fun h -> Array.iteri (fun c v -> total.(c) <- total.(c) + v) h)
    t.site_hist;
  total

let predictability t =
  let pref_hits = ref 0 and total = ref 0 in
  Array.iter
    (fun h ->
      let best = Array.fold_left max 0 h in
      let sum = Array.fold_left ( + ) 0 h in
      pref_hits := !pref_hits + best;
      total := !total + sum)
    t.site_hist;
  if !total = 0 then 0. else float_of_int !pref_hits /. float_of_int !total

let best_padding ~machine ?max_pad kernel =
  let block = machine.M.cache.M.block_bytes in
  let max_pad = Option.value max_pad ~default:block in
  let step = machine.M.interleave_bytes in
  let best = ref 0 and best_score = ref neg_infinity in
  let pad = ref 0 in
  while !pad <= max_pad do
    let layout = Vliw_ir.Layout.make ~pad:!pad kernel in
    let p = run ~machine ~layout kernel in
    let score = predictability p in
    if score > !best_score +. 1e-12 then (
      best := !pad;
      best_score := score);
    pad := !pad + step
  done;
  (!best, !best_score)
