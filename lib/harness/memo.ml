module M = Vliw_arch.Machine
module W = Vliw_workloads.Workloads
module Lower = Vliw_lower.Lower
module Profile = Vliw_profile.Profile
module Ir = Vliw_ir
module Cache = Vliw_util.Cache

type stages = {
  kernel_prof : Ir.Ast.kernel;
  kernel_exec : Ir.Ast.kernel;
  layout : Ir.Layout.t;
  prof : Profile.t;
  lowered : Lower.t;
  oracle : Ir.Interp.result;
}

let fingerprint (m : M.t) =
  Digest.to_hex (Digest.string (Marshal.to_string m []))

let parse_tbl : (string * string * int, Ir.Ast.kernel) Cache.t = Cache.create ()

let stage_tbl : (string * string * int * int * M.t, stages) Cache.t =
  Cache.create ()

let parse ~(bench : W.benchmark) ~seed (loop : W.loop) =
  Cache.find_or_compute parse_tbl (bench.W.b_name, loop.W.l_name, seed) (fun () ->
      W.parse_loop loop ~seed)

let build ~machine ~kernel_prof ~kernel_exec =
  let layout = Ir.Layout.make kernel_exec in
  {
    kernel_prof;
    kernel_exec;
    layout;
    prof =
      Profile.run ~machine ~layout:(Ir.Layout.make kernel_prof) kernel_prof;
    lowered = Lower.lower kernel_exec;
    oracle = Ir.Interp.run ~layout kernel_exec;
  }

let stages ~machine ~(bench : W.benchmark) (loop : W.loop) =
  let key =
    ( bench.W.b_name,
      loop.W.l_name,
      bench.W.b_profile_seed,
      bench.W.b_exec_seed,
      machine )
  in
  Cache.find_or_compute stage_tbl key (fun () ->
      build ~machine
        ~kernel_prof:(parse ~bench ~seed:bench.W.b_profile_seed loop)
        ~kernel_exec:(parse ~bench ~seed:bench.W.b_exec_seed loop))

let parse_stats () = Cache.stats parse_tbl
let stage_stats () = Cache.stats stage_tbl

type counters = { hits : int; misses : int }

let counters () =
  let p = parse_stats () and s = stage_stats () in
  {
    hits = p.Cache.c_hits + s.Cache.c_hits;
    misses = p.Cache.c_misses + s.Cache.c_misses;
  }

let hit_rate () =
  let { hits = h; misses = m } = counters () in
  if h + m = 0 then 0. else float_of_int h /. float_of_int (h + m)

let clear () =
  Cache.clear parse_tbl;
  Cache.clear stage_tbl
