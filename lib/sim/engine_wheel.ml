(* Event-wheel simulator engine: the default hot path behind [Sim.run].

   Both engines run the memory system's rules and the transport through
   [Memsys]; this one stores time and per-instance state without
   allocating on the per-cycle path, and produces bit-identical results
   to [Engine_reference] (same stats, same memory image, same trace
   event stream, same PRNG consumption):

   - the closure calendar (Hashtbl of cycle -> thunk list) becomes an
     indexed event wheel: per-absolute-cycle intrusive lists of
     int-encoded events living in parallel growable arrays;
   - per-instance dynamic state (register ready/value, copy arrival,
     in-flight load phase, pending access address/home/value) moves from
     tuple-keyed Hashtbls into flat arrays indexed [node_id * trip + iter];
   - MSHRs become intrusive FIFO lists threaded through the instance
     arrays (combining allocates nothing);
   - module queues become growable int rings;
   - issue bundles and their RF dependences are precompiled into CSR-style
     int arrays, so the per-cycle blocker scan touches only flat memory;
   - address -> home-cluster / subblock mapping is strength-reduced to
     shifts and masks when the geometry is a power of two, and each static
     memory op's base address / stride are resolved once at setup;
   - the subblock -> member-addresses list is materialised once per
     subblock, making Attraction Buffer installs allocation-free.

   Event insertion order per cycle and the phase order within a cycle
   (events, network, modules, issue) mirror the reference engine exactly,
   and [Memsys] makes every grant, hop and draw for both; see
   test/test_engines.ml for the property test that pins the
   equivalence.

   The engine is built in two steps. [prepare] derives everything that
   depends only on the compiled loop (the tables above, the initial
   memory image), allocates every mutable array once and takes a
   checkpoint of that initial state; [exec] restores it in place and
   runs one simulation under its own draws and trace sink. A checkpoint
   taken at a note can be resumed the same way, from the network phase
   of its cycle: a model checker exploring one schedule thousands of
   times pays for the cycles after each branch, not for a new engine or
   a replay of the prefix. test/test_engines.ml pins every reused and
   every resumed run to a run from cycle 0. *)

module G = Vliw_ddg.Graph
module M = Vliw_arch.Machine
module S = Vliw_sched.Schedule
module L = Vliw_lower.Lower
module Ir = Vliw_ir
module Tr = Vliw_trace.Trace
module Codec = Vliw_util.Codec
open Sim_types

(* ----- node kinds (kindv) ----- *)
let k_absent = 0
let k_arith = 1 (* arith or fake: produces a value after a fixed latency *)
let k_load = 2
let k_store = 3

(* ----- load phases (phase array); 0 = not in flight ----- *)
let ph_none = 0
let ph_on_bus = 1
let ph_at_module = 2
let ph_in_mshr = 3
let ph_resp_bus = 4

(* ----- event kinds ----- *)
let ev_arrive = 0 (* granted leg lands: a = leg (0 req / 1 resp), b = inst, c = txn, d = bus *)
let ev_resp_send = 1 (* remote load data ready at home: b = inst *)
let ev_mshr_fill = 2 (* next-level fill done: b = subblock, c = cluster *)

let ilog2 v =
  let r = ref 0 in
  while 1 lsl !r < v do
    incr r
  done;
  !r

let is_pow2 v = v > 0 && v land (v - 1) = 0

(* The engine's mutable state at a note (or fresh from [prepare]): what a
   resumed run needs to continue from there exactly as the original run
   did. The pending wheel events, the MSHR chains and the module queues
   are kept as their live entries; an instance array holding one value
   throughout is kept as that value ([Saved]). *)
type checkpoint = {
  c_engine : int;  (* the id of the engine that took it *)
  c_now : int;
  c_vnow : int;
  c_stall_load : int;
  c_stall_copy : int;
  c_stall_bus : int;
  c_stall_open : int;
  c_events : int array;
      (* pending events in execution order, six ints each: slot, kind,
         a, b, c, d *)
  c_mshr : int array;
      (* per subblock with waiters: subblock, count, waiters in order *)
  c_modq : int array;  (* per cluster: count, then instances in FIFO order *)
  c_reg_ready_at : int Saved.t;
  c_reg_val : int64 Saved.t;
  c_copy_ready_at : int Saved.t;
  c_phase : int Saved.t;
  c_inst_addr : int Saved.t;
  c_inst_home : int Saved.t;
  c_inst_val : int64 Saved.t;
  c_mem : Memsys.snapshot;
}

(* a prepared engine *)
type t = {
  exec :
    jitter:(Vliw_util.Prng.t * int) option ->
    choices:chooser option ->
    trace:Tr.sink option ->
    stats;
  capture : unit -> checkpoint;
  resume : checkpoint -> choices:chooser option -> stats;
}

let next_id = Atomic.make 0

(* [reusable:false] builds an engine for one run, which needs no
   checkpoint of its initial state *)
let prepare ?(reusable = true) ~lowered ~graph ~schedule ~layout
    ?(mode = Execution) ?(warm = false) () =
  let machine = schedule.S.machine in
  let kernel = lowered.L.kernel in
  let trip = kernel.Ir.Ast.k_trip in
  if trip <= 0 then invalid_arg "Sim.run: non-positive trip";
  let ii = schedule.S.ii in
  let nclusters = machine.M.clusters in
  let hit_lat = machine.M.cache.M.hit_latency in
  let mem_buslat = machine.M.mem_buses.M.bus_latency in
  let reg_buslat = machine.M.reg_buses.M.bus_latency in
  let nbuses = machine.M.mem_buses.M.bus_count in

  (* ----- geometry, strength-reduced ----- *)
  let il = machine.M.interleave_bytes in
  let block_bytes = machine.M.cache.M.block_bytes in
  let geom_pow2 = is_pow2 il && is_pow2 nclusters && is_pow2 block_bytes in
  let il_shift = ilog2 il
  and cl_mask = nclusters - 1
  and bb_shift = ilog2 block_bytes in
  let home_of addr =
    if geom_pow2 then (addr lsr il_shift) land cl_mask
    else addr / il mod nclusters
  in
  let sb_of addr =
    if geom_pow2 then
      ((addr lsr bb_shift) * nclusters) + ((addr lsr il_shift) land cl_mask)
    else (addr / block_bytes * nclusters) + (addr / il mod nclusters)
  in

  (* ----- static tables over the graph ----- *)
  let nodes = G.nodes graph in
  let nslots =
    1 + List.fold_left (fun acc (n : G.node) -> max acc n.n_id) (-1) nodes
  in
  let ninst = nslots * trip in
  let kindv = Array.make nslots k_absent in
  let latv = Array.make nslots 1 in
  let clusterv = Array.make nslots 0 in
  let semv : L.nsem option array = Array.make nslots None in
  let opersv : L.operand_src array array = Array.make nslots [||] in
  (* memory-op statics *)
  let msite = Array.make nslots 0 in
  let mbytes = Array.make nslots 0 in
  let mty = Array.make nslots Ir.Ast.I64 in
  let m_replica = Array.make nslots false in
  let m_affine = Array.make nslots false in
  let m_abase = Array.make nslots 0 in
  let m_ascale = Array.make nslots 0 in
  let m_alen = Array.make nslots 0 in
  let m_idxop : L.operand_src array = Array.make nslots (L.Imm 0L) in
  List.iter
    (fun (n : G.node) ->
      let id = n.n_id in
      clusterv.(id) <- S.cluster_of schedule id;
      let set_mem (mr : G.mem_ref) =
        msite.(id) <- mr.mr_site;
        mbytes.(id) <- mr.mr_bytes;
        mty.(id) <- ty_of_mr mr;
        m_replica.(id) <- n.n_replica <> None;
        (match mr.mr_affine with
        | Some (scale, off) ->
          m_affine.(id) <- true;
          m_abase.(id) <- Ir.Layout.base layout mr.mr_array + off;
          m_ascale.(id) <- scale
        | None ->
          m_affine.(id) <- false;
          m_abase.(id) <- Ir.Layout.base layout mr.mr_array;
          m_alen.(id) <- Ir.Layout.size layout mr.mr_array / mr.mr_bytes;
          m_idxop.(id) <- Hashtbl.find lowered.L.mem_index n.n_orig)
      in
      match n.n_op with
      | G.Arith a ->
        kindv.(id) <- k_arith;
        latv.(id) <- a.latency;
        semv.(id) <- Hashtbl.find_opt lowered.L.sems n.n_orig;
        opersv.(id) <-
          Array.of_list
            (Option.value
               (Hashtbl.find_opt lowered.L.operands n.n_orig)
               ~default:[])
      | G.Fake -> kindv.(id) <- k_arith (* latency 1, no semantics: value 0 *)
      | G.Load mr ->
        kindv.(id) <- k_load;
        set_mem mr
      | G.Store mr ->
        kindv.(id) <- k_store;
        set_mem mr;
        opersv.(id) <-
          Array.of_list
            (Option.value
               (Hashtbl.find_opt lowered.L.operands n.n_orig)
               ~default:[]))
    nodes;

  (* copies: slot per scheduled copy, in list order *)
  let copies = Array.of_list schedule.S.copies in
  let ncopies = Array.length copies in
  let copy_srcv = Array.map (fun (c : S.copy) -> c.cp_src) copies in

  (* RF dependences in CSR form, preserving G.preds order. dep_copy:
     -1 = same-cluster (watch the producer register), -2 = cross-cluster
     with no scheduled copy (permanently blocked, as in the reference),
     >= 0 = index of the scheduled copy to watch. *)
  let find_copy_slot src dst dist =
    let r = ref (-2) in
    (try
       for ci = 0 to ncopies - 1 do
         let c = copies.(ci) in
         if c.S.cp_src = src && c.S.cp_dst = dst && c.S.cp_dist = dist then (
           r := ci;
           raise Exit)
       done
     with Exit -> ());
    !r
  in
  let dep_off = Array.make (nslots + 1) 0 in
  let dep_src, dep_dist, dep_copy =
    let count = ref 0 in
    List.iter
      (fun (n : G.node) ->
        List.iter
          (fun (e : G.edge) -> if e.e_kind = G.RF then incr count)
          (G.preds graph n.n_id))
      nodes;
    let src = Array.make !count 0
    and dst = Array.make !count 0
    and cpy = Array.make !count 0 in
    let pos = ref 0 in
    List.iter
      (fun (n : G.node) ->
        dep_off.(n.n_id) <- !pos;
        List.iter
          (fun (e : G.edge) ->
            if e.e_kind = G.RF then (
              src.(!pos) <- e.e_src;
              dst.(!pos) <- e.e_dist;
              cpy.(!pos) <-
                (if clusterv.(e.e_src) = clusterv.(e.e_dst) then -1
                 else find_copy_slot e.e_src e.e_dst e.e_dist);
              incr pos))
          (G.preds graph n.n_id);
        (* fill offsets for any id gap after this node *)
        for g = n.n_id + 1 to nslots do
          dep_off.(g) <- !pos
        done)
      nodes;
    (src, dst, cpy)
  in

  (* ----- issue buckets, flattened and bundle-sorted ----- *)
  (* tag encoding: node id * 2 for ops, copy slot * 2 + 1 for copies *)
  let nitems = (List.length nodes + ncopies) * trip in
  let vspan =
    let m = ref 0 in
    List.iter
      (fun (n : G.node) ->
        m := max !m (S.cycle_of schedule n.n_id + (ii * (trip - 1))))
      nodes;
    Array.iter (fun (c : S.copy) -> m := max !m (c.cp_cycle + (ii * (trip - 1)))) copies;
    !m + 1
  in
  let bucket_off = Array.make (vspan + 1) 0 in
  let bk_tag = Array.make nitems 0 in
  let bk_k = Array.make nitems 0 in
  let bk_key = Array.make nitems 0 in
  (* pass 1: counts *)
  List.iter
    (fun (n : G.node) ->
      let c = S.cycle_of schedule n.n_id in
      for k = 0 to trip - 1 do
        let v = c + (ii * k) in
        bucket_off.(v + 1) <- bucket_off.(v + 1) + 1
      done)
    nodes;
  Array.iter
    (fun (c : S.copy) ->
      for k = 0 to trip - 1 do
        let v = c.cp_cycle + (ii * k) in
        bucket_off.(v + 1) <- bucket_off.(v + 1) + 1
      done)
    copies;
  for v = 0 to vspan - 1 do
    bucket_off.(v + 1) <- bucket_off.(v + 1) + bucket_off.(v)
  done;
  (* pass 2: fill, in the reference's pre-sort order (ops in node order,
     then copies in list order, iterations ascending) *)
  let cursor = Array.init vspan (fun v -> bucket_off.(v)) in
  let put v tag k key =
    let i = cursor.(v) in
    cursor.(v) <- i + 1;
    bk_tag.(i) <- tag;
    bk_k.(i) <- k;
    bk_key.(i) <- key
  in
  List.iter
    (fun (n : G.node) ->
      let c = S.cycle_of schedule n.n_id in
      for k = 0 to trip - 1 do
        put (c + (ii * k)) (n.n_id * 2) k ((n.n_id lsl 24) lor k)
      done)
    nodes;
  Array.iteri
    (fun ci (c : S.copy) ->
      for k = 0 to trip - 1 do
        put
          (c.cp_cycle + (ii * k))
          ((ci * 2) + 1)
          k
          ((1 lsl 60) lor (c.cp_src lsl 24) lor k)
      done)
    copies;
  (* stable insertion sort per bucket on the reference's bundle key:
     (op-before-copy, node id | copy source, iteration) *)
  for v = 0 to vspan - 1 do
    let lo = bucket_off.(v) and hi = bucket_off.(v + 1) in
    for i = lo + 1 to hi - 1 do
      let key = bk_key.(i) and tag = bk_tag.(i) and k = bk_k.(i) in
      let j = ref (i - 1) in
      while !j >= lo && bk_key.(!j) > key do
        bk_key.(!j + 1) <- bk_key.(!j);
        bk_tag.(!j + 1) <- bk_tag.(!j);
        bk_k.(!j + 1) <- bk_k.(!j);
        decr j
      done;
      bk_key.(!j + 1) <- key;
      bk_tag.(!j + 1) <- tag;
      bk_k.(!j + 1) <- k
    done
  done;

  let mem = Ir.Interp.init_memory layout kernel in
  let msize = Bytes.length mem in
  let nsites = Array.length lowered.L.site_node in

  (* ----- clock + tracing (the current run's sink) ----- *)
  let now = ref 0 in
  let trace = ref None and tracing = ref false in
  let emit ?(cluster = -1) p =
    match !trace with Some s -> Tr.emit s ~cycle:!now ~cluster p | None -> ()
  in

  (* ----- event wheel ----- *)
  let pending_events = ref 0 in
  let wheel_len = ref (vspan + machine.M.l2_latency + (2 * mem_buslat) + 66) in
  let wh_head = ref (Array.make !wheel_len (-1)) in
  let wh_tail = ref (Array.make !wheel_len (-1)) in
  let ev_cap = ref 1024 in
  let ev_n = ref 0 in
  let ev_kind = ref (Array.make !ev_cap 0) in
  let ev_a = ref (Array.make !ev_cap 0) in
  let ev_b = ref (Array.make !ev_cap 0) in
  let ev_c = ref (Array.make !ev_cap 0) in
  let ev_d = ref (Array.make !ev_cap 0) in
  let ev_next = ref (Array.make !ev_cap (-1)) in
  let grow_int r cap cap' =
    let a = Array.make cap' 0 in
    Array.blit !r 0 a 0 cap;
    r := a
  in
  let schedule_event t kind a b c d =
    let t = if t <= !now then !now + 1 else t in
    if t >= !wheel_len then (
      let len' = ref (!wheel_len * 2) in
      while t >= !len' do
        len' := !len' * 2
      done;
      let h = Array.make !len' (-1) and tl = Array.make !len' (-1) in
      Array.blit !wh_head 0 h 0 !wheel_len;
      Array.blit !wh_tail 0 tl 0 !wheel_len;
      wh_head := h;
      wh_tail := tl;
      wheel_len := !len');
    if !ev_n >= !ev_cap then (
      let cap' = !ev_cap * 2 in
      grow_int ev_kind !ev_cap cap';
      grow_int ev_a !ev_cap cap';
      grow_int ev_b !ev_cap cap';
      grow_int ev_c !ev_cap cap';
      grow_int ev_d !ev_cap cap';
      grow_int ev_next !ev_cap cap';
      ev_cap := cap');
    let e = !ev_n in
    incr ev_n;
    !ev_kind.(e) <- kind;
    !ev_a.(e) <- a;
    !ev_b.(e) <- b;
    !ev_c.(e) <- c;
    !ev_d.(e) <- d;
    !ev_next.(e) <- -1;
    (if !wh_head.(t) < 0 then !wh_head.(t) <- e
     else !ev_next.(!wh_tail.(t)) <- e);
    !wh_tail.(t) <- e;
    incr pending_events
  in

  (* ----- subblock tables: member addresses (materialised once per
     subblock) and MSHR waiter lists ----- *)
  let nsb = ref (if msize = 0 then 1 else sb_of (msize - 1) + nclusters) in
  let no_addrs : int array = [||] in
  let sb_addrs = ref (Array.make !nsb no_addrs) in
  let mshr_head = ref (Array.make !nsb (-1)) in
  let mshr_tail = ref (Array.make !nsb (-1)) in
  let ensure_sb sb =
    if sb >= !nsb then begin
      let n' = ref (!nsb * 2) in
      while sb >= !n' do
        n' := !n' * 2
      done;
      let a = Array.make !n' no_addrs in
      Array.blit !sb_addrs 0 a 0 !nsb;
      sb_addrs := a;
      let h = Array.make !n' (-1) and t = Array.make !n' (-1) in
      Array.blit !mshr_head 0 h 0 !nsb;
      Array.blit !mshr_tail 0 t 0 !nsb;
      mshr_head := h;
      mshr_tail := t;
      nsb := !n'
    end
  in
  let addrs_of_sb sb =
    ensure_sb sb;
    let a = !sb_addrs.(sb) in
    if a != no_addrs then a
    else begin
      let a = Array.of_list (M.addrs_of_subblock machine ~subblock:sb) in
      !sb_addrs.(sb) <- a;
      a
    end
  in
  let mshr_next = Array.make ninst (-1) in
  let ms =
    Memsys.create ~machine ~mem ~sites:nsites ~trip ~mode ~warm ~now ~home_of
      ~subblock_of:sb_of ~addrs_of:addrs_of_sb ()
  in

  (* ----- per-cluster module queues: int rings ----- *)
  let modq_total = ref 0 in
  let mq_cap = Array.make nclusters 64 in
  let mq_head = Array.make nclusters 0 in
  let mq_count = Array.make nclusters 0 in
  let mq_inst = Array.init nclusters (fun c -> Array.make mq_cap.(c) 0) in
  let modq_push c inst =
    (if mq_count.(c) >= mq_cap.(c) then begin
       let cap' = mq_cap.(c) * 2 in
       let a = Array.make cap' 0 in
       for i = 0 to mq_count.(c) - 1 do
         a.(i) <- mq_inst.(c).((mq_head.(c) + i) mod mq_cap.(c))
       done;
       mq_inst.(c) <- a;
       mq_head.(c) <- 0;
       mq_cap.(c) <- cap'
     end);
    let i = (mq_head.(c) + mq_count.(c)) mod mq_cap.(c) in
    mq_count.(c) <- mq_count.(c) + 1;
    incr modq_total;
    mq_inst.(c).(i) <- inst
  in

  (* ----- per-instance dynamic state ----- *)
  let reg_ready_at = Array.make ninst max_int in
  let reg_val = Array.make ninst 0L in
  let copy_ready_at = Array.make (max 1 (ncopies * trip)) max_int in
  let phase = Array.make ninst ph_none in
  let inst_addr = Array.make ninst 0 in
  let inst_home = Array.make ninst 0 in
  let inst_val = Array.make ninst 0L in

  (* ----- the access path ----- *)
  let sign_extend ty v = Ir.Sem.truncate ty v in
  (* deliver a serviced value: stores are done; local loads retire at [t];
     remote loads ride a response bus leg back and install into the AB *)
  let respond inst v t =
    let n = inst / trip in
    if kindv.(n) <> k_store then begin
      let own = clusterv.(n) in
      if inst_home.(inst) = own then begin
        phase.(inst) <- ph_none;
        reg_ready_at.(inst) <- t;
        reg_val.(inst) <- sign_extend mty.(n) v
      end
      else begin
        inst_val.(inst) <- v;
        schedule_event t ev_resp_send 0 inst 0 0
      end
    end
  in
  let seq_of inst =
    let n = inst / trip in
    ((inst - (n * trip)) * nsites) + msite.(n)
  in
  (* the access takes effect at home module [c] *)
  let complete c sb inst =
    let n = inst / trip in
    Memsys.complete ms ~cluster:c ~subblock:sb ~seq:(seq_of inst)
      ~store:(kindv.(n) = k_store) ~addr:inst_addr.(inst) ~size:mbytes.(n)
      ~value:inst_val.(inst) ~requester:clusterv.(n)
  in
  let service c inst =
    let n = inst / trip in
    let seq = seq_of inst in
    let addr = inst_addr.(inst) in
    let sb = sb_of addr in
    ensure_sb sb;
    let is_store = kindv.(n) = k_store in
    if !mshr_head.(sb) >= 0 then begin
      Memsys.combine ms ~cluster:c ~subblock:sb ~seq;
      if not is_store then phase.(inst) <- ph_in_mshr;
      mshr_next.(inst) <- -1;
      mshr_next.(!mshr_tail.(sb)) <- inst;
      !mshr_tail.(sb) <- inst
    end
    else if
      Memsys.lookup ms ~cluster:c ~subblock:sb ~seq ~store:is_store ~addr
        ~size:mbytes.(n) ~local:(inst_home.(inst) = clusterv.(n))
    then respond inst (complete c sb inst) (!now + hit_lat)
    else begin
      if not is_store then phase.(inst) <- ph_in_mshr;
      mshr_next.(inst) <- -1;
      !mshr_head.(sb) <- inst;
      !mshr_tail.(sb) <- inst;
      schedule_event (Memsys.l2_fetch ms) ev_mshr_fill 0 sb c 0
    end
  in

  (* ----- operand evaluation ----- *)
  let eval_operand k = function
    | L.Imm v -> v
    | L.Affine_idx (a, b) -> Int64.of_int ((a * k) + b)
    | L.Reg { producer; dist; init } ->
      if k < dist then init else reg_val.((producer * trip) + (k - dist))
  in
  let compute_arith n k =
    let ops = opersv.(n) in
    match semv.(n) with
    | None -> 0L
    | Some (L.Sem_bin (ty, op)) ->
      if Array.length ops = 2 then
        Ir.Sem.binop ty op (eval_operand k ops.(0)) (eval_operand k ops.(1))
      else 0L
    | Some (L.Sem_un (ty, op)) ->
      if Array.length ops = 1 then Ir.Sem.unop ty op (eval_operand k ops.(0))
      else 0L
    | Some L.Sem_select ->
      if Array.length ops = 3 then
        if eval_operand k ops.(0) <> 0L then eval_operand k ops.(1)
        else eval_operand k ops.(2)
      else 0L
    | Some L.Sem_mov ->
      if Array.length ops = 1 then eval_operand k ops.(0) else 0L
  in
  let addr_of n k =
    if m_affine.(n) then m_abase.(n) + (m_ascale.(n) * k)
    else begin
      let len = m_alen.(n) in
      if len <= 0 then invalid_arg "Layout.wrap_index: non-positive length";
      let idx = Int64.to_int (eval_operand k m_idxop.(n)) in
      let r = idx mod len in
      let r = if r < 0 then r + len else r in
      m_abase.(n) + (r * mbytes.(n))
    end
  in

  (* ----- access initiation (at issue time) ----- *)
  let initiate n k ~is_store ~addr ~value =
    let seq = (k * nsites) + msite.(n) in
    let size = mbytes.(n) in
    let own = clusterv.(n) in
    let home = home_of addr in
    let local = home = own in
    let inst = (n * trip) + k in
    if is_store then
      Memsys.store ms ~own ~seq ~addr ~size ~value ~replicated:m_replica.(n);
    match
      if is_store || local then None
      else Memsys.ab_read ms ~own ~seq ~addr ~size ~ty:mty.(n)
    with
    | Some v ->
      reg_ready_at.(inst) <- !now + hit_lat;
      reg_val.(inst) <- v
    | None ->
      inst_addr.(inst) <- addr;
      inst_home.(inst) <- home;
      inst_val.(inst) <- value;
      if not is_store then Memsys.track_load ms ~seq ~addr ~size;
      if local then begin
        if not is_store then phase.(inst) <- ph_at_module;
        modq_push home inst
      end
      else begin
        if not is_store then phase.(inst) <- ph_on_bus;
        Memsys.send ms ~leg:0 ~src:own ~dst:home inst
      end
  in

  (* ----- a leg arriving now: the request lands at the home module, the
     response back at the requesting cluster ----- *)
  let arrived ~leg inst =
    let n = inst / trip in
    if leg = 0 then begin
      if kindv.(n) = k_load then phase.(inst) <- ph_at_module;
      modq_push inst_home.(inst) inst
    end
    else begin
      phase.(inst) <- ph_none;
      Memsys.ab_fill ms ~own:clusterv.(n) ~addr:inst_addr.(inst);
      reg_ready_at.(inst) <- !now;
      reg_val.(inst) <- sign_extend mty.(n) inst_val.(inst)
    end
  in
  (* a granted leg arrives at a later cycle, as an event *)
  let granted ~arrival ~txn ~bus ~leg inst =
    schedule_event arrival ev_arrive leg inst txn bus
  in

  (* ----- event execution ----- *)
  let run_event e =
    match !ev_kind.(e) with
    | k when k = ev_arrive ->
      if !tracing then
        emit (Tr.Bus_transfer { txn = !ev_c.(e); bus = !ev_d.(e) });
      arrived ~leg:!ev_a.(e) !ev_b.(e)
    | k when k = ev_resp_send ->
      let inst = !ev_b.(e) in
      phase.(inst) <- ph_resp_bus;
      Memsys.send ms ~leg:1 ~src:inst_home.(inst) ~dst:clusterv.(inst / trip) inst
    | _ ->
      (* ev_mshr_fill *)
      let sb = !ev_b.(e) and c = !ev_c.(e) in
      let head = !mshr_head.(sb) in
      !mshr_head.(sb) <- -1;
      !mshr_tail.(sb) <- -1;
      let cnt = ref 0 and w = ref head in
      while !w >= 0 do
        incr cnt;
        w := mshr_next.(!w)
      done;
      Memsys.fill ms ~cluster:c ~subblock:sb ~waiters:!cnt;
      let w = ref head in
      while !w >= 0 do
        let nxt = mshr_next.(!w) in
        respond !w (complete c sb !w) (!now + hit_lat);
        w := nxt
      done
  in

  (* ----- issue ----- *)
  let issue_item tag k =
    if tag land 1 = 1 then
      copy_ready_at.(((tag lsr 1) * trip) + k) <- !now + reg_buslat
    else begin
      let n = tag lsr 1 in
      match kindv.(n) with
      | k' when k' = k_arith ->
        let v = compute_arith n k in
        reg_ready_at.((n * trip) + k) <- !now + latv.(n);
        reg_val.((n * trip) + k) <- v
      | k' when k' = k_load ->
        let addr = addr_of n k in
        initiate n k ~is_store:false ~addr ~value:0L
      | _ ->
        (* store *)
        let value =
          if Array.length opersv.(n) > 0 then eval_operand k opersv.(n).(0)
          else 0L
        in
        let addr = addr_of n k in
        let executing =
          (not m_replica.(n)) || home_of addr = clusterv.(n)
        in
        if executing then initiate n k ~is_store:true ~addr ~value
        else
          Memsys.nullify ms ~own:clusterv.(n) ~site:msite.(n) ~iter:k ~addr
            ~size:mbytes.(n) ~value
    end
  in

  (* ----- main loop ----- *)
  let vnow = ref 0 in
  let stall_load = ref 0 and stall_copy = ref 0 and stall_bus = ref 0 in
  let stall_open = ref (-1) in

  (* ----- canonical state serialization (model checking) -----
     A complete, canonical dump of everything that can influence the rest
     of the run, taken at the start of the network phase of any cycle
     whose network may consume a jitter draw. Canonical means: two runs
     noting equal strings are in behaviorally identical states — every
     extension by the same future draws produces byte-identical final
     stats (the key includes [now] and every counter that surfaces in
     them). Time-valued fields are relativized against [now] with stale
     horizons clamped to 0 (they are only ever compared against [now] or
     later), LRU stamps are reduced to ranks inside the component
     encoders, and trace-only fields (transaction ids, bus indices on
     in-flight arrivals, bus request stamps) are excluded — see DESIGN §13
     for the field-by-field argument.
     Fields are written with [Codec]: fixed-length arrays as their
     elements, variable ones with a count, a [-1] terminator or as a
     length-prefixed section. One writer serves every encoding of the
     run. *)
  let codec = Codec.create 256 in
  (* the relativized horizons, built only by an engine that encodes *)
  let rel_reg = lazy (Array.make ninst 0)
  and rel_copy = lazy (Array.make (Array.length copy_ready_at) 0) in
  let canonical_state () =
    let c = codec in
    Codec.clear c;
    let rel v = if v > !now then v - !now else 0 in
    (* a never-ready horizon is -1, which no relative time is *)
    let rel_max a scratch =
      let r = Lazy.force scratch in
      for i = 0 to Array.length a - 1 do
        let v = Array.unsafe_get a i in
        Array.unsafe_set r i (if v = max_int then -1 else rel v)
      done;
      Codec.ints c r
    in
    Codec.int c !now;
    Codec.int c !vnow;
    Memsys.encode_counters ms c;
    Codec.int c !stall_load;
    Codec.int c !stall_copy;
    Codec.int c !stall_bus;
    Codec.int c (if !stall_open >= 0 then !now - !stall_open else -1);
    Memsys.encode_memory ms c;
    rel_max reg_ready_at rel_reg;
    Codec.int64s c reg_val;
    rel_max copy_ready_at rel_copy;
    Codec.ints c phase;
    Codec.ints c inst_addr;
    Codec.ints c inst_home;
    Codec.int64s c inst_val;
    (* MSHR waiter chains, per allocated subblock, each closed by -1 *)
    let sec = Codec.open_section c in
    for sb = 0 to !nsb - 1 do
      let h = !mshr_head.(sb) in
      if h >= 0 then begin
        Codec.int c sb;
        let w = ref h in
        while !w >= 0 do
          Codec.int c !w;
          w := mshr_next.(!w)
        done;
        Codec.int c (-1)
      end
    done;
    Codec.close_section c sec;
    (* module queues: pending instances in FIFO order *)
    for cl = 0 to nclusters - 1 do
      Codec.int c mq_count.(cl);
      for i = 0 to mq_count.(cl) - 1 do
        Codec.int c mq_inst.(cl).((mq_head.(cl) + i) mod mq_cap.(cl))
      done
    done;
    Memsys.encode_l2 ms c;
    (* pending wheel events: slots ascending, insertion order within a
       slot (execution order), each slot closed by -1; all pending slots
       are > now here. Arrival events carry their transaction id and bus
       index only for tracing — both excluded. *)
    Codec.int c !pending_events;
    (let remaining = ref !pending_events in
     let t = ref (!now + 1) in
     while !remaining > 0 && !t < !wheel_len do
       let e = ref !wh_head.(!t) in
       if !e >= 0 then begin
         Codec.int c (!t - !now);
         while !e >= 0 do
           decr remaining;
           let k = !ev_kind.(!e) in
           Codec.int c k;
           if k = ev_arrive then begin
             Codec.int c !ev_a.(!e);
             Codec.int c !ev_b.(!e)
           end
           else if k = ev_resp_send then Codec.int c !ev_b.(!e)
           else begin
             Codec.int c !ev_b.(!e);
             Codec.int c !ev_c.(!e)
           end;
           e := !ev_next.(!e)
         done;
         Codec.int c (-1)
       end;
       incr t
     done);
    Memsys.encode_caches ms c;
    Memsys.encode_network ms c;
    Codec.contents c
  in
  let note_state = ref None and at_note = ref false in

  (* ----- checkpoints: the engine's mutable state, listed once -----
     The payload arrays ([ev_*], [mq_inst], [mshr_next]) are
     captured only where live, and [wh_tail] / [mshr_tail] are rebuilt
     with their heads; restoring keeps the grown capacities of every
     array. *)
  let id = Atomic.fetch_and_add next_id 1 in
  let snapshot () =
    let events = Array.make (6 * !pending_events) 0 in
    (let n = ref 0 and t = ref !now in
     while !n < !pending_events && !t < !wheel_len do
       let e = ref !wh_head.(!t) in
       while !e >= 0 do
         let o = 6 * !n in
         events.(o) <- !t;
         events.(o + 1) <- !ev_kind.(!e);
         events.(o + 2) <- !ev_a.(!e);
         events.(o + 3) <- !ev_b.(!e);
         events.(o + 4) <- !ev_c.(!e);
         events.(o + 5) <- !ev_d.(!e);
         incr n;
         e := !ev_next.(!e)
       done;
       incr t
     done);
    let mshr =
      let len = ref 0 in
      for sb = 0 to !nsb - 1 do
        let w = ref !mshr_head.(sb) in
        if !w >= 0 then len := !len + 2;
        while !w >= 0 do
          incr len;
          w := mshr_next.(!w)
        done
      done;
      let a = Array.make !len 0 and o = ref 0 in
      for sb = 0 to !nsb - 1 do
        if !mshr_head.(sb) >= 0 then begin
          let at = !o in
          a.(at) <- sb;
          o := at + 2;
          let w = ref !mshr_head.(sb) in
          while !w >= 0 do
            a.(!o) <- !w;
            incr o;
            w := mshr_next.(!w)
          done;
          a.(at + 1) <- !o - at - 2
        end
      done;
      a
    in
    let modq = Array.make (nclusters + !modq_total) 0 in
    (let o = ref 0 in
     for cl = 0 to nclusters - 1 do
       modq.(!o) <- mq_count.(cl);
       incr o;
       for i = 0 to mq_count.(cl) - 1 do
         modq.(!o) <- mq_inst.(cl).((mq_head.(cl) + i) mod mq_cap.(cl));
         incr o
       done
     done);
    {
      c_engine = id;
      c_now = !now;
      c_vnow = !vnow;
      c_stall_load = !stall_load;
      c_stall_copy = !stall_copy;
      c_stall_bus = !stall_bus;
      c_stall_open = !stall_open;
      c_events = events;
      c_mshr = mshr;
      c_modq = modq;
      c_reg_ready_at = Saved.ints reg_ready_at;
      c_reg_val = Saved.int64s reg_val;
      c_copy_ready_at = Saved.ints copy_ready_at;
      c_phase = Saved.ints phase;
      c_inst_addr = Saved.ints inst_addr;
      c_inst_home = Saved.ints inst_home;
      c_inst_val = Saved.int64s inst_val;
      c_mem = Memsys.capture ms;
    }
  in
  let restore k =
    now := k.c_now;
    vnow := k.c_vnow;
    stall_load := k.c_stall_load;
    stall_copy := k.c_stall_copy;
    stall_bus := k.c_stall_bus;
    stall_open := k.c_stall_open;
    Array.fill !wh_head 0 !wheel_len (-1);
    ev_n := 0;
    pending_events := 0;
    let ev = k.c_events in
    for i = 0 to (Array.length ev / 6) - 1 do
      let o = 6 * i in
      schedule_event ev.(o) ev.(o + 1) ev.(o + 2) ev.(o + 3) ev.(o + 4) ev.(o + 5)
    done;
    Array.fill !mshr_head 0 !nsb (-1);
    (let m = k.c_mshr and o = ref 0 in
     while !o < Array.length m do
       let sb = m.(!o) and n = m.(!o + 1) in
       let first = !o + 2 in
       !mshr_head.(sb) <- m.(first);
       !mshr_tail.(sb) <- m.(first + n - 1);
       for i = first to first + n - 1 do
         mshr_next.(m.(i)) <- (if i + 1 < first + n then m.(i + 1) else -1)
       done;
       o := first + n
     done);
    (let q = k.c_modq and o = ref 0 in
     modq_total := 0;
     for cl = 0 to nclusters - 1 do
       let n = q.(!o) in
       incr o;
       mq_head.(cl) <- 0;
       mq_count.(cl) <- n;
       modq_total := !modq_total + n;
       Array.blit q !o mq_inst.(cl) 0 n;
       o := !o + n
     done);
    Saved.restore k.c_reg_ready_at reg_ready_at;
    Saved.restore k.c_reg_val reg_val;
    Saved.restore k.c_copy_ready_at copy_ready_at;
    Saved.restore k.c_phase phase;
    Saved.restore k.c_inst_addr inst_addr;
    Saved.restore k.c_inst_home inst_home;
    Saved.restore k.c_inst_val inst_val;
    Memsys.restore ms k.c_mem
  in
  (* the state every run starts from *)
  let initial = if reusable then Some (snapshot ()) else None in

  (* ----- one cycle, in two halves: a resumed run enters at the second,
     the network phase of the cycle whose note took its checkpoint ----- *)
  let hard_limit = 50_000_000 in
  let first_half () =
    if !now > hard_limit then failwith "Sim.run: cycle limit exceeded (wedged)";
    (* 1. events due this cycle, in insertion order *)
    (if !now < !wheel_len then begin
       let h = !wh_head.(!now) in
       if h >= 0 then begin
         !wh_head.(!now) <- -1;
         !wh_tail.(!now) <- -1;
         let e = ref h in
         while !e >= 0 do
           let nxt = !ev_next.(!e) in
           decr pending_events;
           run_event !e;
           e := nxt
         done
       end
     end);
    (* 2. network: bus arbitration or ring stepping. When an external
       chooser is observing, offer it the canonical-state encoder first —
       before the network mutates anything — in exactly the cycles whose
       network phase consumes a draw ([Memsys.network_draws] reads the
       grant / departure condition the phase is about to test). The
       chooser encodes, or takes a checkpoint, only if it needs to.
       Within one cycle the *set* of draws is independent of the values
       drawn (bus grants are bounded by free buses, ring departures by
       link-entry serialization fixed before the draw), so this one note
       plus the count of draws since it identifies every branch point of
       the cycle. *)
    match !note_state with
    | Some note when Memsys.network_draws ms ->
      at_note := true;
      note canonical_state;
      at_note := false
    | _ -> ()
  in
  let second_half () =
    Memsys.network ms ~granted ~arrived;
    (* 3. cache modules: one service per cluster per cycle *)
    for c = 0 to nclusters - 1 do
      if mq_count.(c) > 0 then begin
        let h = mq_head.(c) in
        let inst = mq_inst.(c).(h) in
        mq_head.(c) <- (h + 1) mod mq_cap.(c);
        mq_count.(c) <- mq_count.(c) - 1;
        decr modq_total;
        service inst_home.(inst) inst
      end
    done;
    (* 4. issue or stall *)
    (if !vnow < vspan then begin
       let lo = bucket_off.(!vnow) and hi = bucket_off.(!vnow + 1) in
       (* blocker scan: 0 = clear, 1 = copy in flight, 2 = producer *)
       let blk = ref 0 and blk_inst = ref (-1) in
       let i = ref lo in
       while !blk = 0 && !i < hi do
         let tag = bk_tag.(!i) and k = bk_k.(!i) in
         (if tag land 1 = 0 then begin
            let n = tag lsr 1 in
            let j = ref dep_off.(n) and dend = dep_off.(n + 1) in
            while !blk = 0 && !j < dend do
              let dist = dep_dist.(!j) in
              (if k >= dist then begin
                 let src_iter = k - dist in
                 let cp = dep_copy.(!j) in
                 if cp = -1 then begin
                   let p = dep_src.(!j) in
                   if reg_ready_at.((p * trip) + src_iter) > !now then begin
                     blk := 2;
                     blk_inst := (p * trip) + src_iter
                   end
                 end
                 else if cp = -2 then blk := 1
                 else if copy_ready_at.((cp * trip) + src_iter) > !now then
                   blk := 1
               end);
              incr j
            done
          end
          else begin
            let p = copy_srcv.(tag lsr 1) in
            if reg_ready_at.((p * trip) + k) > !now then begin
              blk := 2;
              blk_inst := (p * trip) + k
            end
          end);
         incr i
       done;
       if !blk = 0 then begin
         (if !stall_open >= 0 then begin
            let started = !stall_open in
            stall_open := -1;
            if !tracing then
              emit (Tr.Stall_end { vcycle = !vnow; cycles = !now - started })
          end);
         if !tracing then begin
           let nops = ref 0 and ncps = ref 0 in
           for t = lo to hi - 1 do
             if bk_tag.(t) land 1 = 0 then incr nops else incr ncps
           done;
           emit (Tr.Issue { vcycle = !vnow; ops = !nops; copies = !ncps })
         end;
         for t = lo to hi - 1 do
           issue_item bk_tag.(t) bk_k.(t)
         done;
         incr vnow
       end
       else begin
         let cause =
           if !blk = 1 then Tr.Copy_in_flight
           else
             match phase.(!blk_inst) with
             | p when p = ph_on_bus || p = ph_resp_bus -> Tr.Bus_queue
             | _ -> Tr.Load_in_flight
         in
         (match cause with
         | Tr.Load_in_flight -> incr stall_load
         | Tr.Copy_in_flight -> incr stall_copy
         | Tr.Bus_queue -> incr stall_bus);
         if !stall_open < 0 then begin
           stall_open := !now;
           if !tracing then emit (Tr.Stall_begin { vcycle = !vnow; cause })
         end
       end
     end);
    incr now
  in
  (* the rest of the run; a finished run leaves no boxed value behind *)
  let finish_run () =
    while
      !vnow < vspan || !pending_events > 0 || Memsys.in_flight ms
      || !modq_total > 0
    do
      first_half ();
      second_half ()
    done;
    let stats =
      Memsys.finish ms ~compute:vspan ~stall_load:!stall_load
        ~stall_copy:!stall_copy ~stall_bus:!stall_bus ~comm_ops:(ncopies * trip)
    in
    Array.fill reg_val 0 ninst 0L;
    Array.fill inst_val 0 ninst 0L;
    stats
  in
  (* [at_note] is cleared here too: a note's callback may have raised *)
  let configure ~jitter ~choices ~trace:sink =
    at_note := false;
    trace := sink;
    tracing := sink <> None;
    note_state :=
      (match (choices : chooser option) with
      | Some { ch_note_state = Some f; _ } -> Some f
      | _ -> None);
    Memsys.start ms ?jitter ?choices ~trace:sink ()
  in

  (* ----- one run: restore the initial state, then simulate -----
     A fresh engine is already in that state, so its first run skips the
     restore. *)
  let dirty = ref false in
  let exec ~jitter ~choices ~trace:sink =
    (match initial with
    | Some k -> if !dirty then restore k
    | None -> if !dirty then invalid_arg "Sim.exec: a one-run engine ran");
    dirty := true;
    configure ~jitter ~choices ~trace:sink;
    if !tracing then
      emit
        (Tr.Meta
           {
             clusters = nclusters;
             mem_buses = nbuses;
             msize;
             ii;
             vspan;
             trip;
           });
    finish_run ()
  in
  let capture () =
    if not !at_note then
      invalid_arg "Sim.checkpoint: not inside a ch_note_state callback";
    snapshot ()
  in
  let resume k ~choices =
    if k.c_engine <> id then
      invalid_arg "Sim.resume: checkpoint taken on another engine";
    restore k;
    dirty := true;
    configure ~jitter:None ~choices ~trace:None;
    second_half ();
    finish_run ()
  in
  { exec; capture; resume }
