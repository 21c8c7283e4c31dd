(* The pre-overhaul per-cycle simulator engine, kept as the correctness
   oracle for the event wheel's calendar and per-instance state
   (Sim.run ~engine:`Reference). Closure-calendar based: a Hashtbl of
   cycle -> thunk list, functional maps for per-instance state. Slow but
   obviously faithful to the prose spec in sim.mli. The memory system's
   rules and the transport live in [Memsys], shared with the wheel. *)

module G = Vliw_ddg.Graph
module M = Vliw_arch.Machine
module S = Vliw_sched.Schedule
module L = Vliw_lower.Lower
module Ir = Vliw_ir
module Tr = Vliw_trace.Trace
open Sim_types

type waiter = {
  w_seq : int;
  w_node : int;  (* DDG node id of the access, for in-flight tracking *)
  w_store : bool;
  w_addr : int;
  w_size : int;
  w_value : int64;
  w_iter : int;
  w_respond : int64 -> int -> unit;  (* value, ready time *)
  w_local : bool;
}

type item = Op of G.node * int | Cp of S.copy * int

(* Where an in-flight load currently is, keyed by (node id, iteration):
   feeds the stall-cause classification — a consumer blocked on a load
   sitting in a bus queue stalls for a different reason (bus contention)
   than one blocked on a module/MSHR in service. *)
type load_phase = On_bus | At_module | In_mshr | Resp_bus

let run ~lowered ~graph ~schedule ~layout ?(mode = Execution) ?jitter ?choices
    ?(warm = false) ?trace () =
  let machine = schedule.S.machine in
  let kernel = lowered.L.kernel in
  let trip = kernel.Ir.Ast.k_trip in
  if trip <= 0 then invalid_arg "Sim.run: non-positive trip";
  let ii = schedule.S.ii in
  let nclusters = machine.M.clusters in
  let hit_lat = machine.M.cache.M.hit_latency in
  let reg_buslat = machine.M.reg_buses.M.bus_latency in

  (* ----- event calendar ----- *)
  let events : (int, (unit -> unit) list ref) Hashtbl.t = Hashtbl.create 512 in
  let max_event = ref (-1) in
  let now = ref 0 in
  let at t f =
    let t = max t (!now + 1) in
    max_event := max !max_event t;
    match Hashtbl.find_opt events t with
    | Some l -> l := f :: !l
    | None -> Hashtbl.add events t (ref [ f ])
  in

  (* ----- event-trace recording (no sink: one dead branch per site) ----- *)
  let tracing = trace <> None in
  let emit ?(cluster = -1) p =
    match trace with Some s -> Tr.emit s ~cycle:!now ~cluster p | None -> ()
  in

  let mem = Ir.Interp.init_memory layout kernel in
  let msize = Bytes.length mem in
  let nsites = Array.length lowered.L.site_node in
  let seq_of ~site ~iter = (iter * nsites) + site in

  (* ----- remote legs: this engine names each by a key into its table
     of parked continuations, each run once when its leg arrives ----- *)
  let parked : (int, int -> unit) Hashtbl.t = Hashtbl.create 64 in
  let next_key = ref 0 in
  let park action =
    let k = !next_key in
    incr next_key;
    Hashtbl.add parked k action;
    k
  in
  let unpark k =
    let action = Hashtbl.find parked k in
    Hashtbl.remove parked k;
    action
  in
  (* [ch_note_state] is intentionally ignored here: the closure calendar
     has no canonical serialization, so exploration runs on the wheel
     engine and this engine only replays recorded draw scripts. *)
  let ms =
    Memsys.create ~machine ~mem ~sites:nsites ~trip ~mode ~warm ~now
      ~home_of:(fun addr -> M.home_cluster machine ~addr)
      ~subblock_of:(fun addr -> M.subblock_id machine ~addr)
      ~addrs_of:(fun subblock ->
        Array.of_list (M.addrs_of_subblock machine ~subblock))
      ()
  in
  Memsys.start ms ?jitter ?choices ~trace ();
  let send ~leg ~src ~dst action = Memsys.send ms ~leg ~src ~dst (park action) in

  let mshr : (int, waiter list ref) Hashtbl.t = Hashtbl.create 32 in
  let modq : waiter Queue.t array =
    Array.init nclusters (fun _ -> Queue.create ())
  in
  let load_phase : (int * int, load_phase) Hashtbl.t = Hashtbl.create 64 in
  let track_load (w : waiter) phase =
    if not w.w_store then Hashtbl.replace load_phase (w.w_node, w.w_iter) phase
  in
  let cluster_of id = S.cluster_of schedule id in

  let service cluster (w : waiter) =
    let sb = M.subblock_id machine ~addr:w.w_addr in
    (* the access takes effect at its home module *)
    let complete (w : waiter) =
      Memsys.complete ms ~cluster ~subblock:sb ~seq:w.w_seq ~store:w.w_store
        ~addr:w.w_addr ~size:w.w_size ~value:w.w_value
        ~requester:(cluster_of w.w_node)
    in
    match Hashtbl.find_opt mshr sb with
    | Some waiters ->
      Memsys.combine ms ~cluster ~subblock:sb ~seq:w.w_seq;
      track_load w In_mshr;
      waiters := w :: !waiters
    | None ->
      if
        Memsys.lookup ms ~cluster ~subblock:sb ~seq:w.w_seq ~store:w.w_store
          ~addr:w.w_addr ~size:w.w_size ~local:w.w_local
      then w.w_respond (complete w) (!now + hit_lat)
      else begin
        track_load w In_mshr;
        Hashtbl.replace mshr sb (ref [ w ]);
        let tf = Memsys.l2_fetch ms in
        at tf (fun () ->
            let ws =
              match Hashtbl.find_opt mshr sb with
              | Some l -> List.rev !l
              | None -> []
            in
            Hashtbl.remove mshr sb;
            Memsys.fill ms ~cluster ~subblock:sb ~waiters:(List.length ws);
            List.iter (fun w -> w.w_respond (complete w) (tf + hit_lat)) ws)
      end
  in

  (* ----- network phase: a granted leg runs at its arrival, a delivered
     one now ----- *)
  let granted ~arrival ~txn ~bus ~leg:_ k =
    let action = unpark k in
    at arrival (fun () ->
        if tracing then emit (Tr.Bus_transfer { txn; bus });
        action arrival)
  in
  let arrived ~leg:_ k = unpark k !now in

  (* ----- register values ----- *)
  let regs : (int * int, int * int64) Hashtbl.t = Hashtbl.create 1024 in
  let set_reg id iter ~ready ~value = Hashtbl.replace regs (id, iter) (ready, value) in
  let reg_entry id iter = Hashtbl.find_opt regs (id, iter) in
  let reg_ready id iter =
    match reg_entry id iter with Some (r, _) -> r <= !now | None -> false
  in
  let reg_value id iter =
    match reg_entry id iter with
    | Some (_, v) -> v
    | None -> 0L
  in
  let copy_ready : (int * int * int * int, int) Hashtbl.t = Hashtbl.create 256 in

  let eval_operand kiter = function
    | L.Imm v -> v
    | L.Affine_idx (a, b) -> Int64.of_int ((a * kiter) + b)
    | L.Reg { producer; dist; init } ->
      if kiter < dist then init else reg_value producer (kiter - dist)
  in

  (* ----- access initiation (at issue time) ----- *)
  let sign_extend ty v = Ir.Sem.truncate ty v in
  let initiate ~(node : G.node) ~(mr : G.mem_ref) ~iter ~is_store ~addr ~value =
    let seq = seq_of ~site:mr.mr_site ~iter in
    let size = mr.mr_bytes in
    let ty = ty_of_mr mr in
    let own = cluster_of node.n_id in
    let home = M.home_cluster machine ~addr in
    let local = home = own in
    let key = (node.n_id, iter) in
    if is_store then
      Memsys.store ms ~own ~seq ~addr ~size ~value
        ~replicated:(node.G.n_replica <> None);
    let respond =
      if is_store then fun _ _ -> ()
      else if local then fun v t ->
        Hashtbl.remove load_phase key;
        set_reg node.n_id iter ~ready:t ~value:(sign_extend ty v)
      else fun v t ->
        (* the response travels back over the interconnect and installs
           into the requester's Attraction Buffer on arrival *)
        at t (fun () ->
            Hashtbl.replace load_phase key Resp_bus;
            let fill arrival =
              Hashtbl.remove load_phase key;
              Memsys.ab_fill ms ~own ~addr;
              set_reg node.n_id iter ~ready:arrival ~value:(sign_extend ty v)
            in
            send ~leg:1 ~src:home ~dst:own fill)
    in
    match
      if is_store || local then None
      else Memsys.ab_read ms ~own ~seq ~addr ~size ~ty
    with
    | Some v -> set_reg node.n_id iter ~ready:(!now + hit_lat) ~value:v
    | None ->
      let w =
        {
          w_seq = seq;
          w_node = node.n_id;
          w_store = is_store;
          w_addr = addr;
          w_size = size;
          w_value = value;
          w_iter = iter;
          w_respond = respond;
          w_local = local;
        }
      in
      if not is_store then Memsys.track_load ms ~seq ~addr ~size;
      if local then (
        track_load w At_module;
        Queue.add w modq.(home))
      else (
        track_load w On_bus;
        send ~leg:0 ~src:own ~dst:home (fun _arrival ->
            track_load w At_module;
            Queue.add w modq.(home)))
  in

  (* ----- issue ----- *)
  let node_latency (n : G.node) =
    match n.n_op with
    | G.Arith a -> a.latency
    | G.Fake -> 1
    | G.Load _ | G.Store _ -> assert false
  in
  let addr_of (n : G.node) (mr : G.mem_ref) iter =
    match mr.mr_affine with
    | Some (scale, off) ->
      Ir.Layout.base layout mr.mr_array + (scale * iter) + off
    | None ->
      let idxop = Hashtbl.find lowered.L.mem_index n.n_orig in
      let idx = Int64.to_int (eval_operand iter idxop) in
      Ir.Layout.addr layout ~arr:mr.mr_array ~elt_bytes:mr.mr_bytes ~idx
  in
  let compute_arith (n : G.node) iter =
    match n.n_op with
    | G.Fake -> 0L
    | _ -> (
      let ops =
        List.map (eval_operand iter)
          (Option.value (Hashtbl.find_opt lowered.L.operands n.n_orig) ~default:[])
      in
      match Hashtbl.find_opt lowered.L.sems n.n_orig with
      | None -> 0L
      | Some (L.Sem_bin (ty, op)) -> (
        match ops with
        | [ a; b ] -> Ir.Sem.binop ty op a b
        | _ -> 0L)
      | Some (L.Sem_un (ty, op)) -> (
        match ops with [ a ] -> Ir.Sem.unop ty op a | _ -> 0L)
      | Some L.Sem_select -> (
        match ops with [ c; a; b ] -> (if c <> 0L then a else b) | _ -> 0L)
      | Some L.Sem_mov -> ( match ops with [ a ] -> a | _ -> 0L))
  in

  (* What blocks an item from issuing this cycle, if anything. [`Producer]
     carries the (node, iteration) register being waited on — usually a
     load in flight; [`Copy] is a cross-cluster copy still travelling. *)
  let item_blocker = function
    | Cp (c, kiter) ->
      if reg_ready c.S.cp_src kiter then None else Some (`Producer (c.S.cp_src, kiter))
    | Op (n, kiter) ->
      List.find_map
        (fun (e : G.edge) ->
          if e.e_kind <> G.RF || kiter < e.e_dist then None
          else
            let p = e.e_src in
            let src_iter = kiter - e.e_dist in
            if cluster_of p = cluster_of n.n_id then
              if reg_ready p src_iter then None else Some (`Producer (p, src_iter))
            else
              match
                Hashtbl.find_opt copy_ready (e.e_src, e.e_dst, e.e_dist, src_iter)
              with
              | Some t -> if t <= !now then None else Some `Copy
              | None -> Some `Copy)
        (G.preds graph n.n_id)
  in
  let rec first_blocker = function
    | [] -> None
    | it :: rest -> (
      match item_blocker it with Some b -> Some b | None -> first_blocker rest)
  in
  let cause_of_blocker = function
    | `Copy -> Tr.Copy_in_flight
    | `Producer key -> (
      match Hashtbl.find_opt load_phase key with
      | Some (On_bus | Resp_bus) -> Tr.Bus_queue
      | Some (At_module | In_mshr) | None -> Tr.Load_in_flight)
  in

  let issue = function
    | Cp (c, kiter) ->
      Hashtbl.replace copy_ready
        (c.S.cp_src, c.S.cp_dst, c.S.cp_dist, kiter)
        (!now + reg_buslat)
    | Op (n, kiter) -> (
      match n.n_op with
      | G.Arith _ | G.Fake ->
        set_reg n.n_id kiter ~ready:(!now + node_latency n)
          ~value:(compute_arith n kiter)
      | G.Load mr ->
        set_reg n.n_id kiter ~ready:max_int ~value:0L;
        let addr = addr_of n mr kiter in
        initiate ~node:n ~mr ~iter:kiter ~is_store:false ~addr ~value:0L
      | G.Store mr ->
        let value =
          match Hashtbl.find_opt lowered.L.operands n.n_orig with
          | Some [ vo ] -> eval_operand kiter vo
          | Some (vo :: _) -> eval_operand kiter vo
          | _ -> 0L
        in
        let addr = addr_of n mr kiter in
        let executing =
          match n.n_replica with
          | None -> true
          | Some _ -> M.home_cluster machine ~addr = cluster_of n.n_id
        in
        if executing then
          initiate ~node:n ~mr ~iter:kiter ~is_store:true ~addr ~value
        else
          Memsys.nullify ms ~own:(cluster_of n.n_id) ~site:mr.mr_site
            ~iter:kiter ~addr ~size:mr.mr_bytes ~value)
  in

  (* ----- issue buckets ----- *)
  let items = ref [] in
  List.iter
    (fun (n : G.node) ->
      let c = S.cycle_of schedule n.n_id in
      for k = 0 to trip - 1 do
        items := (c + (ii * k), Op (n, k)) :: !items
      done)
    (G.nodes graph);
  List.iter
    (fun (cp : S.copy) ->
      for k = 0 to trip - 1 do
        items := (cp.S.cp_cycle + (ii * k), Cp (cp, k)) :: !items
      done)
    schedule.S.copies;
  let vspan = 1 + List.fold_left (fun acc (v, _) -> max acc v) 0 !items in
  let buckets = Array.make vspan [] in
  List.iter (fun (v, it) -> buckets.(v) <- it :: buckets.(v)) !items;
  (* issue order within a bundle: by node id for determinism *)
  Array.iteri
    (fun i l ->
      buckets.(i) <-
        List.sort
          (fun a b ->
            let key = function
              | Op (n, k) -> (0, n.G.n_id, k)
              | Cp (c, k) -> (1, c.S.cp_src, k)
            in
            compare (key a) (key b))
          l)
    buckets;

  if tracing then
    emit
      (Tr.Meta
         {
           clusters = nclusters;
           mem_buses = machine.M.mem_buses.M.bus_count;
           msize;
           ii;
           vspan;
           trip;
         });

  (* ----- main loop ----- *)
  let vnow = ref 0 in
  let pending_work () =
    !vnow < vspan
    || !now <= !max_event
    || Memsys.in_flight ms
    || Array.exists (fun q -> not (Queue.is_empty q)) modq
  in
  let stall_load = ref 0 and stall_copy = ref 0 and stall_bus = ref 0 in
  let stall_open = ref None in
  let hard_limit = 50_000_000 in
  while pending_work () do
    if !now > hard_limit then failwith "Sim.run: cycle limit exceeded (wedged)";
    (match Hashtbl.find_opt events !now with
    | Some l ->
      Hashtbl.remove events !now;
      List.iter (fun f -> f ()) (List.rev !l)
    | None -> ());
    Memsys.network ms ~granted ~arrived;
    Array.iter
      (fun q ->
        if not (Queue.is_empty q) then
          let w = Queue.pop q in
          service (M.home_cluster machine ~addr:w.w_addr) w)
      modq;
    (if !vnow < vspan then
       let bundle = buckets.(!vnow) in
       match first_blocker bundle with
       | None ->
         (match !stall_open with
         | Some started ->
           stall_open := None;
           if tracing then
             emit (Tr.Stall_end { vcycle = !vnow; cycles = !now - started })
         | None -> ());
         if tracing then (
           let ops, copies =
             List.fold_left
               (fun (o, c) -> function Op _ -> (o + 1, c) | Cp _ -> (o, c + 1))
               (0, 0) bundle
           in
           emit (Tr.Issue { vcycle = !vnow; ops; copies }));
         List.iter issue bundle;
         incr vnow
       | Some b ->
         let cause = cause_of_blocker b in
         (match cause with
         | Tr.Load_in_flight -> incr stall_load
         | Tr.Copy_in_flight -> incr stall_copy
         | Tr.Bus_queue -> incr stall_bus);
         if !stall_open = None then (
           stall_open := Some !now;
           if tracing then emit (Tr.Stall_begin { vcycle = !vnow; cause })));
    incr now
  done;

  Memsys.finish ms ~compute:vspan ~stall_load:!stall_load
    ~stall_copy:!stall_copy ~stall_bus:!stall_bus
    ~comm_ops:(List.length schedule.S.copies * trip)
