(* The simulator's memory system, written once for both engines: the
   coherence-order apply, the cache modules, the Attraction Buffers and
   their MSI/MESI line states, the interconnect (both legs of a remote
   access, the network step, the directory's sharer bookkeeping and its
   invalidate and writeback traffic), the next level's ports, the jitter
   draws, warm-up and the final stats. An engine keeps only how it stores
   time and per-instance state, and calls in here at the points where the
   memory system decides something.
   Accesses are named by their coherence sequence number
   [seq = iter * sites + site], which is program order and unique per
   load (only stores replicate). *)

module M = Vliw_arch.Machine
module Ir = Vliw_ir
module Tr = Vliw_trace.Trace
module Icn = Vliw_interconnect.Interconnect
module C = Vliw_coherence.Coherence
module Codec = Vliw_util.Codec
open Sim_types

(* the backend the machine declares *)
type net = Bus of Icn.Bus.t | Ring of Icn.Directory.t

type t = {
  machine : M.t;
  sites : int;
  now : int ref;
  (* the current run's sink and draws, set by [start] *)
  mutable trace : Tr.sink option;
  mutable tracing : bool;
  mutable draw : unit -> int;
  mutable draws : int;  (* draws taken so far in the run *)
  home_of : int -> int;
  subblock_of : int -> int;
  addrs_of : int -> int array;
  prot_on : bool;
  net : net;
  (* memory image (each run works on its own copy, which it returns) and
     coherence order: per byte, the newest store and the newest access
     applied at home *)
  mutable mem : Bytes.t;
  last_store_seq : int array;
  last_any_seq : int array;
  oracle : Ir.Interp.result option;
  modules : Cachemod.t array;
  abs : Attraction.t array;  (* the only record of replicas and their states *)
  (* per cluster and byte: the newest store this cluster has executed,
     applied at home or not (see [ab_fill]) *)
  ab_exec_seq : int array array;
  l2_free : int array;
  l2_sorted : int array;  (* [encode_l2]'s scratch *)
  (* MSI/MESI loads still in the memory system, indexed by seq *)
  mutable pending : int list;
  p_addr : int array;
  p_size : int array;
  p_done : bool array;
  p_latched : bool array;
  p_lval : int64 array;
  mutable local_hits : int;
  mutable remote_hits : int;
  mutable local_misses : int;
  mutable remote_misses : int;
  mutable combined : int;
  mutable ab_hits : int;
  mutable nullified : int;
  mutable violations : int;
  (* protocol traffic *)
  mutable invalidations : int;  (* replicas dropped to I by a remote store *)
  mutable upgrades : int;  (* S -> M upgrades (bus / directory traffic) *)
  mutable exclusive_hits : int;  (* silent E -> M upgrades (MESI only) *)
}

let emit t ~cluster p =
  match t.trace with
  | Some s -> Tr.emit s ~cycle:!(t.now) ~cluster p
  | None -> ()

let size_ty = function
  | 1 -> Ir.Ast.I8
  | 2 -> Ir.Ast.I16
  | 4 -> Ir.Ast.I32
  | _ -> Ir.Ast.I64

(* One draw per bus grant or ring hop: a PRNG in [0, j], or an external
   chooser whose every answer is traced as a [Choice] numbered by the
   run's draw count. *)
let make_jit t ?jitter ?choices () =
  match (choices, jitter) with
  | None, None -> fun () -> 0
  | None, Some (p, j) -> fun () -> Vliw_util.Prng.int p (j + 1)
  | Some c, _ ->
    let bound = c.ch_jitter + 1 in
    fun () ->
      let v = c.ch_draw ~bound in
      if v < 0 || v >= bound then
        invalid_arg "Sim.run: chooser draw out of bounds";
      (match t.trace with
      | Some s ->
        Tr.emit s ~cycle:!(t.now) ~cluster:(-1)
          (Tr.Choice { index = t.draws; bound; chosen = v })
      | None -> ());
      t.draws <- t.draws + 1;
      v

let create ~machine ~mem ~sites ~trip ~mode ~warm ~now ~home_of ~subblock_of
    ~addrs_of () =
  let nclusters = machine.M.clusters in
  let msize = Bytes.length mem in
  let oracle = match mode with Oracle r -> Some r | Execution -> None in
  if warm && oracle = None then invalid_arg "Sim.run: warm requires Oracle mode";
  let abs =
    match machine.M.attraction with
    | None -> [||]
    | Some _ -> Array.init nclusters (fun _ -> Attraction.create machine)
  in
  let prot_on = machine.M.protocol <> M.Install_flush in
  let nseq = if prot_on then trip * sites else 0 in
  let t =
    {
      machine;
      sites;
      now;
      trace = None;
      tracing = false;
      draw = (fun () -> 0);
      draws = 0;
      home_of;
      subblock_of;
      addrs_of;
      prot_on;
      net =
        (match machine.M.interconnect with
        | M.Shared_bus ->
          let b = machine.M.mem_buses in
          Bus (Icn.Bus.create ~buses:b.M.bus_count ~latency:b.M.bus_latency)
        | M.Directory ->
          Ring
            (Icn.Directory.create ~clusters:nclusters
               ~hop_latency:(Icn.hop_latency machine)));
      mem = Bytes.copy mem;
      last_store_seq = Array.make msize (-1);
      last_any_seq = Array.make msize (-1);
      oracle;
      modules = Array.init nclusters (fun c -> Cachemod.create machine ~cluster:c);
      abs;
      ab_exec_seq = Array.map (fun _ -> Array.make msize (-1)) abs;
      l2_free = Array.make machine.M.l2_ports 0;
      l2_sorted = Array.make machine.M.l2_ports 0;
      pending = [];
      p_addr = Array.make nseq 0;
      p_size = Array.make nseq 0;
      p_done = Array.make nseq false;
      p_latched = Array.make nseq false;
      p_lval = Array.make nseq 0L;
      local_hits = 0; remote_hits = 0; local_misses = 0; remote_misses = 0;
      combined = 0; ab_hits = 0; nullified = 0; violations = 0;
      invalidations = 0; upgrades = 0; exclusive_hits = 0;
    }
  in
  (* warm-up: replay the reference address trace into the modules *)
  (match oracle with
  | Some r when warm ->
    Array.iter
      (fun (ev : Ir.Interp.event) ->
        ignore
          (Cachemod.install
             t.modules.(home_of ev.ev_addr)
             ~subblock:(subblock_of ev.ev_addr)))
      r.events
  | _ -> ());
  t

let start t ?jitter ?choices ~trace () =
  t.trace <- trace;
  t.tracing <- trace <> None;
  t.draw <- make_jit t ?jitter ?choices ()

(* ----- checkpoints: everything a run mutates, listed once ----- *)

type net_snapshot = Bus_net of Icn.Bus.snapshot | Dir_net of Icn.Directory.snapshot

type snapshot = {
  k_mem : Bytes.t;
  k_last_store_seq : int Saved.t;
  k_last_any_seq : int Saved.t;
  k_modules : Cachemod.snapshot array;
  k_abs : Attraction.snapshot array;
  k_ab_exec_seq : int Saved.t array;
  k_l2_free : int array;
  k_pending : int list;
  k_p_addr : int Saved.t;
  k_p_size : int Saved.t;
  k_p_done : bool Saved.t;
  k_p_latched : bool Saved.t;
  k_p_lval : int64 Saved.t;
  k_counters : int array;
  k_draws : int;
  k_net : net_snapshot;
}

let capture t =
  {
    k_mem = Bytes.copy t.mem;
    k_last_store_seq = Saved.ints t.last_store_seq;
    k_last_any_seq = Saved.ints t.last_any_seq;
    k_modules = Array.map Cachemod.capture t.modules;
    k_abs = Array.map Attraction.capture t.abs;
    k_ab_exec_seq = Array.map Saved.ints t.ab_exec_seq;
    k_l2_free = Array.copy t.l2_free;
    k_pending = t.pending;
    k_p_addr = Saved.ints t.p_addr;
    k_p_size = Saved.ints t.p_size;
    k_p_done = Saved.bools t.p_done;
    k_p_latched = Saved.bools t.p_latched;
    k_p_lval = Saved.int64s t.p_lval;
    k_counters =
      [|
        t.local_hits; t.remote_hits; t.local_misses; t.remote_misses;
        t.combined; t.ab_hits; t.nullified; t.violations; t.invalidations;
        t.upgrades; t.exclusive_hits;
      |];
    k_draws = t.draws;
    k_net =
      (match t.net with
      | Bus b -> Bus_net (Icn.Bus.capture b)
      | Ring d -> Dir_net (Icn.Directory.capture d));
  }

(* The run gets its own copy of the image: the last run's went out with
   its stats. *)
let restore t k =
  t.mem <- Bytes.copy k.k_mem;
  Saved.restore k.k_last_store_seq t.last_store_seq;
  Saved.restore k.k_last_any_seq t.last_any_seq;
  Array.iteri (fun c m -> Cachemod.restore m k.k_modules.(c)) t.modules;
  Array.iteri (fun c ab -> Attraction.restore ab k.k_abs.(c)) t.abs;
  Array.iteri (fun c a -> Saved.restore k.k_ab_exec_seq.(c) a) t.ab_exec_seq;
  Array.blit k.k_l2_free 0 t.l2_free 0 (Array.length t.l2_free);
  t.pending <- k.k_pending;
  Saved.restore k.k_p_addr t.p_addr;
  Saved.restore k.k_p_size t.p_size;
  Saved.restore k.k_p_done t.p_done;
  Saved.restore k.k_p_latched t.p_latched;
  Saved.restore k.k_p_lval t.p_lval;
  let c = k.k_counters in
  t.local_hits <- c.(0);
  t.remote_hits <- c.(1);
  t.local_misses <- c.(2);
  t.remote_misses <- c.(3);
  t.combined <- c.(4);
  t.ab_hits <- c.(5);
  t.nullified <- c.(6);
  t.violations <- c.(7);
  t.invalidations <- c.(8);
  t.upgrades <- c.(9);
  t.exclusive_hits <- c.(10);
  t.draws <- k.k_draws;
  match (t.net, k.k_net) with
  | Bus b, Bus_net s -> Icn.Bus.restore b s
  | Ring d, Dir_net s -> Icn.Directory.restore d s
  | _ -> invalid_arg "Memsys.restore: a snapshot of another interconnect"

(* ----- coherence order ----- *)

(* Apply an access at its home module: count a violation when it lands
   against program order on any byte, take the data effect, and return
   what a load observes (the reference trace's value in [Oracle] mode). *)
let apply t ~seq ~store ~addr ~size ~value =
  if t.tracing then
    emit t ~cluster:(t.home_of addr) (Tr.Apply { seq; addr; size; store });
  let msize = Bytes.length t.mem in
  let lastb = min (addr + size - 1) (msize - 1) in
  let bad = ref false in
  for b = addr to lastb do
    if store then (if t.last_any_seq.(b) > seq then bad := true)
    else if t.last_store_seq.(b) > seq then bad := true
  done;
  if !bad then t.violations <- t.violations + 1;
  let ty = size_ty size in
  if store && addr + size <= msize then Ir.Sem.store_bytes t.mem addr ty value;
  for b = addr to lastb do
    if store && seq > t.last_store_seq.(b) then t.last_store_seq.(b) <- seq;
    if seq > t.last_any_seq.(b) then t.last_any_seq.(b) <- seq
  done;
  if store then 0L
  else
    match t.oracle with
    | Some r -> r.events.(seq).ev_value
    | None -> if addr + size <= msize then Ir.Sem.load_bytes t.mem addr ty else 0L

(* Under MSI/MESI a store's memory effect lands at execute time, so an
   older load whose service is still in flight would otherwise read the
   younger store's value. At each store's execute, every pending older
   load overlapping its bytes latches its value right now — the coherence
   point orders the outstanding read before the upgrade — and service
   later returns the latched value. *)
let track_load t ~seq ~addr ~size =
  if t.prot_on then begin
    t.p_addr.(seq) <- addr;
    t.p_size.(seq) <- size;
    t.pending <- seq :: t.pending
  end

let latch_older t ~seq ~addr ~size =
  let last = addr + size - 1 in
  let hit, rest =
    List.partition
      (fun s ->
        (not t.p_done.(s))
        && s < seq
        && t.p_addr.(s) <= last
        && t.p_addr.(s) + t.p_size.(s) - 1 >= addr)
      t.pending
  in
  t.pending <- List.filter (fun s -> not t.p_done.(s)) rest;
  List.iter
    (fun s ->
      t.p_lval.(s) <-
        apply t ~seq:s ~store:false ~addr:t.p_addr.(s) ~size:t.p_size.(s)
          ~value:0L;
      t.p_latched.(s) <- true;
      t.p_done.(s) <- true)
    (List.sort compare hit)

(* ----- protocol transitions ----- *)

(* A subblock's line state in every cluster's buffer. *)
let states t sb = Array.map (fun ab -> Attraction.line_state ab ~subblock:sb) t.abs

(* A written replica died, or a Modified owner was downgraded: on the
   ring the acknowledgement travels to the subblock's home bank. *)
let writeback t ~src ~subblock =
  match t.net with
  | Ring d ->
    Icn.Directory.writeback d ~now:!(t.now) ~src
      ~home:(subblock mod t.machine.M.clusters) ~subblock
  | Bus _ -> ()

(* Apply one protocol transition: a line that stays valid takes its new
   state (the caller has already invalidated a line dropped to I), the
   traffic counters move and the transition is traced. A Modified owner
   downgraded by a remote read (MESI ownership handoff) also pays a
   writeback to the line's home bank. *)
let apply_transition t (tr : C.transition) =
  let c = tr.t_cluster and sb = tr.t_subblock in
  if tr.t_to <> C.I then Attraction.set_line_state t.abs.(c) ~subblock:sb tr.t_to;
  if t.tracing then
    emit t ~cluster:c
      (Tr.Prot_transition
         {
           cluster = c;
           subblock = sb;
           from_state = tr.t_from;
           to_state = tr.t_to;
           cause = tr.t_cause;
         });
  match (tr.t_from, tr.t_to, tr.t_cause) with
  | _, C.I, C.Remote_store -> t.invalidations <- t.invalidations + 1
  | C.S, C.M_, C.Store -> t.upgrades <- t.upgrades + 1
  | C.E, C.M_, C.Store -> t.exclusive_hits <- t.exclusive_hits + 1
  | C.M_, C.S, C.Remote_read -> writeback t ~src:c ~subblock:sb
  | _ -> ()

(* Invalidate a line the [writer]'s protocol store drops at execute. On
   the directory backend it leaves the present-mask immediately — the
   store's later apply-time [store_apply] then finds no residual sharer
   to invalidate — and a remote sharer's written copy pays a writeback. *)
let drop t ~writer ~cluster ~subblock =
  let written = Attraction.invalidate t.abs.(cluster) ~subblock = `Written in
  match t.net with
  | Ring d ->
    Icn.Directory.drop_replica d ~cluster ~subblock;
    if written && cluster <> writer then writeback t ~src:cluster ~subblock
  | Bus _ -> ()

(* A store executed under MSI/MESI: its upgrade wins the interconnect
   atomically with execution, so every remote AB replica of each touched
   subblock drops to Invalid here and now. The writer's own replica
   upgrades to M when the write landed in it ([present]); a copy the write
   could not be packed into (an access straddling its interleave chunk) is
   dropped instead of left stale. Replicated (DDGT) stores broadcast the
   write into sibling replicas, so they invalidate nothing. *)
let protocol_store t ~replicated ~own ~addr ~size ~present =
  let il = t.machine.M.interleave_bytes and p = t.machine.M.protocol in
  let last = addr + size - 1 in
  let b = ref addr in
  while !b <= last do
    let sb = t.subblock_of !b in
    let st = states t sb in
    let own_present = Array.length st > 0 && st.(own) <> C.I in
    let own_upgraded = own_present && !b = addr && present in
    if own_present && not own_upgraded then begin
      drop t ~writer:own ~cluster:own ~subblock:sb;
      List.iter (apply_transition t)
        (C.evict p ~cluster:own ~subblock:sb st.(own))
    end;
    List.iter
      (fun (tr : C.transition) ->
        if tr.t_to = C.I then drop t ~writer:own ~cluster:tr.t_cluster ~subblock:sb;
        apply_transition t tr)
      (C.store p ~writer:own ~subblock:sb ~present:own_upgraded ~replicated st);
    b := ((!b / il) + 1) * il
  done

(* ----- issue ----- *)

(* Every store instance, executing or nullified, keeps any Attraction
   Buffer copy in its own cluster fresh and records that it executed;
   returns whether the copy was present. *)
let freshen t ~own ~seq ~addr ~size ~value =
  Array.length t.abs > 0
  && begin
       let exec = t.ab_exec_seq.(own) in
       for b = addr to min (addr + size - 1) (Bytes.length t.mem - 1) do
         if seq > exec.(b) then exec.(b) <- seq
       done;
       let present =
         Attraction.write_if_present t.abs.(own)
           ~subblock:(t.subblock_of addr) ~addr ~size value ~sync:seq
       in
       if present && t.tracing then
         emit t ~cluster:own (Tr.Ab_update { cluster = own; addr; size; seq });
       present
     end

let store t ~own ~seq ~addr ~size ~value ~replicated =
  let present = freshen t ~own ~seq ~addr ~size ~value in
  (* MSI/MESI: the memory effect and the invalidation of remote replicas
     happen at execute time — the upgrade wins the interconnect before any
     data moves. The transaction still travels to the home module for
     timing and bandwidth, but its arrival applies nothing. *)
  if t.prot_on then begin
    latch_older t ~seq ~addr ~size;
    protocol_store t ~replicated ~own ~addr ~size ~present;
    ignore (apply t ~seq ~store:true ~addr ~size ~value)
  end

let nullify t ~own ~site ~iter ~addr ~size ~value =
  t.nullified <- t.nullified + 1;
  if t.tracing then emit t ~cluster:own (Tr.Nullify { cluster = own; site; iter });
  let present =
    freshen t ~own ~seq:((iter * t.sites) + site) ~addr ~size ~value
  in
  (* a nullified replica broadcasts into its own copy only; the executing
     replica owns the upgrade and the memory effect *)
  if t.prot_on then protocol_store t ~replicated:true ~own ~addr ~size ~present

let ab_read t ~own ~seq ~addr ~size ~ty =
  if Array.length t.abs = 0 then None
  else
    let sb = t.subblock_of addr in
    match Attraction.read t.abs.(own) ~subblock:sb ~addr ~size with
    | None -> None
    | Some raw ->
      t.local_hits <- t.local_hits + 1;
      t.ab_hits <- t.ab_hits + 1;
      (* staleness: a store ordered before this load but newer than the
         buffered copy makes the copy provably stale *)
      let sync =
        match Attraction.sync_seq t.abs.(own) ~subblock:sb with
        | Some sync ->
          let stale = ref false in
          for b = addr to min (addr + size - 1) (Bytes.length t.mem - 1) do
            let s = t.last_store_seq.(b) in
            if s > sync && s < seq then stale := true
          done;
          if !stale then t.violations <- t.violations + 1;
          sync
        | None -> max_int
      in
      if t.tracing then
        emit t ~cluster:own (Tr.Ab_hit { cluster = own; seq; addr; size; sync });
      Some
        (match t.oracle with
        | Some r -> r.events.(seq).ev_value
        | None -> Ir.Sem.truncate ty raw)

(* ----- home module ----- *)

let combine t ~cluster ~subblock ~seq =
  t.combined <- t.combined + 1;
  if t.tracing then emit t ~cluster (Tr.Mshr_combine { cluster; subblock; seq })

let lookup t ~cluster ~subblock ~seq ~store ~addr ~size ~local =
  (* the home directory bank is consulted once per non-combined access
     (combined requests share the original's lookup) *)
  (match t.net with
  | Ring d ->
    let sharers = Icn.Directory.lookup d ~subblock in
    if t.tracing then
      emit t ~cluster (Tr.Dir_lookup { cluster; subblock; store; sharers })
  | Bus _ -> ());
  let m = t.modules.(cluster) in
  let hit = Cachemod.present m ~subblock in
  if hit then begin
    Cachemod.touch m ~subblock;
    if local then t.local_hits <- t.local_hits + 1
    else t.remote_hits <- t.remote_hits + 1
  end
  else if local then t.local_misses <- t.local_misses + 1
  else t.remote_misses <- t.remote_misses + 1;
  if t.tracing then begin
    emit t ~cluster (Tr.Mod_service { cluster; seq; addr; size; store; local; hit });
    if not hit then emit t ~cluster (Tr.Mshr_alloc { cluster; subblock })
  end;
  hit

let complete t ~cluster ~subblock ~seq ~store ~addr ~size ~value ~requester =
  (* protocol stores applied (and invalidated) at execute; their home
     arrival is timing and bandwidth only, and re-applying here would
     clobber younger protocol stores *)
  let v =
    if not t.prot_on then apply t ~seq ~store ~addr ~size ~value
    else if store then 0L
    else if t.p_latched.(seq) then t.p_lval.(seq)
    else begin
      t.p_done.(seq) <- true;
      apply t ~seq ~store ~addr ~size ~value
    end
  in
  (match t.net with
  | Ring d when store ->
    ignore
      (Icn.Directory.store_apply d ~now:!(t.now) ~home:cluster ~subblock
         ~requester)
  | _ -> ());
  v

let l2_fetch t =
  let port = ref 0 in
  Array.iteri (fun p f -> if f < t.l2_free.(!port) then port := p) t.l2_free;
  let start = max !(t.now) t.l2_free.(!port) in
  t.l2_free.(!port) <- start + 2;
  start + t.machine.M.l2_latency

let fill t ~cluster ~subblock ~waiters =
  ignore (Cachemod.install t.modules.(cluster) ~subblock);
  if t.tracing then emit t ~cluster (Tr.Mshr_fill { cluster; subblock; waiters })

(* ----- responses and directory deliveries ----- *)

(* A remote load's response reached [own]: install the subblock in its
   Attraction Buffer, tagged with the newest store applied at home to any
   of its bytes — unless [own] already executed a store there that home
   has not applied yet: that snapshot would be a provably-stale copy no
   later update could repair. *)
let ab_fill t ~own ~addr =
  if Array.length t.abs > 0 then begin
    let sb = t.subblock_of addr and il = t.machine.M.interleave_bytes in
    let p = t.machine.M.protocol in
    let addrs = t.addrs_of sb and exec = t.ab_exec_seq.(own) in
    let fresh = ref true and sync = ref (-1) in
    for i = 0 to Array.length addrs - 1 do
      for b = addrs.(i) to min (addrs.(i) + il - 1) (Bytes.length t.mem - 1) do
        let s = t.last_store_seq.(b) in
        if exec.(b) > s then fresh := false;
        if s > !sync then sync := s
      done
    done;
    if !fresh then begin
      let sync = !sync in
      (* the fill's transitions read the states before the install *)
      let fill =
        if t.prot_on then C.fill p ~cluster:own ~subblock:sb (states t sb) else []
      in
      (match
         Attraction.install t.abs.(own) ~subblock:sb ~addrs ~mem:t.mem ~sync
       with
      | Some (evicted, s) ->
        (match t.net with
        | Ring d -> Icn.Directory.drop_replica d ~cluster:own ~subblock:evicted
        | Bus _ -> ());
        List.iter (apply_transition t) (C.evict p ~cluster:own ~subblock:evicted s)
      | None -> ());
      (match t.net with
      | Ring d -> Icn.Directory.confirm_install d ~cluster:own ~subblock:sb
      | Bus _ -> ());
      List.iter (apply_transition t) fill;
      if t.tracing then
        emit t ~cluster:own (Tr.Ab_install { cluster = own; subblock = sb; sync })
    end
  end

(* A directory invalidate reached [cluster] over ring [d]. The cluster's
   present bit is left alone: the bank cleared it when it sent this
   invalidate, so a set bit belongs to a fill confirmed since, whose copy
   this invalidate still kills (the mask's lag, DESIGN §12). *)
let invalidate t d ~cluster ~subblock ~home =
  if Array.length t.abs > 0 then
    let ab = t.abs.(cluster) in
    let s = Attraction.line_state ab ~subblock in
    match Attraction.invalidate ab ~subblock with
    | `Absent -> ()
    | (`Clean | `Written) as r ->
      let written = r = `Written in
      if t.tracing then
        emit t ~cluster (Tr.Dir_invalidate { cluster; subblock; written });
      List.iter (apply_transition t)
        (C.remote_invalidate t.machine.M.protocol ~cluster ~subblock s);
      if written then
        Icn.Directory.writeback d ~now:!(t.now) ~src:cluster ~home ~subblock

(* ----- the interconnect ----- *)

(* Legs are numbered 0 (the request, requester to home) and 1 (the
   response, home to requester). A bus carries a leg as one int,
   [(key lsl 1) lor leg], and traces it at the requester on both legs; a
   ring carries it as a [Leg] packet, traced at the cluster sending it. *)
let send t ~leg ~src ~dst key =
  let now = !(t.now) in
  match t.net with
  | Bus b ->
    let txn = Icn.Bus.request b ~now ((key lsl 1) lor leg) in
    if t.tracing then begin
      let cluster = if leg = 0 then src else dst in
      emit t ~cluster (Tr.Bus_request { txn; cluster })
    end
  | Ring d ->
    let txn = Icn.Directory.send d ~now ~src ~dst ~leg key in
    if t.tracing then emit t ~cluster:src (Tr.Bus_request { txn; cluster = src })

let network t ~granted ~arrived =
  let now = !(t.now) in
  match t.net with
  | Bus b ->
    Icn.Bus.dispatch b ~now ~jit:t.draw
      ~grant:(fun ~txn ~bus ~wait ~lat ~arrival p ->
        if t.tracing then emit t ~cluster:(-1) (Tr.Bus_grant { txn; bus; wait; lat });
        granted ~arrival ~txn ~bus ~leg:(p land 1) (p lsr 1))
  | Ring d ->
    Icn.Directory.step d ~now ~jit:t.draw
      ~emit_hop:(fun ~txn ~src ~dst ->
        if t.tracing then
          emit t ~cluster:(-1) (Tr.Packet_hop { txn; from_node = src; to_node = dst }))
      ~deliver:(fun ~dst ~txn:_ -> function
        | Icn.Directory.Leg { leg; key } -> arrived ~leg key
        | Invalidate { subblock; home } ->
          invalidate t d ~cluster:dst ~subblock ~home
        | Writeback_ack { subblock; from = _ } ->
          if t.tracing then
            emit t ~cluster:dst (Tr.Dir_writeback { cluster = dst; subblock }))

let network_draws t =
  match t.net with
  | Bus b -> Icn.Bus.draws b ~now:!(t.now)
  | Ring d -> Icn.Directory.draws d ~now:!(t.now)

let in_flight t =
  match t.net with
  | Bus b -> Icn.Bus.pending b
  | Ring d -> Icn.Directory.pending d

(* ----- end of run ----- *)

let finish t ~compute ~stall_load ~stall_copy ~stall_bus ~comm_ops =
  (* the end-of-loop flush that restores inter-loop coherence (Section 5.2) *)
  let ab_flushed = ref 0 in
  Array.iteri
    (fun c ab ->
      let n = Attraction.flush ab in
      ab_flushed := !ab_flushed + n;
      if t.tracing then emit t ~cluster:c (Tr.Ab_flush { cluster = c; entries = n }))
    t.abs;
  let total = !(t.now) in
  let stall = max 0 (total - compute) in
  let d =
    match t.net with
    | Ring d -> Icn.Directory.stats d
    | Bus _ ->
      { Icn.Directory.d_lookups = 0; d_invalidates = 0; d_writebacks = 0; d_hops = 0 }
  in
  let stats =
    {
      total_cycles = total;
      compute_cycles = compute;
      stall_cycles = stall;
      stall_load_cycles = stall_load;
      stall_copy_cycles = stall_copy;
      stall_bus_cycles = stall_bus;
      stall_drain_cycles = stall - stall_load - stall_copy - stall_bus;
      local_hits = t.local_hits;
      remote_hits = t.remote_hits;
      local_misses = t.local_misses;
      remote_misses = t.remote_misses;
      combined = t.combined;
      ab_hits = t.ab_hits;
      ab_flushed = !ab_flushed;
      violations = t.violations;
      nullified = t.nullified;
      comm_ops;
      dir_lookups = d.Icn.Directory.d_lookups;
      dir_invalidates = d.Icn.Directory.d_invalidates;
      dir_writebacks = d.Icn.Directory.d_writebacks;
      packet_hops = d.Icn.Directory.d_hops;
      prot_invalidations = t.invalidations;
      prot_upgrades = t.upgrades;
      prot_exclusive_hits = t.exclusive_hits;
      memory = t.mem;
    }
  in
  (* the image is the caller's now; the memory system keeps no reference *)
  t.mem <- Bytes.empty;
  stats

(* ----- canonical state-key segments (the wheel engine's key) ----- *)

let encode_counters t c =
  Codec.int c t.local_hits;
  Codec.int c t.remote_hits;
  Codec.int c t.local_misses;
  Codec.int c t.remote_misses;
  Codec.int c t.combined;
  Codec.int c t.ab_hits;
  Codec.int c t.nullified;
  Codec.int c t.violations;
  Codec.int c t.invalidations;
  Codec.int c t.upgrades;
  Codec.int c t.exclusive_hits

let encode_memory t c =
  Codec.bytes c t.mem;
  Codec.ints c t.last_store_seq;
  Codec.ints c t.last_any_seq;
  Array.iter (Codec.ints c) t.ab_exec_seq

(* busy horizons as a sorted multiset: the port pick is an argmin, so port
   identity is interchangeable. An insertion sort of the few ports. *)
let encode_l2 t c =
  let now = !(t.now) in
  let a = t.l2_sorted in
  for i = 0 to Array.length a - 1 do
    let v = t.l2_free.(i) in
    let v = if v > now then v - now else 0 in
    let j = ref (i - 1) in
    while !j >= 0 && a.(!j) > v do
      a.(!j + 1) <- a.(!j);
      decr j
    done;
    a.(!j + 1) <- v
  done;
  Array.iter (Codec.int c) a

let encode_caches t c =
  Array.iter (fun m -> Cachemod.encode_state m c) t.modules;
  Array.iter (fun a -> Attraction.encode_state a c) t.abs

let encode_network t c =
  match t.net with
  | Bus b -> Icn.Bus.encode_state b ~now:!(t.now) c
  | Ring d -> Icn.Directory.encode_state d ~now:!(t.now) c
