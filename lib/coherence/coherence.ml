(* Invalidation-based coherence protocols for Attraction-Buffer replicas.

   The paper's Attraction Buffers are kept coherent by the *scheduler*:
   replicas are installed on fill and flushed only when a dynamic
   violation is detected (install/flush).  This module supplies the two
   classic invalidation protocols as an orthogonal machine axis:

   - MSI snooping on the shared-bus backend: a store's upgrade is
     observed by every cluster the moment it wins the bus, so all remote
     replicas of the written subblock drop to Invalid atomically with
     the store's execution.

   - MESI over the directory backend: the directory's present-mask
     generalizes to per-(cluster, subblock) I/S/E/M states.  A
     fill that creates the only replica installs in Exclusive; a store
     that hits an Exclusive replica upgrades to Modified silently (no
     traffic — the counted "exclusive hit"); a remote read downgrades
     the owner to Shared, a Modified owner additionally paying a
     writeback.

   The protocol engine itself is a plain transition table plus a
   [Tracker] that mirrors the simulator's replica population.  The
   simulator's memory system ([Vliw_sim.Memsys]) drives the tracker at
   its replica hook points (fill, store execute, eviction, flush) and
   emits one trace event per returned transition; [Trace.Audit] replays
   the event stream against [next] to check every transition is legal and
   chains correctly. *)

module M = Vliw_arch.Machine
module Dec = Vliw_util.Dec

type state = I | S | E | M_

let state_name = function I -> "I" | S -> "S" | E -> "E" | M_ -> "M"

let state_of_string = function
  | "I" -> Some I
  | "S" -> Some S
  | "E" -> Some E
  | "M" -> Some M_
  | _ -> None

type cause =
  | Fill  (** a fill response installed a replica in this cluster *)
  | Store  (** a local store hit this cluster's replica at execute *)
  | Remote_store  (** a remote cluster's store invalidated this replica *)
  | Remote_read  (** a remote fill downgraded this owner (MESI) *)
  | Evict  (** capacity eviction or violation flush dropped the replica *)

let cause_name = function
  | Fill -> "fill"
  | Store -> "store"
  | Remote_store -> "remote-store"
  | Remote_read -> "remote-read"
  | Evict -> "evict"

let cause_of_string = function
  | "fill" -> Some Fill
  | "store" -> Some Store
  | "remote-store" -> Some Remote_store
  | "remote-read" -> Some Remote_read
  | "evict" -> Some Evict
  | _ -> None

(* The transition table.  [None] = illegal under that protocol: the
   audit replay rejects any traced transition this function refuses.
   Under install/flush no protocol transitions exist at all. *)
let next protocol from cause =
  match protocol with
  | M.Install_flush -> None
  | M.Msi -> (
    match (from, cause) with
    | I, Fill -> Some S
    | (S | M_), Fill -> Some S (* refill overwrites with fresh home data *)
    | S, Store -> Some M_ (* the bus upgrade *)
    | M_, Store -> Some M_
    | (S | M_), Remote_store -> Some I (* snooped upgrade *)
    | (S | M_), Evict -> Some I
    | _ -> None)
  | M.Mesi -> (
    match (from, cause) with
    | I, Fill -> Some S (* the tracker promotes sole fills to E itself *)
    | (S | E | M_), Fill -> Some S
    | S, Store -> Some M_ (* upgrade: directory invalidates sharers *)
    | E, Store -> Some M_ (* silent upgrade — no traffic *)
    | M_, Store -> Some M_
    | (S | E | M_), Remote_store -> Some I
    | (E | M_), Remote_read -> Some S (* ownership handoff *)
    | (S | E | M_), Evict -> Some I
    | _ -> None)

type transition = {
  t_cluster : int;
  t_subblock : int;
  t_from : state;
  t_to : state;
  t_cause : cause;
}

type counters = {
  mutable invalidations : int;
      (** replicas dropped to I by a remote store's upgrade *)
  mutable upgrades : int;  (** S -> M upgrades (bus / directory traffic) *)
  mutable exclusive_hits : int;  (** silent E -> M upgrades (MESI only) *)
}

type t = {
  protocol : M.protocol;
  clusters : int;
  mutable lines : state array array;  (** [subblock].[cluster], grown lazily *)
  ctr : counters;
}

let create ~protocol ~clusters =
  {
    protocol;
    clusters;
    lines = [||];
    ctr = { invalidations = 0; upgrades = 0; exclusive_hits = 0 };
  }

let counters t = t.ctr
let enabled t = t.protocol <> M.Install_flush

let row t subblock =
  let n = Array.length t.lines in
  if subblock >= n then begin
    let bigger = Array.make (subblock + 8) [||] in
    Array.blit t.lines 0 bigger 0 n;
    t.lines <- bigger
  end;
  if Array.length t.lines.(subblock) = 0 then
    t.lines.(subblock) <- Array.make t.clusters I;
  t.lines.(subblock)

let state t ~cluster ~subblock =
  if subblock >= Array.length t.lines || Array.length t.lines.(subblock) = 0
  then I
  else t.lines.(subblock).(cluster)

(* Apply one legal transition, bumping the traffic counters.  Same-state
   "transitions" are dropped so the trace only carries real edges. *)
let apply t row ~cluster ~subblock ~cause acc =
  let from = row.(cluster) in
  match next t.protocol from cause with
  | None ->
    invalid_arg
      (Printf.sprintf "Coherence: illegal %s from %s under %s"
         (cause_name cause) (state_name from)
         (M.protocol_name t.protocol))
  | Some to_ ->
    if to_ = from then acc
    else begin
      row.(cluster) <- to_;
      (match (from, to_, cause) with
      | _, I, Remote_store -> t.ctr.invalidations <- t.ctr.invalidations + 1
      | S, M_, Store -> t.ctr.upgrades <- t.ctr.upgrades + 1
      | E, M_, Store -> t.ctr.exclusive_hits <- t.ctr.exclusive_hits + 1
      | _ -> ());
      { t_cluster = cluster; t_subblock = subblock; t_from = from; t_to = to_;
        t_cause = cause }
      :: acc
    end

(* A fill response installed [subblock] in [cluster]'s AB.  Under MESI a
   pre-existing owner is downgraded first (E->S silently, M->S paying a
   writeback — the caller routes the returned [`Writeback] transition to
   the directory's writeback flow), then the filling cluster installs in
   E when it ends up the sole sharer, S otherwise.  Transitions are
   returned in application order. *)
let note_fill t ~cluster ~subblock =
  if not (enabled t) then []
  else begin
    let r = row t subblock in
    let acc = ref [] in
    if t.protocol = M.Mesi then
      for c = 0 to t.clusters - 1 do
        if c <> cluster && (r.(c) = E || r.(c) = M_) then
          acc := apply t r ~cluster:c ~subblock ~cause:Remote_read !acc
      done;
    let sole =
      t.protocol = M.Mesi
      &&
      let others = ref false in
      for c = 0 to t.clusters - 1 do
        if c <> cluster && r.(c) <> I then others := true
      done;
      not !others
    in
    acc := apply t r ~cluster ~subblock ~cause:Fill !acc;
    (* the table lands fills in S; promote a sole MESI fill to E in
       place so the traced edge reads I->E directly.  A refill by the
       current exclusive owner (E or M) is absorbed: the table demotes
       it to S and the promotion would put it straight back, so the
       owner keeps its state and no edge is traced (the audit rightly
       rejects E->E / M->E as non-edges). *)
    (match !acc with
    | { t_from = (E | M_) as f; t_to = S; t_cause = Fill; _ } :: rest
      when sole ->
      r.(cluster) <- f;
      acc := rest
    | ({ t_to = S; t_cause = Fill; _ } as tr) :: rest when sole ->
      r.(cluster) <- E;
      acc := { tr with t_to = E } :: rest
    | _ -> ());
    List.rev !acc
  end

(* A store by [writer] to [subblock] executed.  Every remote replica is
   invalidated (the snooped / directory-driven upgrade); the writer's own
   replica, when [present], upgrades to M.  [replicated] marks DDGT
   replicated stores, which broadcast the write into every sibling copy —
   invalidating them would destroy the replication, so only the writer's
   upgrade is recorded. *)
let note_store t ~writer ~subblock ~present ~replicated =
  if not (enabled t) then []
  else begin
    let r = row t subblock in
    let acc = ref [] in
    if not replicated then
      for c = 0 to t.clusters - 1 do
        if c <> writer && r.(c) <> I then
          acc := apply t r ~cluster:c ~subblock ~cause:Remote_store !acc
      done;
    if present then acc := apply t r ~cluster:writer ~subblock ~cause:Store !acc;
    List.rev !acc
  end

(* A directed invalidate packet (directory apply-time residual sharer)
   reached [cluster].  Already-dropped lines yield no transition. *)
let note_remote_invalidate t ~cluster ~subblock =
  if (not (enabled t)) || state t ~cluster ~subblock = I then []
  else
    List.rev
      (apply t (row t subblock) ~cluster ~subblock ~cause:Remote_store [])

(* Capacity eviction (or any engine-initiated drop) of one replica. *)
let note_evict t ~cluster ~subblock =
  if (not (enabled t)) || state t ~cluster ~subblock = I then []
  else List.rev (apply t (row t subblock) ~cluster ~subblock ~cause:Evict [])

(* Violation flush: every replica the cluster holds drops to I. *)
let note_flush t ~cluster =
  if not (enabled t) then []
  else begin
    let acc = ref [] in
    Array.iteri
      (fun subblock r ->
        if Array.length r > 0 && r.(cluster) <> I then
          acc := apply t r ~cluster ~subblock ~cause:Evict !acc)
      t.lines;
    List.rev !acc
  end

(* Canonical serialization for model-checking state keys.  Only non-I
   lines are emitted (in subblock order), so logically equal populations
   reached by different paths encode identically.  The traffic counters
   are included deliberately: leaf statistics are part of the checker's
   certificate comparison, so states differing only in counters must not
   be merged. *)
let encode_state t buf =
  if enabled t then begin
    Buffer.add_char buf 'P';
    Array.iteri
      (fun subblock r ->
        if Array.length r > 0 && Array.exists (fun s -> s <> I) r then begin
          Dec.add_int buf subblock;
          Buffer.add_char buf ':';
          Array.iter (fun s -> Buffer.add_string buf (state_name s)) r;
          Buffer.add_char buf ';'
        end)
      t.lines;
    Buffer.add_char buf '#';
    Dec.add_int buf t.ctr.invalidations;
    Buffer.add_char buf ',';
    Dec.add_int buf t.ctr.upgrades;
    Buffer.add_char buf ',';
    Dec.add_int buf t.ctr.exclusive_hits
  end
