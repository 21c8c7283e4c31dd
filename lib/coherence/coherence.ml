(* Invalidation-based coherence protocols for Attraction-Buffer replicas.

   The paper's Attraction Buffers are kept coherent by the *scheduler*:
   replicas are installed on fill and flushed only when a dynamic
   violation is detected (install/flush).  This module supplies the two
   classic invalidation protocols as an orthogonal machine axis:

   - MSI snooping on the shared-bus backend: a store's upgrade is
     observed by every cluster the moment it wins the bus, so all remote
     replicas of the written subblock drop to Invalid atomically with
     the store's execution.

   - MESI over the directory backend: each replica carries an I/S/E/M
     state next to the directory's present mask.  A fill that creates
     the only replica installs in Exclusive; a store that hits an
     Exclusive replica upgrades to Modified silently (no traffic — the
     counted "exclusive hit"); a remote read downgrades the owner to
     Shared, a Modified owner additionally paying a writeback.

   Everything here is pure: a transition table plus one function per
   replica event (fill, store execute, directed invalidate, eviction)
   that maps a subblock's current per-cluster states to the transitions
   the event causes.  The states themselves live on the Attraction
   Buffer lines; the simulator's memory system ([Vliw_sim.Memsys])
   reads them, applies the returned transitions and emits one trace
   event per transition; [Trace.Audit] replays the event stream against
   [next] to check every transition is legal and chains correctly. *)

module M = Vliw_arch.Machine

type state = I | S | E | M_

let state_name = function I -> "I" | S -> "S" | E -> "E" | M_ -> "M"

type cause =
  | Fill  (** a fill response installed a replica in this cluster *)
  | Store  (** a local store hit this cluster's replica at execute *)
  | Remote_store  (** a remote cluster's store invalidated this replica *)
  | Remote_read  (** a remote fill downgraded this owner (MESI) *)
  | Evict
      (** a capacity eviction dropped the replica, or a local store
          dropped a copy it could not write into *)

let cause_name = function
  | Fill -> "fill"
  | Store -> "store"
  | Remote_store -> "remote-store"
  | Remote_read -> "remote-read"
  | Evict -> "evict"

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
    | I, Fill -> Some S (* [fill] promotes sole fills to E itself *)
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

(* One legal edge of [cluster]'s line, pushed onto [acc].  Same-state
   "transitions" are dropped so the trace only carries real edges. *)
let edge protocol ~cluster ~subblock from cause acc =
  match next protocol from cause with
  | None ->
    invalid_arg
      (Printf.sprintf "Coherence: illegal %s from %s under %s"
         (cause_name cause) (state_name from) (M.protocol_name protocol))
  | Some to_ ->
    if to_ = from then acc
    else
      { t_cluster = cluster; t_subblock = subblock; t_from = from; t_to = to_;
        t_cause = cause }
      :: acc

(* A fill response installed [subblock] in [cluster]'s AB.  Under MESI a
   pre-existing owner is downgraded first (E->S silently, M->S paying a
   writeback — the caller routes that transition to the directory's
   writeback flow), then the filling cluster installs in E when it is
   the sole sharer, S otherwise.  The table lands fills in S; a sole
   fill from I is promoted so the traced edge reads I->E directly.  A
   refill by the current exclusive owner (E or M) is absorbed: the table
   would demote it to S and the promotion put it straight back, so the
   owner keeps its state and no edge is traced (the audit rightly
   rejects E->E / M->E as non-edges). *)
let fill protocol ~cluster ~subblock states =
  if protocol = M.Install_flush then []
  else begin
    let mesi = protocol = M.Mesi in
    let acc = ref [] and others = ref false in
    Array.iteri
      (fun c s ->
        if c <> cluster && s <> I then begin
          others := true;
          if mesi && (s = E || s = M_) then
            acc := edge protocol ~cluster:c ~subblock s Remote_read !acc
        end)
      states;
    let own = states.(cluster) in
    match edge protocol ~cluster ~subblock own Fill [] with
    | [ tr ] when mesi && not !others ->
      if own = I then [ { tr with t_to = E } ] else []
    | fill -> List.rev_append !acc fill
  end

(* A store by [writer] to [subblock] executed.  Every remote replica is
   invalidated (the snooped / directory-driven upgrade); the writer's own
   replica, when [present], upgrades to M.  [replicated] marks DDGT
   replicated stores, which broadcast the write into every sibling copy —
   invalidating them would destroy the replication, so only the writer's
   upgrade is recorded. *)
let store protocol ~writer ~subblock ~present ~replicated states =
  if protocol = M.Install_flush then []
  else begin
    let acc = ref [] in
    if not replicated then
      Array.iteri
        (fun c s ->
          if c <> writer && s <> I then
            acc := edge protocol ~cluster:c ~subblock s Remote_store !acc)
        states;
    if present then
      acc := edge protocol ~cluster:writer ~subblock states.(writer) Store !acc;
    List.rev !acc
  end

(* [cluster]'s line, in state [s], leaves its buffer: one edge to I,
   none if it was already Invalid. *)
let drop cause protocol ~cluster ~subblock s =
  if protocol = M.Install_flush || s = I then []
  else edge protocol ~cluster ~subblock s cause []

let remote_invalidate = drop Remote_store
let evict = drop Evict
