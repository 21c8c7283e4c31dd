(** Invalidation-based coherence protocols (MSI / MESI) for
    Attraction-Buffer replicas.

    The protocol is a per-(cluster, subblock) state machine over
    {!state} driven by the simulator's replica events.  {!next} is the
    bare transition table — shared with the audit replay so every traced
    transition is re-checked for legality — and {!t} is the mutable
    tracker the simulator's memory system drives.  Under
    [Machine.Install_flush] every hook is a no-op returning [[]], which
    keeps the default sim path byte-identical to the pre-protocol
    engine. *)

module M = Vliw_arch.Machine

(** MESI line states; MSI uses the subset [I]/[S]/[M_].  [M_] is the
    Modified state (the name avoids clashing with the machine module
    alias). *)
type state = I | S | E | M_

val state_name : state -> string
val state_of_string : string -> state option

(** What drove a transition. *)
type cause =
  | Fill  (** a fill response installed a replica in this cluster *)
  | Store  (** a local store hit this cluster's replica at execute *)
  | Remote_store  (** a remote cluster's store invalidated this replica *)
  | Remote_read  (** a remote fill downgraded this owner (MESI) *)
  | Evict  (** capacity eviction or violation flush dropped the replica *)

val cause_name : cause -> string
val cause_of_string : string -> cause option

val next : M.protocol -> state -> cause -> state option
(** The transition table; [None] = illegal under that protocol (always
    [None] under [Install_flush]). *)

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

type t
(** A tracker mirroring the simulator's replica population. *)

val create : protocol:M.protocol -> clusters:int -> t
val enabled : t -> bool
val counters : t -> counters
val state : t -> cluster:int -> subblock:int -> state

val note_fill : t -> cluster:int -> subblock:int -> transition list
(** A fill response installed [subblock] in [cluster].  Under MESI any
    pre-existing E/M owner is downgraded to S first (the M case is the
    ownership handoff — the caller pays the writeback), and the fill
    lands in E when the filling cluster ends up the sole sharer. *)

val note_store :
  t -> writer:int -> subblock:int -> present:bool -> replicated:bool ->
  transition list
(** A store by [writer] executed: remote replicas drop to I, the
    writer's own replica (when [present]) upgrades to M.  [replicated]
    stores (DDGT) broadcast the write into sibling replicas instead of
    invalidating them, so only the writer's upgrade is recorded. *)

val note_remote_invalidate : t -> cluster:int -> subblock:int -> transition list
(** A directed invalidate (directory apply-time residual sharer) reached
    [cluster]; no transition if the line is already Invalid. *)

val note_evict : t -> cluster:int -> subblock:int -> transition list
(** Capacity eviction of one replica. *)

val note_flush : t -> cluster:int -> transition list
(** Violation flush: every replica [cluster] holds drops to I. *)

val encode_state : t -> Buffer.t -> unit
(** Canonical serialization for {!Vliw_check.Check} state keys: non-I
    lines in subblock order plus the traffic counters.  Emits nothing
    under [Install_flush]. *)
