(** Invalidation-based coherence protocols (MSI / MESI) for
    Attraction-Buffer replicas, as pure decisions.

    The protocol is a per-(cluster, subblock) state machine over
    {!state}. The state lives on the replica itself: each Attraction
    Buffer line carries it ([Vliw_sim.Attraction]), with [I] meaning the
    line is invalid. The event functions below take a subblock's current
    states, read from the buffers, and return the transitions the event
    causes; the simulator's memory system ([Vliw_sim.Memsys]) applies
    them to its buffer lines, counts them and traces each one. {!next}
    is the bare transition table, shared with the audit replay so every
    traced transition is re-checked for legality. Under
    [Machine.Install_flush] every event function returns [[]], which
    keeps the default sim path byte-identical to the pre-protocol
    engine. *)

module M = Vliw_arch.Machine

(** MESI line states; MSI uses the subset [I]/[S]/[M_].  [M_] is the
    Modified state (the name avoids clashing with the machine module
    alias). *)
type state = I | S | E | M_

val state_name : state -> string

(** What drove a transition. *)
type cause =
  | Fill  (** a fill response installed a replica in this cluster *)
  | Store  (** a local store hit this cluster's replica at execute *)
  | Remote_store  (** a remote cluster's store invalidated this replica *)
  | Remote_read  (** a remote fill downgraded this owner (MESI) *)
  | Evict
      (** a capacity eviction dropped the replica, or a local store
          dropped a copy it could not write into *)

val cause_name : cause -> string

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

(** {1 Events}

    [states.(c)] is cluster [c]'s current state of the subblock.
    Transitions come back in application order; a cause that would not
    change a line's state yields no transition. *)

val fill :
  M.protocol -> cluster:int -> subblock:int -> state array -> transition list
(** A fill response installs [subblock] in [cluster].  Under MESI any
    other E/M owner is downgraded to S first (the M case is the
    ownership handoff — the caller pays the writeback), and the fill
    lands in E when the filling cluster ends up the sole sharer.  A
    refill by the sole E/M owner is absorbed: the owner keeps its state
    and nothing is traced. *)

val store :
  M.protocol -> writer:int -> subblock:int -> present:bool ->
  replicated:bool -> state array -> transition list
(** A store by [writer] executed: remote replicas drop to I, the
    writer's own replica (when [present]) upgrades to M.  [replicated]
    stores (DDGT) broadcast the write into sibling replicas instead of
    invalidating them, so only the writer's upgrade is recorded. *)

val remote_invalidate :
  M.protocol -> cluster:int -> subblock:int -> state -> transition list
(** A directed invalidate (directory apply-time residual sharer) reached
    [cluster], whose line is in the given state; no transition if the
    line is already Invalid. *)

val evict : M.protocol -> cluster:int -> subblock:int -> state -> transition list
(** [cluster] dropped its replica, which was in the given state. *)
