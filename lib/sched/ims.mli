(** Iterative modulo scheduling for the clustered machine, at a fixed II.

    Operation-driven list scheduling with ejection (Rau-style IMS), extended
    with cluster assignment and register-bus reservation:

    - operations are placed in height-priority order;
    - the cluster of an operation is (a) its hard pin (DDGT replica
      instance, MDC chain under PrefClus), (b) its chain's cluster once the
      chain's first member has been placed (MDC under MinComs), (c) its
      preferred cluster (PrefClus, memory operations), or (d) the cluster
      minimising cross-cluster register communications, workload balance
      breaking ties (MinComs, and non-memory operations under either
      heuristic — paper Section 2.2);
    - a cross-cluster register-flow edge requires a copy operation holding a
      register bus for [bus_latency] slots inside the producer/consumer
      window; failure to find a bus slot fails the placement;
    - when no slot works, the operation is force-placed and conflicting
      operations are ejected, within a budget; budget exhaustion fails the
      attempt and the driver retries at II + 1.

    Placement scans one cluster at a time, cycle by cycle, and a failed
    probe reserves nothing, so each failure proves something about the
    scan's other cycles, over the same table: a placed predecessor's
    timing bound (bus latency included across clusters) rules out every
    earlier cycle, a placed successor's every later one; a predecessor's
    copy that finds no bus in time rules out every cycle before its
    earliest free start (deadline ignored) allows, or the whole cluster if
    no start is free; the first successor copy that finds no bus rules out
    every later cycle. The scan jumps past ruled-out cycles, upward or (a
    Swing node with only placed successors) downward, so it makes the
    same first successful probe as a cycle-by-cycle scan. A failed probe,
    the sort of candidate clusters and an ejection allocate nothing. *)

(** Node-ordering strategy. [Height] is classic IMS priority (longest path
    to a sink). [Swing] approximates Swing Modulo Scheduling (Llosa et
    al.): nodes are ordered adjacency-first from the least-mobile
    (most critical) ones outward, and a node whose already-placed
    neighbours are all {e successors} is placed scanning {e downward} from
    its latest feasible cycle — keeping values close to their consumers
    and live ranges short. *)
type ordering = Height | Swing

type ctx = {
  machine : Vliw_arch.Machine.t;
  heuristic : Schedule.heuristic;
  ordering : ordering;
  pinned : (int, int) Hashtbl.t;  (** hard cluster pins (besides replicas) *)
  grouped : int list list;  (** chains scheduled into one cluster *)
  pref : int -> int array option;  (** profiled preferred-cluster histograms *)
  assumed : (int, int) Hashtbl.t;  (** memory node -> assumed latency *)
}

val attempt : ctx -> Vliw_ddg.Graph.t -> ii:int -> Schedule.t option
(** One scheduling attempt at the given II. [None] on budget exhaustion,
    and at once, before placing anything, when a recurrence is positive at
    this II under the assumed latencies (no valid schedule exists). *)
