(** Compact numeric digest of a trace: per-cluster cache-module and
    Attraction Buffer activity, per-bus occupancy, and the stall-episode
    breakdown, and its textual rendering. *)

type cluster_row = {
  services : int;  (** accesses serviced by this cluster's module *)
  hits : int;
  misses : int;
  combines : int;  (** accesses merged into a pending MSHR *)
  ab_hits : int;
  nullified : int;  (** store replicas nullified in this cluster *)
}

type bus_row = {
  transfers : int;
  busy_cycles : int;  (** cycles the bus spent transferring *)
  wait_total : int;  (** queueing cycles summed over its transfers *)
  wait_max : int;
}

type t = {
  clusters : int;
  buses : int;
  total_cycles : int;
      (** the run's cycle count, recovered from the event stream; equals
          [Sim.stats.total_cycles] *)
  compute_cycles : int;  (** [vspan] from the Meta header *)
  issues : int;
  stall_episodes : int;
  stall_cycles : int;
  stall_by_cause : (Trace.stall_cause * int) list;
      (** cycles per cause; a whole episode is attributed to the cause of
          its first blocked cycle *)
  per_cluster : cluster_row array;
  per_bus : bus_row array;
}

val of_sink : Trace.sink -> t
(** @raise Invalid_argument if the trace has no [Meta] header. *)

val bus_occupancy : t -> int -> float
(** [busy_cycles / total_cycles] of bus [b]; 0 on an empty trace. *)

val render : t -> string
(** Per-cluster cache-module activity, per-bus occupancy, and the
    stall-cause breakdown as three tables: [vliwc --trace]'s textual
    counterpart to the exported Chrome trace. *)
