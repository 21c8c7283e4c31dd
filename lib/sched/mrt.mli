(** Modulo reservation table: functional-unit slots per (cycle mod II,
    cluster, FU kind) and register-bus slots per (cycle mod II, bus).

    A copy occupies one bus for [bus_latency] consecutive slots. Memory
    buses are {e not} reserved here: their latency is non-deterministic and
    runtime-arbitrated (paper Section 2.3 footnote 2); only the simulator
    models them. *)

type t

val max_buses : int
(** Widest register-bus pool the table represents: bus occupancy per slot
    is one bit per bus in an [int]. *)

val create : Vliw_arch.Machine.t -> ii:int -> t
(** @raise Invalid_argument on a non-positive [ii] or more than
    {!max_buses} register buses. *)

val fu_free : t -> cycle:int -> cluster:int -> Vliw_arch.Machine.fu_kind -> bool
val fu_take : t -> cycle:int -> cluster:int -> Vliw_arch.Machine.fu_kind -> unit
val fu_release : t -> cycle:int -> cluster:int -> Vliw_arch.Machine.fu_kind -> unit

val fu_load : t -> cluster:int -> int
(** Total FU reservations currently held in a cluster (workload-balance
    signal for MinComs). *)

val bus_find : t -> lo:int -> hi:int -> int
(** Earliest [cycle] with [lo <= cycle] and [cycle + bus_latency - 1 <=
    hi] at which some bus is free for all [bus_latency] slots, or
    [max_int] when none is: a copy's window, from its value's ready cycle
    to the last cycle before its consumer issues. {!bus_lowest} names
    the bus. Scans at most II distinct start cycles (occupancy is
    periodic). *)

val bus_earliest : t -> lo:int -> int
(** The start cycle {!bus_find} returns, found with no deadline: the
    earliest [cycle >= lo] at which some bus is free for all
    [bus_latency] slots, or [max_int] when no start is free (occupancy is
    periodic, so then none ever is). A successful [bus_find ~lo ~hi]
    returns this cycle, and over one table it never decreases as [lo]
    grows. *)

val bus_lowest : t -> cycle:int -> int
(** The lowest-numbered bus free for all [bus_latency] slots of a
    transfer starting at [cycle], or [-1] when none is. *)

val bus_take : t -> cycle:int -> bus:int -> unit
val bus_release : t -> cycle:int -> bus:int -> unit
