(** Modulo schedule of one loop for the clustered machine.

    Every DDG node gets an issue cycle within the flat (single-iteration)
    schedule and a cluster; iteration [k] of a node issues at
    [cycle + ii * k]. Register values crossing clusters travel as explicit
    {e copy operations} on the register-to-register buses — one copy per
    cross-cluster register-flow edge, scheduled like any other operation
    into a bus slot of the modulo reservation table (these are the
    communication operations of Table 4). *)

type heuristic = Pref_clus | Min_coms
(** The paper's two cluster-assignment heuristics (Section 2.2). *)

val heuristics : heuristic list
(** Both, in the order the command line lists them. *)

val heuristic_name : heuristic -> string
(** ["PrefClus" | "MinComs"], as reports and trace-file names print it. *)

val heuristic_of_name : string -> heuristic option
(** The command-line and request spelling: {!heuristic_name} in
    lowercase. *)

type technique = Free | Mdc | Ddgt | Hybrid
(** The ways the evaluation schedules a loop: the unsafe free baseline,
    MDC chain constraints (Section 3.1), the DDGT transform (Section 3.2)
    and Section 6's per-loop choice between the two ({!Hybrid}). *)

val techniques : technique list
(** All four, in the order reports list them. *)

val technique_name : technique -> string
(** ["free" | "MDC" | "DDGT" | "hybrid"], as reports and tables print it. *)

val technique_of_name : string -> technique option
(** The command-line spelling: {!technique_name} in lowercase. *)

type copy = {
  cp_src : int;  (** producer node whose value is copied *)
  cp_dst : int;  (** consumer node the copy feeds *)
  cp_dist : int;  (** distance of the register-flow edge being covered *)
  cp_from : int;  (** source cluster *)
  cp_to : int;  (** destination cluster *)
  cp_cycle : int;  (** transfer start, in the producer's iteration frame *)
  cp_bus : int;  (** register bus used *)
}

type t = {
  ii : int;  (** initiation interval *)
  machine : Vliw_arch.Machine.t;
  place : (int, int * int) Hashtbl.t;  (** node -> (cycle, cluster) *)
  assumed : (int, int) Hashtbl.t;
      (** memory node -> assumed access latency used while scheduling
          (the cache-sensitive latency assignment, Section 2.2) *)
  copies : copy list;
  length : int;  (** flat schedule span: max issue cycle + 1 *)
}

val cycle_of : t -> int -> int
val cluster_of : t -> int -> int
val assumed_of : t -> int -> int
(** Assumed latency of a memory node (its machine local-hit latency if
    never assigned explicitly). *)

val stage_count : t -> int
(** Number of pipeline stages: [ceil length / ii] (at least 1). *)

val comm_ops : t -> int
(** Number of copy operations = inter-cluster communications per
    iteration. *)

val find_copy : t -> Vliw_ddg.Graph.edge -> copy option
(** The copy covering a cross-cluster register-flow edge, if any. *)

val validate :
  Vliw_ddg.Graph.t ->
  ?pinned:(int, int) Hashtbl.t ->
  ?grouped:int list list ->
  t ->
  (unit, string) result
(** Full schedule checker, used by tests and after every scheduling run:
    every node placed exactly once within [0, length); replica and [pinned]
    nodes in their clusters; every [grouped] chain in a single cluster;
    per-slot FU capacity and per-slot register-bus capacity respected
    (modulo [ii]); every dependence edge satisfied, with cross-cluster RF
    edges covered by a copy that fits its producer/consumer window. The
    error is the first problem found, checks running in that order.
    [pinned] defaults to none and [grouped] to [[]]; this is
    {!validator} applied at once. *)

val validator :
  Vliw_ddg.Graph.t ->
  pinned:(int, int) Hashtbl.t ->
  grouped:int list list ->
  t ->
  (unit, string) result
(** [validator g ~pinned ~grouped] sorts [g]'s nodes and edges once and
    returns a checker that answers exactly as {!validate} does, for
    checking many schedules of one graph. The nodes are read when it is
    staged, so stage a fresh one after rewriting any node of [g], as the
    MinComs post-pass does to replica pins ({!Driver.run}). *)

val pp : Format.formatter -> t -> unit
