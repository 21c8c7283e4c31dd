(** Graph analyses over DDGs used by the transformations and the
    scheduler. *)

val sccs : Graph.t -> int list list
(** Strongly connected components (Tarjan), each as a list of node ids, in
    reverse topological order of the condensation. All edge kinds and
    distances participate (a loop-carried edge still closes a recurrence). *)

val reachable_same_iter : Graph.t -> src:int -> dst:int -> bool
(** Is there a dependence path from [src] to [dst] using only distance-0
    edges? This is the "dependent on S" test of the DDGT pseudo-code: a
    SYNC edge closing such a path would create an impossible
    (intra-iteration) cycle. *)

val undirected_components : Graph.t -> keep:(Graph.edge -> bool) -> int list list
(** Connected components of the undirected graph restricted to edges
    satisfying [keep], singleton components included, each sorted by id,
    components ordered by smallest member. *)

val topo_order : Graph.t -> int list
(** Topological order of the distance-0 subgraph (valid for any DDG that
    passes {!Graph.validate}). *)

type flat
(** A graph's edges, read once for the longest-path rounds: a caller that
    runs them at many IIs or latencies on one graph flattens it once. *)

val flatten : Graph.t -> flat

val heights : flat -> ii:int -> edge_lat:(Graph.edge -> int) -> int array option
(** Height of each node, indexed by node id: the longest weighted path
    from the node to any sink, where an edge weighs [edge_lat e - ii *
    dist]. Heights are the classic modulo-scheduling priority. [None]
    when some cycle has positive weight at this [ii]: then no heights
    exist, and no schedule at this [ii] satisfies every edge. [Some]
    whenever [ii >= rec_mii] for the same [edge_lat]. *)

val depths : flat -> ii:int -> edge_lat:(Graph.edge -> int) -> int array
(** Dual of {!heights}: the longest weighted path {e into} each node from
    any source (its ASAP time at this II, up to an additive constant).
    Requires that no cycle has positive weight at this [ii] ({!heights}
    returns [Some]). *)

val rec_mii : Graph.t -> edge_lat:(Graph.edge -> int) -> int
(** Smallest II at which no dependence cycle has positive weight
    [sum edge_lat - II * sum distances] — the recurrence-constrained
    minimum initiation interval. 1 when the graph is acyclic. *)
