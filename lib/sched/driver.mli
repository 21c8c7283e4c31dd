(** Scheduling driver: MII computation, the II search loop, cache-sensitive
    latency assignment, and the MinComs virtual-to-physical cluster
    post-pass.

    Cache-sensitive latency assignment (paper Section 2.2): memory
    instructions are scheduled "with the largest possible latency that does
    not have an impact on compute time". The driver first schedules with
    every memory operation at local-hit latency, fixing the II; it then
    greedily raises each memory operation to the largest of
    {remote miss, local miss, remote hit} that still schedules at the same
    II, keeping the compromise between compute time and stall time. A
    memory operation that sources no register-flow edge (every store, and
    a load whose value nothing reads) gets the largest of them without a
    scheduling attempt: the scheduler reads a node's latency only through
    its outgoing register-flow edges, so the attempt would rebuild the
    schedule already held, placement for placement. That schedule, with
    the raised latency recorded, is still validated before it is kept.

    MinComs post-pass (Section 2.2): clusters used during scheduling are
    treated as virtual; the one-to-one virtual-to-physical mapping that
    maximises profiled local accesses is applied afterwards. When the graph
    contains replica-pinned stores, their pin labels are rewritten to the
    permuted clusters (instances still cover every cluster, which is all
    store replication requires). *)

(** How memory operations' assumed latencies are chosen. *)
type lat_policy =
  | Cache_sensitive
      (** the paper's policy: largest latency that does not impact the II *)
  | Fixed_min  (** always assume a local hit: tight schedules, many stalls *)
  | Fixed_max
      (** always assume a remote miss: few stalls, unnecessarily long
          schedules — the other extreme of the Section 2.2 trade-off *)

type request = {
  machine : Vliw_arch.Machine.t;
  heuristic : Schedule.heuristic;
  constraints : Vliw_core.Chains.constraints;
  pref : int -> int array option;
  lat_policy : lat_policy;
  ordering : Ims.ordering;  (** node-ordering/placement strategy *)
  check : Vliw_ddg.Graph.t -> Schedule.t -> (unit, string) result;
      (** post-schedule acceptance check, run once on the final schedule
          (after the MinComs post-pass). [Error] fails the whole request
          with ["rejected by post-schedule check: "] and its text. No
          tool gates through it: they verify a compiled loop afterwards
          ({!Vliw_pipeline.Pipeline.verify}). perfbench's traced rebuild
          of the harness and the verifier's tests still pass
          {!Vliw_verify.Verify.gate} here. *)
}

val request :
  ?heuristic:Schedule.heuristic ->
  ?constraints:Vliw_core.Chains.constraints ->
  ?pref:(int -> int array option) ->
  ?lat_policy:lat_policy ->
  ?ordering:Ims.ordering ->
  ?check:(Vliw_ddg.Graph.t -> Schedule.t -> (unit, string) result) ->
  Vliw_arch.Machine.t ->
  request
(** Defaults: MinComs, no constraints, no profile, cache-sensitive
    latency assignment, [Height] ordering, no check. The II search gives
    up past II 512. *)

val res_mii : Vliw_arch.Machine.t -> Vliw_ddg.Graph.t -> request -> int
(** Resource-constrained MII, including the sharpening from cluster pins
    (a chain pinned to one cluster can only use that cluster's FUs). *)

val mii : Vliw_arch.Machine.t -> Vliw_ddg.Graph.t -> request -> int
(** [max res_mii rec_mii] (recurrences computed at local-hit latency). It
    ignores the register buses: {!run} starts its II search at
    [max mii bus_mii], but reports of II over MII read this value. *)

val forced_copies : Vliw_ddg.Graph.t -> request -> int
(** The register copies the pins alone force on every schedule. A node
    is fixed to its replica instance's cluster, else to its hard pin.
    Counted: every distinct [(src, dst, dist)] register-flow edge, not a
    self-edge, between nodes fixed in different clusters; and for each
    free node, or each grouped chain's free members together (they share
    one cluster), its register-flow edges to fixed nodes minus the most
    of them that any one cluster keeps local. *)

val bus_mii : Vliw_arch.Machine.t -> Vliw_ddg.Graph.t -> request -> int
(** The least II whose register buses can hold {!forced_copies}: at II a
    bus holds [max 1 (II / bus_latency)] copies. [1] when [bus_latency <=
    0], [max_int] when copies are forced and there is no bus. The bound is
    exact: a successful {!Ims.attempt} holds a copy for every
    cross-cluster register-flow edge ([try_place] reserves one per placed
    neighbour, [force_place] reserves one or ejects the neighbour, an
    ejection drops a node's copies), each copy holds one bus for
    [bus_latency] consecutive slots, the reservation table never books a
    bus slot twice, and pins hold through an attempt. So no attempt below
    it returns a schedule, and starting the search there changes no
    result. *)

val best_permutation : int array array -> int array
(** The MinComs post-pass's search. [weight.(v).(p)] scores mapping
    virtual cluster [v] onto physical cluster [p]; the result maps each
    [v] to its [p] and a mapping scores the sum of its picks. Up to 8
    clusters it is exact: the lexicographically first mapping of maximum
    score (the identity when that scores the maximum). Above 8 it is a
    greedy assignment, highest weight first, kept only if it beats the
    identity. *)

val run : request -> Vliw_ddg.Graph.t -> (Schedule.t, string) result
(** Schedule the graph. Phase 1 tries IIs upward from [max (mii ...)
    (bus_mii ...)], the first that schedules fixing the II, and gives up
    past II 512. May rewrite replica pin labels on [g] (see the post-pass
    note above). Every returned schedule passes {!Schedule.validate}. *)

val run_exn : request -> Vliw_ddg.Graph.t -> Schedule.t
