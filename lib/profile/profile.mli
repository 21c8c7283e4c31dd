(** Profiling support (paper Section 2.2, footnote 1: "the preferred
    cluster is computed through profiling").

    A profile is, per static memory site, the histogram of home clusters
    its dynamic accesses referenced on a profiling run — e.g. Figure 3's
    [pref = {70 30 0 0}]. The PrefClus heuristic schedules each memory
    instruction in its preferred cluster (the histogram's argmax); the MDC
    variant pins whole chains to the chain's average preferred cluster; the
    MinComs post-pass uses the histograms to map virtual clusters to
    physical ones. *)

type t

val of_events :
  machine:Vliw_arch.Machine.t -> nsites:int -> Vliw_ir.Interp.event array -> t
(** Classify every event's address by home cluster. *)

val run :
  machine:Vliw_arch.Machine.t ->
  layout:Vliw_ir.Layout.t ->
  Vliw_ir.Ast.kernel ->
  t
(** Interpret the kernel (typically on the {e profile} input set / layout)
    and build the profile. *)

val histogram : t -> int -> int array
(** Per-site home-cluster reference counts. All-zero for sites never
    executed. *)

val preferred : t -> int -> int
(** Argmax of the histogram (lowest cluster on ties). *)

val node_pref : t -> Vliw_ddg.Graph.t -> int -> int array option
(** Histogram for a DDG node: memory nodes map through the site recorded in
    their [mem_ref] (replicas carry their original's site); [None] for
    non-memory nodes. Partially applied, this is the [pref] closure for
    {!Vliw_core.Chains.prefclus} and the scheduler. *)

val locality : t -> int array
(** Element [c] = dynamic references whose home is cluster [c], summed over
    all sites — workload skew at a glance. *)

val predictability : t -> float
(** Fraction of dynamic accesses that go to their site's preferred
    cluster: the upper bound on PrefClus's local ratio. 0 when the profile
    is empty. *)

val best_padding :
  machine:Vliw_arch.Machine.t ->
  ?max_pad:int ->
  Vliw_ir.Ast.kernel ->
  int * float
(** Inter-array padding search (paper Section 2.2: "padding is used so
    that the preferred cluster information of a memory instruction is
    consistent"): profile the kernel under every pad in
    [0, max_pad] (stepping by the interleave factor; default one cache
    block) and return the pad maximizing {!predictability}, with that
    value. Smallest pad wins ties. *)
