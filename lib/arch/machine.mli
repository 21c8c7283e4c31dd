(** Machine description of the word-interleaved cache clustered VLIW
    processor (paper Section 2.1, Table 2).

    The machine is a set of homogeneous clusters, each holding a register
    file, a slice of the functional units and a {e cache module} — the local
    portion of the L1 data cache. A cache block is distributed across
    clusters with a configurable interleaving factor; the cluster owning an
    address is its {e home cluster}. Clusters exchange register values over
    register-to-register buses and reach remote cache modules / the next
    memory level over memory buses; both bus kinds run at half the core
    frequency in the paper's balanced configuration. *)

type fu_kind = Int_fu | Fp_fu | Mem_fu
(** Functional-unit classes. Table 2: one of each per cluster. *)

type bus = {
  bus_count : int;  (** number of buses of this kind, shared by all clusters *)
  bus_latency : int;
      (** occupancy/transfer latency of one transaction in core cycles
          (2 = the paper's "runs at 1/2 of the core frequency") *)
}

type cache = {
  total_bytes : int;  (** whole distributed L1 (8KB in Table 2) *)
  block_bytes : int;  (** cache block size (32B) *)
  assoc : int;  (** set associativity of each cache module (2) *)
  hit_latency : int;  (** local hit latency in cycles (1) *)
}

type attraction = {
  ab_entries : int;  (** total entries per cluster (16 in Section 5) *)
  ab_assoc : int;  (** associativity (2) *)
}

(** How clusters reach remote cache modules. [Shared_bus] is the paper's
    machine: all remote traffic shares a pool of snooping-style memory
    buses draining one global FIFO queue. [Directory] replaces the buses
    with a packet-switched ring and a distributed directory sharded by
    home cluster (per-subblock present bits driving
    invalidate/fetch/writeback flows); each link is FIFO but there is no
    global arbitration order. *)
type interconnect = Shared_bus | Directory

val interconnect_name : interconnect -> string
val interconnect_of_string : string -> interconnect option

(** Coherence protocol governing Attraction-Buffer replicas.
    [Install_flush] is the paper's model: replicas are installed on fill
    and only flushed when the scheduler's guarantees make staleness
    impossible — coherence is a scheduler-proved property. [Msi] layers
    MSI snooping on the shared-bus backend: a store's bus upgrade
    invalidates every remote replica of the subblock at execute time, so
    ordered store→load / store→store pairs become protocol-guaranteed.
    [Mesi] adds an Exclusive ownership state over the directory backend
    (each replica carries I/S/E/M next to the directory's present bits;
    silent E→M upgrades, ownership handoff on remote read, its writeback
    routed through the directory). [validate] enforces the pairing: [Msi]
    requires [Shared_bus], [Mesi] requires [Directory]. *)
type protocol = Install_flush | Msi | Mesi

val protocol_name : protocol -> string
val protocol_of_string : string -> protocol option

val supported_clusters : int list
(** Cluster counts the machine model is validated for: 4, 8, 16, 32. *)

type t = {
  clusters : int;
  fus_per_cluster : (fu_kind * int) list;
  issue_width : int;  (** VLIW slots per cluster per cycle *)
  cache : cache;
  interleave_bytes : int;
      (** interleaving factor I: address [a] lives in cluster
          [(a / I) mod clusters] *)
  reg_buses : bus;
  mem_buses : bus;
  l2_ports : int;  (** ports of the next memory level (4) *)
  l2_latency : int;  (** total next-level latency, always a hit (10) *)
  attraction : attraction option;  (** [None] = no Attraction Buffers *)
  interconnect : interconnect;  (** remote-access transport (default bus) *)
  protocol : protocol;  (** AB coherence protocol (default install/flush) *)
}

(** {1 Presets} *)

val table2 : t
(** The paper's base configuration (Table 2): 4 clusters, 1 FP + 1 Int +
    1 Mem unit per cluster, 8KB/32B/2-way cache, 4 register buses and 4
    memory buses at half frequency, 4-port 10-cycle next level, no
    Attraction Buffers, 4-byte interleaving. *)

val nobal_mem : t
(** Unbalanced NOBAL+MEM (Section 4.2): four 2-cycle memory buses, two
    4-cycle register buses. *)

val nobal_reg : t
(** Unbalanced NOBAL+REG (Section 4.2): two 4-cycle memory buses, four
    2-cycle register buses. *)

val with_interleave : t -> int -> t
(** Change the interleaving factor (per-benchmark in Section 4.1: 2B or
    4B). Only the cache indexing/home function changes. *)

val with_attraction : t -> attraction option -> t
(** Enable/disable Attraction Buffers (Section 5: 16-entry 2-way). *)

val with_interconnect : t -> interconnect -> t
val with_protocol : t -> protocol -> t

val default_attraction : attraction

val scale_clusters : t -> int -> t
(** Grow a configuration to [n] clusters keeping per-cluster resources
    constant: same-sized cache modules, a block large enough that the
    interleave unit still divides a subblock, and shared resources
    (memory/register buses, next-level ports) scaled proportionally. *)

(** {1 Address geometry} *)

val home_cluster : t -> addr:int -> int
(** Home cluster of a byte address. *)

val block_number : t -> addr:int -> int
(** Index of the cache block containing [addr]. *)

val subblock_bytes : t -> int
(** Bytes of a block mapped to one cluster ([block_bytes / clusters]). *)

val subblock_id : t -> addr:int -> int
(** Globally unique id of the subblock containing [addr]: identifies the
    unit transferred between a cache module and a requester (remote accesses
    return whole subblocks, Section 5.1). *)

val module_sets : t -> int
(** Number of sets in one per-cluster cache module. *)

val module_set_index : t -> addr:int -> int
(** Set index of [addr] inside its home cluster's module. *)

val addrs_of_subblock : t -> subblock:int -> int list
(** The [interleave_bytes]-granular base addresses a subblock covers,
    in increasing order. *)

(** {1 Access classification and latency model} *)

type access_class =
  | Local_hit
  | Remote_hit
  | Local_miss
  | Remote_miss
  | Combined
      (** second access to a subblock whose request is still pending; no new
          request is issued (Section 4.2, Figure 6) *)

val access_class_name : access_class -> string

val latency : t -> access_class -> int
(** Nominal (contention-free) latency of each access class, used by the
    scheduler's cache-sensitive latency assignment. [Combined] is reported
    with remote-hit latency (it is never used as an assumed latency). *)

val all_assumable_latencies : t -> int list
(** The candidate assumed latencies for a memory instruction, sorted
    increasing: local hit, remote hit, local miss, remote miss. *)

val validate : t -> (unit, string) result
(** Structural sanity of a configuration (positive counts, power-of-two
    geometry where required, block divisible among clusters...). *)

val of_spec :
  ?clusters:int ->
  ?icn:string ->
  ?protocol:string ->
  ?membus:int ->
  name:string ->
  interleave:int ->
  ab:bool ->
  unit ->
  (t, string) result
(** Build and validate a machine from its command-line spelling: a preset
    [name] ([bal], [nobal-mem], [nobal-reg]), an interleave factor and
    the AB flag. [clusters] (default 4) scales the preset with
    {!scale_clusters}; [icn] (default ["bus"]) selects the interconnect
    ([bus] or [directory]); [protocol] (default ["install-flush"]) the AB
    coherence protocol ([msi] needs the bus, [mesi] the directory);
    [membus] overrides the scaled memory-bus count. The error is one line
    naming the bad field. Kernel-file header directives and the tools'
    flags reach it through {!Header}, which owns their defaults. *)

val pp : Format.formatter -> t -> unit
val describe : t -> (string * string) list
(** Key/value rendering of the configuration (used to echo Table 2). *)
