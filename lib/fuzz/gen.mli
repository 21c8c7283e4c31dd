(** Seeded random loop generator over the kernel IR.

    Cases are built from {e motifs}, one per entry of the paper's
    memory-dependence taxonomy: MF / MA / MO chains at loop-carried
    distances 0..3, self-output stores (a repeating store address),
    may-alias strided accesses across [mayoverlap] arrays, indirect
    (register-addressed) accesses through an index table, split accesses
    (aliased arrays of different element widths), loop-carried scalar
    recurrences, a bus-contention motif (the Figure 2 scenario), a
    directory-race motif (a hot address whose per-iteration store
    invalidates race the load's in-flight Attraction-Buffer fill), a
    protocol-race motif (two hot lines bouncing between upgrade and
    invalidation/downgrade under MSI/MESI), and a fill-race motif (a
    subblock sweep keeping fills and capacity evictions in flight while
    a hot line is stored). A case also carries a machine configuration —
    base preset, cluster count, interconnect backend, interleave factor,
    memory-bus count, Attraction Buffers, coherence protocol — and a
    bus-jitter bound.

    Every case is a pure function of [(root seed, index)]: the generator
    draws from [Prng.derive (Prng.derive_named (Prng.create seed) "fuzz")
    index], so any case regenerates independently of how many others were
    produced, in any order, on any pool width. *)

type mconf = {
  mc_base : string;  (** ["bal"] (Table 2), ["nobal-mem"] or ["nobal-reg"] *)
  mc_clusters : int;  (** cluster count the base preset is scaled to
                          (4, 8 or 16; 4 is sampled twice as often) *)
  mc_icn : string;  (** interconnect backend (["bus"] or ["directory"]) *)
  mc_interleave : int;  (** interleaving factor in bytes (2 or 4) *)
  mc_membus : int;  (** memory-bus count override (1..4) *)
  mc_ab : bool;  (** 16-entry 2-way Attraction Buffers enabled *)
  mc_protocol : string;
      (** coherence protocol: ["install-flush"] (half the cases), else
          the one matching the backend (["msi"] on bus, ["mesi"] on
          directory) *)
}

type case = {
  g_seed : int;  (** root seed the case derives from *)
  g_index : int;  (** case index within the root seed's stream *)
  g_budget : int;  (** size budget the generator was given *)
  g_jitter : int;  (** max extra cycles per bus transfer (0 = none) *)
  g_mconf : mconf;
  g_shapes : string list;  (** motif labels present, sorted *)
  g_kernel : Vliw_ir.Ast.kernel;  (** always typechecks *)
}

val stream : seed:int -> index:int -> Vliw_util.Prng.t
(** The derived Prng stream case [(seed, index)] is generated from. *)

val machine : mconf -> Vliw_arch.Machine.t
(** Concrete (validated) machine for a case's configuration, built by
    {!Vliw_arch.Header.machine} as vliwc and vliwd build a headed
    source's. Raises [Failure] with its one-line error on a configuration
    it rejects, e.g. an unknown machine name. *)

val generate : seed:int -> budget:int -> int -> case
(** [generate ~seed ~budget index] builds case [index]. [budget] scales
    the number of motifs (roughly one motif per 8 budget points, 1..6). *)

val shape_names : string list
(** Every motif label the generator can emit, in a fixed order — the
    domain of the coverage histogram. *)

(** {1 Repro files}

    A case serializes to a single [.lk] file whose header is a block of
    [# key=value] directives (seed, index, budget, then the machine line
    {!Vliw_arch.Header.to_line} writes, then shapes) followed by the
    kernel in concrete syntax; since [#] starts a comment, the whole file
    is also a valid kernel source. Loading reads the machine through
    {!Vliw_arch.Header}, so vliwc and vliwd run a repro on the machine it
    names: an unset key takes its default (a missing [membus] is the
    preset's count scaled to [clusters]), so hand-written kernels replay
    too, and a malformed value or a rejected machine raises [Failure]
    with one line naming it. *)

val to_file_string : case -> string
val of_file_string : string -> case
val save : string -> case -> unit
val load : string -> case
