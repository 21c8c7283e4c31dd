(** Text rendering of every reproduced table and figure: numeric tables for
    precise comparison with the paper, plus stacked-bar views echoing the
    paper's figures. *)

val table1 : unit -> string
(** Benchmarks and inputs (Table 1, with our seeds standing in for the
    input files). *)

val table2 : Vliw_arch.Machine.t -> string
(** Configuration parameters (Table 2). *)

val fig6 : Experiments.fig6_row list -> string
val fig7 : title:string -> baseline_label:string -> Experiments.fig7_row list -> string
val table3 : Experiments.t3_row list -> string
val table4 : Experiments.t4_row list -> string
val nobal : Experiments.nobal_row list -> string
val table5 : Experiments.t5_row list -> string

(** {1 Ablations} *)

val latency_policies : Ablations.lat_row list -> string
val hybrid : Ablations.hybrid_row list -> string
val ab_sizes : Ablations.ab_row list -> string
val bus_sweep : Ablations.bus_row list -> string
val interleave_sweep : Ablations.il_row list -> string
val specialization : Ablations.spec_row list -> string
val unrolling : Ablations.unroll_row list -> string
val reg_pressure : Ablations.reg_row list -> string
val orderings : Ablations.ord_row list -> string

(** {1 N-cluster scaling} *)

val scale : Experiments.scale_row list -> string
(** Per-(clusters, interconnect) cycle totals for MDC/DDGT/hybrid with the
    directory-traffic counters beside them. *)

(** {1 Coherence protocols} *)

val protocol : Experiments.prot_row list -> string
(** Per-(clusters, backend, protocol) cycle totals for MDC/DDGT/hybrid with
    the protocol-traffic counters (invalidations, upgrades, exclusive
    hits) beside them; install-flush rows are the zero-traffic controls. *)

(** {1 Static coherence verification} *)

val verification : Experiments.verif_row list -> string
(** Certification coverage and flag rate per (technique, heuristic), with
    the aggregated proof-rule histogram. *)

(** {1 Differential fuzzing} *)

val fuzz : Vliw_fuzz.Fuzz.summary -> string
(** Case counts, dep-shape coverage histogram and failure/repro blocks of
    one {!Vliw_fuzz.Fuzz.run} sweep. *)
