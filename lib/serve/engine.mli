(** The one-shot compile→verify→simulate pipeline as a library.

    This is vliwc's kernel path factored out so the CLI and the
    compilation service ({!Server}) share a single ingest: both render
    their human-readable report into a caller-supplied [Buffer], and the
    service's response bodies are byte-identical to what [vliwc] prints
    on stdout for the same inputs — the property the CI smoke job
    diffs. *)

type opts = {
  op_technique : Vliw_sched.Schedule.technique;
  op_heuristic : Vliw_sched.Schedule.heuristic;
  op_ordering : Vliw_sched.Ims.ordering;
  op_pad : int;
  op_unroll : int option;  (** [Some 0] = automatic factor (Section 2.2) *)
  op_cse : bool;
  op_lint : bool;
  op_lint_error : bool;
  op_verify : bool;
  op_dump_ddg : bool;
  op_dot : string option;
  op_dump_sched : bool;
  op_execution : bool;
  op_trace_file : string option;
}

val default_opts : opts
(** Mirrors vliwc's flag defaults exactly (free technique, MinComs,
    height ordering, everything else off). *)

val source_directives : string -> (string * string) list
(** [key=value] pairs found on ['#'] comment lines of a [.lk] source, in
    order — the header-directive convention shared with the fuzzer's
    repro files (e.g. [# clusters=8 interconnect=directory]). *)

type summary = {
  s_name : string;  (** kernel name *)
  s_digest : string;  (** hex digest of the rendered schedule *)
  s_report : Vliw_verify.Verify.report option;  (** when [op_verify] *)
  s_stats : Vliw_sim.Sim.stats;
}

val schedule_digest : Vliw_sched.Schedule.t -> string

type artifacts = {
  a_kernel : Vliw_ir.Ast.kernel;  (** post-CSE/unroll, as scheduled *)
  a_layout : Vliw_ir.Layout.t;
  a_lowered : Vliw_lower.Lower.t;
  a_graph : Vliw_ddg.Graph.t;  (** post-transform graph the schedule covers *)
  a_schedule : Vliw_sched.Schedule.t;
  a_report : Vliw_verify.Verify.report option;  (** when [op_verify] *)
}
(** The compiled pipeline state of one kernel, observable via the
    [?artifacts] callback — what [vliwc --check] hands to the model
    checker without re-deriving the pipeline. *)

val run_kernel :
  ?artifacts:(artifacts -> unit) ->
  buf:Buffer.t ->
  machine:Vliw_arch.Machine.t ->
  opts:opts ->
  Vliw_ir.Ast.kernel ->
  (summary, string option) result
(** Compile, optionally verify, and simulate one kernel. Appends to
    [buf] exactly the bytes vliwc prints on stdout. [Error msg] means
    vliwc would exit 1, after printing [msg] on stderr ([None] when the
    failure's diagnostics — lint, verification — are already in
    [buf]). [artifacts] fires once per successful kernel, after
    verification and simulation, with the exact pipeline state the run
    used; no callback, no behavior change. *)

val run_source :
  ?artifacts:(artifacts -> unit) ->
  buf:Buffer.t ->
  machine:Vliw_arch.Machine.t ->
  opts:opts ->
  path:string ->
  string ->
  (summary list, string option) result
(** Parse a [.lk] source (possibly several kernels) and run each in
    order, stopping at the first failure; [path] only prefixes parse
    error positions. [artifacts] is passed through to each kernel's
    {!run_kernel}. *)
