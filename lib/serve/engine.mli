(** The one-shot compile→verify→simulate pipeline as a library.

    This is vliwc's kernel path factored out so the CLI and the
    compilation service ({!Server}) share a single ingest: both resolve
    a source's machine through {!load_source} (flags over its header
    directives) and render their human-readable report into a
    caller-supplied [Buffer], so the service's response bodies are
    byte-identical to what [vliwc] prints on stdout for the same inputs —
    the property [test/cli/vliwd.t] and the CI smoke job diff. *)

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

val prepare :
  buf:Buffer.t ->
  machine:Vliw_arch.Machine.t ->
  opts:opts ->
  Vliw_ir.Ast.kernel ->
  (Vliw_ir.Ast.kernel, int * string option) result
(** Typecheck, lint ([op_lint], [op_lint_error]), eliminate redundant
    loads ([op_cse]) and unroll ([op_unroll]): the kernel as
    {!run_kernel} schedules it, and as [vliwc --compare] tabulates it.
    The diagnostics and the CSE/unroll notes go to [buf]; errors are as
    in {!run_kernel}. *)

val run_kernel :
  ?artifacts:(artifacts -> unit) ->
  buf:Buffer.t ->
  machine:Vliw_arch.Machine.t ->
  opts:opts ->
  Vliw_ir.Ast.kernel ->
  (summary, int * string option) result
(** Compile, optionally verify, and simulate one kernel. Appends to
    [buf] exactly the bytes vliwc prints on stdout. [Error (1, msg)]
    means vliwc would exit 1, after printing [msg] on stderr ([None]
    when the failure's diagnostics — lint, verification — are already in
    [buf]). [artifacts] fires once per successful kernel, after
    verification and simulation, with the exact pipeline state the run
    used; no callback, no behavior change. *)

val load_source :
  flags:Vliw_arch.Header.t ->
  path:string ->
  string ->
  (Vliw_arch.Machine.t * Vliw_ir.Ast.kernel list, int * string option) result
(** The machine — explicit [flags] over the source's header directives
    over the preset ({!Vliw_arch.Header}) — and the source's kernels.
    [Error (code, msg)] is vliwc's exit code and stderr line: 2 for a
    machine the header or [flags] get wrong, 1 for a parse error
    (prefixed by [path]). *)

val run_source :
  ?artifacts:(artifacts -> unit) ->
  buf:Buffer.t ->
  flags:Vliw_arch.Header.t ->
  opts:opts ->
  path:string ->
  string ->
  (summary list, int * string option) result
(** {!load_source}, then run each kernel in order, stopping at the first
    failure. [artifacts] is passed through to each kernel's
    {!run_kernel}. *)
