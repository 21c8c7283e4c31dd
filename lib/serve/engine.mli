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
    in {!run_kernel}, and an unroll factor that does not divide the trip
    count is [Error (1, Some "unroll: factor F does not divide trip T")]. *)

val run_kernel :
  ?compiled:
    (Vliw_pipeline.Pipeline.compiled -> Vliw_verify.Verify.report option -> unit) ->
  buf:Buffer.t ->
  machine:Vliw_arch.Machine.t ->
  opts:opts ->
  Vliw_ir.Ast.kernel ->
  (summary, int * string option) result
(** Compile, optionally verify, and simulate one kernel. Appends to
    [buf] exactly the bytes vliwc prints on stdout. [Error (1, msg)]
    means vliwc would exit 1, after printing [msg] on stderr ([None]
    when the failure's diagnostics — lint, verification — are already in
    [buf]). [compiled] fires once per successful kernel, after
    simulation, with the compiled loop the run used (its kernel is the
    prepared one) and the report when [op_verify]: what [vliwc --check]
    hands to the model checker. No callback, no behavior change. *)

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
  ?compiled:
    (Vliw_pipeline.Pipeline.compiled -> Vliw_verify.Verify.report option -> unit) ->
  buf:Buffer.t ->
  flags:Vliw_arch.Header.t ->
  opts:opts ->
  path:string ->
  string ->
  (summary list, int * string option) result
(** {!load_source}, then run each kernel in order, stopping at the first
    failure. [compiled] is passed through to each kernel's
    {!run_kernel}. *)
