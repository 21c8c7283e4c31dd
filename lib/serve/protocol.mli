(** The vliwd wire protocol: JSON, one value per line (JSONL), over stdin/
    stdout or a Unix socket.

    A request carries a [.lk] kernel source plus the machine and compile
    options, each field mirroring the corresponding vliwc flag with the
    same spelling and the same default — an absent machine field, like an
    absent flag, leaves the machine to the kernel's header directives
    ({!Vliw_arch.Header}) — so a response's [output] field is
    byte-identical to the stdout of the equivalent one-shot [vliwc]
    invocation. Responses are a pure function of the spec fields (never of
    the [id], arrival order or pool width); the server deduplicates
    in-flight and caches completed specs by {!key}. *)

type request = {
  rq_id : int;  (** echoed back; not part of {!key} *)
  rq_kernel : string;  (** [.lk] source, possibly several kernels *)
  rq_technique : Vliw_sched.Schedule.technique;
  rq_heuristic : Vliw_sched.Schedule.heuristic;
  rq_ordering : Vliw_sched.Ims.ordering;
  rq_machine : string option;  (** [bal | nobal-mem | nobal-reg] *)
  rq_interleave : int option;
  rq_ab : bool option;
  rq_pad : int;
  rq_unroll : int option;
  rq_cse : bool;
  rq_verify : bool;
  rq_execution : bool;
  rq_protocol : string option;  (** [install-flush | msi | mesi] *)
}

val request :
  ?technique:Vliw_sched.Schedule.technique ->
  ?heuristic:Vliw_sched.Schedule.heuristic ->
  ?ordering:Vliw_sched.Ims.ordering ->
  ?machine:string ->
  ?interleave:int ->
  ?ab:bool ->
  ?pad:int ->
  ?unroll:int ->
  ?cse:bool ->
  ?verify:bool ->
  ?execution:bool ->
  ?protocol:string ->
  id:int ->
  string ->
  request
(** Build a request for a kernel source; every default equals the
    corresponding vliwc flag default, and an omitted machine field stays
    unset. *)

val key : request -> string
(** Dedup/cache fingerprint: a digest over every field except [rq_id]. *)

val request_to_json : request -> Vliw_util.Json.t
val request_of_json : Vliw_util.Json.t -> (request, string) result
(** Missing optional fields take their defaults (machine fields stay
    unset); only ["kernel"] is required. A negative ["pad"] or ["unroll"]
    is an [Error] naming the field, as vliwc refuses the flag.
    {!request_to_json} writes a machine field only when it is set. *)

type outcome = {
  o_output : string;  (** vliwc's stdout, byte for byte *)
  o_error : string option;
      (** vliwc's stderr line, when it would exit nonzero *)
  o_exit : int;  (** vliwc's exit code: 0, 1 (compile), 2 (bad machine) *)
  o_kernels : Vliw_util.Json.t list;  (** per-kernel {!summary_json} *)
}

type reply =
  | Done of outcome
  | Retry of { after_ms : int; depth : int }
      (** backpressure: the affinity queue is full — resend after
          [after_ms] *)

val stats_json : Vliw_sim.Sim.stats -> Vliw_util.Json.t
val summary_json : Engine.summary -> Vliw_util.Json.t
(** [{name; digest; verified; stats}] for one compiled kernel. *)

val reply_to_json : id:int -> reply -> Vliw_util.Json.t
val reply_of_json : Vliw_util.Json.t -> (int * reply, string) result
val to_line : Vliw_util.Json.t -> string
(** Compact one-line rendering for the JSONL framing. *)
