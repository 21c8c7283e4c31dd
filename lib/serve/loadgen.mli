(** Deterministic workload generation and a closed-loop in-process load
    driver for the serve benchmark and tests. *)

type named_kernel = { nk_name : string; nk_source : string }

val synth_kernels : int -> named_kernel list
(** Deterministic synthetic kernels [0 .. n-1]: kernel [i] is one of four
    shapes (stream, in-place chain, FIR, data-dependent scatter) with
    per-index parameter variation. Each compiles and simulates cleanly
    under all four techniques. *)

val requests :
  kernels:named_kernel list ->
  techniques:Vliw_sched.Schedule.technique list ->
  ?verify:bool ->
  count:int ->
  unit ->
  Protocol.request list
(** [count] requests with sequential ids cycling over kernels x
    techniques; the first pass over the cross product is all cache
    misses, later passes all hits. *)

type result = {
  g_clients : int;
  g_requests : int;
  g_ok : int;
  g_errors : int;  (** compile errors (exit <> 0), still served *)
  g_retries : int;  (** backpressure rejections that were resent *)
  g_wall_s : float;
  g_rps : float;
  g_p50_ms : float;
  g_p99_ms : float;
}

val result_json : result -> Vliw_util.Json.t

val drive : Server.t -> clients:int -> Protocol.request list -> result
(** Closed-loop driver: [clients] logical clients each keep exactly one
    request outstanding, firing the next from the previous reply's
    callback. Requires [clients <= Server.queue_capacity server] (raises
    [Invalid_argument] otherwise) so backpressure cannot livelock the
    refill. *)
