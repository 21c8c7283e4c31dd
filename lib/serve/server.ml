module Json = Vliw_util.Json
module Pool = Vliw_util.Pool

(* per-request timing span for the server's Chrome trace *)
type span = {
  sp_key : string;  (** fingerprint prefix, for the trace label *)
  sp_queue : int;
  sp_submit : float;
  sp_start : float;
  sp_finish : float;
  sp_ok : bool;
}

type t = {
  sv_service : Pool.Service.t;
  sv_cache : Protocol.outcome Cache.t;
  sv_retry_after_ms : int;
  sv_submitted : int Atomic.t;
  sv_completed : int Atomic.t;
  sv_rejected : int Atomic.t;
  sv_t0 : float;
  sv_spans : span list ref;  (* newest first; protected by sv_spans_lock *)
  sv_spans_lock : Mutex.t;
  sv_max_spans : int;
  sv_span_count : int ref;
}

(* OCaml 5 minor collections are global stop-the-world syncs across every
   domain; 8M words (64 MB) per domain keeps independent small-kernel
   compiles from constantly dragging each other into them. *)
let default_minor_heap_words = 8 * 1024 * 1024

let create ?jobs ?(queue_capacity = 64) ?(shards = 16) ?(cache_max = 0)
    ?(minor_heap_words = default_minor_heap_words) ?(retry_after_ms = 5)
    ?(max_spans = 20_000) () =
  {
    sv_service =
      Pool.Service.start ?jobs ~capacity:queue_capacity ~minor_heap_words ();
    sv_cache = Cache.create ~shards ~max_entries:cache_max ();
    sv_retry_after_ms = retry_after_ms;
    sv_submitted = Atomic.make 0;
    sv_completed = Atomic.make 0;
    sv_rejected = Atomic.make 0;
    sv_t0 = Unix.gettimeofday ();
    sv_spans = ref [];
    sv_spans_lock = Mutex.create ();
    sv_max_spans = max_spans;
    sv_span_count = ref 0;
  }

let jobs t = Pool.Service.width t.sv_service
let queue_capacity t = Pool.Service.capacity t.sv_service

(* The pure one-shot serving function: exactly what vliwc does for the
   same inputs, with stdout captured as the response body. *)
let compile (rq : Protocol.request) : Protocol.outcome =
  let flags =
    { Vliw_arch.Header.none with machine = rq.Protocol.rq_machine;
      interleave = rq.Protocol.rq_interleave; ab = rq.Protocol.rq_ab;
      protocol = rq.Protocol.rq_protocol }
  in
  let opts =
    {
      Engine.default_opts with
      Engine.op_technique = rq.Protocol.rq_technique;
      op_heuristic = rq.Protocol.rq_heuristic;
      op_ordering = rq.Protocol.rq_ordering;
      op_pad = rq.Protocol.rq_pad;
      op_unroll = rq.Protocol.rq_unroll;
      op_cse = rq.Protocol.rq_cse;
      op_verify = rq.Protocol.rq_verify;
      op_execution = rq.Protocol.rq_execution;
    }
  in
  let buf = Buffer.create 1024 in
  let result =
    Engine.run_source ~buf ~flags ~opts ~path:"-" rq.Protocol.rq_kernel
  in
  let o_output = Buffer.contents buf in
  match result with
  | Ok summaries ->
    {
      Protocol.o_output;
      o_error = None;
      o_exit = 0;
      o_kernels = List.map Protocol.summary_json summaries;
    }
  | Error (o_exit, o_error) ->
    { Protocol.o_output; o_error; o_exit; o_kernels = [] }

let record_span t span =
  Mutex.lock t.sv_spans_lock;
  if !(t.sv_span_count) < t.sv_max_spans then begin
    t.sv_spans := span :: !(t.sv_spans);
    incr t.sv_span_count
  end;
  Mutex.unlock t.sv_spans_lock

(* Submit a request; [reply] fires exactly once, possibly synchronously
   (cache hit or backpressure rejection) and possibly from a worker
   domain (fresh compile or coalesced join). *)
let submit t rq ~reply =
  Atomic.incr t.sv_submitted;
  let key = Protocol.key rq in
  let waiter = function
    | Some o ->
      Atomic.incr t.sv_completed;
      reply (Protocol.Done o)
    | None ->
      Atomic.incr t.sv_rejected;
      reply
        (Protocol.Retry { after_ms = t.sv_retry_after_ms; depth = 0 })
  in
  match Cache.lookup t.sv_cache ~key ~waiter with
  | `Ready o ->
    Atomic.incr t.sv_completed;
    reply (Protocol.Done o)
  | `Joined -> ()
  | `Must_compute ->
    let queue = Cache.shard_of_key t.sv_cache key in
    let t_submit = Unix.gettimeofday () in
    let task () =
      let t_start = Unix.gettimeofday () in
      let o = try compile rq with
        | e ->
          (* defensive: a pipeline bug must produce an error response,
             not kill the worker *)
          {
            Protocol.o_output = "";
            o_error = Some (Printexc.to_string e);
            o_exit = 1;
            o_kernels = [];
          }
      in
      let waiters = Cache.fill t.sv_cache ~key o in
      record_span t
        {
          sp_key = String.sub key 0 8;
          sp_queue = queue mod jobs t;
          sp_submit = t_submit;
          sp_start = t_start;
          sp_finish = Unix.gettimeofday ();
          sp_ok = o.Protocol.o_exit = 0;
        };
      Atomic.incr t.sv_completed;
      reply (Protocol.Done o);
      List.iter (fun w -> w (Some o)) waiters
    in
    if not (Pool.Service.submit t.sv_service ~queue task) then begin
      let waiters = Cache.abort t.sv_cache ~key in
      let depth = Pool.Service.depth t.sv_service (queue mod jobs t) in
      Atomic.incr t.sv_rejected;
      reply (Protocol.Retry { after_ms = t.sv_retry_after_ms; depth });
      List.iter (fun w -> w None) waiters
    end

(* Synchronous convenience for clients that live in this process. *)
let call t rq =
  let m = Mutex.create () in
  let c = Condition.create () in
  let result = ref None in
  submit t rq ~reply:(fun rep ->
      Mutex.lock m;
      result := Some rep;
      Condition.signal c;
      Mutex.unlock m);
  Mutex.lock m;
  while Option.is_none !result do
    Condition.wait c m
  done;
  Mutex.unlock m;
  Option.get !result

let cache_stats t = Cache.stats t.sv_cache
let queue_stats t = Pool.Service.queue_stats t.sv_service
let minor_collections t = Pool.Service.minor_collections t.sv_service

let stats_json t =
  let c = Cache.stats t.sv_cache in
  let qs = Pool.Service.queue_stats t.sv_service in
  let minors = Pool.Service.minor_collections t.sv_service in
  Json.Obj
    [
      ("uptime_s", Json.Float (Unix.gettimeofday () -. t.sv_t0));
      ("jobs", Json.Int (jobs t));
      ("queue_capacity", Json.Int (queue_capacity t));
      ("submitted", Json.Int (Atomic.get t.sv_submitted));
      ("completed", Json.Int (Atomic.get t.sv_completed));
      ("rejected", Json.Int (Atomic.get t.sv_rejected));
      ( "cache",
        Json.Obj
          [
            ("hits", Json.Int c.Cache.c_hits);
            ("coalesced", Json.Int c.Cache.c_coalesced);
            ("misses", Json.Int c.Cache.c_misses);
            ("contended", Json.Int c.Cache.c_contended);
            ("entries", Json.Int c.Cache.c_entries);
            ("evictions", Json.Int c.Cache.c_evictions);
            ("capacity", Json.Int (Cache.capacity t.sv_cache));
            ("shards", Json.Int (Cache.shard_count t.sv_cache));
          ] );
      ( "queues",
        Json.List
          (Array.to_list
             (Array.map
                (fun (q : Pool.Service.queue_stats) ->
                  Json.Obj
                    [
                      ("depth", Json.Int q.Pool.Service.qs_depth);
                      ("max_depth", Json.Int q.Pool.Service.qs_max_depth);
                      ("executed", Json.Int q.Pool.Service.qs_executed);
                      ("failed", Json.Int q.Pool.Service.qs_failed);
                    ])
                qs)) );
      ( "gc_minor_collections",
        Json.List (Array.to_list (Array.map (fun n -> Json.Int n) minors)) );
    ]

(* Chrome trace-event JSON of every recorded request: a "queued" span
   from submit to dequeue and a "compile" span for the work itself, one
   track per worker. Loadable in Perfetto, like the simulator traces. *)
let trace_json t =
  Mutex.lock t.sv_spans_lock;
  let spans = List.rev !(t.sv_spans) in
  Mutex.unlock t.sv_spans_lock;
  let us dt = Json.Float (1e6 *. dt) in
  let event ~name ~ts ~dur ~tid ~args =
    Json.Obj
      [
        ("name", Json.String name);
        ("cat", Json.String "serve");
        ("ph", Json.String "X");
        ("ts", ts);
        ("dur", dur);
        ("pid", Json.Int 1);
        ("tid", Json.Int tid);
        ("args", Json.Obj args);
      ]
  in
  Json.Obj
    [
      ("displayTimeUnit", Json.String "ms");
      ( "traceEvents",
        Json.List
          (List.concat_map
             (fun s ->
               let args =
                 [
                   ("key", Json.String s.sp_key);
                   ("ok", Json.Bool s.sp_ok);
                 ]
               in
               [
                 event ~name:"queued"
                   ~ts:(us (s.sp_submit -. t.sv_t0))
                   ~dur:(us (s.sp_start -. s.sp_submit))
                   ~tid:s.sp_queue ~args;
                 event ~name:"compile"
                   ~ts:(us (s.sp_start -. t.sv_t0))
                   ~dur:(us (s.sp_finish -. s.sp_start))
                   ~tid:s.sp_queue ~args;
               ])
             spans) );
    ]

let shutdown t = Pool.Service.stop t.sv_service
