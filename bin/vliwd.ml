(* vliwd — the persistent compile service.

   Speaks the Vliw_serve.Protocol JSONL wire format: one JSON request per
   line on stdin (the default) or per Unix-socket connection (--socket),
   one JSON reply per line back. Besides compile requests, a line may be
   a control op: {"op":"ping"}, {"op":"stats"} or {"op":"shutdown"}.

   Examples:
     vliwload req kernel.lk | vliwd | vliwload decode
     vliwd --socket /tmp/vliwd.sock --jobs 4 --trace serve-trace.json *)

open Cmdliner
module Json = Vliw_util.Json
module Protocol = Vliw_serve.Protocol
module Server = Vliw_serve.Server

type out = { o_lock : Mutex.t; o_chan : out_channel }

let write_line out j =
  Mutex.lock out.o_lock;
  output_string out.o_chan (Protocol.to_line j);
  output_char out.o_chan '\n';
  flush out.o_chan;
  Mutex.unlock out.o_lock

let error_line ~id msg =
  Protocol.reply_to_json ~id
    (Protocol.Done { o_output = ""; o_error = Some msg; o_exit = 2; o_kernels = [] })

let id_of j =
  Option.value (Option.bind (Json.member "id" j) Json.to_int_opt) ~default:0

(* Serve one input line. Replies are written in request order per input
   stream: compile requests go through the blocking [Server.call], so
   concurrency comes from serving several connections at once while each
   connection stays strictly ordered. Returns [false] after a shutdown
   op. *)
let serve_line server out line =
  let line = String.trim line in
  if line = "" then true
  else
    match Json.of_string line with
    | exception Json.Parse_error e ->
      write_line out (error_line ~id:0 (Printf.sprintf "parse error: %s" e));
      true
    | j -> (
      match Option.bind (Json.member "op" j) Json.to_string_opt with
      | Some "ping" ->
        write_line out
          (Json.Obj
             [
               ("id", Json.Int (id_of j));
               ("status", Json.String "ok");
               ("op", Json.String "ping");
             ]);
        true
      | Some "stats" ->
        write_line out
          (Json.Obj
             [
               ("id", Json.Int (id_of j));
               ("status", Json.String "ok");
               ("op", Json.String "stats");
               ("stats", Server.stats_json server);
             ]);
        true
      | Some "shutdown" ->
        write_line out
          (Json.Obj
             [
               ("id", Json.Int (id_of j));
               ("status", Json.String "ok");
               ("op", Json.String "shutdown");
             ]);
        false
      | Some op ->
        write_line out (error_line ~id:(id_of j) (Printf.sprintf "unknown op %S" op));
        true
      | None -> (
        match Protocol.request_of_json j with
        | Error e -> write_line out (error_line ~id:(id_of j) e); true
        | Ok rq ->
          write_line out
            (Protocol.reply_to_json ~id:rq.Protocol.rq_id (Server.call server rq));
          true))

let write_trace server = function
  | None -> ()
  | Some path ->
    let oc = open_out path in
    Json.to_channel oc (Server.trace_json server);
    close_out oc;
    Printf.eprintf "vliwd: wrote %s\n%!" path

let run_stdio server trace =
  let out = { o_lock = Mutex.create (); o_chan = stdout } in
  (try
     let continue = ref true in
     while !continue do
       match input_line stdin with
       | line -> if not (serve_line server out line) then continue := false
       | exception End_of_file -> continue := false
     done
   with Sys_error _ -> ());
  write_trace server trace;
  Server.shutdown server

let run_socket server path trace =
  if Sys.file_exists path then Sys.remove path;
  let sock = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.bind sock (Unix.ADDR_UNIX path);
  Unix.listen sock 64;
  let stopping = Atomic.make false in
  Printf.eprintf "vliwd: listening on %s (jobs=%d, queue capacity %d)\n%!" path
    (Server.jobs server) (Server.queue_capacity server);
  let handle fd =
    let ic = Unix.in_channel_of_descr fd in
    let out = { o_lock = Mutex.create (); o_chan = Unix.out_channel_of_descr fd } in
    (try
       let continue = ref true in
       while !continue do
         match input_line ic with
         | line ->
           if not (serve_line server out line) then begin
             continue := false;
             Atomic.set stopping true
           end
         | exception End_of_file -> continue := false
       done
     with Sys_error _ -> ());
    try Unix.close fd with Unix.Unix_error _ -> ()
  in
  (* poll with a timeout rather than block in accept: closing the
     listener from a handler thread does not wake a blocked accept, so
     the shutdown op could never terminate the loop *)
  (try
     while not (Atomic.get stopping) do
       match Unix.select [ sock ] [] [] 0.2 with
       | [], _, _ -> ()
       | _ ->
         let fd, _ = Unix.accept sock in
         ignore (Thread.create handle fd)
     done
   with Unix.Unix_error _ -> ());
  (try Unix.close sock with Unix.Unix_error _ -> ());
  (* the shutdown ack was flushed by its handler before the listener
     closed; give any last in-flight replies a beat, then tear down *)
  write_trace server trace;
  Server.shutdown server;
  if Sys.file_exists path then try Sys.remove path with Sys_error _ -> ()

let main socket jobs queue_capacity cache_max minor_heap_kw retry_after trace =
  let at_least = Flags.at_least ~tool:"vliwd" in
  Option.iter (at_least ~flag:"jobs" 1) jobs;
  at_least ~flag:"queue-capacity" 1 queue_capacity;
  at_least ~flag:"cache-max" 0 cache_max;
  at_least ~flag:"minor-heap" 1 minor_heap_kw;
  at_least ~flag:"retry-after" 0 retry_after;
  let server =
    Server.create ?jobs ~queue_capacity ~cache_max
      ~minor_heap_words:(minor_heap_kw * 1024)
      ~retry_after_ms:retry_after ()
  in
  match socket with
  | None -> run_stdio server trace
  | Some path -> run_socket server path trace

let socket =
  Arg.(
    value
    & opt (some string) None
    & info [ "socket" ] ~docv:"PATH"
        ~doc:
          "Listen on a Unix domain socket instead of stdin/stdout; each \
           connection is an independent, strictly-ordered request stream.")

let jobs =
  Arg.(
    value
    & opt (some int) None
    & info [ "j"; "jobs" ] ~docv:"N"
        ~doc:
          "Worker domains compiling requests. Default: $(b,VLIW_JOBS) or the \
           recommended domain count.")

let queue_capacity =
  Arg.(
    value & opt int 64
    & info [ "queue-capacity" ] ~docv:"N"
        ~doc:
          "Bound on each worker's request queue; a full queue answers \
           $(b,retry) (backpressure) instead of queueing unboundedly.")

let cache_max =
  Arg.(
    value & opt int 0
    & info [ "cache-max" ] ~docv:"N"
        ~doc:
          "Bound on completed response-cache entries (per-shard LRU \
           eviction, least-recently-served spec dropped first); 0 keeps \
           every completed spec for the server's lifetime.")

let minor_heap_kw =
  Arg.(
    value
    & opt int (Server.default_minor_heap_words / 1024)
    & info [ "minor-heap" ] ~docv:"KWORDS"
        ~doc:
          "Per-domain minor heap size in Kwords; larger heaps mean fewer \
           stop-the-world minor collections across the pool.")

let retry_after =
  Arg.(
    value & opt int 5
    & info [ "retry-after" ] ~docv:"MS"
        ~doc:"Suggested client backoff carried in $(b,retry) replies.")

let trace =
  Arg.(
    value
    & opt (some string) None
    & info [ "trace" ] ~docv:"FILE"
        ~doc:
          "On exit, write the per-request queued/compile spans as Chrome \
           trace-event JSON (open in Perfetto).")

let cmd =
  let doc = "persistent compile service for .lk loop kernels" in
  let man =
    [
      `S Manpage.s_description;
      `P
        "Serves the vliwc pipeline over a JSONL protocol: each request \
         carries a kernel source plus machine/compile options mirroring the \
         vliwc flags, and each reply's $(b,output) field is byte-identical \
         to the stdout of the equivalent one-shot vliwc run. Identical \
         in-flight requests are coalesced onto one compile; completed specs \
         are cached in a sharded response cache whose shard index doubles as \
         the worker-affinity hint, unbounded by default or LRU-bounded with \
         $(b,--cache-max).";
    ]
  in
  Cmd.v
    (Cmd.info "vliwd" ~version:"1.0.0" ~doc ~man)
    Term.(
      const main $ socket $ jobs $ queue_capacity $ cache_max $ minor_heap_kw
      $ retry_after $ trace)

let () = exit (Cmd.eval cmd)
