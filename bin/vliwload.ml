(* vliwload — client and load generator for the vliwd compile service.

   Subcommands compose into pipelines:
     vliwload req -t mdc kernel.lk | vliwd | vliwload decode
       # byte-identical to: vliwc -t mdc kernel.lk
     vliwload req --repeat 50 k1.lk k2.lk | vliwload run --socket S --clients 8
       # concurrent load against a running vliwd, replies on stdout in
       # request order, throughput/latency summary on stderr
     vliwload ctl --socket S stats    # and ping / shutdown *)

open Cmdliner
module Json = Vliw_util.Json
module Protocol = Vliw_serve.Protocol

(* ---- req: turn kernel files into request JSONL ---- *)

let req_main files technique heuristic ordering machine interleave ab pad
    unroll cse verify execution protocol repeat =
  if files = [] then begin
    Printf.eprintf "vliwload req: pass at least one .lk FILE (- for stdin)\n";
    exit 2
  end;
  Flags.at_least ~tool:"vliwload" ~flag:"pad" 0 pad;
  Option.iter (Flags.at_least ~tool:"vliwload" ~flag:"unroll" 0) unroll;
  let sources = List.map (Flags.read_source ~tool:"vliwload") files in
  let id = ref 0 in
  for _ = 1 to max 1 repeat do
    List.iter
      (fun src ->
        (* an unset machine flag is left out: vliwd then reads the
           kernel's header directives, as vliwc does *)
        let rq =
          Protocol.request ~technique ~heuristic ~ordering ?machine ?interleave
            ?ab:(if ab then Some true else None)
            ~pad ?unroll ~cse ~verify ~execution ?protocol ~id:!id src
        in
        incr id;
        print_endline (Protocol.to_line (Protocol.request_to_json rq)))
      sources
  done

(* ---- decode: reply JSONL back to vliwc-equivalent stdout/stderr/exit ---- *)

let decode_main () =
  let worst = ref 0 in
  (try
     while true do
       let line = String.trim (input_line stdin) in
       if line <> "" then
         match Json.of_string line with
         | exception Json.Parse_error e ->
           Printf.eprintf "vliwload decode: parse error: %s\n" e;
           worst := max !worst 3
         | j -> (
           match Protocol.reply_of_json j with
           | Error e ->
             Printf.eprintf "vliwload decode: %s\n" e;
             worst := max !worst 3
           | Ok (_, Protocol.Retry { after_ms; depth }) ->
             Printf.eprintf
               "vliwload decode: unexpected retry (after %d ms, queue depth \
                %d)\n"
               after_ms depth;
             worst := max !worst 3
           | Ok (_, Protocol.Done o) ->
             print_string o.Protocol.o_output;
             (match o.Protocol.o_error with
             | Some m ->
               flush stdout;
               Printf.eprintf "%s\n" m
             | None -> ());
             worst := max !worst o.Protocol.o_exit)
     done
   with End_of_file -> ());
  exit !worst

(* ---- socket plumbing ---- *)

let connect path =
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  (try Unix.connect fd (Unix.ADDR_UNIX path)
   with Unix.Unix_error (e, _, _) ->
     Printf.eprintf "vliwload: cannot connect to %s: %s\n" path
       (Unix.error_message e);
     exit 3);
  (Unix.in_channel_of_descr fd, Unix.out_channel_of_descr fd, fd)

let send_line oc line =
  output_string oc line;
  output_char oc '\n';
  flush oc

(* ---- run: concurrent closed-loop client over a Unix socket ---- *)

let run_main socket clients =
  let lines = ref [] in
  (try
     while true do
       let l = String.trim (input_line stdin) in
       if l <> "" then lines := l :: !lines
     done
   with End_of_file -> ());
  let reqs = Array.of_list (List.rev !lines) in
  let n = Array.length reqs in
  let replies = Array.make n "" in
  let latencies = Array.make (max 1 n) 0. in
  let next = Atomic.make 0 in
  let retries = Atomic.make 0 in
  let errors = Atomic.make 0 in
  let clients = max 1 (min clients (max 1 n)) in
  let t0 = Unix.gettimeofday () in
  let client () =
    let ic, oc, fd = connect socket in
    let rec serve_one i =
      let t_start = Unix.gettimeofday () in
      let rec attempt () =
        send_line oc reqs.(i);
        let line = input_line ic in
        match Json.of_string line with
        | exception Json.Parse_error e ->
          Printf.eprintf "vliwload run: bad reply: %s\n" e;
          exit 3
        | j -> (
          match Protocol.reply_of_json j with
          | Ok (_, Protocol.Retry { after_ms; _ }) ->
            Atomic.incr retries;
            Thread.delay (float_of_int (max 1 after_ms) /. 1000.);
            attempt ()
          | Ok (_, Protocol.Done o) ->
            if o.Protocol.o_exit <> 0 then Atomic.incr errors;
            replies.(i) <- line;
            latencies.(i) <- Unix.gettimeofday () -. t_start
          | Error e ->
            Printf.eprintf "vliwload run: bad reply: %s\n" e;
            exit 3)
      in
      attempt ();
      let next_i = Atomic.fetch_and_add next 1 in
      if next_i < n then serve_one next_i
    in
    let first = Atomic.fetch_and_add next 1 in
    if first < n then serve_one first;
    close_in_noerr ic;
    (try Unix.close fd with Unix.Unix_error _ -> ())
  in
  (* claim indices through one shared counter; [clients] threads each keep
     exactly one request outstanding on their own connection *)
  let threads = List.init clients (fun _ -> Thread.create client ()) in
  List.iter Thread.join threads;
  let wall = Unix.gettimeofday () -. t0 in
  Array.iter print_endline replies;
  let sorted = Array.copy latencies in
  Array.sort compare sorted;
  let pct q =
    if n = 0 then 0.
    else
      sorted.(max 0 (min (n - 1) (int_of_float (ceil (q *. float_of_int n)) - 1)))
  in
  Printf.eprintf
    "vliwload run: %d requests, %d clients: %d ok, %d errors, %d retries; \
     %.2fs wall, %.0f req/s, p50 %.2f ms, p99 %.2f ms\n"
    n clients
    (n - Atomic.get errors)
    (Atomic.get errors) (Atomic.get retries) wall
    (if wall > 0. then float_of_int n /. wall else 0.)
    (1e3 *. pct 0.50) (1e3 *. pct 0.99);
  exit (if Atomic.get errors > 0 then 1 else 0)

(* ---- ctl: control ops ---- *)

let ctl_main socket op =
  let ic, oc, fd = connect socket in
  send_line oc (Protocol.to_line (Json.Obj [ ("op", Json.String op) ]));
  (match input_line ic with
  | line -> print_endline line
  | exception End_of_file ->
    Printf.eprintf "vliwload ctl: connection closed without a reply\n";
    exit 3);
  close_in_noerr ic;
  (try Unix.close fd with Unix.Unix_error _ -> ())

(* ---- cmdliner wiring ---- *)

let socket =
  Arg.(
    required
    & opt (some string) None
    & info [ "socket" ] ~docv:"PATH" ~doc:"Unix socket of a running vliwd.")

let req_cmd =
  let files =
    Arg.(
      value & pos_all string []
      & info [] ~docv:"FILE" ~doc:".lk kernel files ($(b,-) reads stdin once)")
  in
  let repeat =
    Arg.(value & opt int 1
         & info [ "repeat" ] ~docv:"N"
             ~doc:"Emit the request list $(docv) times (distinct ids, \
                   identical specs — exercises the server's dedup cache).")
  in
  Cmd.v
    (Cmd.info "req" ~doc:"Emit compile requests as JSONL on stdout.")
    Term.(
      const req_main $ files $ Flags.technique $ Flags.heuristic
      $ Flags.ordering $ Flags.machine $ Flags.interleave $ Flags.ab $ Flags.pad
      $ Flags.unroll $ Flags.cse $ Flags.verify $ Flags.execution
      $ Flags.protocol $ repeat)

let decode_cmd =
  Cmd.v
    (Cmd.info "decode"
       ~doc:
         "Decode reply JSONL from stdin back into vliwc-equivalent \
          stdout/stderr, exiting with the worst per-request exit code.")
    Term.(const decode_main $ const ())

let run_cmd =
  let clients =
    Arg.(
      value & opt int 1
      & info [ "clients" ] ~docv:"N"
          ~doc:
            "Concurrent client connections; each keeps one request \
             outstanding (closed loop) and honours $(b,retry) backoff.")
  in
  Cmd.v
    (Cmd.info "run"
       ~doc:
         "Send request JSONL from stdin to a running vliwd over its Unix \
          socket; print replies on stdout in request order and a \
          throughput/latency summary on stderr.")
    Term.(const run_main $ socket $ clients)

let ctl_cmd =
  let op =
    Arg.(
      required
      & pos 0 (some (enum [ ("ping", "ping"); ("stats", "stats");
                            ("shutdown", "shutdown") ])) None
      & info [] ~docv:"OP" ~doc:"$(b,ping), $(b,stats) or $(b,shutdown).")
  in
  Cmd.v
    (Cmd.info "ctl" ~doc:"Send a control op to a running vliwd.")
    Term.(const ctl_main $ socket $ op)

let cmd =
  let doc = "client and load generator for the vliwd compile service" in
  Cmd.group (Cmd.info "vliwload" ~version:"1.0.0" ~doc)
    [ req_cmd; decode_cmd; run_cmd; ctl_cmd ]

let () = exit (Cmd.eval cmd)
