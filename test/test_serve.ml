(* The compile service: wire protocol, dedup/coalescing through the
   response cache, bounded-queue backpressure, and byte-stable replies at
   any pool width. The cache itself is tested with Vliw_util. *)

module Json = Vliw_util.Json
module Cache = Vliw_util.Cache
module Service = Vliw_util.Pool.Service
module Engine = Vliw_serve.Engine
module S = Vliw_sched.Schedule
module Protocol = Vliw_serve.Protocol
module Server = Vliw_serve.Server
module Loadgen = Vliw_serve.Loadgen

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_str = Alcotest.(check string)

(* a kernel slow enough to compile that a back-to-back duplicate reliably
   arrives inside its in-flight window *)
let slow_kernel name =
  Printf.sprintf
    "kernel %s {\n\
    \  array a : i32[2048] = ramp(1, 1)\n\
    \  array b : i32[2048] = zero\n\
    \  trip 2048\n\
    \  body {\n\
    \    b[i] = a[i] * 3\n\
    \  }\n\
     }\n"
    name

(* ---- protocol ---- *)

let test_request_roundtrip () =
  let rq =
    Protocol.request ~technique:S.Ddgt
      ~heuristic:Vliw_sched.Schedule.Pref_clus ~ordering:Vliw_sched.Ims.Swing
      ~machine:"nobal-mem" ~interleave:8 ~ab:true ~pad:16 ~unroll:2 ~cse:true
      ~verify:true ~execution:true ~id:7 "kernel k { trip 1 body { } }"
  in
  match Protocol.request_of_json (Protocol.request_to_json rq) with
  | Error e -> Alcotest.fail e
  | Ok rq' ->
    check_int "id" rq.Protocol.rq_id rq'.Protocol.rq_id;
    check_str "key survives the round trip" (Protocol.key rq) (Protocol.key rq');
    check "full record equality" true (rq = rq')

let test_request_defaults_mirror_vliwc () =
  match Protocol.request_of_json (Json.of_string {|{"kernel":"k"}|}) with
  | Error e -> Alcotest.fail e
  | Ok rq ->
    check "defaults equal the constructor's" true
      (rq = Protocol.request ~id:0 "k");
    check "technique free" true (rq.Protocol.rq_technique = S.Free);
    check "heuristic mincoms" true
      (rq.Protocol.rq_heuristic = Vliw_sched.Schedule.Min_coms);
    (* an absent machine field leaves the machine to the kernel's header
       directives, as an absent vliwc flag does, and is not written back *)
    check "interleave unset" true (rq.Protocol.rq_interleave = None);
    check "machine fields not written" true
      (List.for_all
         (fun k -> Json.member k (Protocol.request_to_json rq) = None)
         [ "machine"; "interleave"; "ab"; "protocol" ]);
    check "verify off" false rq.Protocol.rq_verify

let test_key_ignores_id () =
  let a = Protocol.request ~id:1 "k" and b = Protocol.request ~id:2 "k" in
  check_str "same spec, same key" (Protocol.key a) (Protocol.key b);
  let c = Protocol.request ~id:1 ~technique:S.Mdc "k" in
  check "different technique, different key" true
    (Protocol.key a <> Protocol.key c)

let test_reply_roundtrip () =
  let done_ =
    Protocol.Done
      {
        Protocol.o_output = "schedule: II=3\n";
        o_error = Some "boom";
        o_exit = 1;
        o_kernels = [ Json.Obj [ ("name", Json.String "k") ] ];
      }
  in
  (match Protocol.reply_of_json (Protocol.reply_to_json ~id:9 done_) with
  | Ok (9, Protocol.Done o) ->
    check_str "output" "schedule: II=3\n" o.Protocol.o_output;
    check "error" true (o.Protocol.o_error = Some "boom");
    check_int "exit" 1 o.Protocol.o_exit;
    check_int "kernels" 1 (List.length o.Protocol.o_kernels)
  | Ok _ -> Alcotest.fail "wrong id or arm"
  | Error e -> Alcotest.fail e);
  match
    Protocol.reply_of_json
      (Protocol.reply_to_json ~id:3
         (Protocol.Retry { after_ms = 7; depth = 2 }))
  with
  | Ok (3, Protocol.Retry { after_ms = 7; depth = 2 }) -> ()
  | Ok _ -> Alcotest.fail "wrong retry payload"
  | Error e -> Alcotest.fail e

(* ---- Pool.Service backpressure ---- *)

let test_service_bounded_queue () =
  let t = Service.start ~jobs:1 ~capacity:1 () in
  let gate = Mutex.create () in
  let m = Mutex.create () and c = Condition.create () in
  let running = ref false and finished = ref 0 in
  let note () =
    Mutex.lock m; incr finished; Condition.signal c; Mutex.unlock m
  in
  Mutex.lock gate;
  check "blocker accepted" true
    (Service.submit t ~queue:0 (fun () ->
         Mutex.lock m; running := true; Condition.signal c; Mutex.unlock m;
         Mutex.lock gate; Mutex.unlock gate;
         note ()));
  (* wait until the worker holds the blocker, so the queue is empty *)
  Mutex.lock m;
  while not !running do Condition.wait c m done;
  Mutex.unlock m;
  check "second task queued" true (Service.submit t ~queue:0 note);
  check_int "queue at capacity" 1 (Service.depth t 0);
  check "third task rejected" false (Service.submit t ~queue:0 note);
  Mutex.unlock gate;
  Mutex.lock m;
  while !finished < 2 do Condition.wait c m done;
  Mutex.unlock m;
  let qs = (Service.queue_stats t).(0) in
  check_int "executed both accepted tasks" 2 qs.Service.qs_executed;
  check_int "max depth saw the full queue" 1 qs.Service.qs_max_depth;
  Service.stop t

(* ---- server ---- *)

let test_server_coalesces_identical_inflight () =
  let server = Server.create ~jobs:1 ~queue_capacity:8 () in
  let m = Mutex.create () and c = Condition.create () in
  let replies = ref [] in
  let reply tag r =
    Mutex.lock m; replies := (tag, r) :: !replies; Condition.signal c;
    Mutex.unlock m
  in
  let rq id = Protocol.request ~id (slow_kernel "dup") in
  Server.submit server (rq 1) ~reply:(reply 1);
  Server.submit server (rq 2) ~reply:(reply 2);
  Mutex.lock m;
  while List.length !replies < 2 do Condition.wait c m done;
  Mutex.unlock m;
  let outcome tag =
    match List.assoc tag !replies with
    | Protocol.Done o -> o
    | Protocol.Retry _ -> Alcotest.fail "unexpected retry"
  in
  check "identical outcomes" true (outcome 1 = outcome 2);
  check_int "compiled cleanly" 0 (outcome 1).Protocol.o_exit;
  let s = Server.cache_stats server in
  check_int "one compile" 1 s.Cache.c_misses;
  check_int "one coalesced join" 1 s.Cache.c_coalesced;
  Server.shutdown server

let test_server_backpressure_retry () =
  let server = Server.create ~jobs:1 ~queue_capacity:1 () in
  let m = Mutex.create () and c = Condition.create () in
  let done_ = ref 0 in
  let count_done = function
    | Protocol.Done _ -> Mutex.lock m; incr done_; Condition.signal c;
      Mutex.unlock m
    | Protocol.Retry _ -> Alcotest.fail "accepted request must complete"
  in
  let rq id name = Protocol.request ~id (slow_kernel name) in
  Server.submit server (rq 1 "bp_a") ~reply:count_done;
  (* wait for the worker to dequeue the first compile *)
  let rec wait_drained () =
    let qs = (Server.queue_stats server).(0) in
    if qs.Service.qs_depth > 0 then (Thread.yield (); wait_drained ())
  in
  wait_drained ();
  Server.submit server (rq 2 "bp_b") ~reply:count_done;
  (* queue is now at capacity: a third distinct spec must bounce *)
  let retried = ref None in
  Server.submit server (rq 3 "bp_c") ~reply:(fun r -> retried := Some r);
  (match !retried with
  | Some (Protocol.Retry { after_ms; depth }) ->
    check "positive backoff" true (after_ms > 0);
    check "reported depth is the full queue" true (depth >= 1)
  | Some (Protocol.Done _) -> Alcotest.fail "full queue must reject"
  | None -> Alcotest.fail "rejection must reply synchronously");
  Mutex.lock m;
  while !done_ < 2 do Condition.wait c m done;
  Mutex.unlock m;
  (* after the queue drains, the same spec is accepted and served *)
  (match Server.call server (rq 4 "bp_c") with
  | Protocol.Done o -> check_int "served after retry" 0 o.Protocol.o_exit
  | Protocol.Retry _ -> Alcotest.fail "drained queue must accept");
  check_int "one rejection counted" 1
    (match Json.member "rejected" (Server.stats_json server) with
    | Some (Json.Int n) -> n
    | _ -> -1);
  Server.shutdown server

(* the acceptance property of the whole design: replies are a pure
   function of the spec, so any pool width serves identical bytes *)
let test_server_determinism_across_widths () =
  let kernels = Loadgen.synth_kernels 6 in
  let techniques = S.techniques in
  let reqs = Loadgen.requests ~kernels ~techniques ~count:100 () in
  let serve jobs =
    let server = Server.create ~jobs ~queue_capacity:64 () in
    let n = List.length reqs in
    let lines = Array.make n "" in
    let m = Mutex.create () and c = Condition.create () in
    let done_ = ref 0 in
    List.iter
      (fun rq ->
        Server.submit server rq ~reply:(fun r ->
            let line =
              Protocol.to_line (Protocol.reply_to_json ~id:rq.Protocol.rq_id r)
            in
            Mutex.lock m;
            lines.(rq.Protocol.rq_id) <- line;
            incr done_;
            Condition.signal c;
            Mutex.unlock m))
      reqs;
    Mutex.lock m;
    while !done_ < n do Condition.wait c m done;
    Mutex.unlock m;
    Server.shutdown server;
    lines
  in
  let one = serve 1 and four = serve 4 in
  Array.iteri
    (fun i line ->
      check_str (Printf.sprintf "request %d byte-identical" i) line four.(i))
    one

let test_server_reply_matches_oneshot_compile () =
  let server = Server.create ~jobs:2 () in
  let rq = Protocol.request ~id:0 ~technique:S.Mdc (slow_kernel "par") in
  let direct = Server.compile rq in
  (match Server.call server rq with
  | Protocol.Done o ->
    check_str "served output = one-shot output" direct.Protocol.o_output
      o.Protocol.o_output;
    check_int "exit" direct.Protocol.o_exit o.Protocol.o_exit
  | Protocol.Retry _ -> Alcotest.fail "unexpected retry");
  Server.shutdown server

let () =
  Alcotest.run "serve"
    [
      ( "protocol",
        [
          Alcotest.test_case "request roundtrip" `Quick test_request_roundtrip;
          Alcotest.test_case "defaults mirror vliwc" `Quick
            test_request_defaults_mirror_vliwc;
          Alcotest.test_case "key ignores id" `Quick test_key_ignores_id;
          Alcotest.test_case "reply roundtrip" `Quick test_reply_roundtrip;
        ] );
      ( "service",
        [
          Alcotest.test_case "bounded queue" `Quick test_service_bounded_queue;
        ] );
      ( "server",
        [
          Alcotest.test_case "coalesces identical in-flight" `Quick
            test_server_coalesces_identical_inflight;
          Alcotest.test_case "backpressure retry" `Quick
            test_server_backpressure_retry;
          Alcotest.test_case "byte-identical at jobs=1 and jobs=4" `Quick
            test_server_determinism_across_widths;
          Alcotest.test_case "reply matches one-shot compile" `Quick
            test_server_reply_matches_oneshot_compile;
        ] );
    ]
