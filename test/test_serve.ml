(* The compile service: wire protocol, dedup/coalescing cache, bounded-
   queue backpressure, and byte-stable replies at any pool width. *)

module Json = Vliw_util.Json
module Service = Vliw_util.Pool.Service
module Memo = Vliw_harness.Memo
module Engine = Vliw_serve.Engine
module S = Vliw_sched.Schedule
module Protocol = Vliw_serve.Protocol
module Cache = Vliw_serve.Cache
module Server = Vliw_serve.Server
module Loadgen = Vliw_serve.Loadgen
module W = Vliw_workloads.Workloads

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
    check_int "interleave" 4 rq.Protocol.rq_interleave;
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

(* ---- cache ---- *)

let test_cache_claim_join_fill () =
  let c = Cache.create ~shards:4 () in
  let got = ref [] in
  let waiter tag v = got := (tag, v) :: !got in
  (match Cache.lookup c ~key:"k" ~waiter:(waiter "first") with
  | `Must_compute -> ()
  | _ -> Alcotest.fail "cold key must claim");
  (match Cache.lookup c ~key:"k" ~waiter:(waiter "second") with
  | `Joined -> ()
  | _ -> Alcotest.fail "in-flight key must join");
  (match Cache.lookup c ~key:"k" ~waiter:(waiter "third") with
  | `Joined -> ()
  | _ -> Alcotest.fail "in-flight key must join again");
  let ws = Cache.fill c ~key:"k" 42 in
  check_int "two joined waiters" 2 (List.length ws);
  List.iter (fun w -> w (Some 42)) ws;
  check "waiters fired in arrival order" true
    (List.rev !got = [ ("second", Some 42); ("third", Some 42) ]);
  (match Cache.lookup c ~key:"k" ~waiter:(waiter "late") with
  | `Ready 42 -> ()
  | _ -> Alcotest.fail "filled key must be ready");
  let s = Cache.stats c in
  check_int "hits" 1 s.Cache.c_hits;
  check_int "coalesced" 2 s.Cache.c_coalesced;
  check_int "misses" 1 s.Cache.c_misses;
  check_int "entries" 1 s.Cache.c_entries

let test_cache_abort_releases_claim () =
  let c = Cache.create () in
  let fired = ref None in
  (match Cache.lookup c ~key:"k" ~waiter:(fun v -> fired := Some v) with
  | `Must_compute -> ()
  | _ -> Alcotest.fail "cold key must claim");
  (match Cache.lookup c ~key:"k" ~waiter:(fun v -> fired := Some v) with
  | `Joined -> ()
  | _ -> Alcotest.fail "must join");
  let ws = Cache.abort c ~key:"k" in
  check_int "waiter handed back" 1 (List.length ws);
  List.iter (fun w -> w None) ws;
  check "waiter told to retry" true (!fired = Some None);
  match Cache.lookup c ~key:"k" ~waiter:(fun _ -> ()) with
  | `Must_compute -> ()
  | _ -> Alcotest.fail "aborted key must be claimable again"

(* one shard, capacity 4: filling 8 keys must evict the 4 least recently
   served, never grow past the cap, and count each eviction *)
let test_cache_lru_eviction () =
  let c = Cache.create ~shards:1 ~max_entries:4 () in
  check_int "capacity" 4 (Cache.capacity c);
  let fill key v =
    (match Cache.lookup c ~key ~waiter:(fun _ -> ()) with
    | `Must_compute -> ()
    | _ -> Alcotest.failf "key %s should be cold" key);
    ignore (Cache.fill c ~key v)
  in
  List.iter (fun i -> fill (string_of_int i) i) [ 0; 1; 2; 3 ];
  (* touch 0 and 1 so 2 is the LRU victim when 4 arrives *)
  (match Cache.lookup c ~key:"0" ~waiter:(fun _ -> ()) with
  | `Ready 0 -> ()
  | _ -> Alcotest.fail "0 must be ready");
  (match Cache.lookup c ~key:"1" ~waiter:(fun _ -> ()) with
  | `Ready 1 -> ()
  | _ -> Alcotest.fail "1 must be ready");
  fill "4" 4;
  let s = Cache.stats c in
  check_int "entries bounded" 4 s.Cache.c_entries;
  check_int "one eviction" 1 s.Cache.c_evictions;
  (match Cache.lookup c ~key:"2" ~waiter:(fun _ -> ()) with
  | `Must_compute -> ignore (Cache.abort c ~key:"2")
  | _ -> Alcotest.fail "LRU key 2 must have been evicted");
  (match Cache.lookup c ~key:"0" ~waiter:(fun _ -> ()) with
  | `Ready 0 -> ()
  | _ -> Alcotest.fail "recently-served 0 must survive");
  (* fill far past the cap: entries stay bounded, evictions account for
     every drop *)
  List.iter (fun i -> fill (string_of_int i) i) [ 10; 11; 12; 13; 14; 15 ];
  let s = Cache.stats c in
  check_int "entries still bounded" 4 s.Cache.c_entries;
  check_int "evictions" 7 s.Cache.c_evictions;
  (* in-flight claims are not evictable and don't count against the cap *)
  (match Cache.lookup c ~key:"claimed" ~waiter:(fun _ -> ()) with
  | `Must_compute -> ()
  | _ -> Alcotest.fail "cold claim");
  fill "20" 20;
  (match Cache.lookup c ~key:"claimed" ~waiter:(fun _ -> ()) with
  | `Joined -> ()
  | _ -> Alcotest.fail "claim must survive eviction pressure");
  check_int "unbounded default" 0 (Cache.capacity (Cache.create ()))

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

(* ---- sharded memo stage counters ---- *)

let test_memo_stage_counters () =
  Memo.clear ();
  let z = Memo.counters () in
  check_int "cleared hits" 0 z.Memo.hits;
  check_int "cleared misses" 0 z.Memo.misses;
  let bench = W.find "g721dec" in
  let loop = List.hd bench.W.b_loops in
  let k1 = Memo.parse ~bench ~seed:1 loop in
  let k2 = Memo.parse ~bench ~seed:1 loop in
  check "second parse is the cached kernel" true (k1 == k2);
  let sc = Memo.stage_counters () in
  check_int "one parse miss" 1 sc.Memo.parse_misses;
  check_int "one parse hit" 1 sc.Memo.parse_hits;
  let c = Memo.counters () in
  check_int "totals sum the stages" (c.Memo.hits + c.Memo.misses)
    (sc.Memo.parse_hits + sc.Memo.parse_misses + sc.Memo.stage_hits
   + sc.Memo.stage_misses);
  let shard_sum =
    Array.fold_left
      (fun a s -> a + s.Memo.sh_hits + s.Memo.sh_misses)
      0 (Memo.shard_stats ())
  in
  check_int "shard stats sum to the totals" (c.Memo.hits + c.Memo.misses)
    shard_sum

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
      ( "cache",
        [
          Alcotest.test_case "claim/join/fill" `Quick test_cache_claim_join_fill;
          Alcotest.test_case "LRU eviction under --cache-max" `Quick
            test_cache_lru_eviction;
          Alcotest.test_case "abort releases claim" `Quick
            test_cache_abort_releases_claim;
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
      ( "memo",
        [
          Alcotest.test_case "stage counters" `Quick test_memo_stage_counters;
        ] );
    ]
