(* End-to-end and per-layer benchmark of the reproduction.

     dune exec --root . -- ./perfbench/main.exe \
       --workload paper|fuzz|check --seed N --seconds S --trace 0|1

   Run from the repository root. One process, one domain (Pool jobs 1),
   a closed loop with one op in flight. Each workload's op list is fixed;
   the seed only orders it (see perfbench/WORKLOADS.md for why). Every op's
   output is checked. The last line of standard output is one JSON object
   with the keys correct, attempted, failed and metrics: the end-to-end
   metrics with --trace 0, the per-layer metrics with --trace 1. *)

module Json = Vliw_util.Json
module Prng = Vliw_util.Prng
module Memo = Vliw_harness.Memo
module Gen = Vliw_fuzz.Gen

let now = Unix.gettimeofday

(* Set-up is repeated and its median reported, so that one slow set-up
   does not move [setup_s]. *)
let setup_repeats = 3

(* The fuzz workload's population: the CI sweep's own stream. *)
let fuzz_seed = 1
let fuzz_budget = 30
let fuzz_count = 100

let litmus_dir = "test/litmus"

(* Whole passes a run makes at least. check has the fewest ops, so each of
   them is timed twice and its per-op median carries less host noise. *)
let min_passes = function "check" -> 2 | _ -> 1

let setup_paper () =
  Memo.clear ();
  let baseline = Json.of_file "BENCH_harness.json" in
  let ops = Array.of_list (Ops.paper_ops ~baseline) in
  Ops.fill_memo ();
  ops

let setup_fuzz () =
  Array.init fuzz_count (fun i ->
      Ops.fuzz_op (Gen.generate ~seed:fuzz_seed ~budget:fuzz_budget i))

let setup_check () = Array.of_list (Ops.check_ops litmus_dir)

(* Set-up ends with one untimed warm-up op of each traffic class (the
   first of the class in the fixed list), which also settles the heap. *)
let setup name =
  let ops =
    match name with
    | "paper" -> setup_paper ()
    | "fuzz" -> setup_fuzz ()
    | _ -> setup_check ()
  in
  let seen = Hashtbl.create 8 in
  Array.iter
    (fun (op : Ops.op) ->
      if not (Hashtbl.mem seen op.Ops.cls) then begin
        Hashtbl.add seen op.Ops.cls ();
        match (op.Ops.run () ()).Ops.failure with
        | None -> ()
        | Some f -> failwith (Printf.sprintf "warm-up op %s failed: %s" op.Ops.label f)
      end)
    ops;
  ops

let median xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  let n = Array.length a in
  if n = 0 then 0. else if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

let peak_rss_mb () =
  let ic = open_in "/proc/self/status" in
  let rec find () =
    match input_line ic with
    | l when String.length l > 6 && String.sub l 0 6 = "VmHWM:" ->
      Scanf.sscanf (String.sub l 6 (String.length l - 6)) " %d kB" (fun kb ->
          float_of_int kb /. 1024.)
    | _ -> find ()
    | exception End_of_file -> 0.
  in
  Fun.protect ~finally:(fun () -> close_in ic) find

(* Host speed. On a shared host the speed of this process drifts by up to
   2x over tens of seconds with the neighbours' memory traffic, and every
   timing drifts with it. A fixed allocating sort-and-hash loop that uses
   no repository code is timed before every op and before every set-up;
   the median of the last [calib_window] samples over [calib_nominal] is
   the host's current slowness. Every gated time is reported divided by
   the slowness at the time it was measured, which cancels most of the
   drift; the times as measured are printed beside them. Sampling before
   every op, not on a timer, keeps the allocation sequence, and so the
   heap, identical from run to run. *)
let calib_window = 5
let calib_nominal = 0.004

let reference_loop () =
  let t0 = now () in
  let acc = ref 0 in
  for r = 1 to 3 do
    let l = List.init 5_000 (fun i -> ((i * 7919) + r) land 65535) in
    let h = Hashtbl.create 1024 in
    List.iter (fun x -> Hashtbl.replace h x r) (List.sort compare l);
    acc := !acc + Hashtbl.length h
  done;
  ignore (Sys.opaque_identity !acc);
  now () -. t0

let samples = ref [] and all_samples = ref []

let slowness () =
  let s = reference_loop () in
  samples := List.filteri (fun i _ -> i < calib_window) (s :: !samples);
  all_samples := s :: !all_samples;
  median !samples /. calib_nominal

type pass = {
  p_wall : float;  (** summed op time *)
  p_scaled : float;  (** summed op time over the host's slowness *)
  p_cycles : int;
  p_time : float array;  (** by op index: seconds *)
  p_scaled_time : float array;  (** by op index: seconds over the slowness *)
}

(* One pass over the op list in [order]; [form] picks the op's untraced or
   traced form. [check] sees every op's outcome after its timing stops.
   Each op starts after a completed major collection, so that its time
   and the run's peak memory depend little on which ops ran before it;
   its time is scaled by the mean of the host's slowness sampled just
   before it and just before the next op. *)
let run_pass ops order ~form ~check =
  let n = Array.length order in
  let time = Array.make n 0. and scaled = Array.make n 0. and before = Array.make n 0. in
  let cycles = ref 0 and prev = ref (-1) in
  let settle () =
    Gc.major ();
    let slow = slowness () in
    if !prev >= 0 then scaled.(!prev) <- time.(!prev) /. ((before.(!prev) +. slow) /. 2.);
    slow
  in
  Array.iter
    (fun i ->
      let op : Ops.op = ops.(i) in
      before.(i) <- settle ();
      Spans.set_op i;
      let t0 = now () in
      let judge = form op () in
      time.(i) <- now () -. t0;
      prev := i;
      let o = judge () in
      cycles := !cycles + o.Ops.cycles;
      check i op o)
    order;
  ignore (settle ());
  let sum = Array.fold_left ( +. ) 0. in
  { p_wall = sum time; p_scaled = sum scaled; p_cycles = !cycles; p_time = time;
    p_scaled_time = scaled }

let failures = ref []
let attempted = ref 0

let fail label msg = failures := (label, msg) :: !failures

let judge_op (op : Ops.op) (o : Ops.outcome) =
  incr attempted;
  Option.iter (fail op.Ops.label) o.Ops.failure

(* Median, and the op time at the highest percentile with at least ten
   ops beyond it, over one time per op. *)
let op_stats times =
  let a = Array.copy times in
  Array.sort compare a;
  let n = Array.length a in
  let k = max 0 (n - 11) in
  (median (Array.to_list a), a.(k), 100. *. float_of_int (k + 1) /. float_of_int n, n)

(* Each op's median time over the passes. *)
let per_op field passes =
  Array.init
    (Array.length (field (List.hd passes)))
    (fun i -> median (List.map (fun p -> (field p).(i)) passes))

let slowest ops time =
  let i = ref 0 in
  Array.iteri (fun j t -> if t > time.(!i) then i := j) time;
  Printf.sprintf "%s (%.3f s)" ops.(!i).Ops.label time.(!i)

(* Share of op time per traffic class. *)
let class_shares ops time =
  let tbl = Hashtbl.create 8 and total = Array.fold_left ( +. ) 0. time in
  Array.iteri
    (fun i dt ->
      let c = ops.(i).Ops.cls in
      Hashtbl.replace tbl c (dt +. Option.value ~default:0. (Hashtbl.find_opt tbl c)))
    time;
  Hashtbl.fold (fun c t acc -> (c, t /. total) :: acc) tbl []
  |> List.sort compare
  |> List.map (fun (c, s) -> Printf.sprintf "%s %.1f%%" c (100. *. s))
  |> String.concat ", "

let metric name value unit = (name, value, unit)

let print_metrics =
  List.iter (fun (name, value, unit) -> Printf.printf "%-30s %.6g %s\n" name value unit)

let result_json metrics =
  let m =
    List.map
      (fun (name, value, unit) ->
        Printf.sprintf "%S: {\"value\": %.17g, \"unit\": %S}" name value unit)
      metrics
  in
  Printf.sprintf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}"
    (!failures = []) !attempted (List.length !failures) (String.concat ", " m)

let end_to_end ~workload ~seconds ~setups ops order =
  let t_start = now () in
  let passes = ref [] and last = ref 0. in
  while List.length !passes < min_passes workload || now () -. t_start +. !last <= seconds do
    let p0 = now () in
    passes := run_pass ops order ~form:(fun op -> op.Ops.run) ~check:(fun _ -> judge_op) :: !passes;
    last := now () -. p0
  done;
  let passes = List.rev !passes in
  let first = List.hd passes in
  if List.exists (fun p -> p.p_cycles <> first.p_cycles) passes then
    fail "sim_cycles" "simulated cycles differ between passes";
  let times = per_op (fun p -> p.p_time) passes in
  let raw_p50, raw_tail, pct, n = op_stats times in
  let p50, tail, _, _ = op_stats (per_op (fun p -> p.p_scaled_time) passes) in
  let raw_setup = median (List.map fst setups) and setup = median (List.map snd setups) in
  let raw_wall = median (List.map (fun p -> p.p_wall) passes) in
  Printf.printf "workload %s: %d ops x %d passes\n" workload (Array.length ops)
    (List.length passes);
  Printf.printf "slowest op: %s\n" (slowest ops times);
  Printf.printf "op time by class: %s\n" (class_shares ops times);
  Printf.printf "host slowness: median %.3f over %d samples (reference loop %.4f s nominal)\n"
    (median !all_samples /. calib_nominal) (List.length !all_samples) calib_nominal;
  Printf.printf "as measured: setup_s %.6g s, wall_s %.6g s, op_p50_ms %.6g ms, op_tail_ms %.6g ms\n"
    raw_setup raw_wall (1000. *. raw_p50) (1000. *. raw_tail);
  Printf.printf "op_tail_ms is p%.1f of n=%d ops (each op's median over the passes)\n" pct n;
  Printf.printf "error_rate %g (%d of %d ops failed)\n"
    (float_of_int (List.length !failures) /. float_of_int (max 1 !attempted))
    (List.length !failures) !attempted;
  [
    metric "setup_s" setup "s";
    metric "wall_s" (median (List.map (fun p -> p.p_scaled) passes)) "s";
    metric "op_p50_ms" (1000. *. p50) "ms";
    metric "op_tail_ms" (1000. *. tail) "ms";
    metric "peak_rss_mb" (peak_rss_mb ()) "MB";
    metric "sim_cycles" (float_of_int first.p_cycles) "cycles";
  ]

let layers =
  [ "ir"; "profile"; "lower"; "core"; "sched"; "verify"; "sim"; "trace"; "fuzz";
    "check"; "harness" ]

let per_layer ~workload ~seed ops order =
  (* the untraced pass's outputs, which the traced pass must reproduce *)
  let expected = Array.make (Array.length ops) ("", 0) in
  let untraced =
    run_pass ops order
      ~form:(fun op -> op.Ops.run)
      ~check:(fun i op o ->
        judge_op op o;
        expected.(i) <- (o.Ops.digest, o.Ops.cycles))
  in
  Spans.enabled := true;
  Spans.set_op (-1);
  if workload = "paper" then
    List.iter
      (fun e -> fail e "traced set-up does not reproduce the Memo's stages")
      (Ops.traced_fill_memo ());
  let memo0 = Memo.counters () in
  let traced =
    run_pass ops order
      ~form:(fun op -> op.Ops.traced)
      ~check:(fun i op o ->
        judge_op op o;
        if (o.Ops.digest, o.Ops.cycles) <> expected.(i) then
          fail op.Ops.label "traced op does not reproduce the untraced op's outputs")
  in
  Spans.enabled := false;
  let memo1 = Memo.counters () in
  let spans = Spans.all () in
  let totals, op_time = Spans.totals ~keep:(fun s -> s.Spans.op >= 0) spans in
  let setup_totals, setup_time = Spans.totals ~keep:(fun s -> s.Spans.op < 0) spans in
  (try
     if not (Sys.file_exists "perfbench/spans") then Sys.mkdir "perfbench/spans" 0o755;
     Spans.write (Printf.sprintf "perfbench/spans/%s-seed%d.tsv" workload seed) spans
   with Sys_error e -> Printf.printf "spans not written: %s\n" e);
  let self_sum = Hashtbl.fold (fun _ t acc -> acc +. t.Spans.self_s) totals 0. in
  Printf.printf "workload %s: %d ops traced, %d spans\n" workload (Array.length ops)
    (Array.length spans);
  Printf.printf "layer self times sum to %.6f s; traced op time %.6f s\n" self_sum op_time;
  Printf.printf "tracing overhead: %.4f s (traced wall_s %.4f s - untraced wall_s %.4f s)\n"
    (traced.p_wall -. untraced.p_wall) traced.p_wall untraced.p_wall;
  Printf.printf "tracing overhead scaled to host speed: %.4f s (%.4f s - %.4f s)\n"
    (traced.p_scaled -. untraced.p_scaled) traced.p_scaled untraced.p_scaled;
  if setup_time > 0. then
    Printf.printf "traced set-up %.4f s by layer: %s\n" setup_time
      (String.concat ", "
         (List.filter_map
            (fun l ->
              Option.map
                (fun t -> Printf.sprintf "%s %.4f s" l t.Spans.self_s)
                (Hashtbl.find_opt setup_totals l))
            layers));
  Printf.printf "slowest op: %s\n" (slowest ops traced.p_time);
  Printf.printf "op time by class: %s\n" (class_shares ops traced.p_time);
  let c = Ops.counter in
  let ratio a b = if b = 0. then 0. else a /. b in
  let layer_metrics =
    List.concat_map
      (fun l ->
        let t =
          Option.value (Hashtbl.find_opt totals l)
            ~default:{ Spans.self_s = 0.; calls = 0; self_words = 0. }
        in
        [
          metric (l ^ ".self_s") t.Spans.self_s "s";
          metric (l ^ ".share") (ratio t.Spans.self_s op_time) "fraction";
          metric (l ^ ".calls") (float_of_int t.Spans.calls) "count";
          metric (l ^ ".alloc_mw") (t.Spans.self_words /. 1e6) "Mword";
        ])
      layers
  in
  let self l =
    match Hashtbl.find_opt totals l with Some t -> t.Spans.self_s | None -> 0.
  in
  let memo_hits = memo1.Memo.hits - memo0.Memo.hits
  and memo_misses = memo1.Memo.misses - memo0.Memo.misses in
  let states = c "check.states" and pruned = c "check.pruned" in
  layer_metrics
  @ [
      metric "sched.ii_sum" (c "sched.ii_sum") "count";
      metric "sched.ii_over_mii" (c "sched.ii_over_mii") "count";
      metric "sched.comm_ops" (c "sched.comm_ops") "count";
      metric "core.replicas" (c "core.replicas") "count";
      metric "sim.cycles_per_s" (ratio (c "sim.cycles") (self "sim")) "cycles/s";
      metric "sim.stall_cycles" (c "sim.stall_cycles") "cycles";
      metric "sim.replay_ms" (1000. *. ratio (c "probe.replay_s") (c "probe.replays")) "ms";
      metric "sim.encode_ms" (1000. *. ratio (c "probe.encode_s") (c "probe.replays")) "ms";
      metric "interconnect.packet_hops" (c "interconnect.packet_hops") "count";
      metric "interconnect.dir_lookups" (c "interconnect.dir_lookups") "count";
      metric "coherence.prot_invalidations" (c "coherence.prot_invalidations") "count";
      metric "check.states" states "count";
      metric "check.leaves" (c "check.leaves") "count";
      metric "check.pruned" pruned "count";
      metric "check.prune_ratio" (ratio pruned (states +. pruned)) "fraction";
      metric "check.states_per_s" (ratio states (self "check")) "1/s";
      metric "trace.events" (c "trace.events") "count";
      metric "harness.memo_hit_rate"
        (ratio (float_of_int memo_hits) (float_of_int (memo_hits + memo_misses)))
        "fraction";
      metric "verify.obligations" (c "verify.obligations") "count";
      metric "verify.certified" (c "verify.certified") "count";
    ]

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 20. and trace = ref 0 in
  let spec =
    [
      ("--workload", Arg.Set_string workload, "paper|fuzz|check");
      ("--seed", Arg.Set_int seed, "N  orders the workload's op list");
      ("--seconds", Arg.Set_float seconds, "S  keep measuring whole passes for S seconds");
      ("--trace", Arg.Set_int trace, "0|1  end-to-end (0) or traced per-layer (1) run");
    ]
  in
  let usage = "main.exe --workload paper|fuzz|check --seed N --seconds S --trace 0|1" in
  Arg.parse spec (fun a -> raise (Arg.Bad ("unexpected argument " ^ a))) usage;
  if not (List.mem !workload [ "paper"; "fuzz"; "check" ]) || (!trace <> 0 && !trace <> 1)
  then begin
    prerr_endline usage;
    exit 2
  end;
  Vliw_util.Pool.set_jobs 1;
  let repeats = if !trace = 0 then setup_repeats else 1 in
  let setups, ops =
    List.fold_left
      (fun (ts, _) _ ->
        Gc.major ();
        for _ = 2 to calib_window do ignore (slowness ()) done;
        let before = slowness () in
        let t0 = now () in
        let ops = setup !workload in
        let dt = now () -. t0 in
        let slow = (before +. slowness ()) /. 2. in
        (ts @ [ (dt, dt /. slow) ], ops))
      ([], [||])
      (List.init repeats Fun.id)
  in
  let order = Array.init (Array.length ops) Fun.id in
  Prng.shuffle (Prng.derive_named (Prng.create !seed) "perfbench") order;
  let metrics =
    if !trace = 0 then end_to_end ~workload:!workload ~seconds:!seconds ~setups ops order
    else per_layer ~workload:!workload ~seed:!seed ops order
  in
  print_metrics metrics;
  List.iter
    (fun (label, msg) -> Printf.printf "FAILED %s: %s\n" label msg)
    (List.rev !failures);
  print_endline (result_json metrics);
  exit (if !failures = [] then 0 else 1)
