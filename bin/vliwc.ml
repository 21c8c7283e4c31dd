(* vliwc — compile, transform, schedule and simulate .lk loop kernels for
   the word-interleaved cache clustered VLIW machine.

   Examples:
     vliwc kernel.lk                         # free scheduling, simulate
     vliwc kernel.lk -t mdc -H prefclus      # MDC chains, PrefClus
     vliwc kernel.lk -t ddgt --dot out.dot   # DDGT, dump transformed DDG
     vliwc kernel.lk --machine nobal-reg --ab --interleave 2
     vliwc - < kernel.lk                     # read the kernel from stdin
     vliwc --workload gsmdec                 # run a built-in benchmark

   The per-kernel pipeline itself lives in Vliw_serve.Engine, shared byte
   for byte with the vliwd compile service; a kernel file's '#' header
   directives name its machine (Vliw_arch.Header), and flags win over
   them. *)

open Cmdliner

module H = Vliw_arch.Header
module S = Vliw_sched.Schedule
module P = Vliw_pipeline.Pipeline
module Ir = Vliw_ir
module Sim = Vliw_sim.Sim
module W = Vliw_workloads.Workloads
module E = Vliw_serve.Engine

(* Flush the engine's buffered report to stdout and translate its result
   into vliwc's exit behaviour: the stderr line (if any), then the exit
   code (2 for a bad machine, 1 for the rest). *)
let emit buf result =
  print_string (Buffer.contents buf);
  Buffer.clear buf;
  match result with
  | Ok x -> x
  | Error (code, msg) ->
    flush stdout;
    Option.iter prerr_endline msg;
    exit code

(* --compare: all four techniques side by side for one kernel, prepared
   as the one-shot path prepares it *)
let compare_kernel ~buf ~machine ~(opts : E.opts) kernel =
  let kernel = emit buf (E.prepare ~buf ~machine ~opts kernel) in
  let heuristic = opts.E.op_heuristic in
  let fe = P.front ~pad:opts.E.op_pad ~machine kernel in
  let module T = Vliw_util.Table in
  let t =
    T.create
      ~title:(Printf.sprintf "kernel %s (%s)" kernel.Ir.Ast.k_name
                (S.heuristic_name heuristic))
      [ ("technique", T.Left); ("II", T.Right); ("cycles", T.Right);
        ("compute", T.Right); ("stall", T.Right); ("local hit", T.Right);
        ("copies/iter", T.Right); ("MaxLive", T.Right) ]
  in
  let row (technique, compiled) =
    let name = S.technique_name technique in
    match compiled with
    | Error _ -> [ name; "-"; "(no schedule)" ]
    | Ok ({ P.graph; schedule; _ } as c) ->
      let st = P.simulate c in
      let total = max 1 (Sim.accesses_total st) in
      let ml = Vliw_sched.Regpressure.max_live graph schedule in
      [
        name;
        string_of_int schedule.S.ii;
        string_of_int st.Sim.total_cycles;
        string_of_int st.Sim.compute_cycles;
        string_of_int st.Sim.stall_cycles;
        Printf.sprintf "%.1f%%"
          (100. *. float_of_int st.Sim.local_hits /. float_of_int total);
        string_of_int (S.comm_ops schedule);
        string_of_int (Array.fold_left max 0 ml);
      ]
  in
  (* free, MDC and DDGT are compiled, then simulated, on the domain pool;
     rows come back in technique order regardless of pool width *)
  let all = P.compile_all ~ordering:opts.E.op_ordering ~heuristic fe in
  let arms = List.filter (fun (t, _) -> t <> S.Hybrid) all in
  let rows = List.combine (List.map snd arms) (Vliw_util.Pool.map row arms) in
  (* the hybrid's entry is its chosen arm's, so its row is that arm's *)
  let hybrid = List.assoc S.Hybrid all in
  let hybrid_row =
    match List.find_opt (fun (c, _) -> c == hybrid) rows with
    | Some (_, r) -> S.technique_name S.Hybrid :: List.tl r
    | None -> row (S.Hybrid, hybrid)
  in
  List.iter (T.add_row t) (List.map snd rows @ [ hybrid_row ]);
  T.print t

(* --check: exhaustively enumerate the schedule's bounded interleaving
   space (see Vliw_check.Check) against the reference interpreter's
   memory and the verifier's certificate. Returns true when the kernel
   must fail the run (counterexample found or space not exhausted). *)
let model_check ~jitter ((c : P.compiled), report) =
  let module Check = Vliw_check.Check in
  let fe = c.P.front in
  let certified =
    Option.fold ~none:false ~some:(Vliw_verify.Verify.certifies ~jitter) report
  in
  let o =
    Check.explore ~lowered:fe.P.lowered ~graph:c.P.graph ~schedule:c.P.schedule
      ~layout:fe.P.layout ~jitter ~expected:fe.P.oracle.Ir.Interp.memory
      ~certified ()
  in
  Printf.printf "model check %s (jitter<=%d, %s): %s\n"
    fe.P.kernel_exec.Ir.Ast.k_name jitter
    (if certified then "certified" else "uncertified")
    (Format.asprintf "%a" Check.pp_outcome o);
  match o.Check.k_counterexample with
  | Some x ->
    let detail =
      Printf.sprintf "draw script [%s] runs with %d violation%s, memory %s"
        (String.concat "," (List.map string_of_int x.Check.x_script))
        x.Check.x_violations
        (if x.Check.x_violations = 1 then "" else "s")
        (if x.Check.x_memory_ok then "intact" else "corrupted")
    in
    (match report with
    | Some r ->
      Format.printf "%a@." Vliw_util.Diag.pp
        (Vliw_verify.Verify.refutation r ~detail)
    | None -> Printf.printf "counterexample: %s\n" detail);
    true
  | None ->
    if not o.Check.k_exhaustive then
      Printf.printf
        "model check %s: state budget exhausted before the space; rerun with \
         a smaller kernel or jitter bound\n"
        fe.P.kernel_exec.Ir.Ast.k_name;
    not o.Check.k_exhaustive

let main file workload technique heuristic ordering machine_name clusters icn
    protocol interleave ab pad unroll cse lint lint_error verify check
    check_jitter dump_ddg dot dump_sched execution compare jobs trace_file =
  Option.iter (Flags.at_least ~tool:"vliwc" ~flag:"check-jitter" 0) check_jitter;
  Option.iter (Flags.at_least ~tool:"vliwc" ~flag:"jobs" 1) jobs;
  Flags.at_least ~tool:"vliwc" ~flag:"pad" 0 pad;
  Option.iter (Flags.at_least ~tool:"vliwc" ~flag:"unroll" 0) unroll;
  (* the jitter bound only bounds --check's exploration: without it the
     flag would be dropped, so it is refused instead *)
  if check_jitter <> None && not check then (
    Printf.eprintf "vliwc: --check-jitter needs --check\n";
    exit 2);
  (* --compare prints its table and nothing else: a one-shot flag it
     would drop is refused instead *)
  if compare then
    List.iter
      (fun (flag, given) ->
        if given then (
          Printf.eprintf "vliwc: --compare does not take --%s\n" flag;
          exit 2))
      [ ("verify", verify); ("check", check); ("trace", trace_file <> None);
        ("dump-ddg", dump_ddg); ("dot", dot <> None);
        ("dump-schedule", dump_sched); ("execution", execution) ];
  Option.iter Vliw_util.Pool.set_jobs jobs;
  (* explicit flags win over what the source declares (Vliw_arch.Header) *)
  let flags =
    { H.none with machine = machine_name; clusters; interconnect = icn;
      interleave; ab = (if ab then Some true else None); jitter = check_jitter;
      protocol }
  in
  let opts =
    {
      E.op_technique = technique;
      op_heuristic = heuristic;
      op_ordering = ordering;
      op_pad = pad;
      op_unroll = unroll;
      op_cse = cse;
      op_lint = lint;
      op_lint_error = lint_error;
      (* --check holds leaves to the certificate, so it needs one *)
      op_verify = verify || check;
      op_dump_ddg = dump_ddg;
      op_dot = dot;
      op_dump_sched = dump_sched;
      op_execution = execution;
      op_trace_file = trace_file;
    }
  in
  let collected = ref [] in
  let compiled =
    if check then Some (fun c r -> collected := (c, r) :: !collected) else None
  in
  (* --check-jitter, else the header's jitter=, else 1 *)
  let run_checks (h : H.t) =
    if check then begin
      let jitter = Option.value h.H.jitter ~default:1 in
      let bad =
        List.fold_left
          (fun bad a -> model_check ~jitter a || bad)
          false (List.rev !collected)
      in
      collected := [];
      if bad then exit 1
    end
  in
  let buf = Buffer.create 4096 in
  match (file, workload) with
  | None, None | Some _, Some _ ->
    Printf.eprintf "pass exactly one of a .lk FILE or --workload NAME\n";
    exit 2
  | Some path, None when compare ->
    let src = Flags.read_source ~tool:"vliwc" path in
    let machine, kernels = emit buf (E.load_source ~flags ~path src) in
    List.iter (compare_kernel ~buf ~machine ~opts) kernels
  | Some path, None ->
    let src = Flags.read_source ~tool:"vliwc" path in
    ignore (emit buf (E.run_source ?compiled ~buf ~flags ~opts ~path src));
    (* run_source accepted the header, so it reads back without error *)
    let declared = H.of_directives (H.directives src) in
    run_checks (H.over flags (Result.value declared ~default:H.none))
  | None, Some name ->
    let bench =
      try W.find name
      with Not_found ->
        Printf.eprintf "unknown workload %S; known: %s\n" name
          (String.concat " " (List.map (fun b -> b.W.b_name) W.all));
        exit 2
    in
    (* a workload declares its own interleave, as a source header would *)
    let declared = { H.none with interleave = Some bench.W.b_interleave } in
    let machine =
      emit buf
        (Result.map_error (fun e -> (2, Some e)) (H.machine (H.over flags declared)))
    in
    List.iter
      (fun (l : W.loop) ->
        Printf.printf "=== %s/%s ===\n" bench.W.b_name l.W.l_name;
        let kernel = W.parse_loop l ~seed:bench.W.b_exec_seed in
        if compare then compare_kernel ~buf ~machine ~opts kernel
        else begin
          ignore (emit buf (E.run_kernel ?compiled ~buf ~machine ~opts kernel));
          run_checks flags
        end)
      bench.W.b_loops

(* --- cmdliner wiring --- *)

let file =
  Arg.(
    value
    & pos 0 (some string) None
    & info [] ~docv:"FILE" ~doc:".lk kernel file ($(b,-) reads stdin)")

let workload =
  Arg.(
    value
    & opt (some string) None
    & info [ "w"; "workload" ] ~docv:"NAME" ~doc:"Run a built-in benchmark instead of a file.")

let clusters =
  Arg.(
    value
    & opt (some int) None
    & info [ "clusters" ] ~docv:"N"
        ~doc:
          "Scale the machine to $(docv) clusters (4, 8, 16 or 32), keeping \
           per-cluster resources constant. Default: the kernel file's \
           $(b,# clusters=N) header directive, else 4.")

let icn =
  Arg.(
    value
    & opt (some string) None
    & info [ "interconnect" ] ~docv:"ICN"
        ~doc:
          "Interconnect backend: $(b,bus) (shared memory buses, global FIFO) \
           or $(b,directory) (packet-switched ring with a distributed \
           directory). Default: the kernel file's $(b,# interconnect=ICN) \
           header directive, else $(b,bus).")

let dump_ddg = Arg.(value & flag & info [ "dump-ddg" ] ~doc:"Print the (transformed) DDG.")

let dot =
  Arg.(
    value & opt (some string) None
    & info [ "dot" ] ~docv:"PATH" ~doc:"Write the (transformed) DDG as Graphviz.")

let dump_sched = Arg.(value & flag & info [ "dump-schedule" ] ~doc:"Print the schedule.")

let lint_flag =
  Arg.(
    value & flag & info [ "lint" ] ~doc:"Print kernel diagnostics before compiling.")

let lint_error_flag =
  Arg.(
    value & flag
    & info [ "lint-error" ]
        ~doc:
          "Lint with warnings promoted to errors; exit nonzero if any remain \
           (implies $(b,--lint)).")

let check_flag =
  Arg.(
    value & flag
    & info [ "check" ]
        ~doc:
          "Model-check the schedule: exhaustively enumerate every bounded \
           interleaving of the compiled kernel (implies $(b,--verify)), hold \
           certified schedules to zero violations and the reference \
           interpreter's memory, and exit nonzero on a counterexample or a \
           blown state budget. Practical for small kernels only.")

let check_jitter =
  Arg.(
    value
    & opt (some int) None
    & info [ "check-jitter" ] ~docv:"J"
        ~doc:
          "Per-transfer jitter bound for $(b,--check) (default: the kernel \
           file's $(b,# jitter=J) header directive, else 1; 0 checks the \
           single nominal execution).")

let compare_flag =
  Arg.(
    value & flag
    & info [ "compare" ]
        ~doc:"Run all four techniques and print a side-by-side table.")

let jobs =
  Arg.(
    value
    & opt (some int) None
    & info [ "j"; "jobs" ] ~docv:"N"
        ~doc:
          "Width of the domain pool used by parallel paths (e.g. \
           $(b,--compare)'s four techniques). Default: $(b,VLIW_JOBS) or \
           the recommended domain count; 1 forces sequential execution.")

let trace_file =
  Arg.(
    value
    & opt (some string) None
    & info [ "trace" ] ~docv:"FILE"
        ~doc:
          "Record the simulation as Chrome trace-event JSON (open in \
           Perfetto), print an occupancy and stall-cause summary, and \
           cross-check the coherence counters with the replay auditor. With \
           several kernels the last one traced wins.")

let cmd =
  let doc = "clustered-VLIW memory-coherence scheduling playground" in
  let man =
    [
      `S Manpage.s_description;
      `P
        "Compiles .lk loop kernels for a word-interleaved cache clustered \
         VLIW processor, applying the coherence scheduling techniques of \
         Gibert, Sanchez and Gonzalez (CGO 2003): memory dependent chains \
         (MDC) or DDG transformations (DDGT), then modulo-schedules and \
         simulates the result.";
    ]
  in
  Cmd.v
    (Cmd.info "vliwc" ~version:"1.0.0" ~doc ~man)
    Term.(
      const main $ file $ workload $ Flags.technique $ Flags.heuristic
      $ Flags.ordering $ Flags.machine $ clusters $ icn $ Flags.protocol
      $ Flags.interleave $ Flags.ab $ Flags.pad $ Flags.unroll $ Flags.cse
      $ lint_flag $ lint_error_flag $ Flags.verify $ check_flag $ check_jitter
      $ dump_ddg $ dot $ dump_sched $ Flags.execution $ compare_flag $ jobs
      $ trace_file)

let () = exit (Cmd.eval cmd)
