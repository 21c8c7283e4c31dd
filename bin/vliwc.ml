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
   for byte with the vliwd compile service. *)

open Cmdliner

module M = Vliw_arch.Machine
module S = Vliw_sched.Schedule
module Lower = Vliw_lower.Lower
module Ir = Vliw_ir
module Sim = Vliw_sim.Sim
module W = Vliw_workloads.Workloads
module E = Vliw_serve.Engine

(* Flush the engine's buffered report to stdout and translate its result
   into vliwc's historical exit behaviour: the stderr line (if any) then
   exit 1. *)
let emit buf result =
  print_string (Buffer.contents buf);
  match result with
  | Ok _ -> ()
  | Error (Some msg) ->
    flush stdout;
    Printf.eprintf "%s\n" msg;
    exit 1
  | Error None -> exit 1

(* --compare: all four techniques side by side for one kernel *)
let compare_kernel ~machine ~heuristic ~ordering ~pad ~unroll kernel =
  (match Ir.Typecheck.check kernel with
  | Ok _ -> ()
  | Error e ->
    Printf.eprintf "type error: %s\n" e;
    exit 1);
  let kernel =
    match unroll with
    | None -> kernel
    | Some 0 ->
      let nxi = machine.M.clusters * machine.M.interleave_bytes in
      Ir.Unroll.unroll
        ~factor:(Lower.best_unroll_factor ~nxi_bytes:nxi ~max_factor:8 kernel)
        kernel
    | Some f -> Ir.Unroll.unroll ~factor:f kernel
  in
  let layout = Ir.Layout.make ~pad kernel in
  let low = Lower.lower kernel in
  let prof = Vliw_profile.Profile.run ~machine ~layout kernel in
  let oracle = Ir.Interp.run ~layout kernel in
  let module T = Vliw_util.Table in
  let t =
    T.create
      ~title:(Printf.sprintf "kernel %s (%s)" kernel.Ir.Ast.k_name
                (S.heuristic_name heuristic))
      [ ("technique", T.Left); ("II", T.Right); ("cycles", T.Right);
        ("compute", T.Right); ("stall", T.Right); ("local hit", T.Right);
        ("copies/iter", T.Right); ("MaxLive", T.Right) ]
  in
  let pref_for = Vliw_profile.Profile.node_pref prof in
  let trip = kernel.Ir.Ast.k_trip in
  let row name = function
    | Error _ -> [ name; "-"; "(no schedule)" ]
    | Ok { Vliw_sched.Hybrid.c_graph = graph; c_schedule = schedule; _ } ->
      let st =
        Sim.run ~lowered:low ~graph ~schedule ~layout ~mode:(Sim.Oracle oracle)
          ~warm:true ()
      in
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
  let arms =
    (* free, MDC and DDGT are independent compile+simulate pipelines;
       results come back in technique order regardless of pool width *)
    Vliw_util.Pool.map
      (fun technique ->
        let compiled =
          Vliw_sched.Hybrid.compile ~machine ~heuristic ~pref_for ~trip ~ordering
            technique low.Lower.graph
        in
        (technique, (compiled, row (S.technique_name technique) compiled)))
      [ S.Free; S.Mdc; S.Ddgt ]
  in
  (* the hybrid is Section 6's choice between the MDC and DDGT schedules
     in hand; its row is the chosen arm's, whose schedule it is *)
  let hybrid_row =
    let mdc, mdc_row = List.assoc S.Mdc arms in
    let ddgt, ddgt_row = List.assoc S.Ddgt arms in
    let name = S.technique_name S.Hybrid in
    match Vliw_sched.Hybrid.choose_of ~machine ~pref_for ~trip mdc ddgt with
    | Error e -> row name (Error e)
    | Ok { Vliw_sched.Hybrid.choice = Chose_mdc; _ } -> name :: List.tl mdc_row
    | Ok { Vliw_sched.Hybrid.choice = Chose_ddgt; _ } -> name :: List.tl ddgt_row
  in
  let rows = List.map (fun (_, (_, r)) -> r) arms @ [ hybrid_row ] in
  List.iter (T.add_row t) rows;
  T.print t

let read_source path =
  if path = "-" then In_channel.input_all stdin
  else begin
    if not (Sys.file_exists path) then begin
      Printf.eprintf "vliwc: no such file %s\n" path;
      exit 2
    end;
    let ic = open_in path in
    Fun.protect
      ~finally:(fun () -> close_in ic)
      (fun () -> really_input_string ic (in_channel_length ic))
  end

(* --check: exhaustively enumerate the schedule's bounded interleaving
   space (see Vliw_check.Check) against the reference interpreter's
   memory and the verifier's certificate. Returns true when the kernel
   must fail the run (counterexample found or space not exhausted). *)
let model_check ~jitter (a : E.artifacts) =
  let module Check = Vliw_check.Check in
  let oracle = Ir.Interp.run ~layout:a.E.a_layout a.E.a_kernel in
  let certified =
    match a.E.a_report with
    | Some r ->
      r.Vliw_verify.Verify.r_verified
      && (jitter = 0 || r.Vliw_verify.Verify.r_jitter_robust)
    | None -> false
  in
  let o =
    Check.explore ~lowered:a.E.a_lowered ~graph:a.E.a_graph
      ~schedule:a.E.a_schedule ~layout:a.E.a_layout ~jitter
      ~expected:oracle.Ir.Interp.memory ~certified ()
  in
  Printf.printf "model check %s (jitter<=%d, %s): %s\n"
    a.E.a_kernel.Ir.Ast.k_name jitter
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
    (match a.E.a_report with
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
        a.E.a_kernel.Ir.Ast.k_name;
    not o.Check.k_exhaustive

let main file workload technique heuristic ordering machine_name clusters icn
    protocol interleave ab pad unroll cse lint lint_error verify check
    check_jitter dump_ddg dot dump_sched execution compare jobs trace_file =
  (match jobs with
  | Some n when n >= 1 -> Vliw_util.Pool.set_jobs n
  | Some n ->
    Printf.eprintf "--jobs expects a positive integer, got %d\n" n;
    exit 2
  | None -> ());
  (* fail fast on a bad machine name, before the file/workload check *)
  (match M.of_spec ~name:machine_name ~interleave:4 ~ab:false () with
  | Ok _ -> ()
  | Error e ->
    Printf.eprintf "%s\n" e;
    exit 2);
  (* explicit flags win; otherwise '#' header directives of the source
     (the fuzzer repro convention), then the 4-cluster bus default *)
  let machine_for ?(dirs = []) interleave =
    let clusters =
      match clusters with
      | Some n -> n
      | None ->
        Option.value
          (Option.bind (List.assoc_opt "clusters" dirs) int_of_string_opt)
          ~default:4
    in
    let icn =
      match icn with
      | Some s -> s
      | None -> Option.value (List.assoc_opt "interconnect" dirs) ~default:"bus"
    in
    let protocol =
      match protocol with
      | Some s -> s
      | None ->
        Option.value (List.assoc_opt "protocol" dirs) ~default:"install-flush"
    in
    match
      M.of_spec ~clusters ~icn ~protocol ~name:machine_name ~interleave ~ab ()
    with
    | Ok m -> m
    | Error e ->
      Printf.eprintf "%s\n" e;
      exit 2
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
  let artifacts =
    if check then Some (fun a -> collected := a :: !collected) else None
  in
  let run_checks ~jitter_default () =
    if check then begin
      let jitter = Option.value check_jitter ~default:jitter_default in
      let bad =
        List.fold_left
          (fun bad a -> model_check ~jitter a || bad)
          false (List.rev !collected)
      in
      collected := [];
      if bad then exit 1
    end
  in
  match (file, workload) with
  | None, None | Some _, Some _ ->
    Printf.eprintf "pass exactly one of a .lk FILE or --workload NAME\n";
    exit 2
  | Some path, None ->
    let src = read_source path in
    let machine = machine_for ~dirs:(E.source_directives src) interleave in
    if compare then (
      try
        List.iter
          (fun kernel ->
            compare_kernel ~machine ~heuristic ~ordering ~pad ~unroll kernel)
          (Ir.Parser.parse_kernels src)
      with
      | Ir.Parser.Error (msg, pos) ->
        Printf.eprintf "%s:%d:%d: %s\n" path pos.Ir.Lexer.line pos.Ir.Lexer.col
          msg;
        exit 1
      | Ir.Lexer.Error (msg, pos) ->
        Printf.eprintf "%s:%d:%d: %s\n" path pos.Ir.Lexer.line pos.Ir.Lexer.col
          msg;
        exit 1)
    else begin
      let buf = Buffer.create 4096 in
      emit buf (E.run_source ?artifacts ~buf ~machine ~opts ~path src);
      let jitter_default =
        Option.value
          (Option.bind
             (List.assoc_opt "jitter" (E.source_directives src))
             int_of_string_opt)
          ~default:1
      in
      run_checks ~jitter_default ()
    end
  | None, Some name ->
    let bench =
      try W.find name
      with Not_found ->
        Printf.eprintf "unknown workload %S; known: %s\n" name
          (String.concat " " (List.map (fun b -> b.W.b_name) W.all));
        exit 2
    in
    let machine = machine_for bench.W.b_interleave in
    List.iter
      (fun (l : W.loop) ->
        Printf.printf "=== %s/%s ===\n" bench.W.b_name l.W.l_name;
        let kernel = W.parse_loop l ~seed:bench.W.b_exec_seed in
        if compare then
          compare_kernel ~machine ~heuristic ~ordering ~pad ~unroll kernel
        else begin
          let buf = Buffer.create 4096 in
          emit buf (E.run_kernel ?artifacts ~buf ~machine ~opts kernel);
          run_checks ~jitter_default:1 ()
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

let technique =
  let tconv =
    Arg.enum
      (List.map
         (fun t -> (String.lowercase_ascii (S.technique_name t), t))
         S.techniques)
  in
  Arg.(
    value & opt tconv S.Free
    & info [ "t"; "technique" ] ~docv:"TECH"
        ~doc:
          "Coherence technique: $(b,free) (unrestricted baseline), $(b,mdc), \
           $(b,ddgt) or $(b,hybrid) (per-loop compile-time choice).")

let heuristic =
  let hconv = Arg.enum [ ("prefclus", S.Pref_clus); ("mincoms", S.Min_coms) ] in
  Arg.(
    value & opt hconv S.Min_coms
    & info [ "H"; "heuristic" ] ~docv:"HEUR"
        ~doc:"Cluster assignment heuristic: $(b,prefclus) or $(b,mincoms).")

let machine_name =
  Arg.(
    value & opt string "bal"
    & info [ "machine" ] ~docv:"CONF"
        ~doc:"Machine configuration: $(b,bal) (Table 2), $(b,nobal-mem) or $(b,nobal-reg).")

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

let protocol =
  Arg.(
    value
    & opt (some string) None
    & info [ "protocol" ] ~docv:"PROT"
        ~doc:
          "Attraction-Buffer coherence protocol: $(b,install-flush) (the \
           paper's scheduler-enforced default), $(b,msi) (snooping; requires \
           $(b,--interconnect bus)) or $(b,mesi) (Exclusive state; requires \
           $(b,--interconnect directory)). Default: the kernel file's \
           $(b,# protocol=PROT) header directive, else $(b,install-flush).")

let interleave =
  Arg.(
    value & opt int 4
    & info [ "interleave" ] ~docv:"BYTES" ~doc:"Cache interleaving factor in bytes.")

let ab =
  Arg.(value & flag & info [ "ab" ] ~doc:"Enable 16-entry 2-way Attraction Buffers.")

let pad =
  Arg.(value & opt int 0 & info [ "pad" ] ~docv:"BYTES" ~doc:"Inter-array padding.")

let unroll =
  Arg.(
    value
    & opt (some int) None
    & info [ "unroll" ] ~docv:"N"
        ~doc:
          "Unroll each kernel by $(docv) before compiling (0 = pick the \
           factor that maximizes NxI-strided accesses, Section 2.2).")

let dump_ddg = Arg.(value & flag & info [ "dump-ddg" ] ~doc:"Print the (transformed) DDG.")

let dot =
  Arg.(
    value & opt (some string) None
    & info [ "dot" ] ~docv:"PATH" ~doc:"Write the (transformed) DDG as Graphviz.")

let dump_sched = Arg.(value & flag & info [ "dump-schedule" ] ~doc:"Print the schedule.")

let ordering =
  let oconv =
    Arg.enum
      [ ("height", Vliw_sched.Ims.Height); ("swing", Vliw_sched.Ims.Swing) ]
  in
  Arg.(
    value & opt oconv Vliw_sched.Ims.Height
    & info [ "ordering" ] ~docv:"ORD"
        ~doc:"Scheduler node ordering: $(b,height) (classic IMS) or $(b,swing).")

let cse_flag =
  Arg.(
    value & flag
    & info [ "cse" ] ~doc:"Eliminate redundant loads before compiling.")

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

let verify_flag =
  Arg.(
    value & flag
    & info [ "verify" ]
        ~doc:
          "Statically verify the schedule coherence-safe before simulating; \
           print the certificate or the diagnostics and exit nonzero on \
           rejection.")

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

let execution =
  Arg.(
    value & flag
    & info [ "execution" ]
        ~doc:
          "Execution-driven simulation with cold caches (default: trace-driven \
           with warm caches, like the paper's simulator). Detects actual data \
           corruption.")

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
      const main $ file $ workload $ technique $ heuristic $ ordering
      $ machine_name $ clusters $ icn $ protocol $ interleave $ ab $ pad
      $ unroll
      $ cse_flag $ lint_flag $ lint_error_flag $ verify_flag $ check_flag
      $ check_jitter $ dump_ddg $ dot $ dump_sched $ execution $ compare_flag
      $ jobs $ trace_file)

let () = exit (Cmd.eval cmd)
