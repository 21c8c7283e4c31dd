module M = Vliw_arch.Machine
module G = Vliw_ddg.Graph
module S = Vliw_sched.Schedule
module Hybrid = Vliw_sched.Hybrid
module Chains = Vliw_core.Chains
module Lower = Vliw_lower.Lower
module P = Vliw_pipeline.Pipeline
module Ir = Vliw_ir
module Sim = Vliw_sim.Sim
module V = Vliw_verify.Verify
module Diag = Vliw_util.Diag

type opts = {
  op_technique : S.technique;
  op_heuristic : S.heuristic;
  op_ordering : Vliw_sched.Ims.ordering;
  op_pad : int;
  op_unroll : int option;
  op_cse : bool;
  op_lint : bool;
  op_lint_error : bool;
  op_verify : bool;
  op_dump_ddg : bool;
  op_dot : string option;
  op_dump_sched : bool;
  op_execution : bool;
  op_trace_file : string option;
}

let default_opts =
  {
    op_technique = S.Free;
    op_heuristic = S.Min_coms;
    op_ordering = Vliw_sched.Ims.Height;
    op_pad = 0;
    op_unroll = None;
    op_cse = false;
    op_lint = false;
    op_lint_error = false;
    op_verify = false;
    op_dump_ddg = false;
    op_dot = None;
    op_dump_sched = false;
    op_execution = false;
    op_trace_file = None;
  }

type summary = {
  s_name : string;
  s_digest : string;
  s_report : V.report option;
  s_stats : Sim.stats;
}

let schedule_digest schedule =
  Digest.to_hex (Digest.string (Format.asprintf "%a" S.pp schedule))

(* A failure: the message vliwc prints on stderr before exiting 1 ([None]
   when the diagnostics, e.g. a lint or verification rejection, are
   already in the buffer). *)
exception Fail of string option

let prepare_exn ~buf ~machine ~opts kernel =
  (match Ir.Typecheck.check kernel with
  | Ok _ -> ()
  | Error e -> raise (Fail (Some (Printf.sprintf "type error: %s" e))));
  (if opts.op_lint || opts.op_lint_error then (
     let ds = Vliw_lower.Lint.check kernel in
     let ds = if opts.op_lint_error then Diag.promote_warnings ds else ds in
     let ppf = Format.formatter_of_buffer buf in
     List.iter (fun d -> Format.fprintf ppf "%a@." Vliw_lower.Lint.pp d) ds;
     if Diag.has_errors ds then raise (Fail None)));
  let kernel =
    if opts.op_cse then (
      let kernel', removed = Ir.Cse.eliminate kernel in
      if removed > 0 then
        Printf.bprintf buf "cse: %d redundant loads removed\n" removed;
      kernel')
    else kernel
  in
  match opts.op_unroll with
  | None -> kernel
  | Some 0 ->
    (* auto: the Section 2.2 objective *)
    let nxi = machine.M.clusters * machine.M.interleave_bytes in
    let f = Lower.best_unroll_factor ~nxi_bytes:nxi ~max_factor:8 kernel in
    if f > 1 then Printf.bprintf buf "unrolling by %d (NxI = %d bytes)\n" f nxi;
    Ir.Unroll.unroll ~factor:f kernel
  | Some f when kernel.Ir.Ast.k_trip mod f <> 0 ->
    raise
      (Fail
         (Some
            (Printf.sprintf "unroll: factor %d does not divide trip %d" f
               kernel.Ir.Ast.k_trip)))
  | Some f -> Ir.Unroll.unroll ~factor:f kernel

let prepare ~buf ~machine ~opts kernel =
  try Ok (prepare_exn ~buf ~machine ~opts kernel) with Fail e -> Error (1, e)

(* The one-shot compile+verify+simulate pipeline, verbatim from vliwc.
   Human-readable output goes to [buf] (exactly the bytes vliwc prints on
   stdout). *)
let run_kernel ?compiled ~buf ~machine ~opts kernel =
  let { op_technique = technique; op_heuristic = heuristic; op_ordering = ordering;
        op_pad = pad; op_verify = verify; op_dump_ddg = dump_ddg; op_dot = dot;
        op_dump_sched = dump_sched; op_execution = execution;
        op_trace_file = trace_file; _ } = opts in
  let ppf = Format.formatter_of_buffer buf in
  try
    let kernel = prepare_exn ~buf ~machine ~opts kernel in
    let fe = P.front ~pad ~machine kernel in
    let low = fe.P.lowered in
    let c =
      match P.compile ~ordering ~heuristic fe technique with
      | Ok c -> c
      | Error e ->
        let step =
          match technique with S.Hybrid -> "hybrid selection" | _ -> "scheduling"
        in
        raise (Fail (Some (Printf.sprintf "%s failed: %s" step e)))
    in
    Option.iter
      (fun (h : Hybrid.result) ->
        Printf.bprintf buf
          "hybrid choice: %s (estimates: MDC %d cycles, DDGT %d cycles)\n"
          (Hybrid.choice_name h.Hybrid.choice)
          h.Hybrid.mdc_estimate h.Hybrid.ddgt_estimate)
      c.P.hybrid;
    let graph = c.P.graph and schedule = c.P.schedule in
    (* dumped as scheduled: the MinComs post-pass rewrites replica pins *)
    if dump_ddg then Format.fprintf ppf "%a@." G.pp graph;
    (match dot with
    | Some path ->
      Vliw_ddg.Dot.write_file path graph;
      Printf.bprintf buf "wrote %s\n" path
    | None -> ());
    if dump_sched then Format.fprintf ppf "%a@." S.pp schedule;
    let chains = Chains.chains low.Lower.graph in
    let biggest = List.length (Chains.biggest low.Lower.graph) in
    Printf.bprintf buf
      "kernel %s: %d ops, %d memory ops, %d chains (biggest %d)\n"
      kernel.Ir.Ast.k_name
      (G.node_count low.Lower.graph)
      (List.length (G.mem_refs low.Lower.graph))
      (List.length chains) biggest;
    Printf.bprintf buf "schedule: II=%d length=%d stages=%d copies/iter=%d\n"
      schedule.S.ii schedule.S.length (S.stage_count schedule)
      (S.comm_ops schedule);
    let ml = Vliw_sched.Regpressure.max_live graph schedule in
    Printf.bprintf buf "register pressure (MaxLive per cluster): %s\n"
      (String.concat " " (Array.to_list (Array.map string_of_int ml)));
    let report = ref None in
    (if verify then (
       let r = P.verify technique c in
       List.iter (fun d -> Format.fprintf ppf "%a@." Diag.pp d) r.V.r_diags;
       Format.fprintf ppf "%a@." V.pp_report r;
       report := Some r;
       if not r.V.r_verified then raise (Fail None)));
    let sink =
      match trace_file with
      | Some _ -> Some (Vliw_trace.Trace.create ())
      | None -> None
    in
    let st = P.simulate ~execution ?trace:sink c in
    let total = max 1 (Sim.accesses_total st) in
    let pct n = 100. *. float_of_int n /. float_of_int total in
    Printf.bprintf buf "simulated %d iterations (%s, %s caches):\n"
      kernel.Ir.Ast.k_trip
      (if execution then "execution-driven" else "trace-driven")
      (if execution then "cold" else "warm");
    Printf.bprintf buf "  cycles %d = compute %d + stall %d\n"
      st.Sim.total_cycles st.Sim.compute_cycles st.Sim.stall_cycles;
    Printf.bprintf buf
      "  accesses: %.1f%% local hit, %.1f%% remote hit, %.1f%% local miss, \
       %.1f%% remote miss, %.1f%% combined\n"
      (pct st.Sim.local_hits) (pct st.Sim.remote_hits)
      (pct st.Sim.local_misses) (pct st.Sim.remote_misses)
      (pct st.Sim.combined);
    if st.Sim.ab_hits > 0 || machine.M.attraction <> None then
      Printf.bprintf buf "  attraction buffers: %d hits, %d entries flushed\n"
        st.Sim.ab_hits st.Sim.ab_flushed;
    if st.Sim.nullified > 0 then
      Printf.bprintf buf "  nullified store instances: %d\n" st.Sim.nullified;
    Printf.bprintf buf "  coherence violations: %d\n" st.Sim.violations;
    if execution then
      if Bytes.equal st.Sim.memory fe.P.oracle.Ir.Interp.memory then
        Buffer.add_string buf "  final memory matches the reference interpreter\n"
      else
        Buffer.add_string buf
          "  final memory CORRUPTED (differs from the reference)\n";
    (match (trace_file, sink) with
    | Some path, Some s ->
      (* replay audit before exporting: the event stream must re-derive
         the simulator's own coherence accounting *)
      (match P.audit c s st with
      | Ok r ->
        Printf.bprintf buf
          "  audit: %d applies replayed, %d violations, %d nullified (match)\n"
          r.Vliw_trace.Audit.applies r.Vliw_trace.Audit.violations
          r.Vliw_trace.Audit.nullified
      | Error msg -> raise (Fail (Some (Printf.sprintf "audit FAILED: %s" msg))));
      Vliw_trace.Chrome.write_file path s;
      Printf.bprintf buf "wrote %s (%d events)\n" path
        (Vliw_trace.Trace.length s);
      Buffer.add_string buf (Vliw_trace.Summary.render (Vliw_trace.Summary.of_sink s))
    | _ -> ());
    Option.iter (fun f -> f c !report) compiled;
    Ok
      {
        s_name = kernel.Ir.Ast.k_name;
        s_digest = schedule_digest schedule;
        s_report = !report;
        s_stats = st;
      }
  with Fail e -> Error (1, e)

let load_source ~flags ~path src =
  let parse_error msg (pos : Ir.Lexer.pos) =
    Error (1, Some (Printf.sprintf "%s:%d:%d: %s" path pos.line pos.col msg))
  in
  let module H = Vliw_arch.Header in
  let declared = H.of_directives (H.directives src) in
  match Result.bind declared (fun h -> H.machine (H.over flags h)) with
  | Error e -> Error (2, Some e)
  | Ok machine -> (
    match Ir.Parser.parse_kernels src with
    | kernels -> Ok (machine, kernels)
    | exception (Ir.Parser.Error (msg, pos) | Ir.Lexer.Error (msg, pos)) ->
      parse_error msg pos)

let run_source ?compiled ~buf ~flags ~opts ~path src =
  Result.bind (load_source ~flags ~path src) (fun (machine, kernels) ->
      let rec go acc = function
        | [] -> Ok (List.rev acc)
        | k :: rest -> (
          match run_kernel ?compiled ~buf ~machine ~opts k with
          | Ok s -> go (s :: acc) rest
          | Error _ as e -> e)
      in
      go [] kernels)
