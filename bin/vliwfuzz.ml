(* vliwfuzz — differential coherence fuzzing of the compile-and-simulate
   pipeline against a golden sequential-memory oracle.

   Examples:
     vliwfuzz run --seed 1 --count 500 --budget 30   # bounded sweep
     vliwfuzz run --out repros --jobs 4              # write minimized repros
     vliwfuzz replay repros/repro_1_42.lk            # re-judge one case
     vliwfuzz shrink repros/repro_1_42.lk            # minimize by hand

   Every case is a pure function of (seed, index); the sweep's output is
   byte-identical at any --jobs width. Exit status 1 means at least one
   certified schedule disagreed with the oracle (or an internal
   cross-check tripped) — the repro files name the witnesses. *)

open Cmdliner
module Fuzz = Vliw_fuzz.Fuzz
module Gen = Vliw_fuzz.Gen
module Diff = Vliw_fuzz.Diff
module Shrink = Vliw_fuzz.Shrink
module P = Vliw_pipeline.Pipeline

(* test-only: wrap the real verifier so it certifies everything — the
   differential predicate must then catch real violations as
   "certified-violation". Hidden from normal use; exercised by the cram
   test and CI to prove the fuzzer's teeth. *)
let weakened ~machine ~technique ~base ~layout ~graph ~schedule =
  let r =
    Diff.default_verifier ~machine ~technique ~base ~layout ~graph ~schedule
  in
  {
    r with
    Vliw_verify.Verify.r_verified = true;
    r_jitter_robust = true;
    r_diags = [];
  }

let verifier_of weaken = if weaken then Some weakened else None

let print_verdict (v : Diff.verdict) =
  Printf.printf "case seed=%d index=%d nodes=%d shapes=%s heuristic=%s\n"
    v.Diff.v_case.Gen.g_seed v.Diff.v_case.Gen.g_index v.Diff.v_nodes
    (String.concat "," v.Diff.v_case.Gen.g_shapes)
    (Vliw_sched.Schedule.heuristic_name v.Diff.v_heuristic);
  List.iter
    (fun (r : Diff.run) ->
      match r.Diff.d_status with
      | Diff.Unschedulable e ->
        Printf.printf "  %-6s unschedulable: %s\n"
          (Diff.technique_name r.Diff.d_technique)
          e
      | Diff.Ran x ->
        Printf.printf "  %-6s verified=%b jitter-robust=%b violations=%d memory=%s%s\n"
          (Diff.technique_name r.Diff.d_technique)
          x.r_verified x.r_jitter_robust x.r_nominal.Diff.so_violations
          (if x.r_nominal.Diff.so_memory_ok then "ok" else "DIFFERS")
          (match x.r_jittered with
          | None -> ""
          | Some j ->
            Printf.sprintf " | jittered violations=%d memory=%s"
              j.Diff.so_violations
              (if j.Diff.so_memory_ok then "ok" else "DIFFERS")))
    v.Diff.v_runs;
  if v.Diff.v_failures = [] then print_string "clean\n"
  else
    List.iter
      (fun (f : Diff.failure) ->
        Printf.printf "FAILURE %s (%s): %s\n" f.Diff.f_kind f.Diff.f_technique
          f.Diff.f_detail)
      v.Diff.v_failures

(* ---- subcommands ---- *)

let at_least = Flags.at_least ~tool:"vliwfuzz"

let run_cmd seed count budget jobs out no_shrink weaken =
  at_least ~flag:"count" 0 count;
  Option.iter (at_least ~flag:"jobs" 1) jobs;
  Option.iter Vliw_util.Pool.set_jobs jobs;
  let cfg = Fuzz.config ~seed ~count ~budget ?out ~shrink:(not no_shrink) () in
  let s = Fuzz.run ?verifier:(verifier_of weaken) cfg in
  print_string (Fuzz.render s);
  if s.Fuzz.s_clean then 0 else 1

(* A saved case names its machine in its header: reject a bad one, or a
   bad [conf] override of it, with one line before judging anything. *)
let load ?(conf = Fun.id) file =
  try
    let case = Gen.load file in
    let case = { case with Gen.g_mconf = conf case.Gen.g_mconf } in
    ignore (Gen.machine case.Gen.g_mconf);
    case
  with Failure e ->
    Printf.eprintf "vliwfuzz: %s: %s\n" file e;
    exit 2

let replay_cmd file weaken =
  let case = load file in
  let v = Diff.check ?verifier:(verifier_of weaken) case in
  print_verdict v;
  if v.Diff.v_failures = [] then 0 else 1

let shrink_cmd file out weaken =
  let case = load file in
  let verifier = verifier_of weaken in
  if not (Diff.failing ?verifier case) then begin
    print_string "case does not fail: nothing to shrink\n";
    1
  end
  else begin
    let small = Shrink.shrink ~pred:(Diff.failing ?verifier) case in
    let path = match out with Some p -> p | None -> file ^ ".min" in
    Gen.save path small;
    Printf.printf "shrunk to %d nodes (%d statements): %s\n"
      (Shrink.node_count small)
      (List.length small.Gen.g_kernel.Vliw_ir.Ast.k_body)
      path;
    print_verdict (Diff.check ?verifier small);
    0
  end

(* ---- check: bounded model checking of saved cases ---- *)

module Check = Vliw_check.Check

let config_label (c : Gen.case) =
  Printf.sprintf "%s x%d%s" c.Gen.g_mconf.Gen.mc_icn
    c.Gen.g_mconf.Gen.mc_clusters
    (match c.Gen.g_mconf.Gen.mc_protocol with
    | "install-flush" -> ""
    | p -> " " ^ p)

let render_case_outcome file (r : Check.case_outcome) =
  let b = Buffer.create 512 in
  Buffer.add_string b
    (Printf.sprintf "check %s [%s] jitter<=%d\n" file
       (config_label r.Check.co_case)
       r.Check.co_jitter);
  List.iter
    (fun (t : Check.checked) ->
      match t.Check.t_status with
      | Error e ->
        Buffer.add_string b
          (Printf.sprintf "  %-6s unschedulable: %s\n"
             (Diff.technique_name t.Check.t_technique)
             e)
      | Ok (report, o) ->
        Buffer.add_string b
          (Printf.sprintf "  %-6s %s: %s\n"
             (Diff.technique_name t.Check.t_technique)
             (if o.Check.k_certified then "certified"
              else if report.Vliw_verify.Verify.r_verified then
                "certified-nominal-only"
              else "uncertified")
             (Format.asprintf "%a" Check.pp_outcome o)))
    r.Check.co_techniques;
  if r.Check.co_failures = [] then Buffer.add_string b "clean\n"
  else
    List.iter
      (fun (kind, detail) ->
        Buffer.add_string b (Printf.sprintf "FAILURE %s: %s\n" kind detail))
      r.Check.co_failures;
  Buffer.contents b

let check_cmd files clusters icn jitter matrix max_states jobs out weaken =
  Option.iter (at_least ~flag:"jitter" 0) jitter;
  Option.iter (at_least ~flag:"max-states" 1) max_states;
  Option.iter (at_least ~flag:"jobs" 1) jobs;
  Option.iter Vliw_util.Pool.set_jobs jobs;
  let verifier = verifier_of weaken in
  let config =
    match max_states with
    | None -> Check.default_config
    | Some n ->
      { Check.c_max_states = n; c_max_leaves = n }
  in
  let configs =
    if matrix then
      [ (Some "bus", Some 4); (Some "bus", Some 8); (Some "directory", Some 4);
        (Some "directory", Some 8) ]
    else [ (icn, clusters) ]
  in
  let work =
    List.concat_map
      (fun file ->
        List.map
          (fun (icn, clusters) -> (file, load ~conf:(Gen.mconf_with ?clusters ?icn) file))
          configs)
      files
  in
  let results =
    Vliw_util.Pool.map
      (fun (file, case) ->
        (file, case, Check.run_case ?verifier ~config ?jitter case))
      work
  in
  let bad = ref false in
  let refuted = ref [] in
  List.iter
    (fun (file, _case, r) ->
      print_string (render_case_outcome file r);
      if r.Check.co_failures <> [] then bad := true;
      if
        List.exists
          (fun (k, _) -> List.mem k Check.refuting_kinds)
          r.Check.co_failures
      then refuted := (file, r) :: !refuted)
    results;
  (* shrink the first refuted case into a committed-repro-sized witness
     and dump its counterexample trace for offline inspection *)
  (match (out, List.rev !refuted) with
  | Some dir, (file, r) :: _ ->
    (try Unix.mkdir dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
    let case = r.Check.co_case in
    let small =
      Shrink.shrink ~pred:(Check.case_refuted ?verifier ~config ?jitter) case
    in
    let stem =
      Filename.concat dir
        (Filename.remove_extension (Filename.basename file) ^ ".refuted")
    in
    Gen.save (stem ^ ".lk") small;
    Printf.printf "shrunk refuted case to %d nodes: %s\n"
      (Shrink.node_count small) (stem ^ ".lk");
    let sr = Check.run_case ?verifier ~config ?jitter small in
    print_string (render_case_outcome (stem ^ ".lk") sr);
    let fe = Diff.front small and heuristic = Diff.heuristic_for small in
    List.iter
      (fun (t : Check.checked) ->
        match t.Check.t_status with
        | Ok (_, { Check.k_counterexample = Some x; _ }) ->
          (match P.compile ~heuristic fe t.Check.t_technique with
          | Ok a ->
            let sink = Vliw_trace.Trace.create () in
            ignore
              (Check.replay ~lowered:fe.P.lowered ~graph:a.P.graph
                 ~schedule:a.P.schedule ~layout:fe.P.layout
                 ~jitter:sr.Check.co_jitter ~script:x.Check.x_script
                 ~trace:sink ());
            let path =
              Printf.sprintf "%s.%s.trace.json" stem
                (Diff.technique_name t.Check.t_technique)
            in
            let oc = open_out path in
            output_string oc (Vliw_trace.Chrome.to_string sink);
            close_out oc;
            Printf.printf "counterexample trace: %s\n" path
          | Error _ -> ())
        | _ -> ())
      sr.Check.co_techniques
  | _ -> ());
  if !bad then 1 else 0

let gen_cmd seed budget index out =
  let case = Gen.generate ~seed ~budget index in
  (match out with
  | Some path ->
    Gen.save path case;
    Printf.printf "wrote %s\n" path
  | None -> print_string (Gen.to_file_string case));
  0

(* ---- cmdliner plumbing ---- *)

let weaken =
  Arg.(
    value & flag
    & info [ "weaken-verifier" ] ~doc:"Test-only: certify every schedule.")

let seed =
  Arg.(value & opt int 1 & info [ "seed" ] ~docv:"S" ~doc:"Root seed.")

let count =
  Arg.(value & opt int 200 & info [ "count" ] ~docv:"N" ~doc:"Cases to run.")

let budget =
  Arg.(
    value & opt int 30 & info [ "budget" ] ~docv:"B" ~doc:"Per-case size budget.")

let jobs =
  Arg.(
    value
    & opt (some int) None
    & info [ "jobs" ] ~docv:"J" ~doc:"Pool width (default: VLIW_JOBS or cores).")

let out =
  Arg.(
    value
    & opt (some string) None
    & info [ "out" ] ~docv:"DIR" ~doc:"Write minimized repro files under $(docv).")

let no_shrink =
  Arg.(value & flag & info [ "no-shrink" ] ~doc:"Keep failing cases unminimized.")

let file = Arg.(required & pos 0 (some file) None & info [] ~docv:"FILE")

let out_file doc =
  Arg.(value & opt (some string) None & info [ "out" ] ~docv:"PATH" ~doc)

let index = Arg.(required & pos 0 (some int) None & info [] ~docv:"INDEX")

let files =
  Arg.(non_empty & pos_all file [] & info [] ~docv:"FILE")

let clusters_opt =
  Arg.(
    value
    & opt (some int) None
    & info [ "clusters" ] ~docv:"N"
        ~doc:"Override the case's cluster count (4, 8 or 16).")

let icn_opt =
  Arg.(
    value
    & opt (some (enum [ ("bus", "bus"); ("directory", "directory") ])) None
    & info [ "icn" ] ~docv:"ICN" ~doc:"Override the interconnect backend.")

let jitter_opt =
  Arg.(
    value
    & opt (some int) None
    & info [ "jitter" ] ~docv:"J"
        ~doc:
          "Per-transfer jitter bound to explore (default: the case's \
           declared bound).")

let matrix =
  Arg.(
    value & flag
    & info [ "matrix" ]
        ~doc:
          "Check each case under {bus,directory} x {4,8} clusters instead \
           of its declared configuration.")

let max_states =
  Arg.(
    value
    & opt (some int) None
    & info [ "max-states" ] ~docv:"N"
        ~doc:"Exploration budget (states and leaves; default 200000/100000).")

let gen_c =
  Cmd.v
    (Cmd.info "gen" ~doc:"Print (or save) one generated case by index.")
    Term.(
      const gen_cmd $ seed $ budget $ index
      $ out_file "Write the case to $(docv) instead of printing it.")

let run_c =
  Cmd.v
    (Cmd.info "run" ~doc:"Run a bounded differential fuzzing sweep.")
    Term.(
      const run_cmd $ seed $ count $ budget $ jobs $ out $ no_shrink $ weaken)

let replay_c =
  Cmd.v
    (Cmd.info "replay" ~doc:"Re-run the differential pipeline on a saved case.")
    Term.(const replay_cmd $ file $ weaken)

let shrink_c =
  Cmd.v
    (Cmd.info "shrink" ~doc:"Minimize a failing saved case.")
    Term.(
      const shrink_cmd $ file
      $ out_file "Where to write the minimized case (default: FILE.min)."
      $ weaken)

let check_c =
  Cmd.v
    (Cmd.info "check"
       ~doc:
         "Exhaustively model-check saved cases: enumerate every bounded \
          interleaving, hold certified schedules to zero violations and \
          oracle memory.")
    Term.(
      const check_cmd $ files $ clusters_opt $ icn_opt $ jitter_opt $ matrix
      $ max_states $ jobs $ out $ weaken)

let cmd =
  Cmd.group
    (Cmd.info "vliwfuzz" ~version:"1.0.0"
       ~doc:
         "Differential coherence fuzzer: seeded workloads, golden-memory \
          oracle, shrinking repro harness.")
    [ run_c; replay_c; shrink_c; gen_c; check_c ]

let () = exit (Cmd.eval' cmd)
