(* Tests for the small-scope model checker (lib/check): the committed
   litmus suite explores exhaustively and clean, cross-branch pruning is
   sound (merged states really do lead to byte-identical stats), the
   exploration is deterministic across pool widths, and a weakened
   verifier is refuted with a shrunk counterexample. *)

module Check = Vliw_check.Check
module Diff = Vliw_fuzz.Diff
module P = Vliw_pipeline.Pipeline
module Gen = Vliw_fuzz.Gen
module Shrink = Vliw_fuzz.Shrink
module Sim = Vliw_sim.Sim
module V = Vliw_verify.Verify
module Diag = Vliw_util.Diag
module Pool = Vliw_util.Pool

(* a case's compiles, as Diff.check and Check.run_case make them *)
let compile c = P.compile ~heuristic:(Diff.heuristic_for c) (Diff.front c)
let compile_all c = P.compile_all ~heuristic:(Diff.heuristic_for c) (Diff.front c)

(* dune runtest's cwd is _build/default/test (the kernels are declared
   as (deps (glob_files litmus/*.lk))); a bare `dune exec` runs from the
   project root *)
let litmus_dir =
  if Sys.file_exists "litmus" then "litmus"
  else Filename.concat "test" "litmus"

let litmus_files () =
  Sys.readdir litmus_dir |> Array.to_list
  |> List.filter (fun f -> Filename.check_suffix f ".lk")
  |> List.sort compare
  |> List.map (Filename.concat litmus_dir)

let load = Gen.load

(* the same certify-everything wrapper vliwfuzz --weaken-verifier uses *)
let weakened ~machine ~technique ~base ~layout ~graph ~schedule =
  let r =
    Diff.default_verifier ~machine ~technique ~base ~layout ~graph ~schedule
  in
  { r with V.r_verified = true; r_jitter_robust = true; r_diags = [] }

let outcomes r =
  List.filter_map
    (fun (t : Check.checked) ->
      match t.Check.t_status with Ok (_, o) -> Some o | Error _ -> None)
    r.Check.co_techniques

(* --- the committed suite: every kernel, full bounded space, clean --- *)

let test_litmus_exhaustive_and_clean () =
  let files = litmus_files () in
  Alcotest.(check bool) "suite is committed" true (List.length files >= 15);
  List.iter
    (fun file ->
      let r = Check.run_case (load file) in
      Alcotest.(check (list (pair string string)))
        (file ^ " clean") [] r.Check.co_failures;
      List.iter
        (fun o ->
          Alcotest.(check bool)
            (file ^ " exhaustive") true o.Check.k_exhaustive;
          Alcotest.(check int)
            (file ^ " engine agreement") 0 o.Check.k_agreement_failures)
        (outcomes r))
    files

(* the suite is not vacuous: some kernel actually branches, some kernel
   actually prunes, and some kernel reaches violating (uncertified)
   leaves — the checker distinguishes reachable-violation from
   certificate-breaking *)
let test_litmus_space_is_nontrivial () =
  let os = List.concat_map (fun f -> outcomes (Check.run_case (load f))) (litmus_files ()) in
  let total field = List.fold_left (fun a o -> a + field o) 0 os in
  Alcotest.(check bool) "states explored" true (total (fun o -> o.Check.k_states) > 100);
  Alcotest.(check bool) "branches pruned" true (total (fun o -> o.Check.k_pruned) > 20);
  Alcotest.(check bool)
    "violating leaves reached" true
    (total (fun o -> o.Check.k_violating) > 0);
  Alcotest.(check bool)
    "reference engine sampled" true
    (total (fun o -> o.Check.k_agreement_checked) > 0)

(* --- canonicalization soundness: a pruned branch point and the first
   visit of its state must lead to byte-identical final stats when both
   are replayed with the same (all-zero) continuation --- *)

let merge_pair_stats file =
  let case = load file in
  let jitter = case.Gen.g_jitter in
  List.concat_map
    (fun (_, compiled) ->
      match compiled with
      | Error _ -> []
      | Ok a ->
        let o =
          Check.explore ~lowered:a.P.front.P.lowered ~graph:a.P.graph
            ~schedule:a.P.schedule ~layout:a.P.front.P.layout ~jitter
            ~expected:Bytes.empty ~certified:false ()
        in
        List.map
          (fun (first, pruned) ->
            let run script =
              Check.replay ~lowered:a.P.front.P.lowered ~graph:a.P.graph
                ~schedule:a.P.schedule ~layout:a.P.front.P.layout ~jitter
                ~script ()
            in
            (run first, run pruned))
          o.Check.k_merge_samples)
    (compile_all case)

let test_merge_samples_stats_identical () =
  let pairs =
    List.concat_map merge_pair_stats
      [
        Filename.concat litmus_dir "mf_dist1.lk";
        Filename.concat litmus_dir "mf_dist1_dir.lk";
        Filename.concat litmus_dir "ma_anti.lk";
      ]
  in
  Alcotest.(check bool) "some states merged" true (pairs <> []);
  List.iter
    (fun (a, b) ->
      Alcotest.(check bool) "merged states agree byte-for-byte" true
        (Check.stats_equal a b))
    pairs

(* --- wheel/reference agreement under a forced draw script --- *)

let test_replay_engines_agree () =
  let case = load (Filename.concat litmus_dir "mf_dist1.lk") in
  match compile case Diff.Free with
  | Error e -> Alcotest.failf "free unschedulable: %s" e
  | Ok a ->
    List.iter
      (fun script ->
        let run engine =
          Check.replay ~lowered:a.P.front.P.lowered ~graph:a.P.graph
            ~schedule:a.P.schedule ~layout:a.P.front.P.layout ~jitter:1
            ~script ~engine ()
        in
        Alcotest.(check bool)
          "wheel and reference agree" true
          (Check.stats_equal (run `Wheel) (run `Reference)))
      [ []; [ 1 ]; [ 0; 1; 1 ]; [ 1; 1; 1; 1; 1; 1 ] ]

(* --- determinism: the same exploration at pool width 1 and 4 --- *)

let projection r =
  ( r.Check.co_jitter,
    r.Check.co_failures,
    List.map
      (fun (t : Check.checked) ->
        match t.Check.t_status with
        | Error e -> Error e
        | Ok (_, o) ->
          Ok
            ( o.Check.k_states,
              o.Check.k_pruned,
              o.Check.k_leaves,
              o.Check.k_max_depth,
              o.Check.k_exhaustive,
              o.Check.k_violating,
              o.Check.k_diverging,
              o.Check.k_merge_samples ))
      r.Check.co_techniques )

let test_jobs_invariant () =
  let files =
    [
      Filename.concat litmus_dir "mf_same_iter.lk";
      Filename.concat litmus_dir "dir_race.lk";
      Filename.concat litmus_dir "may_alias.lk";
    ]
  in
  let sweep () = Pool.map (fun f -> projection (Check.run_case (load f))) files in
  Pool.set_jobs 1;
  let one = sweep () in
  Pool.set_jobs 4;
  let four = sweep () in
  Pool.set_jobs 1;
  Alcotest.(check bool) "jobs 1 = jobs 4" true (one = four)

(* --- soundness theorem, negative side: weaken the verifier and the
   checker must refute the forged certificate with a counterexample,
   and the shrinker must carry the refutation to a tiny witness --- *)

let test_weakened_verifier_refuted () =
  let file = Filename.concat litmus_dir "mf_same_iter.lk" in
  let case = load file in
  (* honest verifier: the certificate degrades to nominal-only, so the
     violating jittered leaves refute nothing *)
  let honest = Check.run_case case in
  Alcotest.(check (list (pair string string))) "honest is clean" []
    honest.Check.co_failures;
  (* forged jitter-robustness: the same leaves are now counterexamples *)
  let forged = Check.run_case ~verifier:weakened case in
  Alcotest.(check bool) "forged is refuted" true
    (Check.case_refuted ~verifier:weakened case);
  let kinds = List.map fst forged.Check.co_failures in
  Alcotest.(check bool) "kind is certified-violation" true
    (List.mem "check-certified-violation" kinds);
  List.iter
    (fun (t : Check.checked) ->
      match (t.Check.t_status, t.Check.t_refutation) with
      | Ok (_, { Check.k_counterexample = Some _; _ }), Some d ->
        Alcotest.(check string) "refutation diag code" "verify-refuted"
          d.Diag.d_code
      | Ok (_, { Check.k_counterexample = Some _; _ }), None ->
        Alcotest.fail "counterexample without a refutation diagnostic"
      | _ -> ())
    forged.Check.co_techniques;
  (* the counterexample's script really reaches a violating execution *)
  (match
     List.find_map
       (fun (t : Check.checked) ->
         match (t.Check.t_technique, t.Check.t_status) with
         | Diff.Free, Ok (_, { Check.k_counterexample = Some x; _ }) ->
           Some x
         | _ -> None)
       forged.Check.co_techniques
   with
  | None -> Alcotest.fail "free has no counterexample"
  | Some x ->
    (match compile case Diff.Free with
    | Error e -> Alcotest.failf "free unschedulable: %s" e
    | Ok a ->
      let st =
        Check.replay ~lowered:a.P.front.P.lowered ~graph:a.P.graph
          ~schedule:a.P.schedule ~layout:a.P.front.P.layout
          ~jitter:forged.Check.co_jitter ~script:x.Check.x_script ()
      in
      Alcotest.(check int) "script reproduces the violation"
        x.Check.x_violations st.Sim.violations));
  (* the shrunk witness keeps refuting and is small enough to read *)
  let small =
    Shrink.shrink ~pred:(Check.case_refuted ~verifier:weakened) case
  in
  Alcotest.(check bool) "shrunk still refuted" true
    (Check.case_refuted ~verifier:weakened small);
  Alcotest.(check bool) "shrunk to <= 6 nodes" true
    (Shrink.node_count small <= 6)

(* --- exploration budget: a cap is reported as check-state-limit, which
   is not a refutation --- *)

let test_state_limit_not_refuting () =
  let case = load (Filename.concat litmus_dir "mf_same_iter.lk") in
  let config =
    { Check.c_max_states = 2; c_max_leaves = 2 }
  in
  let r = Check.run_case ~config case in
  let kinds = List.map fst r.Check.co_failures in
  Alcotest.(check bool) "capped" true (List.mem "check-state-limit" kinds);
  List.iter
    (fun k ->
      Alcotest.(check bool) ("refuting kind " ^ k) false
        (List.mem k Check.refuting_kinds))
    kinds;
  Alcotest.(check bool) "cap is not a refutation" false
    (Check.case_refuted ~config case)

(* --- jitter 0: the space is the single nominal execution --- *)

let test_jitter_zero_single_leaf () =
  let case = load (Filename.concat litmus_dir "mf_dist1.lk") in
  let r = Check.run_case ~jitter:0 case in
  Alcotest.(check (list (pair string string))) "clean" [] r.Check.co_failures;
  List.iter
    (fun o ->
      Alcotest.(check int) "one leaf" 1 o.Check.k_leaves;
      Alcotest.(check bool) "exhaustive" true o.Check.k_exhaustive)
    (outcomes r)

(* --- a negative jitter bound is refused before anything runs --- *)

let test_negative_jitter_rejected () =
  let case = load (Filename.concat litmus_dir "carried.lk") in
  match compile case Diff.Mdc with
  | Error e -> Alcotest.failf "carried unschedulable: %s" e
  | Ok a ->
    Alcotest.check_raises "jitter -1"
      (Invalid_argument "Check.explore: negative jitter") (fun () ->
        ignore
          (Check.explore ~lowered:a.P.front.P.lowered ~graph:a.P.graph
             ~schedule:a.P.schedule ~layout:a.P.front.P.layout ~jitter:(-1)
             ~expected:Bytes.empty ~certified:false ()))

(* --- chooser API: mutually exclusive with ?jitter, bounds checked --- *)

let test_chooser_exclusive_with_jitter () =
  let case = load (Filename.concat litmus_dir "mf_dist1.lk") in
  match compile case Diff.Free with
  | Error e -> Alcotest.failf "free unschedulable: %s" e
  | Ok a ->
    let choices =
      { Sim.ch_jitter = 1; ch_draw = (fun ~bound:_ -> 0); ch_note_state = None }
    in
    Alcotest.check_raises "jitter and choices"
      (Invalid_argument "Sim.run: ?jitter and ?choices are mutually exclusive")
      (fun () ->
        ignore
          (Sim.run ~lowered:a.P.front.P.lowered ~graph:a.P.graph
             ~schedule:a.P.schedule ~layout:a.P.front.P.layout
             ~mode:Sim.Execution
             ~jitter:(Vliw_util.Prng.create 7, 1)
             ~choices ()))

(* --- chooser contract: the state encoder only reads. A run that calls
   it at every note (twice, to see it is stable) and one that never calls
   it follow the same draw script to byte-identical stats --- *)

let test_encoder_reads_only () =
  List.iter
    (fun name ->
      let case = load (Filename.concat litmus_dir name) in
      match compile case Diff.Free with
      | Error e -> Alcotest.failf "%s: free unschedulable: %s" name e
      | Ok a ->
        let script = [| 1; 0; 1; 1; 0; 1; 0; 1 |] in
        let run note =
          let depth = ref 0 in
          let choices =
            {
              Sim.ch_jitter = 1;
              ch_draw =
                (fun ~bound:_ ->
                  let v =
                    if !depth < Array.length script then script.(!depth) else 0
                  in
                  incr depth;
                  v);
              ch_note_state = Some note;
            }
          in
          Sim.run ~lowered:a.P.front.P.lowered ~graph:a.P.graph
            ~schedule:a.P.schedule ~layout:a.P.front.P.layout
            ~mode:Sim.Execution ~choices ()
        in
        let encodes = ref 0 in
        let encoding =
          run (fun encode ->
              incr encodes;
              let s = encode () in
              Alcotest.(check string) (name ^ " stable encoding") s (encode ()))
        in
        let silent = run (fun _ -> ()) in
        Alcotest.(check bool) (name ^ " noted") true (!encodes > 0);
        Alcotest.(check bool)
          (name ^ " encoding changes nothing") true
          (Check.stats_equal encoding silent))
    [ "mf_dist1.lk"; "mf_dist1_dir.lk" ]

(* --- chooser contract: a note comes only in a cycle that draws. Over
   every litmus kernel and compiled schedule at bus x4 and directory x4,
   at least one draw separates each note from the next, and follows the
   last --- *)

let test_notes_draw () =
  let notes_total = ref 0 in
  List.iter
    (fun file ->
      List.iter
        (fun icn ->
          let case = load file in
          let case =
            { case with Gen.g_mconf = Gen.mconf_with ~icn ~clusters:4 case.Gen.g_mconf }
          in
          List.iter
            (fun (tech, compiled) ->
              match compiled with
              | Error _ -> ()
              | Ok a ->
                let tag =
                  Printf.sprintf "%s at %s x4, %s" file icn
                    (Diff.technique_name tech)
                in
                (* draws since the last note; -1 before the first note *)
                let since = ref (-1) and draws = ref 0 in
                let choices =
                  {
                    Sim.ch_jitter = 1;
                    ch_note_state =
                      Some
                        (fun _ ->
                          if !since = 0 then
                            Alcotest.failf "%s: note %d after no draw" tag
                              !notes_total;
                          incr notes_total;
                          since := 0);
                    ch_draw =
                      (fun ~bound:_ ->
                        incr draws;
                        if !since >= 0 then incr since;
                        !draws land 1);
                  }
                in
                ignore
                  (Sim.run ~lowered:a.P.front.P.lowered ~graph:a.P.graph
                     ~schedule:a.P.schedule ~layout:a.P.front.P.layout
                     ~choices ());
                if !since = 0 then Alcotest.failf "%s: last note drew nothing" tag)
            (compile_all case))
        [ "bus"; "directory" ])
    (litmus_files ());
  Alcotest.(check bool) "notes seen" true (!notes_total > 0)

(* --- frozen keys: key_digests.txt pins the state-key bytes. Every litmus
   kernel at {bus, directory} x {4, 8} clusters, under every schedule
   compile_all returns, runs three draw scripts (every draw 0, every
   draw bound - 1, alternating) encoding a key at every note. One MD5 per
   schedule covers the keys in order and each run's final stats, memory
   included. A change to what a key holds fails here and names the
   schedule --- *)

let add_stats buf (s : Sim.stats) =
  List.iter
    (fun v -> Printf.bprintf buf "%d," v)
    [
      s.total_cycles; s.compute_cycles; s.stall_cycles; s.stall_load_cycles;
      s.stall_copy_cycles; s.stall_bus_cycles; s.stall_drain_cycles;
      s.local_hits; s.remote_hits; s.local_misses; s.remote_misses;
      s.combined; s.ab_hits; s.ab_flushed; s.violations; s.nullified;
      s.comm_ops; s.dir_lookups; s.dir_invalidates; s.dir_writebacks;
      s.packet_hops; s.prot_invalidations; s.prot_upgrades;
      s.prot_exclusive_hits;
    ];
  Buffer.add_bytes buf s.memory;
  Buffer.add_char buf '\n'

let key_digest ~jitter (a : P.compiled) =
  let buf = Buffer.create 4096 in
  List.iter
    (fun pick ->
      let draws = ref 0 in
      let choices =
        {
          Sim.ch_jitter = jitter;
          ch_draw =
            (fun ~bound ->
              let v = pick !draws bound in
              incr draws;
              v);
          ch_note_state =
            Some
              (fun encode ->
                let k = encode () in
                Printf.bprintf buf "%d:%s" (String.length k) k);
        }
      in
      add_stats buf
        (Sim.run ~lowered:a.P.front.P.lowered ~graph:a.P.graph
           ~schedule:a.P.schedule ~layout:a.P.front.P.layout ~choices ()))
    [
      (fun _ _ -> 0);
      (fun _ bound -> bound - 1);
      (fun i bound -> if i land 1 = 0 then 0 else bound - 1);
    ];
  Digest.to_hex (Digest.string (Buffer.contents buf))

(* one line per schedule: "<kernel> <icn> x<clusters> <technique> <md5>" *)
let key_digest_lines () =
  List.concat_map
    (fun file ->
      List.concat_map
        (fun icn ->
          List.concat_map
            (fun clusters ->
              let case = load file in
              let case =
                {
                  case with
                  Gen.g_mconf = Gen.mconf_with ~icn ~clusters case.Gen.g_mconf;
                }
              in
              let jitter = max 1 case.Gen.g_jitter in
              List.map
                (fun (tech, compiled) ->
                  let name =
                    Printf.sprintf "%s %s x%d %s" (Filename.basename file) icn
                      clusters (Diff.technique_name tech)
                  in
                  match compiled with
                  | Error e -> Alcotest.failf "%s: unschedulable: %s" name e
                  | Ok a -> (name, key_digest ~jitter a))
                (compile_all case))
            [ 4; 8 ])
        [ "bus"; "directory" ])
    (litmus_files ())

let test_frozen_keys () =
  let golden =
    let file = Filename.concat (Filename.dirname litmus_dir) "key_digests.txt" in
    let ic = open_in file in
    let rec read acc =
      match input_line ic with
      | line ->
        let i = String.rindex line ' ' in
        let digest = String.sub line (i + 1) (String.length line - i - 1) in
        read ((String.sub line 0 i, digest) :: acc)
      | exception End_of_file ->
        close_in ic;
        List.rev acc
    in
    read []
  in
  let got = key_digest_lines () in
  Alcotest.(check int) "one digest per schedule" 304 (List.length golden);
  Alcotest.(check (list string)) "the same schedules" (List.map fst golden)
    (List.map fst got);
  List.iter2
    (fun (name, expected) (_, d) -> Alcotest.(check string) name expected d)
    golden got

let () =
  Alcotest.run "check"
    [
      ( "litmus",
        [
          Alcotest.test_case "suite explores exhaustively, clean" `Slow
            test_litmus_exhaustive_and_clean;
          Alcotest.test_case "suite is nontrivial" `Slow
            test_litmus_space_is_nontrivial;
        ] );
      ( "canonicalization",
        [
          Alcotest.test_case "merged states give identical stats" `Quick
            test_merge_samples_stats_identical;
          Alcotest.test_case "replay agrees across engines" `Quick
            test_replay_engines_agree;
          Alcotest.test_case "frozen keys" `Quick test_frozen_keys;
        ] );
      ( "determinism",
        [ Alcotest.test_case "jobs 1 = jobs 4" `Quick test_jobs_invariant ] );
      ( "soundness",
        [
          Alcotest.test_case "weakened verifier refuted + shrunk" `Slow
            test_weakened_verifier_refuted;
          Alcotest.test_case "state limit is not a refutation" `Quick
            test_state_limit_not_refuting;
          Alcotest.test_case "jitter 0 is the nominal execution" `Quick
            test_jitter_zero_single_leaf;
          Alcotest.test_case "negative jitter is refused" `Quick
            test_negative_jitter_rejected;
        ] );
      ( "chooser",
        [
          Alcotest.test_case "jitter and choices are exclusive" `Quick
            test_chooser_exclusive_with_jitter;
          Alcotest.test_case "encoder reads state only" `Quick
            test_encoder_reads_only;
          Alcotest.test_case "every note is followed by a draw" `Quick
            test_notes_draw;
        ] );
    ]
