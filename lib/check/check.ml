(* Bounded model checker over the wheel engine: DFS through the full
   nondeterminism space of a compiled kernel. Every source of
   nondeterminism in a run funnels through one jitter draw per bus grant
   or ring hop, so enumerating draw scripts (branching factor jitter+1)
   enumerates every reachable execution. Exploration is stateless /
   replay-based in the spirit of Qadeer's SC-verification work: a branch
   is revisited by re-running the simulator under a forced draw prefix,
   and cross-branch pruning is justified by the engine's canonical state
   serialization — a pruned prefix has reached a (pre-network state,
   intra-cycle draw offset) pair some earlier run already expanded, and
   equal keys imply byte-identical final stats under equal future draws,
   so its whole subtree is a duplicate. *)

module G = Vliw_ddg.Graph
module S = Vliw_sched.Schedule
module Lower = Vliw_lower.Lower
module Layout = Vliw_ir.Layout
module Sim = Vliw_sim.Sim
module Trace = Vliw_trace.Trace
module V = Vliw_verify.Verify
module Diag = Vliw_util.Diag
module Dec = Vliw_util.Dec
module Diff = Vliw_fuzz.Diff
module Gen = Vliw_fuzz.Gen
module Oracle = Vliw_fuzz.Oracle
module Interp = Vliw_ir.Interp

type config = { c_max_states : int; c_max_leaves : int }

let default_config = { c_max_states = 200_000; c_max_leaves = 100_000 }

(* every 64th leaf is replayed on the reference engine *)
let reference_stride = 64

(* (first visit, pruned) prefix pairs kept for the canonicalization
   soundness property test *)
let merge_samples_kept = 4

type counterexample = {
  x_kind : string;
  x_script : int list;
  x_violations : int;
  x_memory_ok : bool;
}

type outcome = {
  k_jitter : int;
  k_certified : bool;
  k_states : int;
  k_pruned : int;
  k_leaves : int;
  k_max_depth : int;
  k_max_frontier : int;
  k_exhaustive : bool;
  k_violating : int;
  k_diverging : int;
  k_agreement_checked : int;
  k_agreement_failures : int;
  k_merge_samples : (int list * int list) list;
  k_counterexample : counterexample option;
}

(* all non-memory fields are ints, so a record-update trick compares the
   full stats structurally with the two memory images compared as bytes *)
let stats_equal (a : Sim.stats) (b : Sim.stats) =
  Bytes.equal a.Sim.memory b.Sim.memory
  && { a with Sim.memory = Bytes.empty } = { b with Sim.memory = Bytes.empty }

exception Pruned
exception Capped

let replay ~lowered ~graph ~schedule ~layout ?trip ~jitter ~script
    ?(engine = `Wheel) ?trace () =
  let arr = Array.of_list script in
  let depth = ref 0 in
  let chooser =
    {
      Sim.ch_jitter = jitter;
      ch_note_state = None;
      ch_draw =
        (fun ~bound:_ ->
          let v = if !depth < Array.length arr then arr.(!depth) else 0 in
          incr depth;
          v);
    }
  in
  Sim.run ~lowered ~graph ~schedule ~layout ?trip ~mode:Sim.Execution
    ~choices:chooser ?trace ~engine ()

let explore ~lowered ~graph ~schedule ~layout ?trip ~jitter ~expected
    ~certified ?(config = default_config) () =
  (* visited key -> the draw prefix that first reached it *)
  let visited : (string, int list) Hashtbl.t = Hashtbl.create 1024 in
  (* pending draw prefixes, each with the state string of the cycle that
     holds its last draw (unused for the empty root prefix) *)
  let stack = ref [ ([], "") ] in
  let frontier = ref 1 in
  let frontier_max = ref 1 in
  let states = ref 0 and pruned = ref 0 and leaves = ref 0 in
  let max_depth = ref 0 in
  let violating = ref 0 and diverging = ref 0 in
  let agreement_checked = ref 0 and agreement_failures = ref 0 in
  let merge_samples = ref [] and merge_count = ref 0 in
  let counterexample = ref None in
  let capped = ref false in
  (* Run the simulator with the draw prefix [script] forced; the first
     draw past the prefix is a fresh branch point: its state key is
     looked up in [visited] (prune on hit — the subtree is a duplicate),
     its siblings (values 1..bound-1) are pushed, and the run continues
     down the 0 branch, repeating at each further fresh draw until a
     leaf. Key = the canonical pre-network state of the draw's cycle
     plus the values drawn earlier in the same cycle: within a cycle the
     set of draw sites is fixed before any value is drawn, so this pair
     identifies the branch point exactly.
     The state is encoded only once the whole prefix has been consumed:
     a fresh draw can fall no earlier than the cycle of the prefix's last
     draw, and until a later cycle notes, that cycle's state is exactly
     [prefix_state], the string the run that pushed this prefix held when
     it drew there (the run replayed the same earlier draws, and the
     state is taken before any draw of its cycle). *)
  let run_prefix (prefix, prefix_state) =
    let script = Array.of_list prefix in
    let n_prefix = Array.length script in
    let depth = ref 0 in
    let draws_rev = ref [] in
    let last_state = ref prefix_state in
    let intra = Buffer.create 16 in
    let chooser =
      {
        Sim.ch_jitter = jitter;
        ch_note_state =
          Some
            (fun encode ->
              if !depth >= n_prefix then last_state := encode ();
              Buffer.clear intra);
        ch_draw =
          (fun ~bound ->
            let v =
              if !depth < n_prefix then script.(!depth)
              else begin
                let key = !last_state ^ "\x00" ^ Buffer.contents intra in
                let below = List.rev !draws_rev in
                (match Hashtbl.find_opt visited key with
                | Some first ->
                  incr pruned;
                  incr merge_count;
                  if List.length !merge_samples < merge_samples_kept then
                    merge_samples := (first, below) :: !merge_samples;
                  raise Pruned
                | None -> ());
                if !states >= config.c_max_states then begin
                  capped := true;
                  raise Capped
                end;
                Hashtbl.add visited key below;
                incr states;
                for v = bound - 1 downto 1 do
                  stack := (below @ [ v ], !last_state) :: !stack;
                  incr frontier
                done;
                frontier_max := max !frontier_max !frontier;
                0
              end
            in
            incr depth;
            draws_rev := v :: !draws_rev;
            Dec.add_int intra v;
            Buffer.add_char intra ',';
            v);
      }
    in
    match
      Sim.run ~lowered ~graph ~schedule ~layout ?trip ~mode:Sim.Execution
        ~choices:chooser ()
    with
    | stats -> Some (stats, List.rev !draws_rev)
    | exception Pruned -> None
  in
  let handle_leaf stats script =
    incr leaves;
    max_depth := max !max_depth (List.length script);
    let viol = stats.Sim.violations > 0 in
    if viol then incr violating;
    let mem_ok = Bytes.equal stats.Sim.memory expected in
    if not mem_ok then incr diverging;
    (if certified && (viol || not mem_ok) && !counterexample = None then
       counterexample :=
         Some
           {
             x_kind =
               (if viol then "check-certified-violation"
                else "check-certified-corruption");
             x_script = script;
             x_violations = stats.Sim.violations;
             x_memory_ok = mem_ok;
           });
    (* wheel-vs-reference agreement on a sampled subset: the engines are
       pinned bit-identical including draw consumption, so replaying the
       same script must give byte-identical stats *)
    if (!leaves - 1) mod reference_stride = 0 then begin
      incr agreement_checked;
      let rstats =
        replay ~lowered ~graph ~schedule ~layout ?trip ~jitter ~script
          ~engine:`Reference ()
      in
      if not (stats_equal stats rstats) then begin
        incr agreement_failures;
        if !counterexample = None then
          counterexample :=
            Some
              {
                x_kind = "check-engine-divergence";
                x_script = script;
                x_violations = stats.Sim.violations;
                x_memory_ok = mem_ok;
              }
      end
    end;
    if !leaves >= config.c_max_leaves then begin
      capped := true;
      raise Capped
    end
  in
  (try
     let continue = ref true in
     while !continue do
       match !stack with
       | [] -> continue := false
       | p :: rest ->
         stack := rest;
         decr frontier;
         (match run_prefix p with
         | Some (stats, script) -> handle_leaf stats script
         | None -> ())
     done
   with Capped -> ());
  {
    k_jitter = jitter;
    k_certified = certified;
    k_states = !states;
    k_pruned = !pruned;
    k_leaves = !leaves;
    k_max_depth = !max_depth;
    k_max_frontier = !frontier_max;
    k_exhaustive = not !capped;
    k_violating = !violating;
    k_diverging = !diverging;
    k_agreement_checked = !agreement_checked;
    k_agreement_failures = !agreement_failures;
    k_merge_samples = List.rev !merge_samples;
    k_counterexample = !counterexample;
  }

(* ------------------------------------------------------------------ *)
(* Case driver: compile a fuzz case under every technique and explore *)
(* each schedule's full bounded interleaving space.                   *)
(* ------------------------------------------------------------------ *)

type checked = {
  t_technique : Diff.technique;
  t_status : (V.report * outcome, string) result;
      (* Error = unschedulable (the scheduler's reason) *)
  t_refutation : Diag.t option;
}

type case_outcome = {
  co_case : Gen.case;
  co_jitter : int;
  co_techniques : checked list;
  co_failures : (string * string) list;
}

let refuting_kinds =
  [
    "check-certified-violation";
    "check-certified-corruption";
    "check-engine-divergence";
  ]

let script_string script =
  "[" ^ String.concat "," (List.map string_of_int script) ^ "]"

let run_case ?(verifier = Diff.default_verifier) ?(config = default_config)
    ?jitter (c : Gen.case) =
  let jitter = Option.value jitter ~default:c.Gen.g_jitter in
  let kernel = c.Gen.g_kernel in
  let failures = ref [] in
  let fail kind detail = failures := (kind, detail) :: !failures in
  (* the two independent reference executors must agree before any
     explored execution is judged against them *)
  let layout0 = Layout.make kernel in
  let oracle = Oracle.run ~layout:layout0 kernel in
  (match Oracle.compare_interp oracle (Interp.run ~layout:layout0 kernel) with
  | Ok () -> ()
  | Error e -> fail "oracle-diverged" ("reference: " ^ e));
  (* each exploration run, with the artifacts and certificate it ran
     under *)
  let explored = ref [] in
  let check_tech (tech, compiled) =
    match compiled with
    | Error e ->
      { t_technique = tech; t_status = Error e; t_refutation = None }
    | Ok a ->
      let report =
        verifier ~machine:a.Diff.a_machine ~technique:tech
          ~base:a.Diff.a_lowered.Lower.graph ~layout:a.Diff.a_layout
          ~graph:a.Diff.a_graph ~schedule:a.Diff.a_schedule
      in
      let certified = V.certifies report ~jitter in
      (* [explore] is a pure function of the artifacts, the certificate
         and the oracle's memory. The hybrid's artifacts are its chosen
         arm's own record, so under the arm's certificate its outcome is
         the arm's, and the space is not enumerated twice *)
      let outcome =
        match
          List.find_opt (fun (a', c', _) -> a' == a && c' = certified) !explored
        with
        | Some (_, _, o) -> o
        | None ->
          let o =
            explore ~lowered:a.Diff.a_lowered ~graph:a.Diff.a_graph
              ~schedule:a.Diff.a_schedule ~layout:a.Diff.a_layout ~jitter
              ~expected:oracle.Oracle.o_memory ~certified ~config ()
          in
          explored := (a, certified, o) :: !explored;
          o
      in
      let refutation =
        match outcome.k_counterexample with
        | Some x when x.x_kind <> "check-engine-divergence" ->
          let detail =
            Printf.sprintf
              "draw script %s runs with %d violation%s, memory %s (%d of %d \
               reachable executions violate)"
              (script_string x.x_script) x.x_violations
              (if x.x_violations = 1 then "" else "s")
              (if x.x_memory_ok then "intact" else "corrupted")
              outcome.k_violating outcome.k_leaves
          in
          Some (V.refutation report ~detail)
        | _ -> None
      in
      (match outcome.k_counterexample with
      | Some x ->
        fail x.x_kind
          (Printf.sprintf "%s: script %s (%d violations, memory %s)%s"
             (Diff.technique_name tech) (script_string x.x_script)
             x.x_violations
             (if x.x_memory_ok then "ok" else "corrupted")
             (match refutation with
             | Some d -> Format.asprintf "; %a" Diag.pp d
             | None -> ""))
      | None -> ());
      if not outcome.k_exhaustive then
        fail "check-state-limit"
          (Printf.sprintf
             "%s: exploration capped at %d states / %d leaves before \
              exhausting the space"
             (Diff.technique_name tech) outcome.k_states outcome.k_leaves);
      {
        t_technique = tech;
        t_status = Ok (report, outcome);
        t_refutation = refutation;
      }
  in
  let techniques = List.map check_tech (Diff.compile_all c) in
  {
    co_case = c;
    co_jitter = jitter;
    co_techniques = techniques;
    co_failures = List.rev !failures;
  }

let case_refuted ?verifier ?config ?jitter c =
  let r = run_case ?verifier ?config ?jitter c in
  List.exists (fun (k, _) -> List.mem k refuting_kinds) r.co_failures

(* ------------------------------------------------------------------ *)
(* Rendering                                                          *)
(* ------------------------------------------------------------------ *)

let pp_outcome ppf (o : outcome) =
  Format.fprintf ppf
    "%d states (%d pruned), %d leaves, depth<=%d, frontier<=%d, %s; %d \
     violating, %d diverging; engine agreement %d/%d"
    o.k_states o.k_pruned o.k_leaves o.k_max_depth o.k_max_frontier
    (if o.k_exhaustive then "exhaustive" else "CAPPED")
    o.k_violating o.k_diverging
    (o.k_agreement_checked - o.k_agreement_failures)
    o.k_agreement_checked

module Json = Vliw_util.Json

let outcome_json (o : outcome) =
  Json.Obj
    [
      ("jitter", Json.Int o.k_jitter);
      ("certified", Json.Bool o.k_certified);
      ("states", Json.Int o.k_states);
      ("pruned", Json.Int o.k_pruned);
      ("leaves", Json.Int o.k_leaves);
      ("max_depth", Json.Int o.k_max_depth);
      ("max_frontier", Json.Int o.k_max_frontier);
      ("exhaustive", Json.Bool o.k_exhaustive);
      ("violating", Json.Int o.k_violating);
      ("diverging", Json.Int o.k_diverging);
      ("agreement_checked", Json.Int o.k_agreement_checked);
      ("agreement_failures", Json.Int o.k_agreement_failures);
      ( "counterexample",
        match o.k_counterexample with
        | None -> Json.Null
        | Some x ->
          Json.Obj
            [
              ("kind", Json.String x.x_kind);
              ("script", Json.List (List.map (fun v -> Json.Int v) x.x_script));
              ("violations", Json.Int x.x_violations);
              ("memory_ok", Json.Bool x.x_memory_ok);
            ] );
    ]
