module G = Vliw_ddg.Graph
module M = Vliw_arch.Machine
module S = Vliw_sched.Schedule
module D = Vliw_util.Diag
module Json = Vliw_util.Json
module L = Vliw_ir.Layout
module Icn = Vliw_interconnect.Interconnect

type technique = S.technique = Free | Mdc | Ddgt | Hybrid

type report = {
  r_technique : technique;
  r_pairs : int;
  r_obligations : int;
  r_proofs : (string * int) list;
  r_diags : D.t list;
  r_verified : bool;
  r_jitter_robust : bool;
}

(* fixed rendering order of the proof/vacuity histogram *)
let proof_names =
  [
    "co-located";
    "local-first";
    "value-sync";
    "protocol-invalidate";
    "replica-disjoint";
    "disjoint-homes";
  ]

let op_desc (nd : G.node) (mr : G.mem_ref) =
  Printf.sprintf "%s %s[site %d]"
    (if G.is_load nd then "load" else "store")
    mr.G.mr_array mr.G.mr_site

let check ~machine ~technique ?guarantees ~base ?layout ~graph ~schedule () =
  (* a hybrid schedule is one of its two arms' schedules: the
     technique-specific rules follow the arm the scheduled graph shows,
     DDGT's if it holds replica instances, MDC's otherwise *)
  let rules =
    match technique with
    | Hybrid ->
      if List.exists (fun (nd : G.node) -> nd.G.n_replica <> None) (G.nodes graph)
      then Ddgt
      else Mdc
    | t -> t
  in
  let n = machine.M.clusters in
  let il = machine.M.interleave_bytes in
  let ii = schedule.S.ii in
  (* proof rules are parameterized by the interconnect's declared ordering
     guarantees, defaulting to what the machine's backend declares; a rule
     leaning on an ordering the backend does not provide must reject *)
  let gua =
    match guarantees with Some g -> g | None -> Icn.guarantees machine
  in
  (* Under MSI/MESI a store's memory effect and its invalidation of every
     remote replica land atomically at its (globally lock-stepped) issue
     cycle, so any access issued >= 1 virtual cycle later observes it —
     under every jitter assignment. That discharges flow (MF) and output
     (MO) obligations whose source is a non-replicated store. Replicated
     (DDGT) stores broadcast into sibling replicas instead of
     invalidating, leaving non-sibling copies stale, so they get no
     protocol guarantee as sources. Anti (MA) edges — a load ordered
     before a younger store — are discharged too: at each store's
     execute the engines latch the value of every pending older
     overlapping load (the coherence point orders the outstanding read
     before the upgrade), so a load issued >= 1 cycle earlier always
     reads the pre-store value, replicated or not. *)
  let prot_on = machine.M.protocol <> M.Install_flush in
  let diags = ref [] in
  let add d = diags := d :: !diags in
  (* a certificate is jitter-robust unless some obligation leans on a
     source-order guarantee the interconnect loses under jitter (the bus
     pool's globally-FIFO arbitration): a co-located pair where either
     access may be remote needs that ordering; local accesses enter their
     module's queue at issue, bypassing the interconnect, so their order
     survives arbitrary per-transfer jitter. The directory ring's links
     are non-overtaking even under jitter, so it keeps robustness. *)
  let robust = ref true in
  let counts = Hashtbl.create 8 in
  let count p =
    Hashtbl.replace counts p
      (1 + Option.value (Hashtbl.find_opt counts p) ~default:0)
  in
  let place id =
    match Hashtbl.find_opt schedule.S.place id with
    | Some (cyc, cl) -> (cyc, cl)
    | None -> invalid_arg (Printf.sprintf "Verify.check: node %d is not placed" id)
  in
  let mr_of = Hashtbl.create 16 in
  List.iter
    (fun ((nd : G.node), mr) -> Hashtbl.replace mr_of nd.G.n_id mr)
    (G.mem_refs base);
  (* scheduled instances of every base memory node (the node itself, or
     its store-replication instances). Membership goes through [mr_of],
     not [G.mem_node base]: fake consumers added by the DDGT transform
     carry an [n_orig] that does not exist in the base graph at all *)
  let instances = Hashtbl.create 16 in
  List.iter
    (fun (nd : G.node) ->
      if Hashtbl.mem mr_of nd.G.n_orig then
        Hashtbl.replace instances nd.G.n_orig
          (nd
          :: Option.value (Hashtbl.find_opt instances nd.G.n_orig) ~default:[]))
    (G.nodes graph);
  let instances_of id =
    Option.value (Hashtbl.find_opt instances id) ~default:[]
  in
  (* address homes are computed on the access's first byte; a stride that is
     a multiple of N*I keeps that home constant across iterations *)
  let static_home (mr : G.mem_ref) =
    match (layout, mr.G.mr_affine) with
    | Some lay, Some (scale, off) when scale mod (n * il) = 0 ->
      Some (M.home_cluster machine ~addr:(L.base lay mr.G.mr_array + off))
    | _ -> None
  in
  (* structural: replicated nodes must cover every cluster exactly once —
     the executing (home-local) instance must always exist *)
  Hashtbl.iter
    (fun orig insts ->
      if List.length insts > 1 then
        let cls =
          List.sort compare
            (List.map (fun (nd : G.node) -> snd (place nd.G.n_id)) insts)
        in
        if cls <> List.init n Fun.id then
          add
            (D.make D.Error ~code:"replica-coverage"
               ~context:
                 [
                   ("node", string_of_int orig);
                   ( "clusters",
                     String.concat "," (List.map string_of_int cls) );
                 ]
               "node %d is replicated but its %d instances sit on clusters \
                {%s}, not one per cluster of %d: the home-local instance can \
                be missing"
               orig (List.length insts)
               (String.concat "," (List.map string_of_int cls))
               n))
    instances;
  (* structural (DDGT): a memory-dependent store left unreplicated would
     execute on a fixed cluster with no chain constraint protecting it *)
  (if rules = Ddgt then
     List.iter
       (fun ((nd : G.node), mr) ->
         if G.is_store nd && G.has_mem_dep base nd.G.n_id then
           let cls =
             List.sort_uniq compare
               (List.map
                  (fun (i : G.node) -> snd (place i.G.n_id))
                  (instances_of nd.G.n_id))
           in
           if List.length cls < n then
             add
               (D.make D.Error ~code:"missing-replication"
                  ~context:[ ("node", string_of_int nd.G.n_id) ]
                  "%s (node %d) is memory dependent but not replicated to \
                   every cluster (%d of %d covered)"
                  (op_desc nd mr) nd.G.n_id (List.length cls) n))
       (G.mem_refs base));
  (* every memory-dependence edge of the base graph is an ordering
     obligation between the two accesses' dynamic executions *)
  let mem_edges =
    List.filter (fun (e : G.edge) -> G.is_mem_kind e.G.e_kind) (G.edges base)
  in
  let obligations = ref 0 in
  (* value-sync: stall-on-use is global, so any register consumer of load
     [x] fences every operation scheduled (virtually) at or after it *)
  let sync_covered (x : G.node) ~dist ~cyc_y =
    G.is_load x
    && List.exists
         (fun (re : G.edge) ->
           re.G.e_kind = G.RF
           &&
           let cyc_c, _ = place re.G.e_dst in
           cyc_c + (ii * re.G.e_dist) <= cyc_y + (ii * dist))
         (G.succs graph x.G.n_id)
  in
  List.iter
    (fun (e : G.edge) ->
      let xb = G.node base e.G.e_src and yb = G.node base e.G.e_dst in
      let mrx = Hashtbl.find mr_of e.G.e_src
      and mry = Hashtbl.find mr_of e.G.e_dst in
      (* routing: overlapping executions must meet at one home module, in
         one subblock — equal widths (identical first byte when they
         overlap, both element-aligned), or both inside one interleave
         unit; otherwise the pair's updates can land on different modules
         and no queue discipline orders them *)
      if
        not
          (mrx.G.mr_bytes = mry.G.mr_bytes
          || max mrx.G.mr_bytes mry.G.mr_bytes <= il)
      then
        add
          (D.make D.Error ~code:"split-access"
             ~context:
               [
                 ("src", string_of_int e.G.e_src);
                 ("dst", string_of_int e.G.e_dst);
                 ("src_bytes", string_of_int mrx.G.mr_bytes);
                 ("dst_bytes", string_of_int mry.G.mr_bytes);
                 ("interleave", string_of_int il);
               ]
             "%s (%dB) and %s (%dB) may overlap with different access widths \
              wider than the %dB interleave unit: their updates split across \
              cache modules and cannot be ordered"
             (op_desc xb mrx) mrx.G.mr_bytes (op_desc yb mry) mry.G.mr_bytes il)
      else
        let ix = instances_of e.G.e_src and iy = instances_of e.G.e_dst in
        if ix = [] || iy = [] then
          add
            (D.make D.Error ~code:"replica-coverage"
               "node %d has no scheduled instance"
               (if ix = [] then e.G.e_src else e.G.e_dst))
        else
          let x_rep = List.length ix > 1 and y_rep = List.length iy > 1 in
          let hx = static_home mrx and hy = static_home mry in
          List.iter
            (fun (x : G.node) ->
              let cyc_x, cx = place x.G.n_id in
              List.iter
                (fun (y : G.node) ->
                  let cyc_y, cy = place y.G.n_id in
                  (* vacuous pairs: the two instances can never both execute
                     on the bytes' home cluster *)
                  if x_rep && y_rep && cx <> cy then count "replica-disjoint"
                  else if
                    (x_rep && match hy with Some h -> h <> cx | None -> false)
                    || (y_rep
                       && match hx with Some h -> h <> cy | None -> false)
                    || match (hx, hy) with
                       | Some a, Some b -> a <> b
                       | _ -> false
                  then count "disjoint-homes"
                  else (
                    incr obligations;
                    let delta = cyc_y + (ii * e.G.e_dist) - cyc_x in
                    let x_local =
                      x_rep || match hx with Some h -> h = cx | None -> false
                    in
                    if
                      prot_on && delta >= 1
                      && ((G.is_store xb && not x_rep)
                         || ((not (G.is_store xb)) && G.is_store yb))
                    then count "protocol-invalidate"
                    else if cx = cy && delta >= 1 then (
                      let y_local =
                        y_rep || match hy with Some h -> h = cy | None -> false
                      in
                      if x_local && y_local then count "co-located"
                      else if gua.Icn.g_source_order = Icn.Unordered then
                        (* the possibly-remote legs share one source
                           cluster and one home, so per-link FIFO (or
                           global FIFO) orders them — but an unordered
                           interconnect provides nothing to lean on *)
                        add
                          (D.make D.Error ~code:"interconnect-unordered"
                             ~context:
                               [
                                 ("src", string_of_int x.G.n_id);
                                 ("dst", string_of_int y.G.n_id);
                                 ("cluster", string_of_int cx);
                               ]
                             "%s (node %d) and %s (node %d) are co-located on \
                              cluster %d but may travel the interconnect, \
                              which declares no source-order guarantee"
                             (op_desc xb mrx) x.G.n_id (op_desc yb mry)
                             y.G.n_id cx)
                      else (
                        count "co-located";
                        if not gua.Icn.g_order_under_jitter then
                          robust := false))
                    else if
                      x_local && cx <> cy && delta >= 0
                      && gua.Icn.g_min_remote_latency >= 1
                    then count "local-first"
                    else if sync_covered x ~dist:e.G.e_dist ~cyc_y then
                      count "value-sync"
                    else
                      let code =
                        if rules = Mdc && cx <> cy then "chain-split"
                        else "unordered-pair"
                      in
                      add
                        (D.make D.Error ~code
                           ~context:
                             [
                               ("edge", G.edge_kind_name e.G.e_kind);
                               ("dist", string_of_int e.G.e_dist);
                               ("src", string_of_int x.G.n_id);
                               ("dst", string_of_int y.G.n_id);
                               ("src_cluster", string_of_int cx);
                               ("dst_cluster", string_of_int cy);
                               ("src_cycle", string_of_int cyc_x);
                               ("dst_cycle", string_of_int cyc_y);
                             ]
                           "%s dependence %s (node %d, cluster %d, cycle %d) \
                            -> %s (node %d, cluster %d, cycle %d) at distance \
                            %d: home-module arrival order is not statically \
                            forced%s"
                           (G.edge_kind_name e.G.e_kind) (op_desc xb mrx)
                           x.G.n_id cx cyc_x (op_desc yb mry) y.G.n_id cy cyc_y
                           e.G.e_dist
                           (if code = "chain-split" then
                              " (the memory dependent chain is split across \
                               clusters)"
                            else ""))))
                iy)
            ix)
    mem_edges;
  let diags = List.rev !diags in
  {
    r_technique = technique;
    r_pairs = List.length mem_edges;
    r_obligations = !obligations;
    r_proofs =
      List.filter_map
        (fun p ->
          match Hashtbl.find_opt counts p with
          | Some c when c > 0 -> Some (p, c)
          | _ -> None)
        proof_names;
    r_diags = diags;
    r_verified = not (D.has_errors diags);
    r_jitter_robust = (not (D.has_errors diags)) && !robust;
  }

let verdict r =
  if r.r_verified then Ok ()
  else
    Error
      (String.concat "; "
         (List.map
            (fun d -> Format.asprintf "%a" D.pp d)
            (D.errors r.r_diags)))

let gate ~machine ~technique ~base ?layout () g s =
  verdict (check ~machine ~technique ~base ?layout ~graph:g ~schedule:s ())

let certifies r ~jitter = r.r_verified && (jitter = 0 || r.r_jitter_robust)

(* A dynamic counterexample against a certificate this module issued: the
   model checker found a reachable execution of a certified schedule that
   violates coherence or corrupts memory. The diagnostic names the proof
   rules the certificate leaned on — exactly one of them (or the prose
   soundness argument gluing them together) is wrong for this trace. *)
let refutation r ~detail =
  let leaned =
    match r.r_proofs with
    | [] when r.r_obligations = 0 ->
      "no proof obligations at all (a vacuous certificate)"
    | [] -> "no surviving proof rule"
    | ps ->
      String.concat ", " (List.map (fun (p, c) -> Printf.sprintf "%s x%d" p c) ps)
  in
  D.make
    ~context:
      (("technique", S.technique_name r.r_technique)
      :: ("pairs", string_of_int r.r_pairs)
      :: ("obligations", string_of_int r.r_obligations)
      :: List.map (fun (p, c) -> ("proof:" ^ p, string_of_int c)) r.r_proofs)
    D.Error ~code:"verify-refuted"
    "model checker refuted a %s certificate: %s; the certificate discharged %d \
     obligation%s via %s"
    (S.technique_name r.r_technique)
    detail r.r_obligations
    (if r.r_obligations = 1 then "" else "s")
    leaned

let pp_report ppf r =
  if r.r_verified then
    Format.fprintf ppf "coherence verification (%s): certified (%d aliased \
                        pairs, %d obligations%s)"
      (S.technique_name r.r_technique)
      r.r_pairs r.r_obligations
      (match r.r_proofs with
      | [] -> ""
      | ps ->
        "; "
        ^ String.concat ", "
            (List.map (fun (p, c) -> Printf.sprintf "%s %d" p c) ps))
  else
    Format.fprintf ppf
      "coherence verification (%s): REJECTED (%d error%s over %d aliased \
       pairs, %d obligations)"
      (S.technique_name r.r_technique)
      (List.length (D.errors r.r_diags))
      (if List.length (D.errors r.r_diags) = 1 then "" else "s")
      r.r_pairs r.r_obligations

let report_json r =
  Json.Obj
    [
      ("technique", Json.String (S.technique_name r.r_technique));
      ("verified", Json.Bool r.r_verified);
      ("jitter_robust", Json.Bool r.r_jitter_robust);
      ("pairs", Json.Int r.r_pairs);
      ("obligations", Json.Int r.r_obligations);
      ("proofs", Json.Obj (List.map (fun (p, c) -> (p, Json.Int c)) r.r_proofs));
      ("diagnostics", Json.List (List.map D.to_json r.r_diags));
    ]
