module Json = Vliw_util.Json
module W = Vliw_workloads.Workloads
module M = Vliw_arch.Machine
module Sim = Vliw_sim.Sim

(* One benchmark run as the machine-readable report records it. This is the
   single source of truth for bench/main.exe --json and for the drift
   check: both sides of the comparison go through this encoding. *)
let run_json (fp, (m : M.t), (r : Runner.bench_run)) =
  let total f = Json.Int (Runner.total f r) in
  Json.Obj
    [
      ("machine", Json.String fp);
      ("clusters", Json.Int m.M.clusters);
      ("interconnect", Json.String (M.interconnect_name m.M.interconnect));
      ("protocol", Json.String (M.protocol_name m.M.protocol));
      ("bench", Json.String r.Runner.br_bench.W.b_name);
      ("technique", Json.String (Runner.technique_name r.Runner.br_technique));
      ( "heuristic",
        Json.String (Vliw_sched.Schedule.heuristic_name r.Runner.br_heuristic)
      );
      ("cycles", Json.Float r.Runner.br_cycles);
      ("compute", Json.Float r.Runner.br_compute);
      ("stall", Json.Float r.Runner.br_stall);
      ("stall_load", Json.Float r.Runner.br_stall_load);
      ("stall_copy", Json.Float r.Runner.br_stall_copy);
      ("stall_bus", Json.Float r.Runner.br_stall_bus);
      ("stall_drain", Json.Float r.Runner.br_stall_drain);
      ("comm", Json.Float r.Runner.br_comm);
      ("violations", total (fun s -> s.Sim.violations));
      ("nullified", total (fun s -> s.Sim.nullified));
      ("ab_hits", total (fun s -> s.Sim.ab_hits));
      ("ab_flushed", total (fun s -> s.Sim.ab_flushed));
      ("loops", Json.Int (List.length r.Runner.br_loops));
      ("verified_loops", Json.Int (Runner.verified r));
      ("dir_lookups", total (fun s -> s.Sim.dir_lookups));
      ("dir_invalidates", total (fun s -> s.Sim.dir_invalidates));
      ("dir_writebacks", total (fun s -> s.Sim.dir_writebacks));
      ("packet_hops", total (fun s -> s.Sim.packet_hops));
      ("prot_invalidations", total (fun s -> s.Sim.prot_invalidations));
      ("prot_upgrades", total (fun s -> s.Sim.prot_upgrades));
      ("prot_exclusive_hits", total (fun s -> s.Sim.prot_exclusive_hits));
    ]

type drift = {
  d_run : string;  (** "machine / bench / technique / heuristic" *)
  d_field : string;
  d_expected : string;  (** rendered baseline value, or "(missing run)" *)
  d_actual : string;
}

(* timing depends on the host; everything else must be bit-stable *)
let timing_field name =
  name = "wall_s" || name = "total_wall_s"
  || String.length name > 2
     && String.sub name (String.length name - 2) 2 = "_s"

let str_of = function
  | Json.Null -> "null"
  | v -> Json.to_string ~indent:0 v

(* numbers compare by value: the emitter prints integral floats without a
   decimal point, so they parse back as Int *)
let value_equal a b =
  match (a, b) with
  | Json.Int x, Json.Float y | Json.Float y, Json.Int x -> float_of_int x = y
  | a, b -> a = b

let key_of fields =
  let get k =
    match List.assoc_opt k fields with Some (Json.String s) -> s | _ -> "?"
  in
  Printf.sprintf "%s / %s / %s / %s" (get "machine") (get "bench")
    (get "technique") (get "heuristic")

let fields_of = function Json.Obj kvs -> kvs | _ -> []

(* Compare the current runs against the committed baseline document.
   Every current run must appear in the baseline and agree on every
   non-timing field; baseline runs from experiments that were not executed
   this invocation are ignored (the self-check runs a pinned subset). *)
let check ~baseline ~current =
  let baseline_runs =
    match Json.member "runs" baseline with
    | Some (Json.List rs) -> List.map fields_of rs
    | _ -> []
  in
  let index = Hashtbl.create 64 in
  List.iter (fun kvs -> Hashtbl.replace index (key_of kvs) kvs) baseline_runs;
  List.concat_map
    (fun run ->
      let kvs = fields_of run in
      let key = key_of kvs in
      match Hashtbl.find_opt index key with
      | None ->
        [
          {
            d_run = key;
            d_field = "(run)";
            d_expected = "(missing from baseline)";
            d_actual = "present";
          };
        ]
      | Some base_kvs ->
        List.filter_map
          (fun (name, actual) ->
            if timing_field name then None
            else
              match List.assoc_opt name base_kvs with
              | None ->
                Some
                  {
                    d_run = key;
                    d_field = name;
                    d_expected = "(missing field)";
                    d_actual = str_of actual;
                  }
              | Some expected ->
                if value_equal expected actual then None
                else
                  Some
                    {
                      d_run = key;
                      d_field = name;
                      d_expected = str_of expected;
                      d_actual = str_of actual;
                    })
          kvs)
    current

let render drifts =
  let b = Buffer.create 256 in
  if drifts = [] then Buffer.add_string b "selfcheck: no counter drift\n"
  else (
    Buffer.add_string b
      (Printf.sprintf "selfcheck: %d field(s) drifted from the baseline\n"
         (List.length drifts));
    List.iter
      (fun d ->
        Buffer.add_string b
          (Printf.sprintf "  %s\n    %-14s expected %s, got %s\n" d.d_run
             d.d_field d.d_expected d.d_actual))
      drifts);
  Buffer.contents b
