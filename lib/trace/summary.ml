type cluster_row = {
  services : int;
  hits : int;
  misses : int;
  combines : int;
  ab_hits : int;
  nullified : int;
}

type bus_row = {
  transfers : int;
  busy_cycles : int;
  wait_total : int;
  wait_max : int;
}

type t = {
  clusters : int;
  buses : int;
  total_cycles : int;
  compute_cycles : int;
  issues : int;
  stall_episodes : int;
  stall_cycles : int;
  stall_by_cause : (Trace.stall_cause * int) list;
  per_cluster : cluster_row array;
  per_bus : bus_row array;
}

let zero_cluster =
  { services = 0; hits = 0; misses = 0; combines = 0; ab_hits = 0; nullified = 0 }

let zero_bus = { transfers = 0; busy_cycles = 0; wait_total = 0; wait_max = 0 }

let of_sink sink =
  let clusters, buses, vspan =
    match Trace.meta sink with
    | Some (Trace.Meta m) -> (m.clusters, m.mem_buses, m.vspan)
    | _ -> invalid_arg "Summary.of_sink: trace has no Meta header"
  in
  let per_cluster = Array.make clusters zero_cluster in
  let per_bus = Array.make buses zero_bus in
  let total = ref 0 in
  let issues = ref 0 in
  let episodes = ref 0 in
  let stall_cycles = ref 0 in
  let causes = [ Trace.Load_in_flight; Trace.Copy_in_flight; Trace.Bus_queue ] in
  let cause_cycles = Hashtbl.create 4 in
  List.iter (fun c -> Hashtbl.replace cause_cycles c 0) causes;
  let open_cause = ref None in
  let cl c f = if c >= 0 && c < clusters then per_cluster.(c) <- f per_cluster.(c) in
  Trace.iter sink (fun ev ->
      (* in-run events fire at cycles 0..total-1; the end-of-loop Ab_flush
         fires at exactly [total], so both forms recover Sim.total_cycles *)
      (total :=
         max !total
           (match ev.Trace.ev_payload with
           | Trace.Ab_flush _ -> ev.Trace.ev_cycle
           | _ -> ev.Trace.ev_cycle + 1));
      match ev.Trace.ev_payload with
      | Trace.Issue _ -> incr issues
      | Trace.Stall_begin { cause; _ } ->
        incr episodes;
        open_cause := Some cause
      | Trace.Stall_end { cycles; _ } ->
        stall_cycles := !stall_cycles + cycles;
        let cause = Option.value !open_cause ~default:Trace.Load_in_flight in
        Hashtbl.replace cause_cycles cause
          (Hashtbl.find cause_cycles cause + cycles);
        open_cause := None
      | Trace.Mod_service { cluster; hit; _ } ->
        cl cluster (fun r ->
            {
              r with
              services = r.services + 1;
              hits = (r.hits + if hit then 1 else 0);
              misses = (r.misses + if hit then 0 else 1);
            })
      | Trace.Mshr_combine { cluster; _ } ->
        cl cluster (fun r -> { r with combines = r.combines + 1 })
      | Trace.Ab_hit { cluster; _ } ->
        cl cluster (fun r -> { r with ab_hits = r.ab_hits + 1 })
      | Trace.Nullify { cluster; _ } ->
        cl cluster (fun r -> { r with nullified = r.nullified + 1 })
      | Trace.Bus_grant { bus; wait; lat; _ } ->
        if bus >= 0 && bus < buses then
          per_bus.(bus) <-
            (let r = per_bus.(bus) in
             {
               transfers = r.transfers + 1;
               busy_cycles = r.busy_cycles + lat;
               wait_total = r.wait_total + wait;
               wait_max = max r.wait_max wait;
             })
      | _ -> ());
  {
    clusters;
    buses;
    total_cycles = !total;
    compute_cycles = vspan;
    issues = !issues;
    stall_episodes = !episodes;
    stall_cycles = !stall_cycles;
    stall_by_cause = List.map (fun c -> (c, Hashtbl.find cause_cycles c)) causes;
    per_cluster;
    per_bus;
  }

let bus_occupancy t b =
  if t.total_cycles = 0 || b < 0 || b >= t.buses then 0.
  else float_of_int t.per_bus.(b).busy_cycles /. float_of_int t.total_cycles

(* the --trace observability view *)
let render (s : t) =
  let module T = Vliw_util.Table in
  let b = Buffer.create 512 in
  let cl =
    T.create ~title:"Trace summary: per-cluster cache-module activity"
      [ ("cluster", T.Left); ("services", T.Right); ("hits", T.Right);
        ("misses", T.Right); ("combines", T.Right); ("AB hits", T.Right);
        ("nullified", T.Right) ]
  in
  Array.iteri
    (fun c (r : cluster_row) ->
      T.add_row cl
        [ string_of_int c; string_of_int r.services;
          string_of_int r.hits; string_of_int r.misses;
          string_of_int r.combines; string_of_int r.ab_hits;
          string_of_int r.nullified ])
    s.per_cluster;
  Buffer.add_string b (T.render cl);
  Buffer.add_char b '\n';
  let bus =
    T.create ~title:"Trace summary: memory-bus occupancy"
      [ ("bus", T.Left); ("transfers", T.Right); ("busy cycles", T.Right);
        ("occupancy", T.Right); ("queue wait (total)", T.Right);
        ("queue wait (max)", T.Right) ]
  in
  Array.iteri
    (fun i (r : bus_row) ->
      T.add_row bus
        [ string_of_int i; string_of_int r.transfers;
          string_of_int r.busy_cycles;
          T.cell_pct (bus_occupancy s i);
          string_of_int r.wait_total; string_of_int r.wait_max ])
    s.per_bus;
  Buffer.add_string b (T.render bus);
  Buffer.add_char b '\n';
  let st =
    T.create
      ~title:
        (Printf.sprintf
           "Trace summary: %d issues, %d stall episodes over %d cycles"
           s.issues s.stall_episodes s.total_cycles)
      [ ("stall cause", T.Left); ("cycles", T.Right); ("of stall", T.Right) ]
  in
  let stall_total = max 1 s.stall_cycles in
  List.iter
    (fun (cause, cycles) ->
      T.add_row st
        [ Trace.stall_cause_name cause; string_of_int cycles;
          T.cell_pct (float_of_int cycles /. float_of_int stall_total) ])
    s.stall_by_cause;
  Buffer.add_string b (T.render st);
  Buffer.contents b
