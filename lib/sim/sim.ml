type mode = Sim_types.mode = Oracle of Vliw_ir.Interp.result | Execution

type stats = Sim_types.stats = {
  total_cycles : int;
  compute_cycles : int;
  stall_cycles : int;
  stall_load_cycles : int;
  stall_copy_cycles : int;
  stall_bus_cycles : int;
  stall_drain_cycles : int;
  local_hits : int;
  remote_hits : int;
  local_misses : int;
  remote_misses : int;
  combined : int;
  ab_hits : int;
  ab_flushed : int;
  violations : int;
  nullified : int;
  comm_ops : int;
  dir_lookups : int;
  dir_invalidates : int;
  dir_writebacks : int;
  packet_hops : int;
  prot_invalidations : int;
  prot_upgrades : int;
  prot_exclusive_hits : int;
  memory : Bytes.t;
}

type engine = [ `Wheel | `Reference ]

type chooser = Sim_types.chooser = {
  ch_jitter : int;
  ch_draw : bound:int -> int;
  ch_note_state : ((unit -> string) -> unit) option;
}

let accesses_total = Sim_types.accesses_total

type prepared = Engine_wheel.t

let exclusive what jitter choices =
  match (jitter, choices) with
  | Some _, Some _ ->
    invalid_arg (what ^ ": ?jitter and ?choices are mutually exclusive")
  | _ -> ()

let prepare = Engine_wheel.prepare ~reusable:true

let exec (p : prepared) ?jitter ?choices ?trace () =
  exclusive "Sim.exec" jitter choices;
  p.Engine_wheel.exec ~jitter ~choices ~trace

type checkpoint = Engine_wheel.checkpoint

let checkpoint (p : prepared) = p.Engine_wheel.capture ()
let resume (p : prepared) k ?choices () = p.Engine_wheel.resume k ~choices

let run ~lowered ~graph ~schedule ~layout ?mode ?jitter ?choices ?warm ?trace
    ?(engine = `Wheel) () =
  exclusive "Sim.run" jitter choices;
  match engine with
  | `Wheel ->
    exec
      (Engine_wheel.prepare ~reusable:false ~lowered ~graph ~schedule ~layout
         ?mode ?warm ())
      ?jitter ?choices ?trace ()
  | `Reference ->
    Engine_reference.run ~lowered ~graph ~schedule ~layout ?mode ?jitter
      ?choices ?warm ?trace ()
