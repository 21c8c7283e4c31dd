(* Types shared by the simulator engines (Engine_reference, Engine_wheel)
   and re-exported by Sim. *)

type mode = Oracle of Vliw_ir.Interp.result | Execution

(* Externalized nondeterminism: instead of drawing bus/ring jitter from a
   PRNG, an engine can be handed a [chooser] that resolves every draw and
   (on the wheel engine) is offered a canonical serialization of the
   simulator state at the start of each cycle whose network phase will
   draw. This is the transition-point API the bounded model checker
   ({!Vliw_check.Check}) explores. *)
type chooser = {
  ch_jitter : int;
      (* declared jitter bound: every draw returns a value in [0, ch_jitter] *)
  ch_draw : bound:int -> int;
      (* resolve the next draw; [bound] = ch_jitter + 1 alternatives *)
  ch_note_state : ((unit -> string) -> unit) option;
      (* wheel engine only: once per cycle in which the network phase will
         consume at least one draw, handed the encoder of the canonical
         pre-network state; valid only inside the callback *)
}

type stats = {
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

let accesses_total s =
  s.local_hits + s.remote_hits + s.local_misses + s.remote_misses + s.combined

let ty_of_mr (mr : Vliw_ddg.Graph.mem_ref) =
  match (mr.mr_bytes, mr.mr_float) with
  | 1, false -> Vliw_ir.Ast.I8
  | 2, false -> Vliw_ir.Ast.I16
  | 4, false -> Vliw_ir.Ast.I32
  | 8, false -> Vliw_ir.Ast.I64
  | 4, true -> Vliw_ir.Ast.F32
  | 8, true -> Vliw_ir.Ast.F64
  | _ -> invalid_arg "Sim: unsupported access width"
