(* the run's types and counters are spelled once, in Sim_types; sim.mli
   documents them and hides the engines' helpers *)
include Sim_types

type engine = [ `Wheel | `Reference ]

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
