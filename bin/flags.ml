(* Command-line pieces vliwc and vliwload share: reading a kernel source,
   and the compile and machine flags a vliwd request mirrors, each
   spelled, defaulted and documented once. *)

open Cmdliner
module S = Vliw_sched.Schedule
module Ims = Vliw_sched.Ims

let read_source ~tool path =
  if path = "-" then In_channel.input_all stdin
  else if Sys.file_exists path then In_channel.with_open_bin path In_channel.input_all
  else (
    Printf.eprintf "%s: no such file %s\n" tool path;
    exit 2)

(* a command-line enum spelled by a name table, in lowercase *)
let names all name = Arg.enum (List.map (fun x -> (String.lowercase_ascii (name x), x)) all)

let technique =
  Arg.(
    value & opt (names S.techniques S.technique_name) S.Free
    & info [ "t"; "technique" ] ~docv:"TECH"
        ~doc:
          "Coherence technique: $(b,free) (unrestricted baseline), $(b,mdc), \
           $(b,ddgt) or $(b,hybrid) (per-loop compile-time choice).")

let heuristic =
  Arg.(
    value & opt (names S.heuristics S.heuristic_name) S.Min_coms
    & info [ "H"; "heuristic" ] ~docv:"HEUR"
        ~doc:"Cluster assignment heuristic: $(b,prefclus) or $(b,mincoms).")

let ordering =
  Arg.(
    value & opt (names Ims.orderings Ims.ordering_name) Ims.Height
    & info [ "ordering" ] ~docv:"ORD"
        ~doc:"Scheduler node ordering: $(b,height) (classic IMS) or $(b,swing).")

let machine =
  Arg.(
    value
    & opt (some string) None
    & info [ "machine" ] ~docv:"CONF"
        ~doc:
          "Machine configuration: $(b,bal) (Table 2), $(b,nobal-mem) or \
           $(b,nobal-reg). Default: the kernel file's $(b,# machine=CONF) \
           header directive, else $(b,bal).")

let interleave =
  Arg.(
    value
    & opt (some int) None
    & info [ "interleave" ] ~docv:"BYTES"
        ~doc:
          "Cache interleaving factor in bytes. Default: the kernel file's \
           $(b,# interleave=BYTES) header directive (a workload's own \
           factor), else 4.")

let ab =
  Arg.(
    value & flag
    & info [ "ab" ]
        ~doc:
          "Enable 16-entry 2-way Attraction Buffers. Without it, the kernel \
           file's $(b,# ab=1) header directive enables them.")

let protocol =
  Arg.(
    value
    & opt (some string) None
    & info [ "protocol" ] ~docv:"PROT"
        ~doc:
          "Attraction-Buffer coherence protocol: $(b,install-flush) (the \
           paper's scheduler-enforced default), $(b,msi) (snooping; requires \
           the bus interconnect) or $(b,mesi) (Exclusive state; requires the \
           directory). Default: the kernel file's $(b,# protocol=PROT) header \
           directive, else $(b,install-flush).")

let pad =
  Arg.(value & opt int 0 & info [ "pad" ] ~docv:"BYTES" ~doc:"Inter-array padding.")

let unroll =
  Arg.(
    value
    & opt (some int) None
    & info [ "unroll" ] ~docv:"N"
        ~doc:
          "Unroll each kernel by $(docv) before compiling (0 = pick the \
           factor that maximizes NxI-strided accesses, Section 2.2).")

let cse =
  Arg.(
    value & flag
    & info [ "cse" ] ~doc:"Eliminate redundant loads before compiling.")

let verify =
  Arg.(
    value & flag
    & info [ "verify" ]
        ~doc:
          "Statically verify the schedule coherence-safe before simulating; \
           print the certificate or the diagnostics and exit nonzero on \
           rejection.")

let execution =
  Arg.(
    value & flag
    & info [ "execution" ]
        ~doc:
          "Execution-driven simulation with cold caches (default: trace-driven \
           with warm caches, like the paper's simulator). Detects actual data \
           corruption.")
