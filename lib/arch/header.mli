(** Header directives: the [# key=value] comment lines that pin a [.lk]
    source (a litmus kernel, a fuzz repro) to the machine it was written
    for, e.g.

    {[ # machine=bal clusters=4 interconnect=directory interleave=2 membus=1 ab=1 jitter=1 protocol=mesi ]}

    This module is the format's one reader and writer: vliwc, vliwd and
    the fuzzer all resolve a source's machine through it. Since [#]
    starts a comment, a headed file is still a plain kernel source.

    One precedence rule holds for every tool: an explicit flag or
    request field wins ({!over}), then what the source declares, then
    the preset ({!machine}). Within a source, a repeated key takes its
    last value. *)

type t = {
  machine : string option;
      (** preset: [bal] (the default), [nobal-mem] or [nobal-reg] *)
  clusters : int option;  (** default 4 *)
  interconnect : string option;  (** [bus] (the default) or [directory] *)
  interleave : int option;  (** interleaving factor in bytes; default 4 *)
  membus : int option;
      (** memory-bus count; default the preset's, scaled to [clusters] *)
  ab : bool option;  (** [ab=1]: Attraction Buffers; default off *)
  jitter : int option;
      (** max extra cycles per bus transfer. Not part of the machine:
          each tool keeps its own default ([vliwc --check] 1, the
          fuzzer 0) *)
  protocol : string option;
      (** [install-flush] (the default), [msi] or [mesi] *)
}

val none : t
(** Nothing set. *)

val directives : string -> (string * string) list
(** Every [key=value] token on the source's ['#'] lines, in order: the
    format's one tokenizer. Callers with keys of their own (the fuzzer's
    [seed=] or [shapes=]) read them here with {!find}. *)

val find : string -> (string * string) list -> string option
(** The last value given for a key. *)

val label : string -> (string * string) list -> (int option, string) result
(** An integer a source labels itself with besides its machine (the
    fuzzer's [seed=], [index=], [budget=]): [None] when absent, and a
    malformed value is an error of one line naming the key, as
    {!of_directives} reports, e.g. [header directive seed=abc: expected
    an integer]. *)

val of_directives : (string * string) list -> (t, string) result
(** The machine keys and [jitter] a source's {!directives} declare. A
    malformed value is an error of one line naming the key, e.g. [header
    directive clusters=abc: expected a positive integer]; names are
    checked by {!machine}. *)

val over : t -> t -> t
(** [over explicit declared]: each field of [explicit] where set, else
    of [declared]. *)

val machine : t -> (Machine.t, string) result
(** The validated machine the settings name, unset fields at their
    defaults ({!Machine.of_spec}, whose errors are one line). *)

val resolve : t -> (t, string) result
(** Every machine field set to the value {!machine} uses (names
    canonical, [membus] the resolved count); [jitter] is kept as is. *)

val to_line : t -> string
(** The set fields as one newline-terminated [# key=value ...] line, in
    the order of {!t}'s fields: what {!of_directives} reads back. *)

val paired_protocol : interconnect:string -> string -> string
(** A protocol moved onto [interconnect]: [install-flush] stays, and an
    invalidation protocol becomes the one that backend carries ([msi] on
    [bus], [mesi] on [directory]). *)
