(** Structured diagnostics shared by every analysis that talks to users:
    the kernel lint ({!Vliw_lower.Lint}) and the static coherence verifier
    ({!Vliw_verify.Verify}).

    A diagnostic carries a stable machine-matchable code (what cram tests
    and CI grep for), a severity, a human message, and optional structured
    context (key/value pairs rendered only in the JSON export). Codes are
    part of the tool's interface: renaming one is a breaking change. *)

type severity = Error | Warning | Info

type t = {
  d_severity : severity;
  d_code : string;  (** stable identifier, e.g. ["unused-temp"] *)
  d_message : string;
  d_context : (string * string) list;
      (** structured detail (node ids, clusters, cycles...); empty for
          diagnostics that are fully described by their message *)
}

val make :
  ?context:(string * string) list ->
  severity ->
  code:string ->
  ('a, unit, string, t) format4 ->
  'a
(** [make sev ~code fmt ...] builds a diagnostic with a printf-formatted
    message. *)

val pp : Format.formatter -> t -> unit
(** ["severity[code]: message"] — the single-line rendering every CLI
    surface uses, so tests can match on the code. *)

val to_json : t -> Json.t
(** [{"severity", "code", "message", "context"}]; context is an object. *)

val errors : t list -> t list
val has_errors : t list -> bool

val promote_warnings : t list -> t list
(** Turn every [Warning] into an [Error] (the [--lint-error] /
    [-Werror]-style escalation). [Info] diagnostics are left alone. *)
