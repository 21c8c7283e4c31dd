(** Minimal JSON tree — just enough for the harness's machine-readable
    result files ([bench/main.exe --json]) and for reading them back
    ([--selfcheck]), without pulling in a JSON dependency. *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float  (** non-finite values serialize as [null] *)
  | String of string
  | List of t list
  | Obj of (string * t) list

val to_string : ?indent:int -> t -> string
(** Render with the given indent width (default 2; 0 = compact one-line). *)

val to_channel : ?indent:int -> out_channel -> t -> unit
(** {!to_string} followed by a trailing newline. *)

exception Parse_error of string

val of_string : string -> t
(** Parse a complete JSON document. Numbers without a fraction or exponent
    that fit an OCaml [int] are read back as [Int]; everything else
    numeric becomes [Float]. Raises {!Parse_error} on malformed input or
    trailing garbage. *)

val of_file : string -> t
(** {!of_string} on a whole file's contents. Raises [Sys_error] or
    {!Parse_error}. *)

val member : string -> t -> t option
(** [member key (Obj kvs)] is the first binding of [key]; [None] on any
    other constructor or a missing key. *)

val to_int_opt : t -> int option
val to_list_opt : t -> t list option
val to_string_opt : t -> string option
val to_bool_opt : t -> bool option
