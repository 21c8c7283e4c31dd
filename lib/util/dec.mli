(** Allocation-free decimal writer.

    Each function appends to a [Buffer.t] exactly the bytes of the
    corresponding [*_to_string] conversion, without building the
    intermediate string. The model checker's state encoders use it: they
    run once per explored state and write tens of thousands of numbers per
    call. *)

val add_int : Buffer.t -> int -> unit
(** Same bytes as [string_of_int]. *)

val add_int64 : Buffer.t -> int64 -> unit
(** Same bytes as [Int64.to_string]. *)

val add_bool : Buffer.t -> bool -> unit
(** Same bytes as [string_of_bool]. *)
