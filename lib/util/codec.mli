(** Allocation-free binary writer for the model checker's state keys.

    Every field is self-delimiting: integers are zigzag varints (unsigned
    LEB128 of [0, -1, 1, -2, ...] as [0, 1, 2, 3, ...], so values of small
    magnitude take one byte), lengths and counts plain LEB128; arrays and
    byte strings carry their length, an array writes each run of equal
    elements once with its count, and a variable section carries its
    byte length. Two writes of one
    field sequence are therefore equal exactly when the values written
    are, which is what lets a key stand for the state it encodes. Writing
    allocates only when the buffer grows. *)

type t

val create : int -> t
(** An empty writer with room for about that many bytes. *)

val clear : t -> unit

val contents : t -> string
(** A copy of what was written since the last {!clear}. *)

val int : t -> int -> unit
val int64 : t -> int64 -> unit
val bool : t -> bool -> unit

val byte : t -> int -> unit
(** One fixed-width byte: the low 8 bits of the value (tags, small
    enumerations). *)

val ints : t -> int array -> unit
(** The length, then the elements in groups: each run of three or more
    equal elements as its count and one {!int}, the elements between runs
    as their count and each {!int}. An array has one encoding, and a run
    costs about the same however long it is. *)

val int64s : t -> int64 array -> unit
(** As {!ints}, with each element as {!int64}. *)

val bytes : t -> Bytes.t -> unit
val sub_bytes : t -> Bytes.t -> int -> int -> unit
(** The length, then the bytes as one blit: all of them, or [sub_bytes c
    s pos len]'s [len] from [pos]. *)

type section

val open_section : t -> section
(** Start a variable section: what is written until {!close_section} is
    prefixed with its byte length. *)

val close_section : t -> section -> unit
