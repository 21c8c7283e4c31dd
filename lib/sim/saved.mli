(** A checkpoint's copy of one state array: an array holding one value
    throughout (a fresh engine's, or a cluster that has not stored yet)
    is kept as that value, any other as a copy. *)

type 'a t

val ints : int array -> int t
val int64s : int64 array -> int64 t
val bools : bool array -> bool t

val restore : 'a t -> 'a array -> unit
(** Write the saved contents back into an array of the captured
    length. *)
