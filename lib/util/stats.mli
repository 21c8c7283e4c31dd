(** Small numeric-summary helpers used by the experiment harness. *)

val mean : float list -> float
(** Arithmetic mean; 0. on the empty list (the paper's AMEAN columns never
    aggregate empty sets, so this keeps harness code total). *)

val geomean : float list -> float
(** Geometric mean of positive values; 0. on the empty list. *)

val stddev : float list -> float
(** Population standard deviation. *)

val median : float list -> float
(** Median (lower middle for even length). *)

val minmax : float list -> float * float
(** Minimum and maximum; raises [Invalid_argument] on the empty list. *)

val ratio : int -> int -> float
(** [ratio num den] as a float; 0. when [den = 0]. *)

val pct : float -> float
(** Fraction to percentage. *)

val speedup : float -> float -> float
(** [speedup base x] = [base /. x]; infinity-safe (0. when [x = 0.]). *)

val sum : float list -> float
