(** Deterministic pseudo-random number generation.

    All randomized components of the reproduction (workload data, adversarial
    bus jitter, fuzzer cases, property-test inputs that are not driven by
    QCheck) draw from this splitmix64 generator so that every experiment is
    bit-reproducible from a seed.

    {2 Stream derivation scheme}

    Every randomized subsystem derives its streams from one root seed with
    the pure combinators below, never by inventing ad-hoc literal seeds:

    {v
      root = create root_seed
      domain stream  = derive_named root "<subsystem>"   e.g. "fuzz", "jitter"
      indexed stream = derive (derive_named root "<subsystem>") index
    v}

    [derive] and [derive_named] read the parent's current state without
    advancing it, so the derivation is a pure function of
    [(root_seed, path)] — two processes (or two pool domains) that derive
    the same path obtain bit-identical streams regardless of evaluation
    order.  This is what makes fuzz case [i] reproducible from
    [(root_seed, i)] alone and harness output byte-identical at any
    [--jobs].  By convention a derived stream is consumed by exactly one
    logical task; sharing a stream across tasks reintroduces
    order-dependence. *)

type t
(** Mutable generator state. *)

val create : int -> t
(** [create seed] builds a generator from a 63-bit seed. Two generators
    created from the same seed produce identical streams. *)

val copy : t -> t
(** Independent copy of the current state. *)

val next : t -> int64
(** Next raw 64-bit output. *)

val int : t -> int -> int
(** [int t bound] is uniform in [\[0, bound)]. [bound] must be positive. *)

val int_in : t -> int -> int -> int
(** [int_in t lo hi] is uniform in [\[lo, hi\]] (inclusive). *)

val float : t -> float -> float
(** [float t bound] is uniform in [\[0, bound)]. *)

val bool : t -> bool
(** Fair coin. *)

val choice : t -> 'a array -> 'a
(** Uniform element of a non-empty array. *)

val shuffle : t -> 'a array -> unit
(** In-place Fisher-Yates shuffle. *)

val split : t -> t
(** A generator statistically independent from the parent's future output;
    advances the parent.  For order-independent derivation use {!derive} or
    {!derive_named} instead. *)

val derive : t -> int -> t
(** [derive t i] is a child stream that depends only on [t]'s current state
    and [i]; the parent is not advanced.  Distinct indices give
    statistically independent streams, so [Array.init n (derive t)] hands
    one stream to each of [n] parallel tasks deterministically. *)

val derive_named : t -> string -> t
(** [derive_named t name] is a child stream keyed by a label (FNV-1a hash of
    [name] mixed into the state); the parent is not advanced.  Use it to
    carve a root seed into per-subsystem domains ("data", "jitter", ...). *)
