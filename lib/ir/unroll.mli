(** Loop unrolling (paper Section 2.2: "loops are unrolled so that the
    number of instructions with a stride multiple of NxI is maximized").

    Unrolling by [factor] U turns a trip-T kernel into a trip-T/U kernel
    whose body is U substituted copies of the original: copy [k]
    substitutes [U*i + k] for the induction variable. A stride-s subscript
    becomes stride [U*s] with offsets [k*s] — choosing U so that
    [U * s * elt_bytes] is a multiple of [clusters * interleave] gives
    every unrolled access a {e stable} home cluster, which is what makes
    the PrefClus heuristic effective on streaming code (the factor search
    itself lives in {!Vliw_lower.Lower.best_unroll_factor}, where the
    affine analysis is).

    Loop-carried scalars are renamed apart and threaded through the copies
    (copy k reads the value copy k-1 produced), preserving the sequential
    semantics exactly; the property is tested by comparing interpreter
    results before and after. *)

val unroll : factor:int -> Ast.kernel -> Ast.kernel
(** Each copy's temporaries are named [<name>_u<copy>]; one that the
    kernel already declares gets the first free [_<n>] suffix instead.
    @raise Invalid_argument if [factor] does not divide the kernel's trip
    count or is not positive. The input must typecheck; the output does. *)
