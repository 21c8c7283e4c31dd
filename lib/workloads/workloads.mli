(** The benchmark suite: fourteen synthetic kernels standing in for the
    paper's Mediabench subset (Table 1).

    Mediabench sources, the IMPACT compiler and the original inputs are not
    available, so each benchmark is a set of loop kernels written in the
    [.lk] IR and calibrated on the axes that drive the paper's results:

    - the {e dominant data size} and the per-benchmark {e interleaving
      factor} of Table 1 (4 bytes for epicdec, the jpeg/pgp pairs,
      mpeg2dec and rasta; 2 bytes for the g721, gsm and pegwit pairs);
    - the {e memory dependent chain} structure of Table 3 (big ambiguous
      chains in epicdec, the pgp pair, rasta and jpegdec; none at all in
      the g721 pair);
    - {e preferred-cluster predictability}: a mix of NxI-strided accesses
      (one stable home cluster), plain streams (rotating home) and
      indirect/table accesses (no stable home);
    - the profile-vs-execution input distinction: two data seeds per
      benchmark (Table 1's two input columns).

    epicenc appears in Table 1 but not in the paper's figures; it is
    included with [in_figures = false]. *)

type loop = {
  l_name : string;
  l_weight : int;
      (** relative execution count of the loop (invocations per run) *)
  l_source : seed:int -> string;  (** [.lk] source for a given input seed *)
}

type benchmark = {
  b_name : string;
  b_interleave : int;  (** bytes; Section 4.1 *)
  b_data_size : int;  (** dominant access width in bytes (Table 1) *)
  b_data_pct : int;  (** share of dynamic accesses with that width (Table 1) *)
  b_in_figures : bool;
  b_profile_seed : int;  (** [1001 + i] for benchmark [i] of {!all} *)
  b_exec_seed : int;  (** [2001 + i] for benchmark [i] of {!all} *)
  b_loops : loop list;
}

val all : benchmark list
(** Table 1 order. *)

val figures : benchmark list
(** The thirteen benchmarks of Figures 6/7/9 and Tables 3/4. *)

val find : string -> benchmark
(** @raise Not_found on unknown names. *)

val parse_loop : loop -> seed:int -> Vliw_ir.Ast.kernel
(** Parse and typecheck a loop's kernel; raises on any defect (the test
    suite parses every loop of every benchmark). *)
