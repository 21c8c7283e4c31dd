open Vliw_util

let check_float = Alcotest.(check (float 1e-9))

(* tiny substring helper *)
let contains hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
  nn = 0 || go 0

(* --- Prng --- *)

let test_prng_determinism () =
  let a = Prng.create 42 and b = Prng.create 42 in
  for _ = 1 to 100 do
    Alcotest.(check int64) "same stream" (Prng.next a) (Prng.next b)
  done

let test_prng_distinct_seeds () =
  let a = Prng.create 1 and b = Prng.create 2 in
  let same = ref 0 in
  for _ = 1 to 64 do
    if Prng.next a = Prng.next b then incr same
  done;
  Alcotest.(check bool) "streams differ" true (!same < 4)

let test_prng_bounds () =
  let t = Prng.create 7 in
  for _ = 1 to 1000 do
    let v = Prng.int t 17 in
    Alcotest.(check bool) "in [0,17)" true (v >= 0 && v < 17)
  done;
  for _ = 1 to 1000 do
    let v = Prng.int_in t (-5) 5 in
    Alcotest.(check bool) "in [-5,5]" true (v >= -5 && v <= 5)
  done

let test_prng_copy_independent () =
  let a = Prng.create 9 in
  let _ = Prng.next a in
  let b = Prng.copy a in
  Alcotest.(check int64) "copy continues identically" (Prng.next a) (Prng.next b);
  let _ = Prng.next a in
  (* advancing a does not advance b *)
  let a' = Prng.next a and b' = Prng.next b in
  Alcotest.(check bool) "desynchronized after extra draw" true (a' <> b')

let test_prng_shuffle_permutation () =
  let t = Prng.create 3 in
  let arr = Array.init 50 Fun.id in
  Prng.shuffle t arr;
  let sorted = Array.copy arr in
  Array.sort compare sorted;
  Alcotest.(check (array int)) "is a permutation" (Array.init 50 Fun.id) sorted

let test_prng_int_rejects_nonpositive () =
  let t = Prng.create 1 in
  Alcotest.check_raises "bound 0" (Invalid_argument "Prng.int: bound must be positive")
    (fun () -> ignore (Prng.int t 0))

let test_prng_derive_pure () =
  (* derivation reads the parent without advancing it: deriving any number
     of children leaves the parent's own stream untouched *)
  let a = Prng.create 11 and b = Prng.create 11 in
  let _ = Prng.derive a 0 and _ = Prng.derive a 1 in
  let _ = Prng.derive_named a "x" in
  Alcotest.(check int64) "parent stream unchanged" (Prng.next b) (Prng.next a)

let test_prng_derive_reproducible () =
  (* a child depends only on (parent state, index/name) — the scheme every
     subsystem's "(root seed, index)" reproducibility rests on *)
  let child () = Prng.derive (Prng.derive_named (Prng.create 5) "fuzz") 42 in
  Alcotest.(check int64) "same path, same stream"
    (Prng.next (child ())) (Prng.next (child ()));
  let sib = Prng.derive (Prng.derive_named (Prng.create 5) "fuzz") 43 in
  Alcotest.(check bool) "sibling index diverges" true
    (Prng.next (child ()) <> Prng.next sib);
  let other = Prng.derive (Prng.derive_named (Prng.create 5) "jitter") 42 in
  Alcotest.(check bool) "sibling name diverges" true
    (Prng.next (child ()) <> Prng.next other)

(* --- Stats --- *)

let test_mean () =
  check_float "mean" 2.5 (Stats.mean [ 1.; 2.; 3.; 4. ]);
  check_float "empty" 0. (Stats.mean [])

let test_geomean () =
  check_float "geomean" 2. (Stats.geomean [ 1.; 2.; 4. ]);
  check_float "singleton" 5. (Stats.geomean [ 5. ])

let test_stddev () =
  check_float "constant" 0. (Stats.stddev [ 3.; 3.; 3. ]);
  check_float "pair" 1. (Stats.stddev [ 1.; 3. ])

let test_median () =
  check_float "odd" 2. (Stats.median [ 3.; 1.; 2. ]);
  check_float "even (lower middle)" 2. (Stats.median [ 4.; 1.; 2.; 3. ])

let test_minmax () =
  let lo, hi = Stats.minmax [ 3.; -1.; 7. ] in
  check_float "min" (-1.) lo;
  check_float "max" 7. hi

let test_ratio () =
  check_float "ratio" 0.5 (Stats.ratio 1 2);
  check_float "zero denominator" 0. (Stats.ratio 1 0)

(* --- Table --- *)

let test_table_render () =
  let t = Table.create ~title:"T" [ ("a", Table.Left); ("b", Table.Right) ] in
  Table.add_row t [ "x"; "1" ];
  Table.add_row t [ "long"; "22" ];
  let s = Table.render t in
  Alcotest.(check bool) "has title" true (String.length s > 0 && s.[0] = 'T');
  (* all data appears *)
  List.iter
    (fun frag ->
      Alcotest.(check bool) (frag ^ " present") true (contains s frag))
    [ "x"; "long"; "22"; "a"; "b" ]

let test_table_pads_short_rows () =
  let t = Table.create [ ("a", Table.Left); ("b", Table.Left) ] in
  Table.add_row t [ "only" ];
  let s = Table.render t in
  Alcotest.(check bool) "renders" true (String.length s > 0)

let test_table_rejects_long_rows () =
  let t = Table.create [ ("a", Table.Left) ] in
  Alcotest.check_raises "too many cells"
    (Invalid_argument "Table.add_row: more cells than headers") (fun () ->
      Table.add_row t [ "x"; "y" ])

let test_cells () =
  Alcotest.(check string) "pct" "62.5%" (Table.cell_pct 0.625);
  Alcotest.(check string) "float" "1.23" (Table.cell_f 1.234)

(* --- Bars --- *)

let test_bar_full () =
  Alcotest.(check string) "full bar" "aaaaabbbbb"
    (Bars.bar ~width:10 [ { Bars.label = 'a'; frac = 0.5 }; { label = 'b'; frac = 0.5 } ])

let test_bar_partial () =
  let s = Bars.bar ~width:10 [ { Bars.label = 'x'; frac = 0.25 } ] in
  Alcotest.(check int) "rounded length" 3 (String.length s)

let test_bar_clamps () =
  let s = Bars.bar ~width:10 [ { Bars.label = 'x'; frac = 2.0 } ] in
  Alcotest.(check int) "clamped to width" 10 (String.length s)

let test_chart_legend () =
  let s =
    Bars.chart ~width:8
      ~legend:[ ('h', "hit") ]
      [ ("row1", [ { Bars.label = 'h'; frac = 1.0 } ]) ]
  in
  Alcotest.(check bool) "mentions legend" true (contains s "h=hit")

(* --- Pool --- *)

let test_pool_preserves_ordering () =
  let xs = List.init 100 Fun.id in
  Alcotest.(check (list int))
    "results in input order under N>1"
    (List.map (fun x -> x * x) xs)
    (Pool.map ~jobs:4 (fun x -> x * x) xs)

let test_pool_more_tasks_than_domains () =
  let xs = List.init 500 Fun.id in
  Alcotest.(check (list int))
    "500 tasks over 3 domains all complete"
    (List.map succ xs)
    (Pool.map ~jobs:3 succ xs)

let test_pool_exception_propagates () =
  Alcotest.check_raises "original message survives"
    (Failure "boom on 37")
    (fun () ->
      ignore
        (Pool.map ~jobs:4
           (fun i -> if i = 37 then failwith "boom on 37" else i)
           (List.init 100 Fun.id)))

let test_pool_sequential_when_one_job () =
  (* jobs:1 must run in the caller, in order: observable through a
     side-effect log, which would be racy under real parallelism *)
  let log = ref [] in
  let r =
    Pool.map ~jobs:1
      (fun i ->
        log := i :: !log;
        i * 2)
      [ 1; 2; 3; 4 ]
  in
  Alcotest.(check (list int)) "results" [ 2; 4; 6; 8 ] r;
  Alcotest.(check (list int)) "evaluated in order" [ 4; 3; 2; 1 ] !log

let test_pool_empty_and_singleton () =
  Alcotest.(check (list int)) "empty" [] (Pool.map ~jobs:4 succ []);
  Alcotest.(check (list int)) "singleton" [ 8 ] (Pool.map ~jobs:4 succ [ 7 ])

let test_pool_map_reduce () =
  let sum =
    Pool.map_reduce ~jobs:4
      ~map:(fun x -> x * x)
      ~reduce:( + ) ~init:0 (List.init 50 Fun.id)
  in
  Alcotest.(check int) "sum of squares" (49 * 50 * 99 / 6) sum

let test_pool_nested_map () =
  (* a pooled task may itself call Pool.map; the inner call degenerates
     to sequential execution instead of deadlocking or over-spawning *)
  let r =
    Pool.map ~jobs:2
      (fun i -> Pool.map ~jobs:2 (fun j -> (10 * i) + j) [ 1; 2; 3 ])
      [ 1; 2 ]
  in
  Alcotest.(check (list (list int)))
    "nested results ordered"
    [ [ 11; 12; 13 ]; [ 21; 22; 23 ] ]
    r

let test_pool_failure_cancels_pending () =
  (* a failure cancels all not-yet-started work: with one task failing
     instantly and the rest sleeping, the workers drain at most their
     in-flight tasks before observing the failure flag *)
  let started = Atomic.make 0 in
  let n = 200 in
  (try
     ignore
       (Pool.map ~jobs:4
          (fun i ->
            Atomic.incr started;
            if i = 0 then failwith "early"
            else Unix.sleepf 0.005)
          (List.init n Fun.id))
   with Failure e when e = "early" -> ());
  Alcotest.(check bool)
    (Printf.sprintf "only %d of %d tasks started" (Atomic.get started) n)
    true
    (Atomic.get started < n)

let test_pool_smallest_index_failure_wins () =
  (* when several tasks fail, the caller sees the smallest-index failure
     even if a later task failed first in wall-clock time *)
  Alcotest.check_raises "index 1 reported, not index 30"
    (Failure "boom 1")
    (fun () ->
      ignore
        (Pool.map ~jobs:2
           (fun i ->
             if i = 1 then (Unix.sleepf 0.05; failwith "boom 1")
             else if i = 30 then failwith "boom 30")
           (List.init 60 Fun.id)))

let test_pool_failure_raised_exactly_once () =
  (* the failing sibling cancels the rest exactly once: the pool call
     raises, and an immediately following call starts from a clean slate *)
  let failures = ref 0 in
  (try ignore (Pool.map ~jobs:4 (fun i -> if i = 3 then failwith "once") [ 1; 2; 3; 4 ])
   with Failure e when e = "once" -> incr failures);
  Alcotest.(check int) "one observable failure" 1 !failures;
  Alcotest.(check (list int)) "pool healthy afterwards" [ 2; 4; 6 ]
    (Pool.map ~jobs:4 (fun x -> x * 2) [ 1; 2; 3 ])

let test_pool_set_jobs_validates () =
  Alcotest.check_raises "rejects zero"
    (Invalid_argument "Pool.set_jobs: width must be >= 1") (fun () ->
      Pool.set_jobs 0)

(* --- Json --- *)

let test_json_rendering () =
  let v =
    Json.Obj
      [
        ("s", Json.String "a\"b\nc");
        ("i", Json.Int (-3));
        ("f", Json.Float 0.25);
        ("nan", Json.Float Float.nan);
        ("l", Json.List [ Json.Bool true; Json.Null ]);
        ("empty", Json.Obj []);
      ]
  in
  Alcotest.(check string)
    "compact rendering"
    "{\"s\":\"a\\\"b\\nc\",\"i\":-3,\"f\":0.25,\"nan\":null,\"l\":[true,null],\"empty\":{}}"
    (Json.to_string ~indent:0 v);
  (* indented rendering contains the same scalars *)
  let pretty = Json.to_string v in
  List.iter
    (fun frag ->
      Alcotest.(check bool) (frag ^ " present") true (contains pretty frag))
    [ "\"i\": -3"; "\"f\": 0.25"; "true" ]

let test_json_float_roundtrip () =
  let f = 1. /. 3. in
  match Json.to_string ~indent:0 (Json.Float f) with
  | s ->
    check_float "float round-trips through its rendering" f (float_of_string s)

let test_json_parse_values () =
  let cases =
    [
      ("null", Json.Null);
      ("true", Json.Bool true);
      ("false", Json.Bool false);
      ("42", Json.Int 42);
      ("-7", Json.Int (-7));
      ("0.5", Json.Float 0.5);
      ("1e3", Json.Float 1000.0);
      ("\"a\\\"b\\nc\"", Json.String "a\"b\nc");
      ("\"\\u0041\"", Json.String "A");
      ("[]", Json.List []);
      ("{}", Json.Obj []);
      ( " { \"k\" : [ 1 , 2.5 , null ] } ",
        Json.Obj [ ("k", Json.List [ Json.Int 1; Json.Float 2.5; Json.Null ]) ]
      );
    ]
  in
  List.iter
    (fun (src, expected) ->
      Alcotest.(check bool)
        (Printf.sprintf "parse %S" src)
        true
        (Json.of_string src = expected))
    cases

let test_json_parse_rejects () =
  List.iter
    (fun src ->
      Alcotest.(check bool)
        (Printf.sprintf "reject %S" src)
        true
        (match Json.of_string src with
        | exception Json.Parse_error _ -> true
        | _ -> false))
    [ ""; "{"; "[1,]"; "{\"a\":}"; "tru"; "1 2"; "\"unterminated" ]

(* whatever the emitter writes, the parser reads back; integral floats come
   back as Int, which is the numeric-equality contract the self-check
   relies on *)
let test_json_emit_parse_roundtrip () =
  let v =
    Json.Obj
      [
        ("s", Json.String "a\"b\n\tc\\d");
        ("i", Json.Int (-3));
        ("f", Json.Float 0.25);
        ("whole", Json.Float 123456.0);
        ("l", Json.List [ Json.Bool true; Json.Null; Json.Obj [] ]);
        ("nested", Json.Obj [ ("x", Json.List [ Json.Int 1 ]) ]);
      ]
  in
  let reparsed indent = Json.of_string (Json.to_string ~indent v) in
  let expected =
    Json.Obj
      [
        ("s", Json.String "a\"b\n\tc\\d");
        ("i", Json.Int (-3));
        ("f", Json.Float 0.25);
        ("whole", Json.Int 123456);
        ("l", Json.List [ Json.Bool true; Json.Null; Json.Obj [] ]);
        ("nested", Json.Obj [ ("x", Json.List [ Json.Int 1 ]) ]);
      ]
  in
  Alcotest.(check bool) "compact round-trip" true (reparsed 0 = expected);
  Alcotest.(check bool) "indented round-trip" true (reparsed 2 = expected)

let test_json_accessors () =
  let v = Json.Obj [ ("a", Json.Int 1); ("b", Json.List [ Json.Int 2 ]) ] in
  Alcotest.(check (option int))
    "member+to_int" (Some 1)
    (Option.bind (Json.member "a" v) Json.to_int_opt);
  Alcotest.(check bool)
    "member list" true
    (Json.member "b" v |> Option.map Json.to_list_opt = Some (Some [ Json.Int 2 ]));
  Alcotest.(check (option int)) "missing member" None
    (Option.bind (Json.member "zzz" v) Json.to_int_opt)

(* --- Codec --- *)

let codec_ints =
  [ 0; 1; -1; 63; -64; 64; -65; 8191; -8192; 8192; max_int; min_int ]

(* every int, plus the int64 extremes and the values just outside the
   63-bit range *)
let codec_int64s =
  List.map Int64.of_int codec_ints
  @ [
      Int64.max_int;
      Int64.min_int;
      Int64.succ (Int64.of_int max_int);
      Int64.pred (Int64.of_int min_int);
    ]

(* a test-local reader of the writer's format: unsigned LEB128, then
   zigzag *)
let read_varint64 s pos =
  let rec go acc shift pos =
    let b = Char.code s.[pos] in
    let acc = Int64.logor acc (Int64.shift_left (Int64.of_int (b land 0x7f)) shift) in
    if b land 0x80 = 0 then (acc, pos + 1) else go acc (shift + 7) (pos + 1)
  in
  let z, pos = go 0L 0 pos in
  (Int64.logxor (Int64.shift_right_logical z 1) (Int64.neg (Int64.logand z 1L)), pos)

let read_int s pos =
  let rec go acc shift pos =
    let b = Char.code s.[pos] in
    let acc = acc lor ((b land 0x7f) lsl shift) in
    if b land 0x80 = 0 then (acc, pos + 1) else go acc (shift + 7) (pos + 1)
  in
  let z, pos = go 0 0 pos in
  ((z lsr 1) lxor -(z land 1), pos)

let read_nat s pos =
  let rec go acc shift pos =
    let b = Char.code s.[pos] in
    let acc = acc lor ((b land 0x7f) lsl shift) in
    if b land 0x80 = 0 then (acc, pos + 1) else go acc (shift + 7) (pos + 1)
  in
  go 0 0 pos

(* an array: its length, then groups whose header is [count lsl 1 lor
   kind], kind 1 standing for a run of one element *)
let read_array read s pos =
  let n, pos = read_nat s pos in
  let out = ref [] and pos = ref pos and got = ref 0 in
  while !got < n do
    let h, p = read_nat s !pos in
    let count = h lsr 1 in
    pos := p;
    if h land 1 = 1 then begin
      let v, p = read s !pos in
      pos := p;
      for _ = 1 to count do
        out := v :: !out
      done
    end
    else
      for _ = 1 to count do
        let v, p = read s !pos in
        pos := p;
        out := v :: !out
      done;
    got := !got + count
  done;
  (Array.of_list (List.rev !out), !pos)

let read_ints = read_array read_int
let read_int64s = read_array read_varint64

let written f v =
  let c = Codec.create 4 in
  f c v;
  Codec.contents c

let test_codec_round_trips () =
  List.iter
    (fun v ->
      let s = written Codec.int v in
      Alcotest.(check (pair int int)) (string_of_int v) (v, String.length s)
        (read_int s 0))
    codec_ints;
  List.iter
    (fun v ->
      let s = written Codec.int64 v in
      Alcotest.(check (pair int64 int)) (Int64.to_string v) (v, String.length s)
        (read_varint64 s 0))
    codec_int64s;
  Alcotest.(check int) "small magnitudes take one byte" 1
    (String.length (written Codec.int (-64)));
  (* a run is one group however long; runs shorter than three stay
     literal *)
  let runs = [| 7; 7; 7; 7; 1; 2; 2; 9; 9; 9 |] in
  Alcotest.(check (pair (array int) int)) "runs round-trip"
    (runs, String.length (written Codec.ints runs))
    (read_ints (written Codec.ints runs) 0);
  Alcotest.(check int) "a run of 1000 takes five bytes" 5
    (String.length (written Codec.ints (Array.make 1000 (-1))));
  (* arrays, byte strings and sections carry their lengths *)
  let c = Codec.create 4 in
  Codec.ints c [| 5; -1; 300 |];
  Codec.bytes c (Bytes.of_string "ab");
  let sec = Codec.open_section c in
  Codec.int c 7;
  Codec.bool c true;
  Codec.close_section c sec;
  Codec.byte c 0x1ff;
  let s = Codec.contents c in
  let a, p = read_ints s 0 in
  Alcotest.(check (array int)) "ints" [| 5; -1; 300 |] a;
  let n, p = read_nat s p in
  Alcotest.(check string) "bytes" "ab" (String.sub s p n);
  let p = p + n in
  Alcotest.(check int32) "section length" 2l (String.get_int32_le s p);
  Alcotest.(check (pair int int)) "section body" (7, p + 5) (read_int s (p + 4));
  Alcotest.(check int) "bool" 1 (Char.code s.[p + 5]);
  Alcotest.(check int) "byte keeps the low 8 bits" 0xff (Char.code s.[p + 6]);
  Alcotest.(check int) "length" (p + 7) (String.length s)

let test_codec_allocation_free () =
  let ints = Array.of_list codec_ints and i64s = Array.of_list codec_int64s in
  let data = Bytes.make 40 'x' in
  let c = Codec.create 4096 in
  let write () =
    Codec.clear c;
    for i = 0 to Array.length ints - 1 do
      Codec.int c ints.(i)
    done;
    for i = 0 to Array.length i64s - 1 do
      Codec.int64 c i64s.(i)
    done;
    Codec.ints c ints;
    Codec.int64s c i64s;
    Codec.bytes c data;
    let sec = Codec.open_section c in
    Codec.bool c true;
    Codec.byte c 3;
    Codec.close_section c sec
  in
  write ();
  let before = Gc.minor_words () in
  for _ = 1 to 100 do
    write ()
  done;
  Alcotest.(check (float 0.)) "minor words" 0. (Gc.minor_words () -. before)

(* --- QCheck properties --- *)

let prop_bar_never_exceeds_width =
  QCheck.Test.make ~name:"bar length <= width" ~count:200
    QCheck.(pair (int_range 1 60) (small_list (float_bound_inclusive 1.0)))
    (fun (width, fracs) ->
      let segs = List.map (fun f -> { Bars.label = '#'; frac = f }) fracs in
      String.length (Bars.bar ~width segs) <= width)

let prop_geomean_between_minmax =
  QCheck.Test.make ~name:"geomean within [min,max]" ~count:200
    QCheck.(list_of_size (Gen.int_range 1 20) (float_range 0.001 1000.))
    (fun xs ->
      let g = Vliw_util.Stats.geomean xs in
      let lo, hi = Vliw_util.Stats.minmax xs in
      g >= lo -. 1e-9 && g <= hi +. 1e-9)

let prop_shuffle_preserves_multiset =
  QCheck.Test.make ~name:"shuffle preserves elements" ~count:100
    QCheck.(pair small_int (small_list small_int))
    (fun (seed, xs) ->
      let t = Prng.create seed in
      let arr = Array.of_list xs in
      Prng.shuffle t arr;
      List.sort compare (Array.to_list arr) = List.sort compare xs)

(* arrays drawn from few values, so runs of every length occur *)
let prop_codec_round_trips =
  QCheck.Test.make ~name:"codec values and arrays round-trip"
    ~count:500
    QCheck.(
      quad int int64
        (array_of_size Gen.(int_bound 40) (oneofl [ 0; -1; 5; max_int ]))
        (array_of_size Gen.(int_bound 40) (oneofl [ 0L; -1L; Int64.max_int ])))
    (fun (i, l, a, b) ->
      let si = written Codec.int i and sl = written Codec.int64 l in
      let sa = written Codec.ints a and sb = written Codec.int64s b in
      read_int si 0 = (i, String.length si)
      && read_varint64 sl 0 = (l, String.length sl)
      && read_ints sa 0 = (a, String.length sa)
      && read_int64s sb 0 = (b, String.length sb))

let () =
  Alcotest.run "util"
    [
      ( "prng",
        [
          Alcotest.test_case "determinism" `Quick test_prng_determinism;
          Alcotest.test_case "distinct seeds" `Quick test_prng_distinct_seeds;
          Alcotest.test_case "bounds" `Quick test_prng_bounds;
          Alcotest.test_case "copy independence" `Quick test_prng_copy_independent;
          Alcotest.test_case "shuffle permutation" `Quick test_prng_shuffle_permutation;
          Alcotest.test_case "rejects bad bound" `Quick test_prng_int_rejects_nonpositive;
          Alcotest.test_case "derive is pure" `Quick test_prng_derive_pure;
          Alcotest.test_case "derive reproducible" `Quick
            test_prng_derive_reproducible;
        ] );
      ( "stats",
        [
          Alcotest.test_case "mean" `Quick test_mean;
          Alcotest.test_case "geomean" `Quick test_geomean;
          Alcotest.test_case "stddev" `Quick test_stddev;
          Alcotest.test_case "median" `Quick test_median;
          Alcotest.test_case "minmax" `Quick test_minmax;
          Alcotest.test_case "ratio" `Quick test_ratio;
        ] );
      ( "table",
        [
          Alcotest.test_case "render" `Quick test_table_render;
          Alcotest.test_case "pads short rows" `Quick test_table_pads_short_rows;
          Alcotest.test_case "rejects long rows" `Quick test_table_rejects_long_rows;
          Alcotest.test_case "cells" `Quick test_cells;
        ] );
      ( "bars",
        [
          Alcotest.test_case "full" `Quick test_bar_full;
          Alcotest.test_case "partial" `Quick test_bar_partial;
          Alcotest.test_case "clamps" `Quick test_bar_clamps;
          Alcotest.test_case "legend" `Quick test_chart_legend;
        ] );
      ( "pool",
        [
          Alcotest.test_case "ordering preserved" `Quick test_pool_preserves_ordering;
          Alcotest.test_case "more tasks than domains" `Quick
            test_pool_more_tasks_than_domains;
          Alcotest.test_case "exception propagation" `Quick
            test_pool_exception_propagates;
          Alcotest.test_case "N=1 is sequential" `Quick
            test_pool_sequential_when_one_job;
          Alcotest.test_case "empty and singleton" `Quick
            test_pool_empty_and_singleton;
          Alcotest.test_case "map_reduce" `Quick test_pool_map_reduce;
          Alcotest.test_case "nested map" `Quick test_pool_nested_map;
          Alcotest.test_case "failure cancels pending" `Quick
            test_pool_failure_cancels_pending;
          Alcotest.test_case "smallest-index failure wins" `Quick
            test_pool_smallest_index_failure_wins;
          Alcotest.test_case "failure raised exactly once" `Quick
            test_pool_failure_raised_exactly_once;
          Alcotest.test_case "set_jobs validates" `Quick
            test_pool_set_jobs_validates;
        ] );
      ( "json",
        [
          Alcotest.test_case "rendering" `Quick test_json_rendering;
          Alcotest.test_case "float round-trip" `Quick test_json_float_roundtrip;
          Alcotest.test_case "parse values" `Quick test_json_parse_values;
          Alcotest.test_case "parse rejects" `Quick test_json_parse_rejects;
          Alcotest.test_case "emit/parse round-trip" `Quick
            test_json_emit_parse_roundtrip;
          Alcotest.test_case "accessors" `Quick test_json_accessors;
        ] );
      ( "codec",
        [
          Alcotest.test_case "round-trips" `Quick test_codec_round_trips;
          Alcotest.test_case "allocation-free" `Quick test_codec_allocation_free;
        ] );
      ( "properties",
        List.map QCheck_alcotest.to_alcotest
          [
            prop_bar_never_exceeds_width;
            prop_geomean_between_minmax;
            prop_shuffle_preserves_multiset;
            prop_codec_round_trips;
          ] );
    ]
