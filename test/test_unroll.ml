module Ir = Vliw_ir
module Unroll = Vliw_ir.Unroll
module Lower = Vliw_lower.Lower
module M = Vliw_arch.Machine
module Profile = Vliw_profile.Profile

let parse = Ir.Parser.parse_kernel

let stream_src =
  "kernel s { array a : i32[256] = ramp(2,3) array b : i32[256] = zero \
   scalar acc : i64 = 7 trip 64 body { let t = a[i] * 5 b[i] = t acc = acc \
   + t } }"

let run_mem k =
  let layout = Ir.Layout.make k in
  Ir.Interp.run ~layout k

let test_unroll_preserves_semantics () =
  let k = parse stream_src in
  let k4 = Unroll.unroll ~factor:4 k in
  (match Ir.Typecheck.check k4 with
  | Ok _ -> ()
  | Error e -> Alcotest.fail e);
  Alcotest.(check int) "trip divided" 16 k4.Ir.Ast.k_trip;
  let r = run_mem k and r4 = run_mem k4 in
  Alcotest.(check bool) "memory identical" true
    (Bytes.equal r.Ir.Interp.memory r4.Ir.Interp.memory);
  Alcotest.(check int64) "accumulator identical"
    (List.assoc "acc" r.Ir.Interp.final_scalars)
    (List.assoc "acc" r4.Ir.Interp.final_scalars)

let test_unroll_scalar_threading () =
  (* running product, narrow scalar: threading + truncation both matter *)
  let k =
    parse
      "kernel p { array a : i16[64] = ramp(1,1) array out : i16[64] = zero \
       scalar prod : i16 = 1 trip 32 body { prod = prod * 3 + a[i] out[i] = \
       prod } }"
  in
  let k2 = Unroll.unroll ~factor:2 k in
  let r = run_mem k and r2 = run_mem k2 in
  Alcotest.(check bool) "i16 scalar chain identical" true
    (Bytes.equal r.Ir.Interp.memory r2.Ir.Interp.memory)

let test_unroll_factor_one_identity () =
  let k = parse stream_src in
  Alcotest.(check bool) "factor 1 is the identity" true (Unroll.unroll ~factor:1 k == k)

let test_unroll_rejects_bad_factor () =
  let k = parse stream_src in
  Alcotest.(check bool) "non-dividing factor" true
    (try ignore (Unroll.unroll ~factor:7 k); false with Invalid_argument _ -> true);
  Alcotest.(check bool) "zero factor" true
    (try ignore (Unroll.unroll ~factor:0 k); false with Invalid_argument _ -> true)

let test_unroll_in_place_chain () =
  (* aliasing in-place kernel must stay correct through unrolling *)
  let k =
    parse
      "kernel ip { array a : i32[129] = ramp(3,7) trip 128 body { a[i] = a[i] + a[i + 1] } }"
  in
  let k4 = Unroll.unroll ~factor:4 k in
  let r = run_mem k and r4 = run_mem k4 in
  Alcotest.(check bool) "in-place identical" true
    (Bytes.equal r.Ir.Interp.memory r4.Ir.Interp.memory)

let test_unroll_name_collision () =
  (* copy 0's carrier for [s] would be named [s_u0], which the kernel
     already declares: it takes a free name and both scalars keep their
     own values *)
  let k =
    parse
      "kernel c { array a : i32[64] = ramp(1,1) array out : i32[64] = zero \
       scalar s : i32 = 0 scalar s_u0 : i32 = 5 trip 32 body { s = s + a[i] \
       s_u0 = s_u0 + s out[i] = s_u0 } }"
  in
  let k2 = Unroll.unroll ~factor:2 k in
  (match Ir.Typecheck.check k2 with
  | Ok _ -> ()
  | Error e -> Alcotest.fail e);
  let r = run_mem k and r2 = run_mem k2 in
  Alcotest.(check bool) "memory identical" true
    (Bytes.equal r.Ir.Interp.memory r2.Ir.Interp.memory);
  Alcotest.(check (list (pair string int64))) "scalars identical"
    r.Ir.Interp.final_scalars r2.Ir.Interp.final_scalars

let test_best_factor_stream () =
  (* stride-1 i32 under 4B interleave, 4 clusters: NxI = 16B; factor 4
     makes every access 16B-strided *)
  let k = parse stream_src in
  Alcotest.(check int) "factor 4" 4
    (Lower.best_unroll_factor ~nxi_bytes:16 ~max_factor:8 k)

let test_best_factor_already_stable () =
  let k =
    parse
      "kernel s { array a : i32[512] = zero trip 64 body { a[4*i] = 1 } }"
  in
  Alcotest.(check int) "already stable: stay at 1" 1
    (Lower.best_unroll_factor ~nxi_bytes:16 ~max_factor:8 k)

let test_best_factor_indirect_hopeless () =
  let k =
    parse
      "kernel s { array a : i32[64] = modpat(64) scalar s : i64 = 0 trip 64 body { s = s + a[a[i] % 64] } }"
  in
  (* the outer access is indirect; only the inner a[i] is affine: factor 4
     stabilizes it *)
  Alcotest.(check int) "factor driven by the affine site" 4
    (Lower.best_unroll_factor ~nxi_bytes:16 ~max_factor:8 k)

let test_unroll_improves_locality_end_to_end () =
  (* the Section 2.2 claim in one test: unrolling a stride-1 stream by 4
     lifts the profile's predictability (and with it PrefClus's ceiling) *)
  let machine = M.table2 in
  let k = parse stream_src in
  let p1 =
    Profile.run ~machine ~layout:(Ir.Layout.make k) k |> Profile.predictability
  in
  let k4 = Unroll.unroll ~factor:4 k in
  let p4 =
    Profile.run ~machine ~layout:(Ir.Layout.make k4) k4 |> Profile.predictability
  in
  Alcotest.(check bool)
    (Printf.sprintf "predictability %.2f -> %.2f" p1 p4)
    true
    (p4 > p1 +. 0.2);
  Alcotest.(check (float 1e-9)) "unrolled stream fully predictable" 1.0 p4

(* --- padding --- *)

let test_padding_search_returns_valid_pad () =
  let machine = M.table2 in
  let k = parse stream_src in
  let pad, score = Profile.best_padding ~machine k in
  Alcotest.(check bool) "pad within a block" true (pad >= 0 && pad <= 32);
  Alcotest.(check bool) "score is a fraction" true (score > 0. && score <= 1.)

let test_padding_can_matter () =
  (* two arrays accessed at the same index: with pad multiples of 16 their
     elements share a home; other pads split them. The search must find a
     pad whose predictability is at least the default's. *)
  let machine = M.table2 in
  let k =
    parse
      "kernel pd { array a : i32[68] = zero array b : i32[68] = zero trip 16 \
       body { b[4*i] = a[4*i] + 1 } }"
  in
  let default_score =
    Profile.run ~machine ~layout:(Ir.Layout.make k) k |> Profile.predictability
  in
  let _, best_score = Profile.best_padding ~machine k in
  Alcotest.(check bool) "search never loses" true (best_score >= default_score -. 1e-9)

(* --- property: unrolling is semantics-preserving on random kernels --- *)

let gen_src =
  QCheck.Gen.(
    let* stride = int_range 1 3 in
    let* off = int_range 0 3 in
    let* seed = int_range 0 99 in
    return
      (Printf.sprintf
         "kernel q { array a : i32[%d] = random(%d) scalar s : i64 = 1 trip 64 \
          body { let t = a[%d*i + %d] s = s + t * 3 a[%d*i] = t + s } }"
         (64 * (stride + 1)) seed stride off stride))

let prop_unroll_semantics =
  QCheck.Test.make ~name:"unroll preserves interpreter results" ~count:100
    (QCheck.make gen_src ~print:Fun.id)
    (fun src ->
      let k = parse src in
      List.for_all
        (fun factor ->
          let ku = Unroll.unroll ~factor k in
          Result.is_ok (Ir.Typecheck.check ku)
          &&
          let r = run_mem k and ru = run_mem ku in
          Bytes.equal r.Ir.Interp.memory ru.Ir.Interp.memory
          && r.Ir.Interp.final_scalars = ru.Ir.Interp.final_scalars)
        [ 2; 4; 8 ])

let prop_unrolled_lowers_and_schedules =
  QCheck.Test.make ~name:"unrolled kernels compile end to end" ~count:25
    (QCheck.make gen_src ~print:Fun.id)
    (fun src ->
      let k = Unroll.unroll ~factor:4 (parse src) in
      let low = Lower.lower k in
      match Vliw_sched.Driver.run (Vliw_sched.Driver.request M.table2) low.Lower.graph with
      | Ok s -> Vliw_sched.Schedule.validate low.Lower.graph s = Ok ()
      | Error _ -> false)

let () =
  Alcotest.run "unroll"
    [
      ( "semantics",
        [
          Alcotest.test_case "stream" `Quick test_unroll_preserves_semantics;
          Alcotest.test_case "scalar threading" `Quick test_unroll_scalar_threading;
          Alcotest.test_case "factor 1" `Quick test_unroll_factor_one_identity;
          Alcotest.test_case "bad factors" `Quick test_unroll_rejects_bad_factor;
          Alcotest.test_case "in-place chain" `Quick test_unroll_in_place_chain;
          Alcotest.test_case "name collision" `Quick test_unroll_name_collision;
        ] );
      ( "factor search",
        [
          Alcotest.test_case "stream wants 4" `Quick test_best_factor_stream;
          Alcotest.test_case "stable stays 1" `Quick test_best_factor_already_stable;
          Alcotest.test_case "indirect" `Quick test_best_factor_indirect_hopeless;
          Alcotest.test_case "locality end to end" `Quick
            test_unroll_improves_locality_end_to_end;
        ] );
      ( "padding",
        [
          Alcotest.test_case "valid pad" `Quick test_padding_search_returns_valid_pad;
          Alcotest.test_case "never loses" `Quick test_padding_can_matter;
        ] );
      ( "properties",
        List.map QCheck_alcotest.to_alcotest
          [ prop_unroll_semantics; prop_unrolled_lowers_and_schedules ] );
    ]
