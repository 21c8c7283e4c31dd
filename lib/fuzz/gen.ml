module Ast = Vliw_ir.Ast
module Prng = Vliw_util.Prng
module Header = Vliw_arch.Header

type mconf = {
  mc_base : string;
  mc_clusters : int;
  mc_icn : string;
  mc_interleave : int;
  mc_membus : int;
  mc_ab : bool;
  mc_protocol : string;
}

type case = {
  g_seed : int;
  g_index : int;
  g_budget : int;
  g_jitter : int;
  g_mconf : mconf;
  g_shapes : string list;
  g_kernel : Ast.kernel;
}

let stream ~seed ~index =
  Prng.derive (Prng.derive_named (Prng.create seed) "fuzz") index

(* the header directives a configuration writes, which name its machine *)
let header ?jitter mc =
  { Header.machine = Some mc.mc_base; clusters = Some mc.mc_clusters;
    interconnect = Some mc.mc_icn; interleave = Some mc.mc_interleave;
    membus = Some mc.mc_membus; ab = Some mc.mc_ab; jitter;
    protocol = Some mc.mc_protocol }

let ok = function Ok v -> v | Error e -> failwith e
let machine mc = ok (Header.machine (header mc))

(* ---- kernel motifs: one per entry of the memory-dependence taxonomy ---- *)

(* everything a motif contributes to the kernel under construction *)
type motif = {
  mo_label : string;
  mo_arrays : Ast.array_decl list;
  mo_scalars : Ast.scalar_decl list;
  mo_stmts : Ast.stmt list;
}

let int_tys = [| Ast.I8; Ast.I16; Ast.I32; Ast.I64 |]

let rand_init rng =
  match Prng.int rng 4 with
  | 0 -> Ast.Zero
  | 1 -> Ast.Ramp (Prng.int_in rng (-8) 8, Prng.int_in rng 1 5)
  | 2 -> Ast.Random (Prng.int_in rng 1 1_000_000)
  | _ -> Ast.Modpat (Prng.int_in rng 2 13)

let arr ?overlap name ty len init =
  {
    Ast.arr_name = name;
    arr_ty = ty;
    arr_len = max 1 len;
    arr_init = init;
    arr_may_overlap = overlap;
  }

let sc name init =
  { Ast.sc_name = name; sc_ty = Ast.I64; sc_init = Int64.of_int init }

(* affine subscript [s*i + o] built as an expression the lowering folds *)
let aff s o =
  let open Ast in
  match (s, o) with
  | 0, o -> Int (Int64.of_int o)
  | 1, 0 -> Var induction_var
  | s, 0 -> Binop (Mul, Int (Int64.of_int s), Var induction_var)
  | 1, o -> Binop (Add, Var induction_var, Int (Int64.of_int o))
  | s, o ->
    Binop
      ( Add,
        Binop (Mul, Int (Int64.of_int s), Var induction_var),
        Int (Int64.of_int o) )

(* a small random integer expression over the available atoms *)
let rand_val rng avail =
  let atom () =
    if Prng.bool rng then Prng.choice rng avail
    else Ast.Int (Int64.of_int (Prng.int_in rng (-4) 9))
  in
  let binop () =
    Prng.choice rng [| Ast.Add; Sub; Mul; Xor; And; Or; Min; Max |]
  in
  match Prng.int rng 3 with
  | 0 -> atom ()
  | 1 -> Ast.Binop (binop (), atom (), atom ())
  | _ -> Ast.Binop (binop (), Ast.Binop (binop (), atom (), atom ()), atom ())

let i_var = Ast.Var Ast.induction_var

(* MF: store then aliased load, [d] iterations later *)
let mf_chain rng ~slot ~trip =
  let a = Printf.sprintf "a%d" slot
  and x = Printf.sprintf "x%d" slot
  and s = Printf.sprintf "s%d" slot in
  let st = Prng.choice rng [| 1; 2 |] in
  let d = Prng.int_in rng 0 3 in
  let o = Prng.int_in rng 0 2 in
  let ty = Prng.choice rng int_tys in
  let len = (st * (trip - 1)) + (st * d) + o + 2 in
  {
    mo_label = "mf-chain";
    mo_arrays = [ arr a ty len (rand_init rng) ];
    mo_scalars = [ sc s 0 ];
    mo_stmts =
      [
        Ast.Store (a, aff st ((st * d) + o), rand_val rng [| i_var |]);
        Ast.Let (x, Ast.Load (a, aff st o));
        Ast.Assign (s, Ast.Binop (Ast.Add, Ast.Var s, Ast.Var x));
      ];
  }

(* MA: load then aliased store, [d] iterations later *)
let ma_chain rng ~slot ~trip =
  let a = Printf.sprintf "a%d" slot
  and x = Printf.sprintf "x%d" slot
  and s = Printf.sprintf "s%d" slot in
  let st = Prng.choice rng [| 1; 2 |] in
  let d = Prng.int_in rng 0 3 in
  let o = Prng.int_in rng 0 2 in
  let ty = Prng.choice rng int_tys in
  let len = (st * (trip - 1)) + (st * d) + o + 2 in
  {
    mo_label = "ma-chain";
    mo_arrays = [ arr a ty len (rand_init rng) ];
    mo_scalars = [ sc s 1 ];
    mo_stmts =
      [
        Ast.Let (x, Ast.Load (a, aff st ((st * d) + o)));
        Ast.Store (a, aff st o, rand_val rng [| i_var; Ast.Var x |]);
        Ast.Assign (s, Ast.Binop (Ast.Add, Ast.Var s, Ast.Var x));
      ];
  }

(* MO: two stores to overlapping strided addresses *)
let mo_chain rng ~slot ~trip =
  let a = Printf.sprintf "a%d" slot in
  let st = Prng.choice rng [| 1; 2 |] in
  let d = Prng.int_in rng 0 3 in
  let o = Prng.int_in rng 0 2 in
  let ty = Prng.choice rng int_tys in
  let len = (st * (trip - 1)) + (st * d) + o + 2 in
  {
    mo_label = "mo-chain";
    mo_arrays = [ arr a ty len (rand_init rng) ];
    mo_scalars = [];
    mo_stmts =
      [
        Ast.Store (a, aff st ((st * d) + o), rand_val rng [| i_var |]);
        Ast.Store (a, aff st o, rand_val rng [| i_var |]);
      ];
  }

(* self-output: a store whose address repeats every iteration (self MO at
   distance 1), next to an affine load sweeping the same array *)
let self_output rng ~slot ~trip =
  let a = Printf.sprintf "a%d" slot
  and x = Printf.sprintf "x%d" slot
  and s = Printf.sprintf "s%d" slot in
  let ty = Prng.choice rng int_tys in
  let len = trip + 1 in
  let c = Prng.int rng len in
  {
    mo_label = "self-output";
    mo_arrays = [ arr a ty len (rand_init rng) ];
    mo_scalars = [ sc s 0 ];
    mo_stmts =
      [
        Ast.Store (a, aff 0 c, rand_val rng [| i_var |]);
        Ast.Let (x, Ast.Load (a, i_var));
        Ast.Assign (s, Ast.Binop (Ast.Add, Ast.Var s, Ast.Var x));
      ];
  }

(* may-alias: two arrays declared [mayoverlap], accessed at different
   strides — the disambiguator must keep the conservative cross edges *)
let may_alias rng ~slot ~trip =
  let a = Printf.sprintf "a%d" slot
  and b = Printf.sprintf "b%d" slot
  and x = Printf.sprintf "x%d" slot
  and s = Printf.sprintf "s%d" slot in
  let ty = Prng.choice rng int_tys in
  let s1 = Prng.choice rng [| 1; 2 |] and s2 = Prng.choice rng [| 1; 2; 3 |] in
  let o1 = Prng.int_in rng 0 2 and o2 = Prng.int_in rng 0 2 in
  {
    mo_label = "may-alias";
    mo_arrays =
      [
        arr a ty ((s1 * trip) + o1 + 2) (rand_init rng);
        arr ~overlap:a b ty ((s2 * trip) + o2 + 2) (rand_init rng);
      ];
    mo_scalars = [ sc s 0 ];
    mo_stmts =
      [
        Ast.Store (a, aff s1 o1, rand_val rng [| i_var |]);
        Ast.Let (x, Ast.Load (b, aff s2 o2));
        Ast.Assign (s, Ast.Binop (Ast.Add, Ast.Var s, Ast.Var x));
      ];
  }

(* indirect: register-addressed store and load through an index table *)
let indirect rng ~slot ~trip =
  let t = Printf.sprintf "t%d" slot
  and a = Printf.sprintf "a%d" slot
  and x = Printf.sprintf "x%d" slot
  and y = Printf.sprintf "y%d" slot
  and s = Printf.sprintf "s%d" slot in
  let ty = Prng.choice rng int_tys in
  let m = Prng.int_in rng 2 (min 13 trip) in
  {
    mo_label = "indirect";
    mo_arrays =
      [ arr t Ast.I16 trip (Ast.Modpat m); arr a ty (m + 2) (rand_init rng) ];
    mo_scalars = [ sc s 0 ];
    mo_stmts =
      [
        Ast.Let (x, Ast.Load (t, i_var));
        Ast.Store (a, Ast.Var x, rand_val rng [| i_var; Ast.Var x |]);
        Ast.Let (y, Ast.Load (a, Ast.Var x));
        Ast.Assign (s, Ast.Binop (Ast.Add, Ast.Var s, Ast.Var y));
      ];
  }

(* split access: overlapping arrays of different element widths, so the
   aliased pair straddles interleave units *)
let split_access rng ~slot ~trip =
  let w = Printf.sprintf "a%d" slot
  and n = Printf.sprintf "b%d" slot
  and x = Printf.sprintf "x%d" slot
  and s = Printf.sprintf "s%d" slot in
  let wide = Prng.choice rng [| Ast.I32; Ast.I64 |] in
  let ratio = Ast.ty_bytes wide in
  let st = Prng.choice rng [| 1; ratio |] in
  {
    mo_label = "split";
    mo_arrays =
      [
        arr w wide (trip + 2) (rand_init rng);
        arr ~overlap:w n Ast.I8 ((st * trip) + 2) (rand_init rng);
      ];
    mo_scalars = [ sc s 0 ];
    mo_stmts =
      [
        Ast.Store (w, i_var, rand_val rng [| i_var |]);
        Ast.Let (x, Ast.Load (n, aff st 0));
        Ast.Assign (s, Ast.Binop (Ast.Add, Ast.Var s, Ast.Var x));
      ];
  }

(* loop-carried scalar recurrence feeding a store *)
let carried rng ~slot ~trip =
  let a = Printf.sprintf "a%d" slot
  and b = Printf.sprintf "b%d" slot
  and x = Printf.sprintf "x%d" slot
  and s = Printf.sprintf "s%d" slot in
  let ty = Prng.choice rng int_tys in
  let op = Prng.choice rng [| Ast.Add; Max; Xor |] in
  {
    mo_label = "carried";
    mo_arrays =
      [ arr a ty (trip + 2) (rand_init rng); arr b ty (trip + 2) Ast.Zero ];
    mo_scalars = [ sc s (Prng.int_in rng 0 5) ];
    mo_stmts =
      [
        Ast.Let (x, Ast.Load (a, i_var));
        Ast.Store (b, i_var, Ast.Var s);
        Ast.Assign (s, Ast.Binop (op, Ast.Var s, Ast.Var x));
      ];
  }

(* bus contention: an aliased strided pair plus junk store traffic that
   congests the memory buses (the Figure 2 scenario) *)
let contend rng ~slot ~trip =
  let a = Printf.sprintf "a%d" slot
  and j = Printf.sprintf "j%d" slot
  and x = Printf.sprintf "x%d" slot
  and s = Printf.sprintf "s%d" slot in
  let d = Prng.int_in rng 1 3 in
  {
    mo_label = "contend";
    mo_arrays =
      [
        arr a Ast.I32 ((4 * trip) + (4 * d) + 2) (rand_init rng);
        arr j Ast.I32 ((5 * trip) + 2) Ast.Zero;
      ];
    mo_scalars = [ sc s 0 ];
    mo_stmts =
      [
        Ast.Store (j, aff 3 0, i_var);
        Ast.Store (j, aff 5 1, i_var);
        Ast.Store
          (a, aff 4 (4 * d), Ast.Binop (Ast.Mul, i_var, Ast.Int 5L));
        Ast.Let (x, Ast.Load (a, aff 4 0));
        Ast.Assign (s, Ast.Binop (Ast.Add, Ast.Var s, Ast.Var x));
      ];
  }

(* directory race: a hot address loaded (installing an Attraction-Buffer
   replica) and stored close together every iteration, next to junk store
   traffic keeping fills in flight — under the directory backend the
   store's invalidate races the load's pending fill (the ab-fill-fresh
   class); under the bus it degenerates to a tight MF/MA pair *)
let dir_race rng ~slot ~trip =
  let a = Printf.sprintf "a%d" slot
  and j = Printf.sprintf "j%d" slot
  and x = Printf.sprintf "x%d" slot
  and s = Printf.sprintf "s%d" slot in
  let ty = Prng.choice rng [| Ast.I32; Ast.I64 |] in
  let c = Prng.int rng 4 in
  {
    mo_label = "dir-race";
    mo_arrays =
      [
        arr a ty (trip + 2) (rand_init rng);
        arr j Ast.I32 ((3 * trip) + 2) Ast.Zero;
      ];
    mo_scalars = [ sc s 0 ];
    mo_stmts =
      [
        Ast.Let (x, Ast.Load (a, aff 0 c));
        Ast.Store (a, aff 0 c, rand_val rng [| i_var; Ast.Var x |]);
        Ast.Store (j, aff 3 0, i_var);
        Ast.Assign (s, Ast.Binop (Ast.Add, Ast.Var s, Ast.Var x));
      ];
  }

(* protocol race: two hot addresses each loaded (installing a replica)
   then stored every iteration — under MSI/MESI the stores' execute-time
   upgrades bounce the lines between clusters (S->M upgrade vs snooped
   invalidation; under MESI also E->M silent upgrades and E/M->S
   downgrades when a remote fill takes the line back) *)
let prot_race rng ~slot ~trip =
  let a = Printf.sprintf "a%d" slot
  and x = Printf.sprintf "x%d" slot
  and y = Printf.sprintf "y%d" slot
  and s = Printf.sprintf "s%d" slot in
  let ty = Prng.choice rng [| Ast.I32; Ast.I64 |] in
  let c1 = Prng.int rng 3 in
  let c2 = c1 + Prng.int_in rng 1 4 in
  {
    mo_label = "prot-race";
    mo_arrays = [ arr a ty (c2 + trip + 2) (rand_init rng) ];
    mo_scalars = [ sc s 0 ];
    mo_stmts =
      [
        Ast.Let (x, Ast.Load (a, aff 0 c1));
        Ast.Store (a, aff 0 c1, rand_val rng [| i_var; Ast.Var x |]);
        Ast.Let (y, Ast.Load (a, aff 0 c2));
        Ast.Store (a, aff 0 c2, rand_val rng [| i_var; Ast.Var y |]);
        Ast.Assign (s, Ast.Binop (Ast.Add, Ast.Var s, Ast.Binop (Ast.Xor, Ast.Var x, Ast.Var y)));
      ];
  }

(* fill race: a wide-striding load sweeps many subblocks (forcing
   Attraction-Buffer fills and capacity evictions to stay in flight)
   while a hot line is loaded and stored every iteration — the store's
   execute-time invalidation races the sweep's pending fills and the hot
   line's own eviction/reinstall *)
let fill_race rng ~slot ~trip =
  let a = Printf.sprintf "a%d" slot
  and b = Printf.sprintf "b%d" slot
  and x = Printf.sprintf "x%d" slot
  and y = Printf.sprintf "y%d" slot
  and s = Printf.sprintf "s%d" slot in
  let stride = Prng.choice rng [| 3; 4; 5 |] in
  let c = Prng.int rng 4 in
  {
    mo_label = "fill-race";
    mo_arrays =
      [
        arr a Ast.I32 ((stride * trip) + 2) (rand_init rng);
        arr b Ast.I32 (c + trip + 2) (rand_init rng);
      ];
    mo_scalars = [ sc s 0 ];
    mo_stmts =
      [
        Ast.Let (x, Ast.Load (a, aff stride 0));
        Ast.Let (y, Ast.Load (b, aff 0 c));
        Ast.Store (b, aff 0 c, rand_val rng [| i_var; Ast.Var y |]);
        Ast.Assign (s, Ast.Binop (Ast.Add, Ast.Var s, Ast.Binop (Ast.Add, Ast.Var x, Ast.Var y)));
      ];
  }

let motifs =
  [|
    mf_chain;
    ma_chain;
    mo_chain;
    self_output;
    may_alias;
    indirect;
    split_access;
    carried;
    contend;
    dir_race;
    prot_race;
    fill_race;
  |]

let shape_names =
  [
    "mf-chain";
    "ma-chain";
    "mo-chain";
    "self-output";
    "may-alias";
    "indirect";
    "split";
    "carried";
    "contend";
    "dir-race";
    "prot-race";
    "fill-race";
  ]

let generate ~seed ~budget index =
  let rng = stream ~seed ~index in
  let trip = Prng.int_in rng 8 32 in
  let n_motifs = max 1 (min 6 (budget / 8)) in
  let picked =
    List.init n_motifs (fun slot -> (Prng.choice rng motifs) rng ~slot ~trip)
  in
  let kernel =
    {
      Ast.k_name = Printf.sprintf "fuzz_%d_%d" seed index;
      k_arrays = List.concat_map (fun m -> m.mo_arrays) picked;
      k_scalars = List.concat_map (fun m -> m.mo_scalars) picked;
      k_trip = trip;
      k_body = List.concat_map (fun m -> m.mo_stmts) picked;
    }
  in
  (match Vliw_ir.Typecheck.check kernel with
  | Ok _ -> ()
  | Error e ->
    failwith
      (Printf.sprintf "fuzz generator built an ill-typed kernel (%d/%d): %s"
         seed index e));
  let mconf =
    (* explicit draw order: OCaml does not fix record-field evaluation
       order, and case identity must be stable across compilers *)
    let mc_base = Prng.choice rng [| "bal"; "bal"; "nobal-mem"; "nobal-reg" |] in
    let mc_clusters = Prng.choice rng [| 4; 4; 8; 16 |] in
    let mc_icn = Prng.choice rng [| "bus"; "directory" |] in
    let mc_interleave = Prng.choice rng [| 2; 4 |] in
    let mc_membus = Prng.int_in rng 1 4 in
    let mc_ab = Prng.bool rng in
    (* the protocol draw is always consumed (stream stability), and an
       invalidation protocol is the one the sampled backend carries *)
    let mc_protocol =
      Header.paired_protocol ~interconnect:mc_icn
        (if Prng.int rng 2 = 0 then "install-flush" else "msi")
    in
    { mc_base; mc_clusters; mc_icn; mc_interleave; mc_membus; mc_ab;
      mc_protocol }
  in
  let jitter = if Prng.bool rng then 0 else Prng.int_in rng 1 6 in
  {
    g_seed = seed;
    g_index = index;
    g_budget = budget;
    g_jitter = jitter;
    g_mconf = mconf;
    g_shapes = List.sort compare (List.map (fun m -> m.mo_label) picked);
    g_kernel = kernel;
  }

(* ---- repro files: '#' header directives + the kernel's own syntax, so
   the whole file is also a valid .lk source ---- *)

let to_file_string c =
  Printf.sprintf "# vliw-fuzz case\n# seed=%d index=%d budget=%d\n%s# shapes=%s\n%s"
    c.g_seed c.g_index c.g_budget
    (Header.to_line (header ~jitter:c.g_jitter c.g_mconf))
    (String.concat "," c.g_shapes)
    (Vliw_ir.Pp.kernel_to_string c.g_kernel)

let save path c =
  Out_channel.with_open_bin path (fun oc -> output_string oc (to_file_string c))

let of_file_string src =
  let kvs = Header.directives src and get = Option.get in
  let h = ok (Header.resolve (ok (Header.of_directives kvs))) in
  let label key =
    Option.value (Option.bind (Header.find key kvs) int_of_string_opt) ~default:0
  in
  let kernel = Vliw_ir.Parser.parse_kernel src in
  {
    g_seed = label "seed";
    g_index = label "index";
    g_budget = label "budget";
    g_jitter = Option.value h.jitter ~default:0;
    g_mconf =
      { mc_base = get h.machine; mc_clusters = get h.clusters;
        mc_icn = get h.interconnect; mc_interleave = get h.interleave;
        mc_membus = get h.membus; mc_ab = get h.ab; mc_protocol = get h.protocol };
    g_shapes =
      (match Header.find "shapes" kvs with
      | None | Some "" -> []
      | Some s -> String.split_on_char ',' s);
    g_kernel = kernel;
  }

let load path = of_file_string (In_channel.with_open_bin path In_channel.input_all)
