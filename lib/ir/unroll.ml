open Ast

(* Substitute [repl] for every read of the induction variable. *)
let rec subst_i repl e =
  match e with
  | Int _ -> e
  | Var v -> if v = induction_var then repl else e
  | Load (arr, idx) -> Load (arr, subst_i repl idx)
  | Unop (op, a) -> Unop (op, subst_i repl a)
  | Binop (op, a, b) -> Binop (op, subst_i repl a, subst_i repl b)
  | Select (c, a, b) -> Select (subst_i repl c, subst_i repl a, subst_i repl b)

let unroll ~factor (k : kernel) =
  if factor <= 0 then invalid_arg "Unroll.unroll: factor must be positive";
  if factor = 1 then k
  else if k.k_trip mod factor <> 0 then
    invalid_arg
      (Printf.sprintf "Unroll.unroll: factor %d does not divide trip %d" factor
         k.k_trip)
  else (
    let taken = Hashtbl.create 16 in
    List.iter (fun d -> Hashtbl.replace taken d.arr_name ()) k.k_arrays;
    List.iter (fun s -> Hashtbl.replace taken s.sc_name ()) k.k_scalars;
    List.iter
      (fun st -> match st with Let (v, _) -> Hashtbl.replace taken v () | _ -> ())
      k.k_body;
    (* a generated name the kernel already declares takes the first free
       [_<n>] suffix; names that do not collide stay as they are *)
    let fresh base =
      let rec free n =
        let name = if n = 0 then base else Printf.sprintf "%s_%d" base n in
        if Hashtbl.mem taken name then free (n + 1) else name
      in
      let name = free 0 in
      Hashtbl.replace taken name ();
      name
    in
    let scalars = List.map (fun s -> s.sc_name) k.k_scalars in
    (* an Assign truncates to the scalar's type; the intermediate Lets that
       replace non-final assigns must reproduce that. Narrow integers get
       an explicit shift pair (arithmetic shift right sign-extends); f32
       operations already mask their results, and i64/f64 are identity. *)
    let truncate_like s e =
      let d = List.find (fun d -> d.sc_name = s) k.k_scalars in
      match d.sc_ty with
      | I8 | I16 | I32 ->
        let bits = Int64.of_int (64 - (8 * ty_bytes d.sc_ty)) in
        Binop (Shr, Binop (Shl, e, Int bits), Int bits)
      | I64 | F32 | F64 -> e
    in
    let body = ref [] in
    let emit st = body := st :: !body in
    (* [carrier s] = the name currently holding scalar [s]'s value at the
       start of the copy being generated: the scalar itself for copy 0,
       then the temp each earlier copy's Assign produced. Reads inside a
       copy never see that same copy's Assign (the IR's start-of-iteration
       rule), so carriers only advance between copies. *)
    let carrier = Hashtbl.create 4 in
    List.iter (fun s -> Hashtbl.replace carrier s s) scalars;
    for copy = 0 to factor - 1 do
      let repl =
        Binop
          ( Add,
            Binop (Mul, Int (Int64.of_int factor), Var induction_var),
            Int (Int64.of_int copy) )
      in
      let env = Hashtbl.create 8 in
      (* per-copy temp renaming + scalar reads through the carriers *)
      let rec rn e =
        match e with
        | Int _ -> e
        | Var v -> (
          match Hashtbl.find_opt env v with
          | Some v' -> Var v'
          | None -> (
            match Hashtbl.find_opt carrier v with
            | Some c -> Var c
            | None -> e))
        | Load (arr, idx) -> Load (arr, rn idx)
        | Unop (op, a) -> Unop (op, rn a)
        | Binop (op, a, b) -> Binop (op, rn a, rn b)
        | Select (c, a, b) -> Select (rn c, rn a, rn b)
      in
      let pending = ref [] in
      List.iter
        (fun st ->
          match st with
          | Let (v, e) ->
            let v' = fresh (Printf.sprintf "%s_u%d" v copy) in
            let e' = subst_i repl (rn e) in
            Hashtbl.replace env v v';
            emit (Let (v', e'))
          | Store (arr, idx, value) ->
            emit (Store (arr, subst_i repl (rn idx), subst_i repl (rn value)))
          | Assign (s, e) ->
            let e' = subst_i repl (rn e) in
            if copy = factor - 1 then emit (Assign (s, e'))
            else (
              let v' = fresh (Printf.sprintf "%s_u%d" s copy) in
              emit (Let (v', truncate_like s e'));
              pending := (s, v') :: !pending))
        k.k_body;
      List.iter (fun (s, v') -> Hashtbl.replace carrier s v') !pending
    done;
    { k with k_trip = k.k_trip / factor; k_body = List.rev !body })
