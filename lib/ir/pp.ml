open Ast

(* Precedence levels, mirroring the parser: higher binds tighter. *)
let prec_of_binop = function
  | Or -> 1 | Xor -> 2 | And -> 3
  | Eq | Ne | Lt | Le -> 4
  | Shl | Shr -> 5
  | Add | Sub -> 6
  | Mul | Div | Rem -> 7
  | Min | Max -> 9 (* printed as calls *)

let binop_sym = function
  | Add -> "+" | Sub -> "-" | Mul -> "*" | Div -> "/" | Rem -> "%"
  | And -> "&" | Or -> "|" | Xor -> "^" | Shl -> "<<" | Shr -> ">>"
  | Eq -> "==" | Ne -> "!=" | Lt -> "<" | Le -> "<="
  | Min -> "min" | Max -> "max"

let rec expr_prec buf prec e =
  let paren p body =
    if p < prec then (
      Buffer.add_char buf '(';
      body ();
      Buffer.add_char buf ')')
    else body ()
  in
  match e with
  | Int n ->
    if Int64.compare n 0L < 0 then
      paren 8 (fun () -> Buffer.add_string buf (Int64.to_string n))
    else Buffer.add_string buf (Int64.to_string n)
  | Var v -> Buffer.add_string buf v
  | Load (arr, idx) ->
    Buffer.add_string buf arr;
    Buffer.add_char buf '[';
    expr_prec buf 0 idx;
    Buffer.add_char buf ']'
  | Unop (Neg, a) ->
    paren 8 (fun () ->
        Buffer.add_char buf '-';
        expr_prec buf 8 a)
  | Unop (Not, a) ->
    paren 8 (fun () ->
        Buffer.add_char buf '~';
        expr_prec buf 8 a)
  | Unop (Abs, a) ->
    Buffer.add_string buf "abs(";
    expr_prec buf 0 a;
    Buffer.add_char buf ')'
  | Binop (((Min | Max) as op), a, b) ->
    Buffer.add_string buf (binop_sym op);
    Buffer.add_char buf '(';
    expr_prec buf 0 a;
    Buffer.add_string buf ", ";
    expr_prec buf 0 b;
    Buffer.add_char buf ')'
  | Binop (op, a, b) ->
    let p = prec_of_binop op in
    paren p (fun () ->
        expr_prec buf p a;
        Buffer.add_char buf ' ';
        Buffer.add_string buf (binop_sym op);
        Buffer.add_char buf ' ';
        (* left-associative: right child needs strictly higher precedence *)
        expr_prec buf (p + 1) b)
  | Select (c, a, b) ->
    Buffer.add_string buf "select(";
    expr_prec buf 0 c;
    Buffer.add_string buf ", ";
    expr_prec buf 0 a;
    Buffer.add_string buf ", ";
    expr_prec buf 0 b;
    Buffer.add_char buf ')'

let expr_to_string e =
  let buf = Buffer.create 64 in
  expr_prec buf 0 e;
  Buffer.contents buf

let stmt_to_string = function
  | Let (v, e) -> Printf.sprintf "let %s = %s" v (expr_to_string e)
  | Store (arr, idx, v) ->
    Printf.sprintf "%s[%s] = %s" arr (expr_to_string idx) (expr_to_string v)
  | Assign (v, e) -> Printf.sprintf "%s = %s" v (expr_to_string e)

let init_to_string = function
  | Zero -> "zero"
  | Ramp (a, b) -> Printf.sprintf "ramp(%d, %d)" a b
  | Random s -> Printf.sprintf "random(%d)" s
  | Modpat m -> Printf.sprintf "modpat(%d)" m

let kernel_to_string k =
  let buf = Buffer.create 512 in
  Buffer.add_string buf (Printf.sprintf "kernel %s {\n" k.k_name);
  List.iter
    (fun a ->
      Buffer.add_string buf
        (Printf.sprintf "  array %s : %s[%d] = %s%s\n" a.arr_name
           (ty_name a.arr_ty) a.arr_len (init_to_string a.arr_init)
           (match a.arr_may_overlap with
           | None -> ""
           | Some o -> " mayoverlap " ^ o)))
    k.k_arrays;
  List.iter
    (fun s ->
      Buffer.add_string buf
        (Printf.sprintf "  scalar %s : %s = %Ld\n" s.sc_name (ty_name s.sc_ty)
           s.sc_init))
    k.k_scalars;
  Buffer.add_string buf (Printf.sprintf "  trip %d\n" k.k_trip);
  Buffer.add_string buf "  body {\n";
  List.iter
    (fun st -> Buffer.add_string buf ("    " ^ stmt_to_string st ^ "\n"))
    k.k_body;
  Buffer.add_string buf "  }\n}\n";
  Buffer.contents buf
