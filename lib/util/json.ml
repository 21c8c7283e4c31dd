type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | List of t list
  | Obj of (string * t) list

let escape s =
  let b = Buffer.create (String.length s + 2) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | '\r' -> Buffer.add_string b "\\r"
      | '\t' -> Buffer.add_string b "\\t"
      | c when Char.code c < 0x20 ->
        Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.contents b

(* shortest of two representations that round-trips *)
let float_repr f =
  let s = Printf.sprintf "%.17g" f in
  let shorter = Printf.sprintf "%.12g" f in
  if float_of_string shorter = f then shorter else s

let to_string ?(indent = 2) v =
  let b = Buffer.create 256 in
  let pad depth =
    if indent > 0 then (
      Buffer.add_char b '\n';
      Buffer.add_string b (String.make (depth * indent) ' '))
  in
  let rec go depth = function
    | Null -> Buffer.add_string b "null"
    | Bool x -> Buffer.add_string b (string_of_bool x)
    | Int i -> Buffer.add_string b (string_of_int i)
    | Float f ->
      Buffer.add_string b (if Float.is_finite f then float_repr f else "null")
    | String s ->
      Buffer.add_char b '"';
      Buffer.add_string b (escape s);
      Buffer.add_char b '"'
    | List [] -> Buffer.add_string b "[]"
    | List xs ->
      Buffer.add_char b '[';
      List.iteri
        (fun i x ->
          if i > 0 then Buffer.add_char b ',';
          pad (depth + 1);
          go (depth + 1) x)
        xs;
      pad depth;
      Buffer.add_char b ']'
    | Obj [] -> Buffer.add_string b "{}"
    | Obj kvs ->
      Buffer.add_char b '{';
      List.iteri
        (fun i (k, x) ->
          if i > 0 then Buffer.add_char b ',';
          pad (depth + 1);
          Buffer.add_char b '"';
          Buffer.add_string b (escape k);
          Buffer.add_string b (if indent > 0 then "\": " else "\":");
          go (depth + 1) x)
        kvs;
      pad depth;
      Buffer.add_char b '}'
  in
  go 0 v;
  Buffer.contents b

let to_channel ?indent oc v =
  output_string oc (to_string ?indent v);
  output_char oc '\n'

exception Parse_error of string

let parse_error fmt = Printf.ksprintf (fun s -> raise (Parse_error s)) fmt

(* Recursive-descent parser for the subset this library emits (all of JSON
   except that numbers without fraction/exponent that fit an OCaml int are
   read back as [Int]). *)
let of_string s =
  let n = String.length s in
  let pos = ref 0 in
  let peek () = if !pos < n then Some s.[!pos] else None in
  let advance () = incr pos in
  let skip_ws () =
    while
      !pos < n
      && match s.[!pos] with ' ' | '\t' | '\n' | '\r' -> true | _ -> false
    do
      advance ()
    done
  in
  let expect c =
    if !pos < n && s.[!pos] = c then advance ()
    else parse_error "expected '%c' at offset %d" c !pos
  in
  let literal word v =
    let l = String.length word in
    if !pos + l <= n && String.sub s !pos l = word then (
      pos := !pos + l;
      v)
    else parse_error "invalid literal at offset %d" !pos
  in
  let parse_string () =
    expect '"';
    let b = Buffer.create 16 in
    let rec go () =
      if !pos >= n then parse_error "unterminated string"
      else
        match s.[!pos] with
        | '"' -> advance ()
        | '\\' ->
          advance ();
          (if !pos >= n then parse_error "unterminated escape"
           else
             match s.[!pos] with
             | '"' -> Buffer.add_char b '"'; advance ()
             | '\\' -> Buffer.add_char b '\\'; advance ()
             | '/' -> Buffer.add_char b '/'; advance ()
             | 'b' -> Buffer.add_char b '\b'; advance ()
             | 'f' -> Buffer.add_char b '\012'; advance ()
             | 'n' -> Buffer.add_char b '\n'; advance ()
             | 'r' -> Buffer.add_char b '\r'; advance ()
             | 't' -> Buffer.add_char b '\t'; advance ()
             | 'u' ->
               advance ();
               if !pos + 4 > n then parse_error "truncated \\u escape"
               else (
                 let code =
                   try int_of_string ("0x" ^ String.sub s !pos 4)
                   with _ -> parse_error "bad \\u escape at offset %d" !pos
                 in
                 pos := !pos + 4;
                 (* encode the code point as UTF-8; surrogates are kept as
                    their raw value, which round-trips our own emitter's
                    control-character escapes *)
                 if code < 0x80 then Buffer.add_char b (Char.chr code)
                 else if code < 0x800 then (
                   Buffer.add_char b (Char.chr (0xC0 lor (code lsr 6)));
                   Buffer.add_char b (Char.chr (0x80 lor (code land 0x3F))))
                 else (
                   Buffer.add_char b (Char.chr (0xE0 lor (code lsr 12)));
                   Buffer.add_char b
                     (Char.chr (0x80 lor ((code lsr 6) land 0x3F)));
                   Buffer.add_char b (Char.chr (0x80 lor (code land 0x3F)))))
             | c -> parse_error "bad escape '\\%c'" c);
          go ()
        | c ->
          Buffer.add_char b c;
          advance ();
          go ()
    in
    go ();
    Buffer.contents b
  in
  let parse_number () =
    let start = !pos in
    if peek () = Some '-' then advance ();
    let is_digit () =
      match peek () with Some ('0' .. '9') -> true | _ -> false
    in
    while is_digit () do
      advance ()
    done;
    let integral = ref true in
    (if peek () = Some '.' then (
       integral := false;
       advance ();
       while is_digit () do
         advance ()
       done));
    (match peek () with
    | Some ('e' | 'E') ->
      integral := false;
      advance ();
      (match peek () with Some ('+' | '-') -> advance () | _ -> ());
      while is_digit () do
        advance ()
      done
    | _ -> ());
    let text = String.sub s start (!pos - start) in
    if !integral then
      match int_of_string_opt text with
      | Some i -> Int i
      | None -> Float (float_of_string text)
    else
      match float_of_string_opt text with
      | Some f -> Float f
      | None -> parse_error "bad number %S at offset %d" text start
  in
  let rec parse_value () =
    skip_ws ();
    match peek () with
    | None -> parse_error "unexpected end of input"
    | Some '{' ->
      advance ();
      skip_ws ();
      if peek () = Some '}' then (
        advance ();
        Obj [])
      else (
        let kvs = ref [] in
        let rec member () =
          skip_ws ();
          let k = parse_string () in
          skip_ws ();
          expect ':';
          let v = parse_value () in
          kvs := (k, v) :: !kvs;
          skip_ws ();
          match peek () with
          | Some ',' -> advance (); member ()
          | Some '}' -> advance ()
          | _ -> parse_error "expected ',' or '}' at offset %d" !pos
        in
        member ();
        Obj (List.rev !kvs))
    | Some '[' ->
      advance ();
      skip_ws ();
      if peek () = Some ']' then (
        advance ();
        List [])
      else (
        let xs = ref [] in
        let rec element () =
          let v = parse_value () in
          xs := v :: !xs;
          skip_ws ();
          match peek () with
          | Some ',' -> advance (); element ()
          | Some ']' -> advance ()
          | _ -> parse_error "expected ',' or ']' at offset %d" !pos
        in
        element ();
        List (List.rev !xs))
    | Some '"' -> String (parse_string ())
    | Some 't' -> literal "true" (Bool true)
    | Some 'f' -> literal "false" (Bool false)
    | Some 'n' -> literal "null" Null
    | Some ('-' | '0' .. '9') -> parse_number ()
    | Some c -> parse_error "unexpected character '%c' at offset %d" c !pos
  in
  let v = parse_value () in
  skip_ws ();
  if !pos <> n then parse_error "trailing garbage at offset %d" !pos;
  v

let of_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> of_string (really_input_string ic (in_channel_length ic)))

let member key = function
  | Obj kvs -> List.assoc_opt key kvs
  | _ -> None

let to_int_opt = function Int i -> Some i | _ -> None
let to_list_opt = function List xs -> Some xs | _ -> None
let to_string_opt = function String s -> Some s | _ -> None
let to_bool_opt = function Bool b -> Some b | _ -> None
