type t = {
  machine : string option;
  clusters : int option;
  interconnect : string option;
  interleave : int option;
  membus : int option;
  ab : bool option;
  jitter : int option;
  protocol : string option;
}

let none =
  { machine = None; clusters = None; interconnect = None; interleave = None;
    membus = None; ab = None; jitter = None; protocol = None }

let directives src =
  String.split_on_char '\n' src
  |> List.concat_map (fun line ->
         let line = String.trim line in
         if line = "" || line.[0] <> '#' then []
         else
           String.split_on_char ' ' (String.sub line 1 (String.length line - 1))
           |> List.filter_map (fun tok ->
                  Option.map
                    (fun i ->
                      (String.sub tok 0 i, String.sub tok (i + 1) (String.length tok - i - 1)))
                    (String.index_opt tok '=')))

let find key kvs =
  List.fold_left (fun acc (k, v) -> if k = key then Some v else acc) None kvs

let malformed key v expected =
  Printf.sprintf "header directive %s=%s: expected %s" key v expected

let label key kvs =
  match find key kvs with
  | None -> Ok None
  | Some v -> (
    match int_of_string_opt v with
    | Some n -> Ok (Some n)
    | None -> Error (malformed key v "an integer"))

let of_directives kvs =
  let exception Bad of string in
  let value key expected parse =
    Option.map
      (fun v ->
        match parse v with Some x -> x | None -> raise (Bad (malformed key v expected)))
      (find key kvs)
  in
  let at_least lo v =
    Option.bind (int_of_string_opt v) (fun n -> if n >= lo then Some n else None)
  in
  let positive key = value key "a positive integer" (at_least 1) in
  (* explicit order, so the first malformed key is the one reported *)
  match
    let machine = find "machine" kvs in
    let clusters = positive "clusters" in
    let interconnect = find "interconnect" kvs in
    let interleave = positive "interleave" in
    let membus = positive "membus" in
    let ab = value "ab" "0 or 1" (function "0" -> Some false | "1" -> Some true | _ -> None) in
    let jitter = value "jitter" "a non-negative integer" (at_least 0) in
    let protocol = find "protocol" kvs in
    { machine; clusters; interconnect; interleave; membus; ab; jitter; protocol }
  with
  | h -> Ok h
  | exception Bad e -> Error e

let over a b =
  let ( <|> ) x y = if Option.is_some x then x else y in
  { machine = a.machine <|> b.machine; clusters = a.clusters <|> b.clusters;
    interconnect = a.interconnect <|> b.interconnect;
    interleave = a.interleave <|> b.interleave; membus = a.membus <|> b.membus;
    ab = a.ab <|> b.ab; jitter = a.jitter <|> b.jitter;
    protocol = a.protocol <|> b.protocol }

(* [Machine.of_spec] defaults the cluster count, interconnect, protocol
   and memory-bus count; these are the rest *)
let default_machine = "bal"

let machine h =
  Machine.of_spec ?clusters:h.clusters ?icn:h.interconnect ?protocol:h.protocol
    ?membus:h.membus
    ~name:(Option.value h.machine ~default:default_machine)
    ~interleave:(Option.value h.interleave ~default:4)
    ~ab:(h.ab = Some true) ()

let resolve h =
  Result.map
    (fun (m : Machine.t) ->
      {
        machine = Some (Option.value h.machine ~default:default_machine);
        clusters = Some m.clusters;
        interconnect = Some (Machine.interconnect_name m.interconnect);
        interleave = Some m.interleave_bytes;
        membus = Some m.mem_buses.bus_count;
        ab = Some (m.attraction <> None);
        jitter = h.jitter;
        protocol = Some (Machine.protocol_name m.protocol);
      })
    (machine h)

let to_line h =
  let field key show = Option.map (fun v -> key ^ "=" ^ show v) in
  List.filter_map Fun.id
    [
      field "machine" Fun.id h.machine;
      field "clusters" string_of_int h.clusters;
      field "interconnect" Fun.id h.interconnect;
      field "interleave" string_of_int h.interleave;
      field "membus" string_of_int h.membus;
      field "ab" (fun b -> if b then "1" else "0") h.ab;
      field "jitter" string_of_int h.jitter;
      field "protocol" Fun.id h.protocol;
    ]
  |> String.concat " "
  |> Printf.sprintf "# %s\n"

let paired_protocol ~interconnect p =
  if p = "install-flush" then p else if interconnect = "bus" then "msi" else "mesi"
