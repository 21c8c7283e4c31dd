module Json = Vliw_util.Json
module S = Vliw_sched.Schedule
module Sim = Vliw_sim.Sim
module V = Vliw_verify.Verify

type request = {
  rq_id : int;
  rq_kernel : string;
  rq_technique : S.technique;
  rq_heuristic : S.heuristic;
  rq_ordering : Vliw_sched.Ims.ordering;
  rq_machine : string option;
  rq_interleave : int option;
  rq_ab : bool option;
  rq_pad : int;
  rq_unroll : int option;
  rq_cse : bool;
  rq_verify : bool;
  rq_execution : bool;
  rq_protocol : string option;
}

let request ?(technique = S.Free) ?(heuristic = S.Min_coms)
    ?(ordering = Vliw_sched.Ims.Height) ?machine ?interleave ?ab ?(pad = 0)
    ?unroll ?(cse = false) ?(verify = false) ?(execution = false) ?protocol
    ~id kernel =
  {
    rq_id = id;
    rq_kernel = kernel;
    rq_technique = technique;
    rq_heuristic = heuristic;
    rq_ordering = ordering;
    rq_machine = machine;
    rq_interleave = interleave;
    rq_ab = ab;
    rq_pad = pad;
    rq_unroll = unroll;
    rq_cse = cse;
    rq_verify = verify;
    rq_execution = execution;
    rq_protocol = protocol;
  }

(* Canonical field order; [key] depends on it, so keep it stable. The
   machine fields appear only when set: absent, the kernel's header
   directives decide. *)
let spec_fields r =
  let given k f = Option.fold ~none:[] ~some:(fun v -> [ (k, f v) ]) in
  [
    ("kernel", Json.String r.rq_kernel);
    ( "technique",
      Json.String (String.lowercase_ascii (S.technique_name r.rq_technique)) );
    ( "heuristic",
      Json.String (String.lowercase_ascii (S.heuristic_name r.rq_heuristic)) );
    ("ordering", Json.String (Vliw_sched.Ims.ordering_name r.rq_ordering));
  ]
  @ given "machine" (fun v -> Json.String v) r.rq_machine
  @ given "interleave" (fun v -> Json.Int v) r.rq_interleave
  @ given "ab" (fun v -> Json.Bool v) r.rq_ab
  @ [
      ("pad", Json.Int r.rq_pad);
      ( "unroll",
        match r.rq_unroll with None -> Json.Null | Some f -> Json.Int f );
      ("cse", Json.Bool r.rq_cse);
      ("verify", Json.Bool r.rq_verify);
      ("execution", Json.Bool r.rq_execution);
    ]
  @ given "protocol" (fun v -> Json.String v) r.rq_protocol

let request_to_json r = Json.Obj (("id", Json.Int r.rq_id) :: spec_fields r)

let key r =
  Digest.to_hex
    (Digest.string (Json.to_string ~indent:0 (Json.Obj (spec_fields r))))

let request_of_json j =
  let ( let* ) = Result.bind in
  (* every field but the kernel is optional: absent or null is [None],
     which {!request} defaults *)
  let opt k what conv =
    match Json.member k j with
    | None | Some Json.Null -> Ok None
    | Some v -> (
      match conv v with
      | Some x -> Ok (Some x)
      | None -> Error (Printf.sprintf "field %S must be %s" k what))
  in
  let int k = opt k "an integer" Json.to_int_opt
  and nat k =
    opt k "a non-negative integer" (fun v ->
        Option.bind (Json.to_int_opt v) (fun n -> if n < 0 then None else Some n))
  and bool k = opt k "a boolean" Json.to_bool_opt
  and str k = opt k "a string" Json.to_string_opt in
  let named k of_name =
    let* s = str k in
    match Option.map (fun s -> (s, of_name s)) s with
    | Some (s, None) -> Error (Printf.sprintf "unknown %s %S" k s)
    | v -> Ok (Option.bind v snd)
  in
  match Option.bind (Json.member "kernel" j) Json.to_string_opt with
  | None -> Error "request is missing the \"kernel\" field"
  | Some kernel ->
    let* id = int "id" in
    let* technique = named "technique" S.technique_of_name in
    let* heuristic = named "heuristic" S.heuristic_of_name in
    let* ordering = named "ordering" Vliw_sched.Ims.ordering_of_name in
    let* machine = str "machine" in
    let* interleave = int "interleave" in
    let* ab = bool "ab" in
    let* pad = nat "pad" in
    let* unroll = nat "unroll" in
    let* cse = bool "cse" in
    let* verify = bool "verify" in
    let* execution = bool "execution" in
    let* protocol = str "protocol" in
    (* model checking enumerates interleavings for minutes at a time —
       refuse it here rather than wedge a shared service worker on one
       request; vliwc --check is the supported path *)
    let* check = bool "check" in
    if check = Some true then
      Error
        (Format.asprintf "%a" Vliw_util.Diag.pp
           (Vliw_util.Diag.make Vliw_util.Diag.Error ~code:"check-unsupported"
              "model checking is not served: run vliwc --check on the kernel \
               instead"))
    else
      Ok
        (request ?technique ?heuristic ?ordering ?machine ?interleave ?ab ?pad
           ?unroll ?cse ?verify ?execution ?protocol
           ~id:(Option.value id ~default:0) kernel)

(* ---- responses ---- *)

let stats_json (st : Sim.stats) =
  Json.Obj
    [
      ("cycles", Json.Int st.Sim.total_cycles);
      ("compute", Json.Int st.Sim.compute_cycles);
      ("stall", Json.Int st.Sim.stall_cycles);
      ("local_hits", Json.Int st.Sim.local_hits);
      ("remote_hits", Json.Int st.Sim.remote_hits);
      ("local_misses", Json.Int st.Sim.local_misses);
      ("remote_misses", Json.Int st.Sim.remote_misses);
      ("combined", Json.Int st.Sim.combined);
      ("violations", Json.Int st.Sim.violations);
      ("nullified", Json.Int st.Sim.nullified);
      ("ab_hits", Json.Int st.Sim.ab_hits);
      ("ab_flushed", Json.Int st.Sim.ab_flushed);
      ("prot_invalidations", Json.Int st.Sim.prot_invalidations);
      ("prot_upgrades", Json.Int st.Sim.prot_upgrades);
      ("prot_exclusive_hits", Json.Int st.Sim.prot_exclusive_hits);
    ]

let summary_json (s : Engine.summary) =
  Json.Obj
    [
      ("name", Json.String s.Engine.s_name);
      ("digest", Json.String s.Engine.s_digest);
      ( "verified",
        match s.Engine.s_report with
        | None -> Json.Null
        | Some r -> Json.Bool r.V.r_verified );
      ("stats", stats_json s.Engine.s_stats);
    ]

(* The id-independent result of serving one spec: a pure function of the
   spec fields, so it is shareable across deduplicated requests and must
   stay byte-stable at any pool width. *)
type outcome = {
  o_output : string;  (** vliwc's stdout, byte for byte *)
  o_error : string option;  (** vliwc's stderr line, when it would exit nonzero *)
  o_exit : int;  (** vliwc's exit code: 0, 1 (compile), 2 (bad machine) *)
  o_kernels : Json.t list;  (** per-kernel {!summary_json} *)
}

type reply = Done of outcome | Retry of { after_ms : int; depth : int }

let reply_to_json ~id = function
  | Done o ->
    Json.Obj
      [
        ("id", Json.Int id);
        ("status", Json.String (if o.o_exit = 0 then "ok" else "error"));
        ("exit", Json.Int o.o_exit);
        ("output", Json.String o.o_output);
        ( "message",
          match o.o_error with None -> Json.Null | Some m -> Json.String m );
        ("kernels", Json.List o.o_kernels);
      ]
  | Retry { after_ms; depth } ->
    Json.Obj
      [
        ("id", Json.Int id);
        ("status", Json.String "retry");
        ("retry_after_ms", Json.Int after_ms);
        ("queue_depth", Json.Int depth);
      ]

let reply_of_json j =
  let mem k = Json.member k j in
  let id = Option.value (Option.bind (mem "id") Json.to_int_opt) ~default:0 in
  match Option.bind (mem "status") Json.to_string_opt with
  | Some ("ok" | "error") ->
    let outcome =
      {
        o_output =
          Option.value
            (Option.bind (mem "output") Json.to_string_opt)
            ~default:"";
        o_error = Option.bind (mem "message") Json.to_string_opt;
        o_exit =
          Option.value (Option.bind (mem "exit") Json.to_int_opt) ~default:0;
        o_kernels =
          Option.value
            (Option.bind (mem "kernels") Json.to_list_opt)
            ~default:[];
      }
    in
    Ok (id, Done outcome)
  | Some "retry" ->
    let geti k d =
      Option.value (Option.bind (mem k) Json.to_int_opt) ~default:d
    in
    Ok
      ( id,
        Retry
          { after_ms = geti "retry_after_ms" 1; depth = geti "queue_depth" 0 }
      )
  | Some s -> Error (Printf.sprintf "unknown response status %S" s)
  | None -> Error "response is missing the \"status\" field"

(* One request/response per line: compact rendering, no interior newlines. *)
let to_line j = Json.to_string ~indent:0 j
