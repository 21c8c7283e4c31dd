(* In-memory span recorder for the traced run.

   A span covers one call into a layer: its layer name, start and end
   (wall seconds), the op it belongs to, the span that caused it, and the
   minor-heap words allocated while it was open. Spans are kept in memory
   and only written out at exit, so recording costs two clock reads, two
   allocation-counter reads and one record per call. A layer's self time
   is its spans' durations minus the parts their child spans cover, so
   the self times of every layer sum exactly to the root spans' time. *)

type span = {
  id : int;
  parent : int;  (** id of the enclosing span; -1 for an op's root *)
  op : int;
  layer : string;
  start : float;
  stop : float;
  words : float;  (** minor words allocated between start and stop *)
}

let recorded : span list ref = ref []
let stack : int list ref = ref []
let next_id = ref 0
let current_op = ref 0
let enabled = ref false

let set_op op = current_op := op

let record layer f =
  if not !enabled then f ()
  else begin
    let id = !next_id in
    incr next_id;
    let parent = match !stack with p :: _ -> p | [] -> -1 in
    stack := id :: !stack;
    let w0 = Gc.minor_words () in
    let t0 = Unix.gettimeofday () in
    let finish () =
      let t1 = Unix.gettimeofday () in
      let w1 = Gc.minor_words () in
      stack := List.tl !stack;
      recorded :=
        { id; parent; op = !current_op; layer; start = t0; stop = t1;
          words = w1 -. w0 }
        :: !recorded
    in
    match f () with
    | v ->
      finish ();
      v
    | exception e ->
      finish ();
      raise e
  end

let all () =
  let a = Array.of_list !recorded in
  Array.sort (fun x y -> compare x.id y.id) a;
  a

type layer_total = {
  mutable self_s : float;
  mutable calls : int;
  mutable self_words : float;
}

(* Self time and self allocation per layer over the spans [keep] selects,
   plus the summed duration of their root spans. [spans] is [all ()]. *)
let totals ?(keep = fun _ -> true) spans =
  let n = Array.length spans in
  let child_s = Array.make n 0. and child_w = Array.make n 0. in
  Array.iter
    (fun s ->
      if s.parent >= 0 then begin
        child_s.(s.parent) <- child_s.(s.parent) +. (s.stop -. s.start);
        child_w.(s.parent) <- child_w.(s.parent) +. s.words
      end)
    spans;
  let tbl = Hashtbl.create 16 in
  let root_s = ref 0. in
  let add i s =
    let t =
      match Hashtbl.find_opt tbl s.layer with
      | Some t -> t
      | None ->
        let t = { self_s = 0.; calls = 0; self_words = 0. } in
        Hashtbl.add tbl s.layer t;
        t
    in
    t.self_s <- t.self_s +. (s.stop -. s.start -. child_s.(i));
    t.calls <- t.calls + 1;
    t.self_words <- t.self_words +. (s.words -. child_w.(i));
    if s.parent < 0 then root_s := !root_s +. (s.stop -. s.start)
  in
  Array.iteri (fun i s -> if keep s then add i s) spans;
  (tbl, !root_s)

let write path spans =
  let t0 = if Array.length spans = 0 then 0. else spans.(0).start in
  let oc = open_out path in
  output_string oc "id\tparent\top\tlayer\tstart_s\tend_s\tminor_words\n";
  Array.iter
    (fun s ->
      Printf.fprintf oc "%d\t%d\t%d\t%s\t%.6f\t%.6f\t%.0f\n" s.id s.parent s.op
        s.layer (s.start -. t0) (s.stop -. t0) s.words)
    spans;
  close_out oc
