(* In-memory span recorder for the traced run.

   A span is opened around one call into a layer's public entry point
   and carries its name, start and end (host ns), the span that was
   open when it started, and the scenario/window id it belongs to.
   Spans are kept in memory and written out as JSON lines when the
   run ends.  A span's self time is its duration minus the part its
   direct children cover. *)

type span = {
  sp_idx : int;
  sp_name : string;
  sp_id : int;  (** scenario / window / search id *)
  sp_parent : int;  (** index of the enclosing span, -1 at top level *)
  sp_start : int;
  mutable sp_stop : int;
  mutable sp_child_ns : int;
}

type t = { mutable spans : span list; mutable count : int; mutable stack : span list }

let create () = { spans = []; count = 0; stack = [] }

let with_span t name ~id f =
  let parent = match t.stack with p :: _ -> p.sp_idx | [] -> -1 in
  let sp =
    {
      sp_idx = t.count;
      sp_name = name;
      sp_id = id;
      sp_parent = parent;
      sp_start = Measure.now_ns ();
      sp_stop = 0;
      sp_child_ns = 0;
    }
  in
  t.count <- t.count + 1;
  t.spans <- sp :: t.spans;
  t.stack <- sp :: t.stack;
  let close () =
    sp.sp_stop <- Measure.now_ns ();
    t.stack <- List.tl t.stack;
    match t.stack with
    | p :: _ -> p.sp_child_ns <- p.sp_child_ns + (sp.sp_stop - sp.sp_start)
    | [] -> ()
  in
  match f () with
  | v ->
    close ();
    v
  | exception e ->
    close ();
    raise e

let duration sp = sp.sp_stop - sp.sp_start
let self_ns sp = duration sp - sp.sp_child_ns
let all t = List.rev t.spans
let named t name = List.filter (fun sp -> sp.sp_name = name) (all t)

(* Durations of every span called [name], in µs. *)
let durations_us t name =
  Array.of_list (List.map (fun sp -> float_of_int (duration sp) /. 1e3) (named t name))

let total_ns t name = List.fold_left (fun a sp -> a + duration sp) 0 (named t name)
let total_self_ns t name = List.fold_left (fun a sp -> a + self_ns sp) 0 (named t name)

let to_json sp =
  Json.Obj
    [
      ("name", Json.String sp.sp_name);
      ("id", Json.Int sp.sp_id);
      ("idx", Json.Int sp.sp_idx);
      ("parent", Json.Int sp.sp_parent);
      ("start_ns", Json.Int sp.sp_start);
      ("end_ns", Json.Int sp.sp_stop);
      ("self_ns", Json.Int (self_ns sp));
    ]

let write t path =
  let oc = open_out path in
  List.iter
    (fun sp ->
      output_string oc (Json.to_string (to_json sp));
      output_char oc '\n')
    (all t);
  close_out oc

(* Per span name, in first-seen order: count, total and self time. *)
let summary t =
  let order = ref [] and tbl = Hashtbl.create 16 in
  List.iter
    (fun sp ->
      let n, total, self =
        match Hashtbl.find_opt tbl sp.sp_name with
        | Some v -> v
        | None ->
          order := sp.sp_name :: !order;
          (0, 0, 0)
      in
      Hashtbl.replace tbl sp.sp_name (n + 1, total + duration sp, self + self_ns sp))
    (all t);
  List.rev_map
    (fun name ->
      let n, total, self = Hashtbl.find tbl name in
      Json.Obj
        [
          ("name", Json.String name);
          ("count", Json.Int n);
          ("total_ns", Json.Int total);
          ("self_ns", Json.Int self);
        ])
    !order
