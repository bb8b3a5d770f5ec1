(* The fault-plan DSL: variants, concrete syntax, canonical renderer.

   The syntax is deliberately flat (kind:k=v,k=v;...) so plans travel
   well on a command line and in CI configuration; the parser is a
   hand-rolled splitter rather than a real grammar — every value is an
   integer or a suffixed duration. *)

type fault =
  | Wcet_scale of { tid : int; pct : int; from_job : int }
  | Wcet_add of { tid : int; extra : Model.Time.t; from_job : int }
  | Release_jitter of { tid : int; amplitude : Model.Time.t }
  | Irq_storm of {
      irq : int;
      at : Model.Time.t;
      count : int;
      spacing : Model.Time.t;
    }
  | Irq_drop of { irq : int; one_in : int }
  | Lost_signal of { wq : int; one_in : int }
  | Sporadic_burst of {
      tid : int;
      at : Model.Time.t;
      count : int;
      spacing : Model.Time.t;
    }
  | Clock_drift of { ppm : int }
  (* fabric faults — pure data here; [lib/fabric] interprets them (the
     injector in this library drives single-node kernels and treats
     them as inert) *)
  | Frame_drop of { one_in : int }
  | Frame_corrupt of { one_in : int }
  | Node_crash of { node : int; at : Model.Time.t }
  | Node_restart of { node : int; at : Model.Time.t }
  | Link_partition of {
      a : int;
      b : int;
      from_ : Model.Time.t;
      until : Model.Time.t;
    }

type t = fault list

let empty = []

(* ------------------------------------------------------------------ *)
(* Parsing *)

let duration_of_string s =
  let num_and cut mul =
    let n = String.sub s 0 (String.length s - cut) in
    Option.map (fun v -> v * mul) (int_of_string_opt n)
  in
  if Filename.check_suffix s "ms" then num_and 2 1_000_000
  else if Filename.check_suffix s "us" then num_and 2 1_000
  else if Filename.check_suffix s "ns" then num_and 2 1
  else Option.map (fun v -> v) (int_of_string_opt s)

let parse_clause clause =
  let fail fmt = Printf.ksprintf (fun m -> Error m) fmt in
  match String.index_opt clause ':' with
  | None -> fail "clause %S: expected kind:key=value,..." clause
  | Some i ->
    let kind = String.sub clause 0 i in
    let rest = String.sub clause (i + 1) (String.length clause - i - 1) in
    let kvs = String.split_on_char ',' rest in
    let pairs =
      List.filter_map
        (fun kv ->
          match String.index_opt kv '=' with
          | None -> None
          | Some j ->
            Some
              ( String.trim (String.sub kv 0 j),
                String.trim (String.sub kv (j + 1) (String.length kv - j - 1))
              ))
        kvs
    in
    if List.length pairs <> List.length kvs then
      fail "clause %S: malformed key=value pair" clause
    else
      let int_field key =
        match List.assoc_opt key pairs with
        | None -> fail "clause %S: missing %s=" clause key
        | Some v -> (
          match int_of_string_opt v with
          | Some n -> Ok n
          | None -> fail "clause %S: %s=%s is not an integer" clause key v)
      in
      let dur_field key =
        match List.assoc_opt key pairs with
        | None -> fail "clause %S: missing %s=" clause key
        | Some v -> (
          match duration_of_string v with
          | Some n -> Ok n
          | None -> fail "clause %S: %s=%s is not a duration" clause key v)
      in
      let opt_int_field key ~default =
        match List.assoc_opt key pairs with
        | None -> Ok default
        | Some v -> (
          match int_of_string_opt v with
          | Some n -> Ok n
          | None -> fail "clause %S: %s=%s is not an integer" clause key v)
      in
      let ( let* ) = Result.bind in
      let* f =
        match kind with
        | "wcet-scale" ->
        let* tid = int_field "tid" in
        let* pct = int_field "pct" in
        let* from_job = opt_int_field "from" ~default:1 in
        Ok (Wcet_scale { tid; pct; from_job })
      | "wcet-add" ->
        let* tid = int_field "tid" in
        let* extra = dur_field "extra" in
        let* from_job = opt_int_field "from" ~default:1 in
        Ok (Wcet_add { tid; extra; from_job })
      | "jitter" ->
        let* tid = int_field "tid" in
        let* amplitude = dur_field "amp" in
        Ok (Release_jitter { tid; amplitude })
      | "irq-storm" ->
        let* irq = int_field "irq" in
        let* at = dur_field "at" in
        let* count = int_field "count" in
        let* spacing = dur_field "spacing" in
        Ok (Irq_storm { irq; at; count; spacing })
      | "irq-drop" ->
        let* irq = int_field "irq" in
        let* one_in = int_field "one-in" in
        Ok (Irq_drop { irq; one_in })
      | "lost-signal" ->
        let* wq = int_field "wq" in
        let* one_in = int_field "one-in" in
        Ok (Lost_signal { wq; one_in })
      | "burst" ->
        let* tid = int_field "tid" in
        let* at = dur_field "at" in
        let* count = int_field "count" in
        let* spacing = dur_field "spacing" in
        Ok (Sporadic_burst { tid; at; count; spacing })
      | "drift" ->
        let* ppm = int_field "ppm" in
        Ok (Clock_drift { ppm })
      | "frame-drop" ->
        let* one_in = int_field "one-in" in
        Ok (Frame_drop { one_in })
      | "frame-corrupt" ->
        let* one_in = int_field "one-in" in
        Ok (Frame_corrupt { one_in })
      | "node-crash" ->
        let* node = int_field "node" in
        let* at = dur_field "at" in
        Ok (Node_crash { node; at })
      | "node-restart" ->
        let* node = int_field "node" in
        let* at = dur_field "at" in
        Ok (Node_restart { node; at })
      | "link-partition" ->
        let* a = int_field "a" in
        let* b = int_field "b" in
        let* from_ = dur_field "from" in
        let* until = dur_field "until" in
        Ok (Link_partition { a; b; from_; until })
        | k -> fail "clause %S: unknown fault kind %S" clause k
      in
      (* structural sanity beyond syntax *)
      let bad msg = fail "clause %S: %s" clause msg in
      (match f with
      | Wcet_scale { pct; from_job; _ } ->
        if pct < 0 then bad "pct must be non-negative"
        else if from_job < 1 then bad "from must be >= 1"
        else Ok f
      | Wcet_add { extra; from_job; _ } ->
        if extra < 0 then bad "extra must be non-negative"
        else if from_job < 1 then bad "from must be >= 1"
        else Ok f
      | Release_jitter { amplitude; _ } ->
        if amplitude <= 0 then bad "amp must be positive" else Ok f
      | Irq_storm { count; spacing; at; _ } ->
        if count <= 0 then bad "count must be positive"
        else if spacing < 0 then bad "spacing must be non-negative"
        else if at < 0 then bad "at must be non-negative"
        else Ok f
      | Irq_drop { one_in; _ } | Lost_signal { one_in; _ } ->
        if one_in < 2 then bad "one-in must be >= 2" else Ok f
      | Sporadic_burst { count; spacing; at; _ } ->
        if count <= 0 then bad "count must be positive"
        else if spacing < 0 then bad "spacing must be non-negative"
        else if at < 0 then bad "at must be non-negative"
        else Ok f
      | Clock_drift { ppm } ->
        if ppm <= -1_000_000 then bad "ppm must exceed -1000000" else Ok f
      | Frame_drop { one_in } | Frame_corrupt { one_in } ->
        if one_in < 2 then bad "one-in must be >= 2" else Ok f
      | Node_crash { node; at } | Node_restart { node; at } ->
        if node < 0 then bad "node must be non-negative"
        else if at < 0 then bad "at must be non-negative"
        else Ok f
      | Link_partition { a; b; from_; until } ->
        if a < 0 || b < 0 then bad "node ids must be non-negative"
        else if a = b then bad "a and b must differ"
        else if from_ < 0 then bad "from must be non-negative"
        else if until < from_ then bad "until must be >= from"
        else Ok f)

let parse s =
  let clauses =
    String.split_on_char ';' s |> List.map String.trim
    |> List.filter (fun c -> c <> "")
  in
  let rec go acc = function
    | [] -> Ok (List.rev acc)
    | c :: rest -> (
      match parse_clause c with
      | Ok f -> go (f :: acc) rest
      | Error _ as e -> e)
  in
  go [] clauses

(* ------------------------------------------------------------------ *)
(* Rendering *)

let dur ns =
  if ns <> 0 && ns mod 1_000_000 = 0 then
    Printf.sprintf "%dms" (ns / 1_000_000)
  else if ns <> 0 && ns mod 1_000 = 0 then Printf.sprintf "%dus" (ns / 1_000)
  else Printf.sprintf "%dns" ns

let render_fault = function
  | Wcet_scale { tid; pct; from_job } ->
    if from_job = 1 then Printf.sprintf "wcet-scale:tid=%d,pct=%d" tid pct
    else Printf.sprintf "wcet-scale:tid=%d,pct=%d,from=%d" tid pct from_job
  | Wcet_add { tid; extra; from_job } ->
    if from_job = 1 then
      Printf.sprintf "wcet-add:tid=%d,extra=%s" tid (dur extra)
    else Printf.sprintf "wcet-add:tid=%d,extra=%s,from=%d" tid (dur extra) from_job
  | Release_jitter { tid; amplitude } ->
    Printf.sprintf "jitter:tid=%d,amp=%s" tid (dur amplitude)
  | Irq_storm { irq; at; count; spacing } ->
    Printf.sprintf "irq-storm:irq=%d,at=%s,count=%d,spacing=%s" irq (dur at)
      count (dur spacing)
  | Irq_drop { irq; one_in } ->
    Printf.sprintf "irq-drop:irq=%d,one-in=%d" irq one_in
  | Lost_signal { wq; one_in } ->
    Printf.sprintf "lost-signal:wq=%d,one-in=%d" wq one_in
  | Sporadic_burst { tid; at; count; spacing } ->
    Printf.sprintf "burst:tid=%d,at=%s,count=%d,spacing=%s" tid (dur at) count
      (dur spacing)
  | Clock_drift { ppm } -> Printf.sprintf "drift:ppm=%d" ppm
  | Frame_drop { one_in } -> Printf.sprintf "frame-drop:one-in=%d" one_in
  | Frame_corrupt { one_in } ->
    Printf.sprintf "frame-corrupt:one-in=%d" one_in
  | Node_crash { node; at } ->
    Printf.sprintf "node-crash:node=%d,at=%s" node (dur at)
  | Node_restart { node; at } ->
    Printf.sprintf "node-restart:node=%d,at=%s" node (dur at)
  | Link_partition { a; b; from_; until } ->
    Printf.sprintf "link-partition:a=%d,b=%d,from=%s,until=%s" a b (dur from_)
      (dur until)

let render t = String.concat ";" (List.map render_fault t)

let label = function
  | Wcet_scale { tid; pct; _ } ->
    Printf.sprintf "wcet-scale tau%d x%.1f" tid (float_of_int pct /. 100.)
  | Wcet_add { tid; extra; _ } ->
    Printf.sprintf "wcet-add tau%d +%s" tid (dur extra)
  | Release_jitter { tid; amplitude } ->
    Printf.sprintf "jitter tau%d +-%s" tid (dur amplitude)
  | Irq_storm { irq; count; _ } ->
    Printf.sprintf "irq-storm irq%d x%d" irq count
  | Irq_drop { irq; one_in } ->
    Printf.sprintf "irq-drop irq%d 1-in-%d" irq one_in
  | Lost_signal { wq; one_in } ->
    Printf.sprintf "lost-signal wq%d 1-in-%d" wq one_in
  | Sporadic_burst { tid; count; _ } ->
    Printf.sprintf "burst tau%d x%d" tid count
  | Clock_drift { ppm } -> Printf.sprintf "drift %+dppm" ppm
  | Frame_drop { one_in } -> Printf.sprintf "frame-drop 1-in-%d" one_in
  | Frame_corrupt { one_in } -> Printf.sprintf "frame-corrupt 1-in-%d" one_in
  | Node_crash { node; at } ->
    Printf.sprintf "node-crash node%d @%s" node (dur at)
  | Node_restart { node; at } ->
    Printf.sprintf "node-restart node%d @%s" node (dur at)
  | Link_partition { a; b; _ } ->
    Printf.sprintf "link-partition node%d<->node%d" a b

let to_json t =
  let fault kind fields =
    Util.Json.Obj (("kind", String kind) :: List.map (fun (k, v) -> (k, Util.Json.Int v)) fields)
  in
  let json = function
    | Wcet_scale { tid; pct; from_job } ->
      fault "wcet-scale" [ ("tid", tid); ("pct", pct); ("from", from_job) ]
    | Wcet_add { tid; extra; from_job } ->
      fault "wcet-add" [ ("tid", tid); ("extra_ns", extra); ("from", from_job) ]
    | Release_jitter { tid; amplitude } -> fault "jitter" [ ("tid", tid); ("amp_ns", amplitude) ]
    | Irq_storm { irq; at; count; spacing } ->
      fault "irq-storm" [ ("irq", irq); ("at_ns", at); ("count", count); ("spacing_ns", spacing) ]
    | Irq_drop { irq; one_in } -> fault "irq-drop" [ ("irq", irq); ("one_in", one_in) ]
    | Lost_signal { wq; one_in } -> fault "lost-signal" [ ("wq", wq); ("one_in", one_in) ]
    | Sporadic_burst { tid; at; count; spacing } ->
      fault "burst" [ ("tid", tid); ("at_ns", at); ("count", count); ("spacing_ns", spacing) ]
    | Clock_drift { ppm } -> fault "drift" [ ("ppm", ppm) ]
    | Frame_drop { one_in } -> fault "frame-drop" [ ("one_in", one_in) ]
    | Frame_corrupt { one_in } -> fault "frame-corrupt" [ ("one_in", one_in) ]
    | Node_crash { node; at } -> fault "node-crash" [ ("node", node); ("at_ns", at) ]
    | Node_restart { node; at } -> fault "node-restart" [ ("node", node); ("at_ns", at) ]
    | Link_partition { a; b; from_; until } ->
      fault "link-partition" [ ("a", a); ("b", b); ("from_ns", from_); ("until_ns", until) ]
  in
  Util.Json.List (List.map json t)
