(* ---- Perfetto / Chrome trace-event JSON ---- *)

let perfetto ?blame (events : Sim.Trace.stamped list) =
  let open Util.Json in
  let items = ref [] in
  let item fields = items := Obj fields :: !items in
  let ts ns = ("ts", Float (float_of_int ns /. 1_000.0)) in
  (* Blame counter tracks: one "C" sample per closed job carrying the
     component split, plus a flow arrow from each deadline miss to its
     dominant blamer's track.  The attributor replays the same event
     list being rendered, so the samples land at completion time. *)
  let last_ts = ref 0 in
  let pending_miss = Hashtbl.create 8 in
  let flow_seq = ref 0 in
  let attributor =
    match blame with
    | None -> None
    | Some tasks ->
      let b = Blame.create ~tasks () in
      Blame.on_complete b (fun bd ->
          let interference =
            List.fold_left (fun a (_, v) -> a + v) 0 bd.Blame.b_interference
          in
          item
            [ ("name", String (Printf.sprintf "blame tau%d" bd.Blame.b_tid));
              ("ph", String "C"); ts !last_ts; ("pid", Int 0);
              ( "args",
                Obj
                  [ ("exec", Int bd.Blame.b_exec); ("interference", Int interference);
                    ("blocking", Int (Blame.blocking_total bd));
                    ("overhead", Int (Blame.overhead_total bd));
                    ("backlog", Int bd.Blame.b_backlog); ("suspend", Int bd.Blame.b_suspend);
                    ("gap", Int bd.Blame.b_gap) ] ) ];
          match
            Hashtbl.find_opt pending_miss (bd.Blame.b_tid, bd.Blame.b_job)
          with
          | None -> ()
          | Some miss_ts ->
            Hashtbl.remove pending_miss (bd.Blame.b_tid, bd.Blame.b_job);
            incr flow_seq;
            let cause, amount = Blame.dominant bd in
            let blamer_tid =
              match cause with
              | Blame.Interference rank when rank < Array.length tasks ->
                let id, _, _ = tasks.(rank) in
                id
              | _ -> bd.Blame.b_tid
            in
            let label = String ("blame: " ^ Blame.cause_label cause) in
            item
              [ ("name", label); ("cat", String "blame"); ("ph", String "s");
                ("id", Int !flow_seq); ts miss_ts; ("pid", Int 0); ("tid", Int blamer_tid);
                ("args", Obj [ ("ns", Int amount) ]) ];
            item
              [ ("name", label); ("cat", String "blame"); ("ph", String "f");
                ("bp", String "e"); ("id", Int !flow_seq); ts !last_ts; ("pid", Int 0);
                ("tid", Int bd.Blame.b_tid) ]);
      Some b
  in
  (* thread-name metadata for every task that appears *)
  let tids =
    List.filter_map
      (fun ({ entry; _ } : Sim.Trace.stamped) ->
        let _, tid, _ = Sim.Trace.csv_fields entry in
        if tid >= 0 then Some tid else None)
      events
    |> List.sort_uniq compare
  in
  List.iter
    (fun tid ->
      item
        [ ("name", String "thread_name"); ("ph", String "M"); ("pid", Int 0);
          ("tid", Int tid); ("args", Obj [ ("name", String (Printf.sprintf "tau%d" tid)) ]) ])
    tids;
  let open_slice = ref None in
  let close_slice at =
    match !open_slice with
    | None -> ()
    | Some tid ->
      item
        [ ("name", String (Printf.sprintf "tau%d" tid)); ("ph", String "E"); ts at;
          ("pid", Int 0); ("tid", Int tid) ];
      open_slice := None
  in
  List.iter
    (fun ({ at; entry } : Sim.Trace.stamped) ->
      last_ts := at;
      (match entry with
      | Sim.Trace.Deadline_miss { tid; job; _ } when Option.is_some attributor ->
        Hashtbl.replace pending_miss (tid, job) at
      | _ -> ());
      Option.iter (fun b -> Blame.observe b { at; entry }) attributor;
      match entry with
      | Sim.Trace.Context_switch { to_tid; _ } -> (
        close_slice at;
        match to_tid with
        | Some tid ->
          item
            [ ("name", String (Printf.sprintf "tau%d" tid)); ("ph", String "B"); ts at;
              ("pid", Int 0); ("tid", Int tid); ("cat", String "sched") ];
          open_slice := Some tid
        | None -> ())
      | _ ->
        let kind, tid, detail = Sim.Trace.csv_fields entry in
        let cat = Probe.category_name (Probe.category_of_entry entry) in
        item
          [ ("name", String kind); ("ph", String "i"); ts at; ("pid", Int 0);
            ("tid", Int (max tid 0)); ("cat", String cat);
            ("s", String (if tid >= 0 then "t" else "g"));
            ("args", Obj [ ("detail", String detail) ]) ])
    events;
  close_slice !last_ts;
  Obj [ ("traceEvents", List (List.rev !items)); ("displayTimeUnit", String "ms") ]

(* ---- Prometheus text exposition ---- *)

let quantiles = [ (0.5, "0.5"); (0.95, "0.95"); (0.99, "0.99") ]

let prom_hist buf ~name ~labels h =
  let lbl extra =
    match (labels, extra) with
    | "", "" -> ""
    | "", e -> "{" ^ e ^ "}"
    | l, "" -> "{" ^ l ^ "}"
    | l, e -> "{" ^ l ^ "," ^ e ^ "}"
  in
  if Util.Hist.count h > 0 then begin
    List.iter
      (fun (p, ps) ->
        Printf.bprintf buf "%s%s %d\n" name
          (lbl (Printf.sprintf "quantile=%S" ps))
          (Util.Hist.quantile h p))
      quantiles;
    Printf.bprintf buf "%s_sum%s %d\n" name (lbl "") (Util.Hist.sum h);
    Printf.bprintf buf "%s_count%s %d\n" name (lbl "") (Util.Hist.count h);
    Printf.bprintf buf "%s_max%s %d\n" name (lbl "") (Util.Hist.max_value h)
  end

let prometheus (m : Metrics.t) =
  let buf = Buffer.create 4096 in
  Buffer.add_string buf
    "# HELP emeralds_events_total Trace events observed, by kind.\n\
     # TYPE emeralds_events_total counter\n";
  List.iter
    (fun (kind, n) ->
      Printf.bprintf buf "emeralds_events_total{kind=%S} %d\n" kind n)
    (Metrics.counters m);
  Buffer.add_string buf
    "# HELP emeralds_response_time_ns Per-task job response time.\n\
     # TYPE emeralds_response_time_ns summary\n";
  List.iter
    (fun tid ->
      match Metrics.response m ~tid with
      | Some h ->
        prom_hist buf ~name:"emeralds_response_time_ns"
          ~labels:(Printf.sprintf "tid=\"%d\"" tid)
          h
      | None -> ())
    (Metrics.response_tids m);
  Buffer.add_string buf
    "# HELP emeralds_blocking_time_ns Per-task block-to-unblock time.\n\
     # TYPE emeralds_blocking_time_ns summary\n";
  List.iter
    (fun tid ->
      match Metrics.blocking m ~tid with
      | Some h ->
        prom_hist buf ~name:"emeralds_blocking_time_ns"
          ~labels:(Printf.sprintf "tid=\"%d\"" tid)
          h
      | None -> ())
    (Metrics.blocking_tids m);
  Buffer.add_string buf
    "# HELP emeralds_irq_latency_ns Interrupt-to-dispatch latency.\n\
     # TYPE emeralds_irq_latency_ns summary\n";
  prom_hist buf ~name:"emeralds_irq_latency_ns" ~labels:""
    (Metrics.irq_latency m);
  Buffer.add_string buf
    "# HELP emeralds_ready_depth Released-but-incomplete job depth.\n\
     # TYPE emeralds_ready_depth summary\n";
  prom_hist buf ~name:"emeralds_ready_depth" ~labels:"" (Metrics.ready_depth m);
  Buffer.add_string buf
    "# HELP emeralds_overhead_ns Kernel overhead cost per charge, by \
     category.\n\
     # TYPE emeralds_overhead_ns summary\n";
  List.iter
    (fun (cat, h) ->
      prom_hist buf ~name:"emeralds_overhead_ns"
        ~labels:(Printf.sprintf "category=%S" cat)
        h)
    (Metrics.overhead m);
  Buffer.contents buf

(* ---- JSON metrics digest ---- *)

let metrics_json (m : Metrics.t) =
  let open Util.Json in
  let hist h =
    let q p = Int (Util.Hist.quantile h p) in
    Obj
      [ ("count", Int (Util.Hist.count h)); ("p50", q 0.5); ("p95", q 0.95);
        ("p99", q 0.99); ("max", Int (Util.Hist.max_value h)) ]
  in
  let per_tid tids find =
    Obj
      (List.filter_map
         (fun tid -> Option.map (fun h -> (string_of_int tid, hist h)) (find m ~tid))
         tids)
  in
  let nonempty name h = if Util.Hist.count h > 0 then [ (name, hist h) ] else [] in
  Obj
    ([ ("counters", Obj (List.map (fun (kind, n) -> (kind, Int n)) (Metrics.counters m)));
       ("response", per_tid (Metrics.response_tids m) Metrics.response);
       ("blocking", per_tid (Metrics.blocking_tids m) Metrics.blocking) ]
    @ nonempty "irq_latency" (Metrics.irq_latency m)
    @ nonempty "ready_depth" (Metrics.ready_depth m)
    @ [ ("overhead", Obj (List.map (fun (cat, h) -> (cat, hist h)) (Metrics.overhead m))) ])
