(* Observability layer: probe hub, streaming histograms/metrics,
   flight recorder, exporters. *)

open Alcotest

let fuzz ?(count = 50) name gen law =
  QCheck_alcotest.to_alcotest ~speed_level:`Quick
    (QCheck2.Test.make ~count ~name gen law)

let ms = Model.Time.ms
let us = Model.Time.us

(* ------------------------------------------------------------------ *)
(* Util.Hist *)

let quantile_points = [ 0.5; 0.9; 0.95; 0.99; 1.0 ]

(* 2/64 bucket width, plus 1 ns of integer-midpoint slack *)
let hist_close ~exact ~approx =
  let tol = 2.0 /. float_of_int Util.Hist.sub_buckets in
  abs_float (float_of_int approx -. exact) <= (tol *. exact) +. 1.0

let test_hist_exact_small () =
  let h = Util.Hist.create () in
  List.iter (Util.Hist.observe h) [ 0; 1; 5; 63; 63 ];
  check int "count" 5 (Util.Hist.count h);
  check int "min" 0 (Util.Hist.min_value h);
  check int "max" 63 (Util.Hist.max_value h);
  check int "sum" 132 (Util.Hist.sum h);
  (* below sub_buckets every value is its own bucket: quantiles exact *)
  check int "p50 exact" 5 (Util.Hist.quantile h 0.5);
  check int "p100 exact" 63 (Util.Hist.quantile h 1.0);
  check (list int) "samples round-trip" [ 0; 1; 5; 63; 63 ]
    (Util.Hist.samples h)

let test_hist_negative_rejected () =
  let h = Util.Hist.create () in
  check_raises "negative sample"
    (Invalid_argument "Hist.observe: negative sample") (fun () ->
      Util.Hist.observe h (-1))

let test_hist_accuracy_vs_percentile () =
  let rng = Util.Rng.create ~seed:42 in
  let samples =
    List.init 1000 (fun _ -> Util.Rng.int_in rng ~lo:0 ~hi:10_000_000)
  in
  let h = Util.Hist.create () in
  List.iter (Util.Hist.observe h) samples;
  let floats = List.map float_of_int samples in
  List.iter
    (fun p ->
      let exact = Util.Stats.percentile floats p in
      let approx = Util.Hist.quantile h p in
      if not (hist_close ~exact ~approx) then
        failf "p%.2f: hist %d vs exact %.0f (>%g relative error)" p approx
          exact
          (2.0 /. float_of_int Util.Hist.sub_buckets))
    quantile_points;
  (* the max is tracked exactly, not bucketed *)
  check int "p100 is exact max" (List.fold_left max 0 samples)
    (Util.Hist.quantile h 1.0)

let hists_equal a b =
  Util.Hist.count a = Util.Hist.count b
  && Util.Hist.sum a = Util.Hist.sum b
  && Util.Hist.min_value a = Util.Hist.min_value b
  && Util.Hist.max_value a = Util.Hist.max_value b
  && Util.Hist.buckets a = Util.Hist.buckets b

let random_hist rng =
  let h = Util.Hist.create () in
  let n = Util.Rng.int_in rng ~lo:1 ~hi:200 in
  for _ = 1 to n do
    Util.Hist.observe h (Util.Rng.int_in rng ~lo:0 ~hi:1_000_000)
  done;
  h

let test_hist_merge_associative () =
  let rng = Util.Rng.create ~seed:5 in
  for _ = 1 to 20 do
    let a = random_hist rng and b = random_hist rng and c = random_hist rng in
    let left = Util.Hist.merge (Util.Hist.merge a b) c in
    let right = Util.Hist.merge a (Util.Hist.merge b c) in
    check bool "assoc" true (hists_equal left right);
    check bool "commutes" true
      (hists_equal (Util.Hist.merge a b) (Util.Hist.merge b a));
    (* merge must not perturb its arguments *)
    check bool "a intact" true (hists_equal a (Util.Hist.merge a (Util.Hist.create ())))
  done

let prop_hist_online_equals_batch =
  fuzz "hist: online = merge of shards" ~count:100
    QCheck2.Gen.(list_size (int_range 1 100) (int_range 0 2_000_000))
    (fun xs ->
      let whole = Util.Hist.create () in
      List.iter (Util.Hist.observe whole) xs;
      (* shard in two, merge — must equal observing the whole list *)
      let a = Util.Hist.create () and b = Util.Hist.create () in
      List.iteri
        (fun i x -> Util.Hist.observe (if i mod 2 = 0 then a else b) x)
        xs;
      hists_equal whole (Util.Hist.merge a b)
      && List.length (Util.Hist.samples whole) = List.length xs)

(* ------------------------------------------------------------------ *)
(* Probe hub *)

let stamp at entry : Sim.Trace.stamped = { at; entry }

let some_events : Sim.Trace.entry list =
  [
    Job_release { tid = 1; job = 1; deadline = ms 5 };
    Context_switch { from_tid = None; to_tid = Some 1 };
    Sem_acquired { tid = 1; sem = 0 };
    Msg_sent { tid = 1; mailbox = 0; words = 4 };
    Interrupt { irq = 3 };
    Overhead { category = Ovh_sched_select; cost = us 1 };
    Budget_overrun { tid = 1; job = 1; used = us 9; budget = us 8 };
    Note "hello";
  ]

let test_probe_masking () =
  let tr = Sim.Trace.create () in
  let p = Obs.Probe.create ~trace:tr () in
  let seen = ref [] in
  Obs.Probe.subscribe p
    ~mask:(Obs.Probe.mask_of [ Obs.Probe.Irq; Obs.Probe.Enforce ])
    (fun s -> seen := s :: !seen);
  List.iteri (fun i e -> Obs.Probe.emit p ~at:i e) some_events;
  let kinds =
    List.rev_map
      (fun (s : Sim.Trace.stamped) ->
        let k, _, _ = Sim.Trace.csv_fields s.entry in
        k)
      !seen
  in
  check (list string) "only subscribed categories" [ "irq"; "overrun" ] kinds;
  (* the built-in trace saw everything regardless *)
  check int "trace got all" (List.length some_events)
    (List.length (Sim.Trace.entries tr))

let test_probe_trace_mask () =
  let tr = Sim.Trace.create () in
  let p = Obs.Probe.create ~trace:tr () in
  Obs.Probe.set_trace_mask p (Obs.Probe.mask_of [ Obs.Probe.Job ]);
  List.iteri (fun i e -> Obs.Probe.emit p ~at:i e) some_events;
  check int "trace filtered to job events" 1
    (List.length (Sim.Trace.entries tr))

let test_probe_category_names () =
  List.iter
    (fun c ->
      match Obs.Probe.category_of_name (Obs.Probe.category_name c) with
      | Some c' -> check bool "name round-trip" true (c = c')
      | None -> fail "category name did not round-trip")
    Obs.Probe.all_categories;
  check bool "unknown name" true (Obs.Probe.category_of_name "bogus" = None)

(* Attaching observability subscribers must not change what the kernel
   records: the acceptance criterion's "bit-identical" differential. *)
let test_kernel_trace_unperturbed () =
  let run ~observe =
    let k =
      Emeralds.Kernel.create ~cost:Sim.Cost.m68040 ~spec:Emeralds.Sched.Rm
        ~taskset:Workload.Presets.table2 ()
    in
    if observe then begin
      let m = Obs.Metrics.create () in
      Obs.Metrics.attach m (Emeralds.Kernel.probe k);
      let fr =
        Obs.Flightrec.create ~bytes:32_768
          ~triggers:[ Obs.Flightrec.On_miss; On_overrun; On_kill ]
          ()
      in
      Obs.Flightrec.attach fr (Emeralds.Kernel.probe k)
    end;
    Emeralds.Kernel.run k ~until:(ms 100);
    Sim.Trace.to_csv (Emeralds.Kernel.trace k)
  in
  check string "trace bit-identical with subscribers attached"
    (run ~observe:false) (run ~observe:true)

(* Branch decisions are part of the deterministic replay contract:
   with probes disabled, two runs of the branchy preset from the same
   input seed must be bit-identical — same branch outcomes, same
   everything — while a different input seed steers jobs down
   different paths. *)
let test_branchy_replay_bit_identical () =
  (* one scenario for both runs: object ids are drawn from a global
     counter, so two [branchy] realizations would differ in pool id *)
  let scenario = Option.get (Workload.Scenario.make "branchy") in
  let run ~input_seed =
    let k =
      Emeralds.Kernel.create ~cost:Sim.Cost.m68040 ~spec:Emeralds.Sched.Rm
        ~taskset:scenario.taskset ~programs:scenario.programs ~input_seed ()
    in
    Emeralds.Kernel.run k ~until:(ms 100);
    Sim.Trace.to_csv (Emeralds.Kernel.trace k)
  in
  let a = run ~input_seed:7 in
  check string "same seed replays bit-identically" a (run ~input_seed:7);
  check bool "the trace records branch decisions" true
    (let rec find i =
       i >= 0 && (String.length a - i >= 6 && String.sub a i 6 = "branch" || find (i - 1))
     in
     find (String.length a - 6));
  check bool "a different input seed takes different paths" true
    (a <> run ~input_seed:8)

(* The Mem category: alloc-demo's grants and frees reach a Mem-masked
   subscriber, the live-blocks metric tracks pool occupancy within
   capacity, and probing changes nothing in the kernel's own trace. *)
let test_mem_category_and_live_metrics () =
  (* one scenario for both runs: object ids are drawn from a global
     counter, so two [alloc_demo ()] calls would differ in pool id *)
  let scenario = Workload.Scenario.alloc_demo () in
  let run ~probe_mem =
    let m = Obs.Metrics.create () in
    let seen = ref 0 in
    let cfg =
      {
        (Fault.Inject.default_config ~scenario ~horizon:(ms 100) ~seed:7 ())
        with
        observer =
          Some
            (fun k ->
              let p = Emeralds.Kernel.probe k in
              if probe_mem then begin
                Obs.Metrics.attach m p;
                Obs.Probe.subscribe p
                  ~mask:(Obs.Probe.mask_of [ Obs.Probe.Mem ])
                  (fun _ -> incr seen)
              end);
      }
    in
    let outcome = Fault.Inject.run cfg in
    (m, !seen, Sim.Trace.to_csv (Emeralds.Kernel.trace outcome.kernel))
  in
  let m, seen, csv = run ~probe_mem:true in
  check bool "mem events reached the subscriber" true (seen > 0);
  (match Obs.Metrics.live_pools m with
  | [ pool ] ->
    let h = Option.get (Obs.Metrics.live_blocks m ~pool) in
    check bool "blocks were live" true (Util.Hist.max_value h >= 3);
    check bool "high-water within the pool's 8 blocks" true
      (Util.Hist.max_value h <= 8)
  | l -> failf "expected one pool in the live metric, got %d" (List.length l));
  let _, _, csv_plain = run ~probe_mem:false in
  check string "kernel trace bit-identical with mem probes attached"
    csv_plain csv

(* ------------------------------------------------------------------ *)
(* Metrics *)

let engine_outcome ?observer ?(keep_trace = true) () =
  let scenario = Option.get (Workload.Scenario.make "engine") in
  let cfg =
    {
      (Fault.Inject.default_config ~scenario ~spec:Emeralds.Sched.Rm
         ~horizon:(ms 100) ~seed:7 ())
      with
      keep_trace;
      observer;
    }
  in
  Fault.Inject.run cfg

let with_metrics () =
  let m = Obs.Metrics.create () in
  let outcome =
    engine_outcome
      ~observer:(fun k -> Obs.Metrics.attach m (Emeralds.Kernel.probe k))
      ()
  in
  (m, outcome)

let test_metrics_percentiles_vs_trace () =
  let m, outcome = with_metrics () in
  let tr = Emeralds.Kernel.trace outcome.kernel in
  let tids = Obs.Metrics.response_tids m in
  check bool "some tasks completed jobs" true (tids <> []);
  List.iter
    (fun tid ->
      let exact = List.map float_of_int (Sim.Trace.responses tr ~tid) in
      let h = Option.get (Obs.Metrics.response m ~tid) in
      check int "count matches trace" (List.length exact) (Util.Hist.count h);
      List.iter
        (fun p ->
          let e = Util.Stats.percentile exact p in
          let a = Util.Hist.quantile h p in
          if not (hist_close ~exact:e ~approx:a) then
            failf "tau%d p%.2f: metrics %d vs trace %.0f" tid p a e)
        quantile_points)
    tids

let test_metrics_counters_match_trace () =
  let m, outcome = with_metrics () in
  let tr = Emeralds.Kernel.trace outcome.kernel in
  check int "switch counter" (Sim.Trace.context_switches tr)
    (Obs.Metrics.counter m "switch");
  check int "miss counter" (Sim.Trace.deadline_misses tr)
    (Obs.Metrics.counter m "miss");
  check int "never-seen kind" 0 (Obs.Metrics.counter m "bogus")

(* The satellite fuzz property: metrics folded online during the run
   equal metrics recomputed from the full keep_entries:true trace. *)
let metrics_equal a b =
  Obs.Metrics.counters a = Obs.Metrics.counters b
  && Obs.Metrics.response_tids a = Obs.Metrics.response_tids b
  && List.for_all
       (fun tid ->
         hists_equal
           (Option.get (Obs.Metrics.response a ~tid))
           (Option.get (Obs.Metrics.response b ~tid)))
       (Obs.Metrics.response_tids a)
  && Obs.Metrics.blocking_tids a = Obs.Metrics.blocking_tids b
  && List.for_all
       (fun tid ->
         hists_equal
           (Option.get (Obs.Metrics.blocking a ~tid))
           (Option.get (Obs.Metrics.blocking b ~tid)))
       (Obs.Metrics.blocking_tids a)
  && hists_equal (Obs.Metrics.irq_latency a) (Obs.Metrics.irq_latency b)
  && hists_equal (Obs.Metrics.ready_depth a) (Obs.Metrics.ready_depth b)
  && List.for_all2
       (fun (ca, ha) (cb, hb) -> ca = cb && hists_equal ha hb)
       (Obs.Metrics.overhead a) (Obs.Metrics.overhead b)

let prop_metrics_online_equals_replay =
  fuzz "metrics: online = replay of kept trace" ~count:15
    QCheck2.Gen.(
      pair (int_range 0 1000)
        (oneofl [ "table2"; "engine"; "avionics"; "voice" ]))
    (fun (seed, name) ->
      let scenario = Option.get (Workload.Scenario.make name) in
      let online = Obs.Metrics.create () in
      let cfg =
        {
          (Fault.Inject.default_config ~scenario ~spec:Emeralds.Sched.Rm
             ~horizon:(ms 50) ~seed ())
          with
          observer =
            Some
              (fun k -> Obs.Metrics.attach online (Emeralds.Kernel.probe k));
        }
      in
      let outcome = Fault.Inject.run cfg in
      let replay = Obs.Metrics.create () in
      List.iter
        (Obs.Metrics.observe replay)
        (Sim.Trace.entries (Emeralds.Kernel.trace outcome.kernel));
      metrics_equal online replay)

(* ------------------------------------------------------------------ *)
(* Flight recorder *)

let test_flightrec_wraps () =
  let bytes = 4 * Obs.Flightrec.slot_bytes in
  let fr = Obs.Flightrec.create ~bytes ~triggers:[] () in
  check int "capacity" 4 (Obs.Flightrec.capacity fr);
  check int "footprint" bytes (Obs.Flightrec.footprint_bytes fr);
  for i = 1 to 10 do
    Obs.Flightrec.record fr (stamp i (Sim.Trace.Note (string_of_int i)))
  done;
  check int "total offered" 10 (Obs.Flightrec.total_recorded fr);
  let window = Obs.Flightrec.dump fr in
  check (list int) "last capacity events, oldest first" [ 7; 8; 9; 10 ]
    (List.map (fun (s : Sim.Trace.stamped) -> s.at) window)

let test_flightrec_freezes_at_trigger () =
  let fr =
    Obs.Flightrec.create
      ~bytes:(8 * Obs.Flightrec.slot_bytes)
      ~triggers:[ Obs.Flightrec.On_overrun ] ()
  in
  Obs.Flightrec.record fr (stamp 1 (Sim.Trace.Note "before"));
  Obs.Flightrec.record fr
    (stamp 2 (Sim.Trace.Deadline_miss { tid = 1; job = 1; lateness = 0 }));
  (* miss is not armed: still recording *)
  check bool "not yet triggered" true (Obs.Flightrec.triggered fr = None);
  Obs.Flightrec.record fr
    (stamp 3
       (Sim.Trace.Budget_overrun { tid = 1; job = 1; used = 9; budget = 8 }));
  Obs.Flightrec.record fr (stamp 4 (Sim.Trace.Note "after freeze"));
  check bool "triggered" true (Obs.Flightrec.triggered fr <> None);
  let window = Obs.Flightrec.dump fr in
  check int "post-trigger events ignored" 3 (List.length window);
  (match List.rev window with
  | { entry = Sim.Trace.Budget_overrun _; _ } :: _ -> ()
  | _ -> fail "window must end at the triggering overrun");
  check_raises "undersized ring"
    (Invalid_argument "Flightrec.create: 10 bytes < one 48-byte slot")
    (fun () -> ignore (Obs.Flightrec.create ~bytes:10 ~triggers:[] ()))

(* Trigger matrix: each armed trigger freezes exactly on its own event
   kind and stays live through every other kind. *)
let test_flightrec_trigger_matrix () =
  let matrix =
    [
      (Obs.Flightrec.On_miss, "miss",
       Sim.Trace.Deadline_miss { tid = 1; job = 1; lateness = 0 });
      (Obs.Flightrec.On_overrun, "overrun",
       Sim.Trace.Budget_overrun { tid = 1; job = 1; used = 9; budget = 8 });
      (Obs.Flightrec.On_kill, "kill",
       Sim.Trace.Job_killed { tid = 1; job = 1 });
      (Obs.Flightrec.On_oom, "oom",
       Sim.Trace.Pool_oom { tid = 1; pool = 2 });
      (Obs.Flightrec.On_quota, "quota",
       Sim.Trace.Quota_exceeded { tid = 1; job = 1; live = 5; quota = 4 });
      (Obs.Flightrec.On_net_timeout, "net-timeout",
       Sim.Trace.Net_timeout { node = 1; seq = 3 });
    ]
  in
  List.iter
    (fun (armed, name, _) ->
      let fr =
        Obs.Flightrec.create
          ~bytes:(16 * Obs.Flightrec.slot_bytes)
          ~triggers:[ armed ] ()
      in
      (* every *other* event kind leaves the recorder live... *)
      List.iter
        (fun (other, _, entry) ->
          if other <> armed then Obs.Flightrec.record fr (stamp 1 entry))
        matrix;
      check bool (name ^ ": other kinds do not trip") true
        (Obs.Flightrec.triggered fr = None);
      (* ...and its own kind freezes it *)
      let _, _, own = List.find (fun (t, _, _) -> t = armed) matrix in
      Obs.Flightrec.record fr (stamp 2 own);
      match Obs.Flightrec.triggered fr with
      | Some { entry; _ } when entry = own -> ()
      | _ -> fail (name ^ ": armed trigger must freeze on its own event"))
    matrix

let test_flightrec_within_envelope () =
  (* the default CLI arming: 32 KB, the envelope's small end *)
  let lo, hi = Emeralds.Footprint.envelope in
  let fr = Obs.Flightrec.create ~bytes:lo ~triggers:[] () in
  check bool "32 KB ring fits the envelope" true
    (Obs.Flightrec.footprint_bytes fr <= lo);
  check bool "capacity is hundreds of events" true
    (Obs.Flightrec.capacity fr >= 500);
  check bool "slot accounting inside the big envelope" true
    (Obs.Flightrec.footprint_bytes fr < hi)

let test_flightrec_dump_ends_at_first_overrun () =
  (* the acceptance demo: overrun-demo injection, 32 KB armed ring *)
  let scenario = Workload.Scenario.overrun_demo () in
  let fr =
    Obs.Flightrec.create ~bytes:32_768 ~triggers:[ Obs.Flightrec.On_overrun ]
      ()
  in
  let cfg =
    {
      (Fault.Inject.default_config ~scenario ~spec:Emeralds.Sched.Rm
         ~enforcement:
           {
             Emeralds.Kernel.budget_of = Fault.Inject.declared_budgets;
             policy = Emeralds.Kernel.Notify_only;
             miss = Emeralds.Kernel.Miss_record;
             shed_one_in = None;
           }
         ~plan:[ Fault.Plan.Wcet_scale { tid = 2; pct = 400; from_job = 1 } ]
         ())
      with
      observer = Some (fun k -> Obs.Flightrec.attach fr (Emeralds.Kernel.probe k));
    }
  in
  let outcome = Fault.Inject.run cfg in
  let tr = Emeralds.Kernel.trace outcome.kernel in
  check bool "run did overrun" true (Sim.Trace.budget_overruns tr > 0);
  let first_overrun =
    List.find_map
      (fun ({ at; entry } : Sim.Trace.stamped) ->
        match entry with Sim.Trace.Budget_overrun _ -> Some at | _ -> None)
      (Sim.Trace.entries tr)
  in
  match List.rev (Obs.Flightrec.dump fr) with
  | { at; entry = Sim.Trace.Budget_overrun _ } :: _ ->
    check int "frozen at the run's first overrun"
      (Option.get first_overrun) at
  | _ -> fail "dump must end at the first Budget_overrun"

(* ------------------------------------------------------------------ *)
(* Exporters *)

(* Print an exporter's value and read it back: the output must parse. *)
let reparse v =
  match Util.Json.of_string (Util.Json.to_string v) with
  | Ok v -> v
  | Error e -> failf "exported JSON does not parse: %s" e

let trace_events v =
  match Util.Json.member "traceEvents" (reparse v) with
  | Some (List evs) -> evs
  | _ -> fail "no traceEvents array"

let count_where key pred evs =
  List.length
    (List.filter
       (fun e -> match Util.Json.member key e with Some (String s) -> pred s | _ -> false)
       evs)

let count_ph ph evs = count_where "ph" (String.equal ph) evs

let test_perfetto_export () =
  let m, outcome = with_metrics () in
  ignore m;
  let events = Sim.Trace.entries (Emeralds.Kernel.trace outcome.kernel) in
  let evs = trace_events (Obs.Export.perfetto events) in
  check int "balanced slices" (count_ph "B" evs) (count_ph "E" evs);
  check bool "instants present" true (count_ph "i" evs > 0)

(* With ?blame, each closed job adds one "C" counter sample, and the
   missed deadline gains a flow arrow labelled with the dominant cause
   (the seeded inversion's semaphore). *)
let test_perfetto_blame_export () =
  let scenario = Workload.Scenario.inversion_demo () in
  let k =
    Emeralds.Kernel.create ~cost:Sim.Cost.m68040 ~spec:Emeralds.Sched.Rm
      ~taskset:scenario.taskset ~programs:scenario.programs ()
  in
  Emeralds.Kernel.run k ~until:(Model.Time.ms 60);
  let tr = Emeralds.Kernel.trace k in
  check bool "inversion demo misses" true (Sim.Trace.deadline_misses tr > 0);
  let events = Sim.Trace.entries tr in
  let blame = Obs.Blame.of_taskset scenario.taskset in
  let evs = trace_events (Obs.Export.perfetto ~blame events) in
  let completions =
    List.length
      (List.filter
         (fun ({ entry; _ } : Sim.Trace.stamped) ->
           match entry with Sim.Trace.Job_complete _ -> true | _ -> false)
         events)
  in
  check bool "has completions" true (completions > 0);
  check int "one counter sample per closed job" completions (count_ph "C" evs);
  check int "flow start/finish balanced" (count_ph "s" evs) (count_ph "f" evs);
  check bool "miss gains a flow arrow" true (count_ph "s" evs > 0);
  check bool "flow names the blocking semaphore" true
    (count_where "name" (String.starts_with ~prefix:"blame: sem ") evs > 0)

let test_metrics_json_export () =
  let m, _ = with_metrics () in
  match reparse (Obs.Export.metrics_json m) with
  | Obj (("counters", Obj (_ :: _)) :: _) -> ()
  | _ -> fail "metrics JSON starts with a non-empty counters object"

(* text/plain 0.0.4: every non-comment line is `name{labels} value` or
   `name value`, name in [a-z0-9_], value an integer here. *)
let prometheus_line_ok line =
  match String.index_opt line ' ' with
  | None -> false
  | Some sp ->
    let series = String.sub line 0 sp in
    let v = String.sub line (sp + 1) (String.length line - sp - 1) in
    let name_ok name =
      name <> ""
      && String.for_all
           (fun c -> (c >= 'a' && c <= 'z') || (c >= '0' && c <= '9') || c = '_')
           name
    in
    let series_ok =
      match String.index_opt series '{' with
      | None -> name_ok series
      | Some b ->
        name_ok (String.sub series 0 b)
        && String.length series > b + 1
        && series.[String.length series - 1] = '}'
    in
    series_ok && int_of_string_opt v <> None

let test_prometheus_export () =
  let m, _ = with_metrics () in
  let text = Obs.Export.prometheus m in
  let lines =
    List.filter (fun l -> l <> "" && l.[0] <> '#')
      (String.split_on_char '\n' text)
  in
  check bool "exposition is non-trivial" true (List.length lines > 10);
  List.iter
    (fun l ->
      if not (prometheus_line_ok l) then failf "bad exposition line: %s" l)
    lines;
  check bool "response series present" true
    (List.exists
       (fun l ->
         String.length l > 25
         && String.sub l 0 25 = "emeralds_response_time_ns")
       lines)

let suite =
  [
    test_case "hist: small values exact" `Quick test_hist_exact_small;
    test_case "hist: negative rejected" `Quick test_hist_negative_rejected;
    test_case "hist: accuracy vs Stats.percentile" `Quick
      test_hist_accuracy_vs_percentile;
    test_case "hist: merge associative/commutative" `Quick
      test_hist_merge_associative;
    prop_hist_online_equals_batch;
    test_case "probe: subscriber masking" `Quick test_probe_masking;
    test_case "probe: trace mask" `Quick test_probe_trace_mask;
    test_case "probe: category names round-trip" `Quick
      test_probe_category_names;
    test_case "probe: kernel trace unperturbed by subscribers" `Quick
      test_kernel_trace_unperturbed;
    test_case "branchy replay is bit-identical per input seed" `Quick
      test_branchy_replay_bit_identical;
    test_case "probe: mem category and live-block metrics" `Quick
      test_mem_category_and_live_metrics;
    test_case "metrics: percentiles match kept trace" `Quick
      test_metrics_percentiles_vs_trace;
    test_case "metrics: counters match trace" `Quick
      test_metrics_counters_match_trace;
    prop_metrics_online_equals_replay;
    test_case "flightrec: ring wraps" `Quick test_flightrec_wraps;
    test_case "flightrec: freezes at trigger" `Quick
      test_flightrec_freezes_at_trigger;
    test_case "flightrec: trigger matrix" `Quick
      test_flightrec_trigger_matrix;
    test_case "flightrec: envelope accounting" `Quick
      test_flightrec_within_envelope;
    test_case "flightrec: overrun-demo dump ends at first overrun" `Quick
      test_flightrec_dump_ends_at_first_overrun;
    test_case "export: perfetto JSON" `Quick test_perfetto_export;
    test_case "export: perfetto blame tracks" `Quick
      test_perfetto_blame_export;
    test_case "export: metrics JSON" `Quick test_metrics_json_export;
    test_case "export: prometheus line format" `Quick test_prometheus_export;
  ]
