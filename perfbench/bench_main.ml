(* The repository benchmark.

     bench_main --workload W --seed N --seconds S --trace 0|1

   W is one of campaign, sim-dispatch, sim-observed, breakdown.  The
   inputs are generated from the seed before any timed call; the load is
   a closed loop (one process, one thread, one operation in flight).
   With --trace 0 the run times the workload and prints the end-to-end
   metrics; with --trace 1 it records spans around each layer call of
   every workload (the named one gets the largest share of the time)
   and prints the per-layer metrics.  Either way the last line of
   standard output is one JSON object with the keys correct, attempted,
   failed and metrics, and a fuller report (machine information,
   quartiles, digests, per-oracle findings) is written under
   .perfbench/. *)

open Perfbench

let usage = "bench_main --workload W --seed N --seconds S --trace 0|1"

let die fmt = Printf.ksprintf (fun s -> prerr_endline ("perfbench: " ^ s); exit 2) fmt

type args = { workload : string; seed : int; seconds : float; trace : bool }

let parse_args () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10.0 and trace = ref 0 in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "W  one of " ^ String.concat ", " Catalogue.workloads);
      ("--seed", Arg.Set_int seed, "N  input seed");
      ("--seconds", Arg.Set_float seconds, "S  measured time");
      ("--trace", Arg.Set_int trace, "0|1  untraced end-to-end run, or traced per-layer run");
    ]
    (fun a -> die "unexpected argument %S" a)
    usage;
  if not (List.mem !workload Catalogue.workloads) then die "unknown workload %S" !workload;
  if !seconds <= 0.0 then die "--seconds must be positive";
  if !trace <> 0 && !trace <> 1 then die "--trace must be 0 or 1";
  { workload = !workload; seed = !seed; seconds = !seconds; trace = !trace = 1 }

(* -- machine information ------------------------------------------------ *)

let read_file path =
  try
    let ic = open_in path in
    let n = in_channel_length ic in
    let s = really_input_string ic n in
    close_in ic;
    Some s
  with Sys_error _ | End_of_file -> None

let cpu_model () =
  match read_file "/proc/cpuinfo" with
  | None -> "unknown"
  | Some s -> (
    let lines = String.split_on_char '\n' s in
    match List.find_opt (String.starts_with ~prefix:"model name") lines with
    | Some l -> (
      match String.index_opt l ':' with
      | Some i -> String.trim (String.sub l (i + 1) (String.length l - i - 1))
      | None -> "unknown")
    | None -> "unknown")

let env k = Option.value ~default:"" (Sys.getenv_opt k)

let machine () =
  Json.Obj
    [
      ("nproc", Json.Int (Domain.recommended_domain_count ()));
      ("cpu_model", Json.String (cpu_model ()));
      ("ocaml_version", Json.String Sys.ocaml_version);
      ("ocamlrunparam", Json.String (env "OCAMLRUNPARAM"));
      ("commit", Json.String (match env "PERFBENCH_COMMIT" with "" -> "unknown" | c -> c));
      ("word_size", Json.Int Sys.word_size);
    ]

(* -- metric table ------------------------------------------------------- *)

let set = Report.set
let us_of_ns ns = ns /. 1e3
let ratio a b = if b = 0.0 then Float.nan else a /. b
let fi = float_of_int

let out_dir = ".perfbench"

let write_report name json =
  (try Sys.mkdir out_dir 0o755 with Sys_error _ -> ());
  let path = Filename.concat out_dir name in
  let oc = open_out path in
  output_string oc (Json.to_string json);
  output_char oc '\n';
  close_out oc;
  path

(* -- untraced run -------------------------------------------------------- *)

let setup_reps = 7

(* Generate the inputs, run the workload on them and read the heap
   peak; then time [setup_reps - 1] more generations, so that their
   garbage is not in the peak.  Returns the result, the median set-up
   time and the heap peak. *)
let with_setup gen run =
  let time_gen () =
    let t0 = Measure.now_ns () in
    let inputs = gen () in
    (inputs, Measure.secs_since t0)
  in
  let inputs, first = time_gen () in
  let r = run inputs in
  let heap = Measure.heap_peak_mb () in
  let times = Array.init (setup_reps - 1) (fun _ -> snd (time_gen ())) in
  (r, Measure.median (Array.append [| first |] times), heap)

type outcome = {
  attempted : int;
  failed : int;
  ok : bool;
  details : (string * Json.t) list;
}

let untraced a t =
  let seconds = a.seconds and seed = a.seed in
  let e2e ~setup_s ~heap timed =
    set t "setup_s" setup_s;
    set t "heap_peak_mb" heap;
    set t "throughput_per_s" (Measure.Timed.rate timed);
    set t "op_ms.p50" (Measure.Timed.quantile_ms timed 0.5);
    set t "op_ms.p90" (Measure.Timed.quantile_ms timed 0.9)
  in
  let operations timed =
    let quantiles q =
      Json.Obj (List.map (fun (k, p) -> (k, Json.Float (q p))) [ ("p50", 0.5); ("p90", 0.9); ("p95", 0.95); ("p99", 0.99) ])
    in
    [
      ("operations", Json.Int (Measure.Timed.operations timed));
      ("op_ms", quantiles (Measure.Timed.quantile_ms timed));
    ]
  in
  match a.workload with
  | "campaign" ->
    let r, setup_s, heap = with_setup (fun () -> Wl_campaign.generate ~seed) (Wl_campaign.run ~seconds) in
    e2e ~setup_s ~heap r.timed;
    {
      attempted = r.attempted;
      failed = r.failed;
      ok = r.failed = 0;
      details =
        operations r.timed
        @ [
          ("findings_per_oracle", Json.Obj (List.map (fun (k, v) -> (k, Json.Int v)) r.per_oracle));
          ( "findings",
            Json.List
              (List.map
                 (fun ((c : Wl_campaign.input), (f : Campaign.Oracle.finding)) ->
                   Json.Obj
                     [
                       ("oracle", Json.String (Campaign.Oracle.name f.oracle));
                       ("scenario", Json.String f.scenario);
                       ("stream_seed", Json.Int c.config.seed);
                       ("family", Json.String (Workload.Generator.family_name (Option.get c.config.family)));
                       ("tasks", Json.Int (Option.get c.config.n_tasks));
                       ("index", Json.Int f.index);
                       ("task", match f.task with Some t -> Json.Int t | None -> Json.Null);
                       ("message", Json.String f.message);
                     ])
                 r.findings) );
          ("mc_expansions", Json.Int r.mc_expansions);
          ("mc_truncated", Json.Int r.mc_truncated);
          ("digest", Json.String r.digest);
        ];
    }
  | "sim-dispatch" | "sim-observed" ->
    let r, setup_s, heap =
      if a.workload = "sim-dispatch" then
        with_setup (fun () -> Wl_sim.generate_dispatch ~seed) (Wl_sim.run_dispatch ~seconds)
      else with_setup (fun () -> Wl_sim.generate_observed ~seed) (Wl_sim.run_observed ~seconds)
    in
    e2e ~setup_s ~heap r.timed;
    {
      attempted = r.attempted;
      failed = r.failed;
      ok = r.failed = 0;
      details =
        operations r.timed
        @ [
          ("events", Json.Int r.events);
          ("minor_words_per_event", Json.Float r.minor_words_per_event);
          ("digest", Json.String r.digest);
        ];
    }
  | _ ->
    let r, setup_s, heap =
      with_setup (fun () -> Wl_breakdown.generate ~seed) (Wl_breakdown.run ~seconds)
    in
    e2e ~setup_s ~heap r.timed;
    {
      attempted = r.attempted;
      failed = r.failed;
      ok = r.failed = 0;
      details =
        operations r.timed
        @ [ ("digest", Json.String r.digest) ];
    }

(* -- traced run ----------------------------------------------------------- *)

let p50 xs = Measure.quantile xs 0.5
let p99 xs = Measure.quantile xs 0.99
let bool_metric b = if b then 1.0 else 0.0

let traced a t =
  let seed = a.seed in
  let sp = Spans.create () in
  let budget w = a.seconds *. if w = a.workload then 0.4 else 0.15 in
  let gc_majors = ref 0 in
  let measured w f =
    let g0 = (Gc.quick_stat ()).major_collections in
    let v = f () in
    if w = a.workload then gc_majors := (Gc.quick_stat ()).major_collections - g0;
    v
  in
  (* workload layer: scenario spec generation and realization *)
  let specs_us =
    Array.init 5 (fun _ ->
        let t0 = Measure.now_ns () in
        ignore (Workload.Generator.scenario_specs ~seed ~count:Wl_sim.observed_count ());
        us_of_ns (fi (Measure.now_ns () - t0)))
  in
  set t "workload.specs_us" (p50 specs_us);
  let realize_us =
    Array.of_list
      (List.map
         (fun spec ->
           let t0 = Measure.now_ns () in
           ignore (Workload.Generator.realize spec);
           us_of_ns (fi (Measure.now_ns () - t0)))
         (Workload.Generator.scenario_specs ~seed ~count:Wl_sim.observed_count ()))
  in
  set t "workload.realize_us.p50" (p50 realize_us);
  (* campaign *)
  let c =
    measured "campaign" (fun () ->
        Wl_campaign.traced ~sp ~seconds:(budget "campaign") (Wl_campaign.generate ~seed))
  in
  let dus name = Spans.durations_us sp name in
  set t "mc.build_us.p50" (p50 (dus "mc.build"));
  let check_ms = Array.map (fun us -> us /. 1e3) (dus "mc.check") in
  set t "mc.check_ms.p50" (p50 check_ms);
  set t "mc.check_ms.p99" (p99 check_ms);
  set t "mc.expansions" (fi c.t_prefix_expansions);
  set t "mc.expansions_per_s" (ratio (fi c.t_expansions) (fi (Spans.total_ns sp "mc.check") /. 1e9));
  set t "mc.truncated_share" (ratio (fi c.t_truncated) (fi c.t_scenarios));
  set t "check.mc_expansions_equal" (bool_metric (c.t_expansions = c.t_eval_expansions));
  set t "check.self_times_account" (bool_metric c.t_self_sum_ok);
  List.iter
    (fun (metric, span) -> set t metric (p50 (dus span)))
    [
      ("lint.run_us.p50", "lint.run");
      ("lint.blocking_terms_us.p50", "lint.blocking_terms");
      ("absint.analyze_us.p50", "absint.analyze");
      ("analysis.rta_us.p50", "analysis.rta");
      ("inject.run_us.p50", "inject.run");
      ("fabric.e2e_us.p50", "fabric.e2e");
    ];
  set t "absint.analyze_us.p99" (p99 (dus "absint.analyze"));
  let eval_ns = fi c.t_eval_ns in
  List.iter
    (fun s ->
      set t ("campaign.stage_share." ^ s) (ratio (fi (Spans.total_ns sp ("stage." ^ s))) eval_ns))
    Wl_campaign.stage_names;
  let layer_ns =
    List.fold_left (fun acc name -> acc + Spans.total_ns sp name) 0 Wl_campaign.layer_names
  in
  set t "campaign.unattributed_share" (ratio (eval_ns -. fi layer_ns) eval_ns);
  set t "campaign.replay_ratio" (ratio (fi c.t_replay_plain_ns) eval_ns);
  set t "trace.overhead_share.campaign"
    (ratio (fi (c.t_replay_traced_ns - c.t_replay_plain_ns)) (fi c.t_replay_plain_ns));
  set t "gc.minor_words_per_scenario" c.t_minor_words;
  (* breakdown *)
  let b =
    measured "breakdown" (fun () ->
        Wl_breakdown.traced ~sp ~seconds:(budget "breakdown") (Wl_breakdown.generate ~seed))
  in
  List.iter
    (fun s ->
      let i = Wl_breakdown.sched_index s in
      set t
        ("analysis.breakdown_ms." ^ Wl_breakdown.sched_name s)
        (Measure.Sample.quantile b.search_ms.(i) 0.5))
    Wl_breakdown.scheds;
  List.iter
    (fun s ->
      let i = Wl_breakdown.sched_index s in
      set t
        ("analysis.feasible_calls." ^ Wl_breakdown.sched_name s)
        (ratio (fi b.calls.(i)) (fi b.searches.(i))))
    [ Wl_breakdown.Edf; Wl_breakdown.Rm ];
  set t "trace.overhead_share.breakdown" (ratio (fi (b.traced_ns - b.plain_ns)) (fi b.plain_ns));
  set t "trace.unattributed_share.breakdown"
    (ratio (fi (b.traced_ns - b.feasible_ns)) (fi b.traced_ns));
  (* sim-dispatch *)
  let d = Wl_sim.new_traced () in
  measured "sim-dispatch" (fun () ->
      Wl_sim.traced_dispatch d sp ~seconds:(budget "sim-dispatch") (Wl_sim.generate_dispatch ~seed));
  List.iter
    (fun k ->
      let s = d.step_ns.(Wl_sim.sched_index k) in
      set t ("kernel.step_ns.p50." ^ Wl_sim.sched_name k) (Measure.Sample.quantile s 0.5);
      set t ("kernel.step_ns.p99." ^ Wl_sim.sched_name k) (Measure.Sample.quantile s 0.99))
    Wl_sim.sched_kinds;
  set t "engine.events" (fi d.x_events);
  set t "engine.pending.p50" (Measure.Sample.quantile d.pending 0.5);
  set t "engine.pending.max" (fi d.pending_max);
  set t "kernel.jobs" (fi d.x_jobs);
  set t "kernel.context_switches" (fi d.x_switches);
  set t "kernel.events_per_job" (ratio (fi d.x_events) (fi d.x_jobs));
  set t "gc.minor_words_per_event" (ratio d.plain_words (fi d.plain_events));
  set t "trace.overhead_share.sim-dispatch" (ratio (fi (d.traced_ns - d.plain_ns)) (fi d.plain_ns));
  set t "trace.unattributed_share.sim-dispatch"
    (ratio (fi (d.traced_ns - d.stepped_ns)) (fi d.traced_ns));
  (* sim-observed *)
  let o = Wl_sim.new_traced () in
  measured "sim-observed" (fun () ->
      Wl_sim.traced_observed o sp ~seconds:(budget "sim-observed") (Wl_sim.generate_observed ~seed));
  set t "kernel.step_ns.p50.observed" (Measure.Sample.quantile o.step_ns.(4) 0.5);
  set t "trace.entries" (fi o.x_entries);
  let per_event ns = ratio (fi (ns - o.obs_none_ns)) (fi o.obs_events) in
  set t "obs.metrics_ns_per_event" (per_event o.obs_metrics_ns);
  set t "obs.blame_ns_per_event" (per_event o.obs_blame_ns);
  set t "trace.overhead_share.sim-observed" (ratio (fi (o.traced_ns - o.plain_ns)) (fi o.plain_ns));
  set t "trace.unattributed_share.sim-observed"
    (ratio (fi (o.traced_ns - o.stepped_ns)) (fi o.traced_ns));
  set t "gc.minor_words_per_event.observed" (ratio o.plain_words (fi o.plain_events));
  set t "gc.major_collections" (fi !gc_majors);
  (* micro rows *)
  let depth = max 1 (int_of_float (Measure.Sample.quantile d.pending 0.5)) in
  let rows =
    Layers.readyq_rows ()
    @ [ Layers.engine_row ~depth ]
    @ Layers.trace_rows () @ Layers.feasible_rows ~seed
  in
  List.iter
    (fun (r : Measure.row) ->
      set t (r.r_name ^ ".words") r.r_words;
      match String.split_on_char '.' r.r_name with
      | [ "analysis"; "feasible_ns"; s ] -> set t ("analysis.feasible_us." ^ s) (us_of_ns r.r_ns_p50)
      | _ -> set t r.r_name r.r_ns_p50)
    rows;
  let spans_path =
    Filename.concat out_dir (Printf.sprintf "spans-%s-seed%d.jsonl" a.workload a.seed)
  in
  (try Sys.mkdir out_dir 0o755 with Sys_error _ -> ());
  Spans.write sp spans_path;
  let attempted = c.t_scenarios + Array.fold_left ( + ) 0 b.searches + d.sims + o.sims in
  let failed = c.t_failed + b.failed + d.failed + o.failed in
  let checks_ok = c.t_expansions = c.t_eval_expansions && c.t_self_sum_ok in
  {
    attempted;
    failed;
    ok = failed = 0 && checks_ok;
    details =
      [
        ("rows", Json.List (List.map Measure.row_json rows));
        ("spans", Json.String spans_path);
        ("span_summary", Json.List (Spans.summary sp));
        ( "ops",
          Json.Obj
            [
              ("campaign_scenarios", Json.Int c.t_scenarios);
              ("breakdown_searches", Json.Int (Array.fold_left ( + ) 0 b.searches));
              ("dispatch_sims", Json.Int d.sims);
              ("observed_sims", Json.Int o.sims);
            ] );
      ];
  }

let () =
  let a = parse_args () in
  let t = Report.create () in
  let calib_before = Measure.calibration_ms () in
  let o = if a.trace then traced a t else untraced a t in
  let calib_after = Measure.calibration_ms () in
  set t "host.calibration_ms" (Float.min calib_before calib_after);
  let catalogue = if a.trace then Catalogue.per_layer else Catalogue.end_to_end in
  let metrics, missing = Report.metrics_json t catalogue in
  List.iter (fun m -> Printf.eprintf "perfbench: metric %s was not measured\n%!" m) missing;
  let correct = o.ok && missing = [] && o.attempted > 0 in
  let report =
    Json.Obj
      ([
         ("workload", Json.String a.workload);
         ("seed", Json.Int a.seed);
         ("seconds", Json.Float a.seconds);
         ("trace", Json.Bool a.trace);
         ("machine", machine ());
         ("host_calibration_ms", Json.List [ Json.Float calib_before; Json.Float calib_after ]);
         ("correct", Json.Bool correct);
         ("attempted", Json.Int o.attempted);
         ("failed", Json.Int o.failed);
         ("metrics", metrics);
       ]
      @ o.details)
  in
  let path =
    write_report
      (Printf.sprintf "%s-seed%d-trace%d.json" a.workload a.seed (if a.trace then 1 else 0))
      report
  in
  Printf.printf "report: %s\n" path;
  print_endline
    (Json.to_string (Report.result_line ~correct ~attempted:o.attempted ~failed:o.failed metrics))
