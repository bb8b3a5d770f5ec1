(* Every metric the benchmark reports, with its unit.  BENCHMARK.json
   lists exactly these; the benchmark's test checks the two agree. *)

let workloads = [ "campaign"; "sim-dispatch"; "sim-observed"; "breakdown" ]

(* Reported by every untraced run.  The operation and the unit of work
   depend on the workload:
   - campaign: a scenario; throughput in scenarios/s;
   - sim-dispatch, sim-observed: a 100 ms simulated window; throughput
     in simulated kernel events/s;
   - breakdown: one breakdown-utilization search; throughput in
     searches/s. *)
let end_to_end =
  [
    ("setup_s", "s");
    ("heap_peak_mb", "MB");
    ("throughput_per_s", "1/s");
    ("op_ms.p50", "ms");
    ("op_ms.p90", "ms");
  ]

let micro_rows =
  List.concat_map
    (fun n ->
      List.concat_map
        (fun op ->
          List.map (fun q -> Printf.sprintf "readyq.%s_ns.%s.n%d" op q n) [ "edf"; "rm"; "heap" ])
        [ "select"; "block_unblock" ])
    [ 8; 64 ]
  @ [
      "engine.schedule_step_ns";
      "trace.emit_ns.keep";
      "trace.emit_ns.drop";
      "probe.emit_ns.nosub";
      "probe.emit_ns.onesub";
      "analysis.feasible_ns.rm";
      "analysis.feasible_ns.edf";
      "analysis.feasible_ns.csd3";
    ]

(* Reported by every traced run. *)
let per_layer =
  [
    ("mc.build_us.p50", "us");
    ("mc.check_ms.p50", "ms");
    ("mc.check_ms.p99", "ms");
    ("mc.expansions", "count");
    ("mc.expansions_per_s", "1/s");
    ("mc.truncated_share", "ratio");
    ("check.mc_expansions_equal", "bool");
    ("check.self_times_account", "bool");
    ("lint.run_us.p50", "us");
    ("lint.blocking_terms_us.p50", "us");
    ("absint.analyze_us.p50", "us");
    ("absint.analyze_us.p99", "us");
    ("analysis.rta_us.p50", "us");
    ("inject.run_us.p50", "us");
    ("fabric.e2e_us.p50", "us");
    ("campaign.stage_share.statics", "ratio");
    ("campaign.stage_share.sim", "ratio");
    ("campaign.stage_share.e2e", "ratio");
    ("campaign.stage_share.mc", "ratio");
    ("campaign.unattributed_share", "ratio");
    ("campaign.replay_ratio", "ratio");
  ]
  @ List.map (fun s -> ("analysis.breakdown_ms." ^ s, "ms")) [ "edf"; "rm"; "csd2"; "csd3"; "csd4" ]
  @ List.map (fun s -> ("analysis.feasible_us." ^ s, "us")) [ "rm"; "edf"; "csd3" ]
  @ List.map (fun s -> ("analysis.feasible_calls." ^ s, "count")) [ "rm"; "edf" ]
  @ [
      ("engine.events", "count");
      ("engine.pending.p50", "count");
      ("engine.pending.max", "count");
    ]
  @ List.filter_map
      (fun r ->
        if String.starts_with ~prefix:"analysis.feasible_ns" r then None else Some (r, "ns"))
      micro_rows
  @ List.map (fun r -> (r ^ ".words", "words")) micro_rows
  @ List.concat_map
      (fun q ->
        List.map
          (fun s -> (Printf.sprintf "kernel.step_ns.%s.%s" q s, "ns"))
          [ "rm"; "edf"; "rm_heap"; "csd3" ])
      [ "p50"; "p99" ]
  @ [
      ("kernel.step_ns.p50.observed", "ns");
      ("kernel.jobs", "count");
      ("kernel.context_switches", "count");
      ("kernel.events_per_job", "ratio");
      ("trace.entries", "count");
      ("obs.metrics_ns_per_event", "ns");
      ("obs.blame_ns_per_event", "ns");
      ("workload.specs_us", "us");
      ("workload.realize_us.p50", "us");
      ("gc.minor_words_per_event", "words");
      ("gc.minor_words_per_event.observed", "words");
      ("gc.minor_words_per_scenario", "words");
      ("gc.major_collections", "count");
      ("host.calibration_ms", "ms");
    ]
  @ List.map (fun w -> ("trace.overhead_share." ^ w, "ratio")) workloads
  @ List.map
      (fun w -> ("trace.unattributed_share." ^ w, "ratio"))
      [ "sim-dispatch"; "sim-observed"; "breakdown" ]
