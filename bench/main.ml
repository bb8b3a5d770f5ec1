(* Benchmark harness.

   Two layers:

   1. Bechamel micro-benchmarks — one [Test.make] per table/figure,
      timing the host-native cost of the operation that drives that
      result (the paper's own Table 1 numbers are 68040 timings of the
      same operations, so these are this repository's "measured on our
      hardware" column).

   2. The experiment drivers — regenerate every table and figure of the
      evaluation section (the same drivers the CLI exposes), printed in
      full after the micro-benchmarks.

   Run with: dune exec bench/main.exe
   Pass --quick to skip the breakdown sweep's full workload count,
   --seed N to re-seed every stochastic subject (random task sets, the
   breakdown sweep) reproducibly, --json PATH for a machine-readable
   per-benchmark dump, --check PATH to compare against a committed
   baseline (exits 1 when any subject runs >25% slower; skips the
   experiment tables). *)

open Bechamel
open Toolkit

(* ------------------------------------------------------------------ *)
(* Subjects *)

let n_tasks = 32

(* Table 1: queue-structure operations. *)
let edf_queue_subject () =
  let open Emeralds in
  let q = Readyq.Edf_queue.create () in
  for i = 0 to n_tasks - 1 do
    Readyq.Edf_queue.add q (Mock.tcb ~tid:i ())
  done;
  fun () -> ignore (Readyq.Edf_queue.select q)

let rm_queue_subject () =
  let open Emeralds in
  let q = Readyq.Rm_queue.create () in
  let tcbs = Array.init n_tasks (fun i -> Mock.tcb ~tid:i ()) in
  Array.iter (fun t -> Readyq.Rm_queue.add q t) tcbs;
  let victim = tcbs.(0) in
  fun () ->
    victim.Emeralds.Types.state <- Emeralds.Types.Blocked "bench";
    ignore (Readyq.Rm_queue.note_blocked q victim);
    victim.Emeralds.Types.state <- Emeralds.Types.Ready;
    Readyq.Rm_queue.note_unblocked q victim

let heap_queue_subject () =
  let open Emeralds in
  let q = Readyq.Heap_queue.create () in
  let tcbs = Array.init n_tasks (fun i -> Mock.tcb ~tid:i ()) in
  Array.iter (fun t -> Readyq.Heap_queue.note_unblocked q t) tcbs;
  let victim = tcbs.(0) in
  fun () ->
    Readyq.Heap_queue.note_blocked q victim;
    Readyq.Heap_queue.note_unblocked q victim

(* Figure 2: one hyperperiod of the Table 2 workload under RM. *)
let figure2_subject () =
 fun () ->
  let k =
    Emeralds.Kernel.create ~keep_trace:false ~cost:Sim.Cost.zero
      ~spec:Emeralds.Sched.Rm ~taskset:Workload.Presets.table2 ()
  in
  Emeralds.Kernel.run k ~until:(Model.Time.ms 100)

(* Figures 3-5: one breakdown-utilization search (CSD-3, 20 tasks). *)
let breakdown_subject ~seed () =
  let taskset =
    Workload.Generator.random_taskset ~rng:(Util.Rng.create ~seed) ~n:20 ()
  in
  fun () ->
    ignore (Analysis.Breakdown.of_csd ~cost:Sim.Cost.m68040 ~queues:3 taskset)

(* Table 3: a CSD-3 schedulability test. *)
let csd_test_subject ~seed () =
  let taskset =
    Workload.Generator.random_taskset
      ~rng:(Util.Rng.create ~seed:(seed + 1))
      ~n:20 ~target_u:0.8 ()
  in
  fun () ->
    ignore
      (Analysis.Feasibility.feasible ~cost:Sim.Cost.m68040
         ~spec:(Emeralds.Sched.Csd [ 4; 6 ])
         taskset)

(* Figures 11/12: one full semaphore scenario simulation. *)
let sem_scenario_subject ~fp () =
 fun () -> ignore (Experiments.Exp_sem.dp_fp_probe ~fp ~queue_len:15)

(* Section 7: state-message write+read vs a mailbox transfer. *)
let state_msg_subject () =
  let sm = Emeralds.State_msg.create ~depth:4 ~words:16 in
  let payload = Array.make 16 42 in
  fun () ->
    Emeralds.State_msg.write sm payload;
    ignore (Emeralds.State_msg.read sm)

(* lib/absint: a whole-scenario abstract interpretation (fixpoint,
   lint cross-check, footprint derivation) — the static cost that buys
   the sound bounds. *)
let absint_subject () =
  let sc = Option.get (Workload.Scenario.make "engine") in
  fun () -> ignore (Absint.Report.analyze sc)

(* Path-sensitive analysis over structured control flow: the branchy
   preset's branch joins, loop-bound multiplication and live-block
   extrapolation — the marginal cost of path sensitivity relative to
   absint/analyze-engine's straight-line programs. *)
let absint_branchy_subject () =
  let sc = Option.get (Workload.Scenario.make "branchy") in
  fun () -> ignore (Absint.Report.analyze sc)

(* Enforcement overhead: the Figure 2 simulation with per-task budgets
   installed.  With budgets equal to the declared WCETs no exhaustion
   event ever arms (an exact-budget job cannot cross), so the delta
   against figure2/rm-sim-100ms is the pure dispatch-path bookkeeping
   — the budget-timer arm check at every compute start plus the
   consumption accounting at every preemption.  With budgets at 90%,
   every job arms and fires the budget-exhaustion event, timing the
   full arm/fire/handle path. *)
let enforced_subject ~pct () =
 fun () ->
  let k =
    Emeralds.Kernel.create ~keep_trace:false ~cost:Sim.Cost.zero
      ~spec:Emeralds.Sched.Rm ~taskset:Workload.Presets.table2 ()
  in
  Emeralds.Kernel.set_enforcement k
    (Some
       {
         Emeralds.Kernel.budget_of =
           (fun t -> Some (t.Model.Task.wcet * pct / 100));
         policy = Emeralds.Kernel.Notify_only;
         miss = Emeralds.Kernel.Miss_record;
         shed_one_in = None;
       });
  Emeralds.Kernel.run k ~until:(Model.Time.ms 100)

(* Observability overhead, against figure2/rm-sim-100ms as the
   probes-disabled baseline (that subject has no subscribers, so every
   emission takes the probe hub's one-compare fast path).  The metrics
   subject streams every event into histograms; the flightrec subject
   additionally keeps a 32 KB armed ring. *)
let obs_metrics_subject () =
 fun () ->
  let k =
    Emeralds.Kernel.create ~keep_trace:false ~cost:Sim.Cost.zero
      ~spec:Emeralds.Sched.Rm ~taskset:Workload.Presets.table2 ()
  in
  let m = Obs.Metrics.create () in
  Obs.Metrics.attach m (Emeralds.Kernel.probe k);
  Emeralds.Kernel.run k ~until:(Model.Time.ms 100)

let obs_flightrec_subject () =
 fun () ->
  let k =
    Emeralds.Kernel.create ~keep_trace:false ~cost:Sim.Cost.zero
      ~spec:Emeralds.Sched.Rm ~taskset:Workload.Presets.table2 ()
  in
  let m = Obs.Metrics.create () in
  Obs.Metrics.attach m (Emeralds.Kernel.probe k);
  let fr =
    Obs.Flightrec.create ~bytes:32_768
      ~triggers:[ Obs.Flightrec.On_miss; On_overrun; On_kill ]
      ()
  in
  Obs.Flightrec.attach fr (Emeralds.Kernel.probe k);
  Emeralds.Kernel.run k ~until:(Model.Time.ms 100)

let obs_blame_subject () =
 fun () ->
  let k =
    Emeralds.Kernel.create ~keep_trace:false ~cost:Sim.Cost.zero
      ~spec:Emeralds.Sched.Rm ~taskset:Workload.Presets.table2 ()
  in
  let b =
    Obs.Blame.create ~tasks:(Obs.Blame.of_taskset Workload.Presets.table2) ()
  in
  Obs.Blame.attach b (Emeralds.Kernel.probe k);
  Emeralds.Kernel.run k ~until:(Model.Time.ms 100)

(* lib/campaign: the generation half of a 1000-scenario campaign.
   Spec streams are split off seed and index alone, so this is the
   fixed up-front cost every campaign pays before any oracle runs —
   and the piece whose cost scales with --count rather than with
   scenario difficulty. *)
let campaign_gen_subject ~seed () =
 fun () -> ignore (Workload.Generator.scenario_specs ~seed ~count:1000 ())

(* lib/fabric: the steady three-shard fabric (the CLI's `fabric
   --preset steady`) run fault-free to 100 ms.  Times the whole
   multikernel stack — three kernels interleaved on one engine plus the
   heartbeat/detector traffic through the CAN model and the reliable
   layer — so it is the baseline cost any failover measurement sits on
   top of. *)
let fabric_steady_subject () =
  let task ~id ~period_ms ~wcet_ms =
    Model.Task.make ~id
      ~period:(Model.Time.ms period_ms)
      ~wcet:(Model.Time.ms wcet_ms) ()
  in
  let assignments =
    [
      (0, [ task ~id:1 ~period_ms:20 ~wcet_ms:2;
            task ~id:2 ~period_ms:40 ~wcet_ms:4 ]);
      (1, [ task ~id:3 ~period_ms:20 ~wcet_ms:2;
            task ~id:4 ~period_ms:50 ~wcet_ms:5 ]);
      (2, [ task ~id:5 ~period_ms:25 ~wcet_ms:2 ]);
    ]
  in
  fun () ->
    let engine = Sim.Engine.create () in
    let bus = Fieldbus.Bus.create ~engine ~bitrate_bps:1_000_000 () in
    let cluster =
      Fabric.Cluster.create ~engine ~bus ~cost:Sim.Cost.m68040
        ~spec:Emeralds.Sched.Edf ~seed:11 ~assignments ()
    in
    Fabric.Cluster.install_plan cluster Fault.Plan.empty;
    Fabric.Cluster.run cluster ~until:(Model.Time.ms 100)

let tests ~seed =
  Test.make_grouped ~name:"emeralds"
    [
      Test.make ~name:"table1/edf-select-n32" (Staged.stage (edf_queue_subject ()));
      Test.make ~name:"table1/rm-block-unblock-n32"
        (Staged.stage (rm_queue_subject ()));
      Test.make ~name:"table1/heap-block-unblock-n32"
        (Staged.stage (heap_queue_subject ()));
      Test.make ~name:"figure2/rm-sim-100ms" (Staged.stage (figure2_subject ()));
      Test.make ~name:"obs/rm-sim-metrics-100ms"
        (Staged.stage (obs_metrics_subject ()));
      Test.make ~name:"obs/rm-sim-flightrec-100ms"
        (Staged.stage (obs_flightrec_subject ()));
      Test.make ~name:"obs/rm-sim-blame-100ms"
        (Staged.stage (obs_blame_subject ()));
      Test.make ~name:"fault/rm-sim-enforced-100ms"
        (Staged.stage (enforced_subject ~pct:100 ()));
      Test.make ~name:"fault/rm-sim-overrun-100ms"
        (Staged.stage (enforced_subject ~pct:90 ()));
      Test.make ~name:"figures3to5/breakdown-csd3-n20"
        (Staged.stage (breakdown_subject ~seed ()));
      Test.make ~name:"table3/csd3-feasibility-n20"
        (Staged.stage (csd_test_subject ~seed ()));
      Test.make ~name:"figure11/sem-scenario-dp"
        (Staged.stage (sem_scenario_subject ~fp:false ()));
      Test.make ~name:"figure12/sem-scenario-fp"
        (Staged.stage (sem_scenario_subject ~fp:true ()));
      Test.make ~name:"ipc/state-msg-write-read-16w"
        (Staged.stage (state_msg_subject ()));
      Test.make ~name:"absint/analyze-engine"
        (Staged.stage (absint_subject ()));
      Test.make ~name:"absint/branchy-analyze"
        (Staged.stage (absint_branchy_subject ()));
      Test.make ~name:"campaign/gen-1k"
        (Staged.stage (campaign_gen_subject ~seed ()));
      Test.make ~name:"fieldbus/fabric-steady-100ms"
        (Staged.stage (fabric_steady_subject ()));
      Test.make ~name:"cyclic/table-generation"
        (Staged.stage (fun () ->
             ignore
               (Analysis.Cyclic.generate
                  (Model.Taskset.of_list
                     [
                       Model.Task.make ~id:1 ~period:(Model.Time.ms 5)
                         ~wcet:(Model.Time.ms 1) ();
                       Model.Task.make ~id:2 ~period:(Model.Time.ms 7)
                         ~wcet:(Model.Time.ms 1) ();
                       Model.Task.make ~id:3 ~period:(Model.Time.ms 11)
                         ~wcet:(Model.Time.ms 1) ();
                     ]))));
    ]

(* ------------------------------------------------------------------ *)
(* Runner *)

let run_benchmarks ~seed ~json_path () =
  let cfg =
    Benchmark.cfg ~limit:1000 ~stabilize:true ~quota:(Time.second 0.25) ()
  in
  let raw = Benchmark.all cfg Instance.[ monotonic_clock ] (tests ~seed) in
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |]
  in
  let results = Analyze.all ols Instance.monotonic_clock raw in
  let rows =
    Hashtbl.fold
      (fun name ols acc ->
        let ns =
          match Analyze.OLS.estimates ols with
          | Some (e :: _) -> Some e
          | Some [] | None -> None
        in
        (name, ns, Analyze.OLS.r_square ols) :: acc)
      results []
    |> List.sort (fun (a, _, _) (b, _, _) -> compare a b)
  in
  let t = Util.Tablefmt.create ~headers:[ "benchmark"; "ns/run"; "r2" ] in
  List.iter
    (fun (name, ns, r2) ->
      let ns =
        match ns with Some e -> Printf.sprintf "%.0f" e | None -> "-"
      in
      let r2 =
        match r2 with Some r -> Printf.sprintf "%.4f" r | None -> "-"
      in
      Util.Tablefmt.add_row t [ name; ns; r2 ])
    rows;
  print_endline "host micro-benchmarks (one per table/figure):";
  print_string (Util.Tablefmt.render t);
  print_newline ();
  (match json_path with
  | None -> ()
  | Some path ->
    (* machine-readable per-benchmark ns/op for CI artifacts *)
    let float = function Some f -> Util.Json.Float f | None -> Null in
    let item (name, ns, r2) =
      Util.Json.Obj [ ("name", String name); ("ns_per_op", float ns); ("r_square", float r2) ]
    in
    Out_channel.with_open_text path (fun oc ->
        Out_channel.output_string oc
          (Util.Json.to_string (List (List.map item rows)) ^ "\n"));
    Printf.printf "benchmark JSON written to %s\n\n" path);
  rows

(* ------------------------------------------------------------------ *)
(* Baseline regression check *)

(* The baseline is a file this harness wrote with --json: an array of
   {"name", "ns_per_op", ...} rows. *)
let parse_baseline path =
  let fail msg =
    Printf.eprintf "cannot read baseline %s: %s\n" path msg;
    exit 2
  in
  let text =
    try In_channel.with_open_text path In_channel.input_all
    with Sys_error e -> fail e
  in
  let row item =
    match Util.Json.(member "name" item, member "ns_per_op" item) with
    | Some (String name), Some (Float ns) -> (name, Some ns)
    | Some (String name), Some (Int ns) -> (name, Some (float_of_int ns))
    | Some (String name), _ -> (name, None)
    | _ -> fail "row without a name"
  in
  match Util.Json.of_string text with
  | Ok (List items) -> List.map row items
  | Ok _ -> fail "expected an array of rows"
  | Error e -> fail e

let regression_threshold = 1.25 (* >25% slower than baseline fails *)

let check_against ~baseline_path rows =
  let base = parse_baseline baseline_path in
  if base = [] then begin
    Printf.eprintf "baseline %s holds no benchmark entries\n" baseline_path;
    exit 2
  end;
  let regressions = ref [] in
  Printf.printf "regression check vs %s (threshold +%.0f%%):\n" baseline_path
    ((regression_threshold -. 1.) *. 100.);
  List.iter
    (fun (name, ns, _) ->
      match (ns, List.assoc_opt name base) with
      | Some cur, Some (Some b) when b > 0. ->
        let pct = ((cur /. b) -. 1.) *. 100. in
        let flag = cur > b *. regression_threshold in
        Printf.printf "  %-34s %10.1f -> %10.1f ns/op  %+6.1f%%%s\n" name b
          cur pct
          (if flag then "  REGRESSION" else "");
        if flag then regressions := name :: !regressions
      | Some _, Some (Some _) ->
        (* non-positive baseline value: unusable, treat as missing *)
        Printf.printf "  %-34s (no baseline entry, skipped)\n" name
      | _, (None | Some None) ->
        Printf.printf "  %-34s (no baseline entry, skipped)\n" name
      | None, _ -> Printf.printf "  %-34s (no estimate, skipped)\n" name)
    rows;
  if !regressions <> [] then begin
    Printf.printf "FAIL: %d benchmark(s) regressed >%.0f%%\n"
      (List.length !regressions)
      ((regression_threshold -. 1.) *. 100.);
    exit 1
  end
  else print_endline "OK: no benchmark regressed beyond the threshold"

(* ------------------------------------------------------------------ *)
(* Experiment tables *)

let run_experiments ~seed ~workloads =
  let sections =
    [
      Experiments.Exp_table1.run ();
      Experiments.Exp_figure2.run ();
      Experiments.Exp_figures3_5.run ~seed ~workloads ();
      Experiments.Exp_table3.run ();
      Experiments.Exp_sem.run ();
      Experiments.Exp_ipc.run ();
      Experiments.Exp_cyclic.run ();
      Experiments.Exp_ablation.run ();
      Experiments.Exp_interrupt.run ();
    ]
  in
  List.iter
    (fun s ->
      print_endline s;
      print_newline ())
    sections

let () =
  let argv = Array.to_list Sys.argv in
  let quick = List.mem "--quick" argv in
  let json_path =
    let rec find = function
      | "--json" :: path :: _ -> Some path
      | _ :: tl -> find tl
      | [] -> None
    in
    find argv
  in
  let check_path =
    let rec find = function
      | "--check" :: path :: _ -> Some path
      | _ :: tl -> find tl
      | [] -> None
    in
    find argv
  in
  let seed =
    (* default 11: the fixed seed the breakdown subject always used *)
    let rec find = function
      | "--seed" :: v :: _ -> (
        match int_of_string_opt v with
        | Some s -> s
        | None ->
          prerr_endline "bad --seed (expected an integer)";
          exit 2)
      | _ :: tl -> find tl
      | [] -> 11
    in
    find argv
  in
  let rows = run_benchmarks ~seed ~json_path () in
  match check_path with
  | Some path ->
    (* check mode is for CI gating: compare and exit, skip the
       experiment tables *)
    check_against ~baseline_path:path rows
  | None -> run_experiments ~seed ~workloads:(if quick then 8 else 30)
