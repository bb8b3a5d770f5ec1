(* The two simulation workloads.  The benchmark drives [Kernel.step]
   itself in consecutive 100 ms simulated windows; one operation is one
   window.

   - sim-dispatch: [Generator.batch] task sets of 8-64 tasks with
     compute-only programs, the scheduler cycled over RM, EDF, RM-heap
     and CSD-3, [keep_trace:false] and no probe subscriber — the
     dispatch path alone.
   - sim-observed: generated scenarios (semaphores, mailboxes, state
     messages, pools, IRQs, sporadic tasks) under RM with the trace kept
     and [Obs.Metrics] and [Obs.Blame] attached.

   A simulation fails (and with it every window it ran) when a window
   raises, [Kernel.check_invariants] fails at its end, or its digest
   disagrees with an independent reference run of the same inputs. *)

let window = Model.Time.ms 100
let dispatch_windows = 5
let dispatch_ns = [ 8; 16; 24; 32; 40; 48; 56; 64 ]
let dispatch_rounds = 64
let observed_count = 264

(* Every [reference_every]-th simulation is re-run from scratch through
   [Kernel.run] (dispatch) or [Fault.Inject.run] (observed), outside
   the timed windows, and must agree bit for bit. *)
let reference_every = 8

type sched_kind = Rm | Edf | Rm_heap | Csd3

let sched_kinds = [ Rm; Edf; Rm_heap; Csd3 ]
let sched_name = function Rm -> "rm" | Edf -> "edf" | Rm_heap -> "rm_heap" | Csd3 -> "csd3"
let sched_index = function Rm -> 0 | Edf -> 1 | Rm_heap -> 2 | Csd3 -> 3

let sched_spec kind n =
  match kind with
  | Rm -> Emeralds.Sched.Rm
  | Edf -> Emeralds.Sched.Edf
  | Rm_heap -> Emeralds.Sched.Rm_heap
  | Csd3 -> Emeralds.Sched.Csd [ max 1 (n / 4); max 1 (n / 4) ]

(* -- inputs ------------------------------------------------------------ *)

type dsim = { d_kind : sched_kind; d_taskset : Model.Taskset.t }

(* Round-major: every round holds each (task count, scheduler) pair
   once, so any whole number of rounds has the same mix. *)
let generate_dispatch ~seed =
  let per_n =
    List.map
      (fun n ->
        Array.of_list
          (Workload.Generator.batch ~seed:((seed * 1009) + n) ~n ~count:dispatch_rounds
             ~target_u:0.7 ()))
      dispatch_ns
  in
  Array.concat
    (List.init dispatch_rounds (fun r ->
         Array.concat
           (List.map
              (fun sets ->
                Array.of_list
                  (List.map (fun k -> { d_kind = k; d_taskset = sets.(r) }) sched_kinds))
              per_n)))

let dispatch_round_len = List.length dispatch_ns * List.length sched_kinds

type osim = { o_spec : Workload.Generator.spec; mutable o_sc : Workload.Scenario.t option }

(* Stratified like the campaign: one [scenario_specs] stream per
   (family, task count) pair, interleaved so every round of
   [observed_round] consecutive scenarios holds one of each. *)
let observed_round = Wl_campaign.round

let generate_observed ~seed =
  let streams =
    List.mapi
      (fun k (family, n) ->
        Array.of_list
          (Workload.Generator.scenario_specs ~seed:((seed * 100) + k)
             ~count:(observed_count / observed_round) ~family ~n ()))
      Wl_campaign.strata
  in
  Array.concat
    (List.init (observed_count / observed_round) (fun j ->
         Array.of_list
           (List.map
              (fun specs ->
                let spec = specs.(j) in
                { o_spec = spec; o_sc = Some (Workload.Generator.realize spec) })
              streams)))

(* A realized scenario is consumed by the kernel that runs it: take the
   pre-realized one once, realize afresh after that (untimed). *)
let take_scenario o =
  match o.o_sc with
  | Some sc ->
    o.o_sc <- None;
    sc
  | None -> Workload.Generator.realize o.o_spec

(* -- kernels ----------------------------------------------------------- *)

let build_dispatch d =
  Emeralds.Kernel.create ~keep_trace:false ~cost:Sim.Cost.m68040
    ~spec:(sched_spec d.d_kind (Model.Taskset.size d.d_taskset))
    ~taskset:d.d_taskset ()

let observed_horizon (sc : Workload.Scenario.t) =
  Wl_campaign.sim_horizon (Model.Taskset.tasks sc.taskset)

let irq_seed = 9

(* The same kernel [Fault.Inject.run] builds for an empty plan, with
   the campaign's sporadic arrivals: observer first, then one handler
   and a seeded arrival chain per IRQ source. *)
let build_observed ?(attach = fun _ -> ()) (spec : Workload.Generator.spec)
    (sc : Workload.Scenario.t) ~horizon =
  let k =
    Emeralds.Kernel.create ~keep_trace:true ~cost:Sim.Cost.m68040 ~spec:Emeralds.Sched.Rm
      ~taskset:sc.taskset ~programs:sc.programs ()
  in
  Wl_campaign.sporadic_observer spec ~horizon k;
  attach k;
  let root = Util.Rng.create ~seed:irq_seed in
  List.iteri
    (fun si (src : Workload.Scenario.irq_source) ->
      Emeralds.Kernel.register_irq k ~irq:src.irq ~signals:src.signals ~writes:src.writes
        ~handler:(fun () ->
          List.iter (fun wq -> Emeralds.Kernel.signal_waitq k wq) src.signals;
          List.iter
            (fun sm ->
              Emeralds.State_msg.write sm (Array.make (Emeralds.State_msg.words sm) 0))
            src.writes)
        ();
      let rng = Util.Rng.split root (1000 + si) in
      let t = ref 0 and fin = ref false in
      while not !fin do
        t := !t + Util.Rng.int_in rng ~lo:src.min_interarrival ~hi:src.max_interarrival;
        if !t > horizon then fin := true else Emeralds.Kernel.raise_irq_at k ~at:!t ~irq:src.irq
      done)
    sc.irq_sources;
  k

let reference_observed (spec : Workload.Generator.spec) ~horizon =
  let cfg =
    Fault.Inject.default_config ~scenario:(Workload.Generator.realize spec) ~horizon
      ~seed:irq_seed ()
  in
  (Fault.Inject.run { cfg with observer = Some (Wl_campaign.sporadic_observer spec ~horizon) })
    .kernel

(* Fire every event up to [until]; returns the number of steps. *)
let step_until k until =
  let e = Emeralds.Kernel.engine k in
  let n = ref 0 in
  while
    match Sim.Engine.next_time e with Some t -> t <= until | None -> false
  do
    ignore (Emeralds.Kernel.step k);
    incr n
  done;
  !n

(* The simulated statistics a host-time change must leave untouched. *)
let stats_digest k =
  let tr = Emeralds.Kernel.trace k in
  let stats = Emeralds.Kernel.stats k in
  let jobs = List.fold_left (fun a (s : Emeralds.Kernel.task_stats) -> a + s.jobs_completed) 0 stats in
  ( jobs,
    Printf.sprintf "jobs=%d misses=%d switches=%d preempt=%d busy=%d ovh=%d stats=%s" jobs
      (Emeralds.Kernel.total_misses k) (Sim.Trace.context_switches tr) (Sim.Trace.preemptions tr)
      (Sim.Trace.busy_time tr) (Sim.Trace.overhead_total tr)
      (Digest.to_hex (Digest.string (Marshal.to_string stats []))) )

let trace_hash k =
  let entries, busy, switches = Campaign.Eval.norm_sig k in
  Digest.to_hex (Digest.string (Marshal.to_string (entries, busy, switches) []))

(* -- untraced run --------------------------------------------------------- *)

type result = {
  timed : Measure.Timed.t;  (** one operation per window; work: events *)
  attempted : int;
  failed : int;
  events : int;
  digest : string;
  minor_words_per_event : float;
}

(* Run one simulation's windows, timing each; returns the events. *)
let run_windows timed k ~horizon ~words =
  let windows = (horizon + window - 1) / window in
  let events = ref 0 in
  for w = 1 to windows do
    let until = min horizon (w * window) in
    let w0 = Gc.minor_words () in
    let t0 = Measure.now_ns () in
    let n = step_until k until in
    let dt = Measure.now_ns () - t0 in
    words := !words +. (Gc.minor_words () -. w0);
    Measure.Timed.op timed ~work:(float_of_int n) ~ns:dt;
    events := !events + n
  done;
  !events

(* Simulations 0, 1, ...: [simulate timed ~words i] runs simulation
   [i]'s windows and returns its digest, or [None] when a check failed.
   A simulation that raises or fails a check fails all its windows. *)
let run_sims ~what ~seconds ~round_len simulate =
  let timed = Measure.Timed.create () in
  let failed = ref 0 and digest = Measure.Chain.create () and words = ref 0.0 in
  ignore
    (Measure.Timed.run timed ~seconds ~round_len (fun i ->
         let ops0 = Measure.Timed.operations timed in
         let fail why =
           failed := !failed + max 1 (Measure.Timed.operations timed - ops0);
           Printf.eprintf "%s: simulation %d %s\n%!" what i why
         in
         match simulate timed ~words i with
         | Some dg -> Measure.Chain.add digest (Printf.sprintf "%d:%s;" i dg)
         | None -> fail "failed its correctness check"
         | exception e -> fail ("raised " ^ Printexc.to_string e)));
  let events = int_of_float timed.work in
  {
    timed;
    attempted = Measure.Timed.operations timed;
    failed = !failed;
    events;
    digest = Measure.Chain.hex digest;
    minor_words_per_event = !words /. float_of_int (max 1 events);
  }

let run_dispatch ~seconds inputs =
  let n = Array.length inputs in
  let horizon = dispatch_windows * window in
  run_sims ~what:"sim-dispatch" ~seconds ~round_len:dispatch_round_len (fun timed ~words i ->
      let d = inputs.(i mod n) in
      let k = build_dispatch d in
      let events = run_windows timed k ~horizon ~words in
      Emeralds.Kernel.check_invariants k;
      let _, dg = stats_digest k in
      let reference_ok =
        i mod reference_every <> 0
        ||
        let r = build_dispatch d in
        Emeralds.Kernel.run r ~until:horizon;
        snd (stats_digest r) = dg
      in
      if reference_ok then Some (Printf.sprintf "%d:%s" events dg) else None)

(* The observed run's own cross-checks: the blame conservation law
   holds for every job, the metrics subscriber saw every context switch
   the trace counted, and (every [reference_every]-th scenario) the
   trace is bit-identical to [Fault.Inject.run]'s. *)
let observed_ok ~i o k ~horizon blame metrics =
  Emeralds.Kernel.check_invariants k;
  let switch_kind, _, _ =
    Sim.Trace.csv_fields (Sim.Trace.Context_switch { from_tid = None; to_tid = None })
  in
  let tr = Emeralds.Kernel.trace k in
  Obs.Blame.residual_violations blame = 0
  && Obs.Metrics.counter metrics switch_kind = Sim.Trace.context_switches tr
  && (i mod reference_every <> 0
     ||
     let r = reference_observed o.o_spec ~horizon in
     trace_hash r = trace_hash k && snd (stats_digest r) = snd (stats_digest k))

let attach_obs (sc : Workload.Scenario.t) =
  let blame = Obs.Blame.create ~tasks:(Obs.Blame.of_taskset sc.taskset) () in
  let metrics = Obs.Metrics.create () in
  let attach k =
    Obs.Metrics.attach metrics (Emeralds.Kernel.probe k);
    Obs.Blame.attach blame (Emeralds.Kernel.probe k)
  in
  (blame, metrics, attach)

let run_observed ~seconds inputs =
  let n = Array.length inputs in
  run_sims ~what:"sim-observed" ~seconds ~round_len:observed_round (fun timed ~words i ->
      let o = inputs.(i mod n) in
      let sc = take_scenario o in
      let horizon = observed_horizon sc in
      let blame, metrics, attach = attach_obs sc in
      let k = build_observed ~attach o.o_spec sc ~horizon in
      let events = run_windows timed k ~horizon ~words in
      if observed_ok ~i o k ~horizon blame metrics then
        Some (Printf.sprintf "%d:%s:%s" events (snd (stats_digest k)) (trace_hash k))
      else None)

(* -- traced run -------------------------------------------------------- *)

type traced = {
  step_ns : Measure.Sample.t array;
      (** per [sched_index] on sim-dispatch; index 4 is sim-observed *)
  pending : Measure.Sample.t;  (** [Engine.pending] before every 16th step *)
  mutable pending_max : int;  (** over every step *)
  mutable sims : int;
  mutable failed : int;
  mutable events : int;
  mutable x_events : int;
      (** exact counts, over the first [exact_prefix] simulations only:
          steps, completed jobs, context switches, trace entries *)
  mutable x_jobs : int;
  mutable x_switches : int;
  mutable x_entries : int;
  mutable plain_ns : int;  (** the same windows untraced *)
  mutable traced_ns : int;  (** traced windows (window spans) *)
  mutable stepped_ns : int;  (** inside [Kernel.step] calls *)
  mutable plain_events : int;
  mutable plain_words : float;
  mutable obs_none_ns : int;
  mutable obs_metrics_ns : int;
  mutable obs_blame_ns : int;
  mutable obs_events : int;
}

let new_traced () =
  {
    step_ns = Array.init 5 (fun _ -> Measure.Sample.create ());
    pending = Measure.Sample.create ();
    pending_max = 0;
    sims = 0;
    failed = 0;
    events = 0;
    x_events = 0;
    x_jobs = 0;
    x_switches = 0;
    x_entries = 0;
    plain_ns = 0;
    traced_ns = 0;
    stepped_ns = 0;
    plain_events = 0;
    plain_words = 0.0;
    obs_none_ns = 0;
    obs_metrics_ns = 0;
    obs_blame_ns = 0;
    obs_events = 0;
  }

(* Untraced: total window time and events. *)
let time_windows k ~horizon =
  let timed = Measure.Timed.create () in
  let events = run_windows timed k ~horizon ~words:(ref 0.0) in
  (timed.total_ns, events)

(* The simulations whose counts are reported exactly: the first round
   of sim-dispatch, the first scenarios of sim-observed.  Every traced
   run covers them whatever its time budget. *)
let exact_prefix = dispatch_round_len

(* Traced: a span per window and a host-time sample per step.  Returns
   the number of steps. *)
let traced_windows t sp ~id ~kind k ~horizon =
  let events0 = t.events in
  let e = Emeralds.Kernel.engine k in
  let windows = (horizon + window - 1) / window in
  let samples = t.step_ns.(kind) in
  for w = 1 to windows do
    let until = min horizon (w * window) in
    let t_w = Measure.now_ns () in
    Spans.with_span sp "window" ~id:((id * 100) + w) (fun () ->
        while
          match Sim.Engine.next_time e with Some t -> t <= until | None -> false
        do
          let p = Sim.Engine.pending e in
          if p > t.pending_max then t.pending_max <- p;
          let t0 = Measure.now_ns () in
          ignore (Emeralds.Kernel.step k);
          let dt = Measure.now_ns () - t0 in
          t.stepped_ns <- t.stepped_ns + dt;
          Measure.Sample.add samples (float_of_int dt);
          if t.events land 15 = 0 then Measure.Sample.add t.pending (float_of_int p);
          t.events <- t.events + 1
        done);
    t.traced_ns <- t.traced_ns + (Measure.now_ns () - t_w)
  done;
  t.events - events0

let guarded t ~what ~id f =
  t.sims <- t.sims + 1;
  match f () with
  | true -> ()
  | false ->
    t.failed <- t.failed + 1;
    Printf.eprintf "%s (traced): simulation %d failed its correctness check\n%!" what id
  | exception e ->
    t.failed <- t.failed + 1;
    Printf.eprintf "%s (traced): simulation %d raised %s\n%!" what id (Printexc.to_string e)

(* Each simulation runs twice: untraced (the baseline for the tracing
   overhead, and the minor-word count), then traced.  Both must reach
   the same simulated statistics. *)
let traced_dispatch t sp ~seconds inputs =
  let t_start = Measure.now_ns () in
  let n = Array.length inputs in
  let horizon = dispatch_windows * window in
  let i = ref 0 in
  while !i = 0 || Measure.secs_since t_start < seconds || !i mod dispatch_round_len <> 0 do
    let d = inputs.(!i mod n) in
    guarded t ~what:"sim-dispatch" ~id:!i (fun () ->
        let k0 = build_dispatch d in
        let w0 = Gc.minor_words () in
        let ns, ev = time_windows k0 ~horizon in
        t.plain_words <- t.plain_words +. (Gc.minor_words () -. w0);
        t.plain_ns <- t.plain_ns + ns;
        t.plain_events <- t.plain_events + ev;
        let k = build_dispatch d in
        let steps = traced_windows t sp ~id:!i ~kind:(sched_index d.d_kind) k ~horizon in
        Emeralds.Kernel.check_invariants k;
        let jobs, dg = stats_digest k in
        if !i < exact_prefix then begin
          t.x_events <- t.x_events + steps;
          t.x_jobs <- t.x_jobs + jobs;
          t.x_switches <- t.x_switches + Sim.Trace.context_switches (Emeralds.Kernel.trace k)
        end;
        dg = snd (stats_digest k0));
    incr i
  done

(* Per scenario: the windows with no subscriber, with metrics only and
   with blame only (the per-event cost of each subscriber), both
   untraced, and both traced. *)
let traced_observed t sp ~seconds inputs =
  let t_start = Measure.now_ns () in
  let n = Array.length inputs in
  let i = ref 0 in
  while !i < exact_prefix || Measure.secs_since t_start < seconds do
    let o = inputs.(!i mod n) in
    guarded t ~what:"sim-observed" ~id:!i (fun () ->
        let run_with attach =
          let sc = take_scenario o in
          let horizon = observed_horizon sc in
          let k = build_observed ~attach:(attach sc) o.o_spec sc ~horizon in
          let ns, ev = time_windows k ~horizon in
          (k, ns, ev)
        in
        let k_none, ns_none, ev = run_with (fun _ _ -> ()) in
        let _, ns_m, _ =
          run_with (fun _ k -> Obs.Metrics.attach (Obs.Metrics.create ()) (Emeralds.Kernel.probe k))
        in
        let _, ns_b, _ =
          run_with (fun (sc : Workload.Scenario.t) k ->
              let tasks = Obs.Blame.of_taskset sc.taskset in
              Obs.Blame.attach (Obs.Blame.create ~tasks ()) (Emeralds.Kernel.probe k))
        in
        t.obs_none_ns <- t.obs_none_ns + ns_none;
        t.obs_metrics_ns <- t.obs_metrics_ns + ns_m;
        t.obs_blame_ns <- t.obs_blame_ns + ns_b;
        t.obs_events <- t.obs_events + ev;
        if !i < exact_prefix then
          t.x_entries <- t.x_entries + List.length (Sim.Trace.entries (Emeralds.Kernel.trace k_none));
        let sc = take_scenario o in
        let horizon = observed_horizon sc in
        let _, _, attach = attach_obs sc in
        let k0 = build_observed ~attach o.o_spec sc ~horizon in
        let w0 = Gc.minor_words () in
        let ns, ev = time_windows k0 ~horizon in
        t.plain_words <- t.plain_words +. (Gc.minor_words () -. w0);
        t.plain_ns <- t.plain_ns + ns;
        t.plain_events <- t.plain_events + ev;
        let sc = take_scenario o in
        let blame, metrics, attach = attach_obs sc in
        let k = build_observed ~attach o.o_spec sc ~horizon in
        ignore (traced_windows t sp ~id:!i ~kind:4 k ~horizon);
        observed_ok ~i:1 o k ~horizon blame metrics && trace_hash k = trace_hash k_none);
    incr i
  done
