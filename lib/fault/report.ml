(* Plan-matrix replay and scoring.

   The baseline run (empty plan, no enforcement) is the pre-PR kernel
   bit for bit; every cell is compared against its trace signature.
   Static predictions are computed once from the scenario — declared
   WCETs through RTA with lint-extracted blocking terms, derived
   demand bounds through the abstract interpreter — and each cell is
   checked against them with what the run actually observed. *)

open Emeralds

type prediction = {
  p_source : string;
  p_task : int;
  p_claim : string;
  p_observed : string;
}

type cell = {
  c_label : string;
  c_plan : Plan.t;
  c_misses : int;
  c_overruns : int;
  c_kills : int;
  c_sheds : int;
  c_jobs : int;
  c_first_activation : Model.Time.t option;
  c_first_detection : Model.Time.t option;
  c_detection_latency : Model.Time.t option;
  c_matches_baseline : bool;
  c_falsified : prediction list;
}

type t = {
  r_scenario : string;
  r_sched : string;
  r_seed : int;
  r_horizon : Model.Time.t;
  r_cells : cell list;
}

let tstr ns = Printf.sprintf "%.1f us" (Model.Time.to_us_f ns)

(* ------------------------------------------------------------------ *)
(* Static predictions *)

type statics = {
  rta : (Model.Task.t * Model.Time.t) list;
      (* tasks RTA predicts feasible, with their response bound *)
  demand : (Model.Task.t * Model.Time.t) list;
      (* tasks with a finite absint per-job demand bound *)
}

let compute_statics (cfg : Inject.config) =
  let sc = cfg.scenario in
  let tasks = Model.Taskset.tasks sc.taskset in
  let ctx =
    Lint.Ctx.make ~irq_signals:sc.irq_signals ~irq_writes:sc.irq_writes
      ~taskset:sc.taskset ~programs:sc.programs ()
  in
  let blocking = Lint.Blocking_terms.blocking_terms ctx in
  let rows =
    Array.map
      (fun (t : Model.Task.t) -> (t.period, t.deadline, t.wcet))
      tasks
  in
  let rta =
    List.filter_map
      (fun i ->
        match Analysis.Rta.response_time ~blocking ~tasks:rows i with
        | Some r -> Some (tasks.(i), r)
        | None -> None)
      (List.init (Array.length tasks) Fun.id)
  in
  let demand =
    match Absint.Report.analyze ~cost:cfg.cost sc with
    | exception _ -> []
    | rep ->
      Array.to_list rep.tasks
      |> List.filter_map (fun (tb : Absint.Report.task_bound) ->
             Option.map
               (fun hi -> (tb.task, hi))
               (Absint.Itv.hi_int tb.summary.exec))
  in
  { rta; demand }

(* ------------------------------------------------------------------ *)
(* One cell *)

type trace_sig = {
  sig_entries : Sim.Trace.stamped list;
  sig_busy : Model.Time.t;
  sig_switches : int;
}

let trace_sig k =
  let tr = Kernel.trace k in
  {
    sig_entries = Sim.Trace.entries tr;
    sig_busy = Sim.Trace.busy_time tr;
    sig_switches = Sim.Trace.context_switches tr;
  }

(* Worst per-job demand each task was observed to consume: the running
   job's banked figure from the enforcement state, joined with every
   Budget_overrun entry (those carry the consumption at detection). *)
let observed_demand k =
  let worst = Hashtbl.create 8 in
  let note tid v =
    let cur = Option.value ~default:0 (Hashtbl.find_opt worst tid) in
    if v > cur then Hashtbl.replace worst tid v
  in
  List.iter
    (fun (s : Kernel.enf_stats) -> note s.e_tid s.e_budget_used)
    (Kernel.enforcement_stats k);
  List.iter
    (fun (st : Sim.Trace.stamped) ->
      match st.entry with
      | Sim.Trace.Budget_overrun { tid; used; _ } -> note tid used
      | _ -> ())
    (Sim.Trace.entries (Kernel.trace k));
  fun tid -> Option.value ~default:0 (Hashtbl.find_opt worst tid)

let falsified statics k =
  let stats = Kernel.stats k in
  let stat_of tid =
    List.find_opt (fun (s : Kernel.task_stats) -> s.tid = tid) stats
  in
  let demand_of = observed_demand k in
  let rta_falsified =
    List.filter_map
      (fun ((task : Model.Task.t), bound) ->
        match stat_of task.id with
        | Some s when s.misses > 0 ->
          (* Only an actual deadline miss falsifies the bound: observed
             responses include the Table 1 kernel overheads the
             analytical model deliberately leaves out, so a small
             response excess over the bound is expected on every run. *)
          Some
            {
              p_source = "rta";
              p_task = task.id;
              p_claim =
                Printf.sprintf
                  "response-time analysis bounds tau%d's worst response at %s \
                   (within its %s deadline)"
                  task.id (tstr bound) (tstr task.deadline);
              p_observed =
                (if s.max_response > 0 then
                   Printf.sprintf "%d deadline miss(es), worst response %s"
                     s.misses (tstr s.max_response)
                 else
                   Printf.sprintf
                     "%d deadline miss(es), no completion within the horizon"
                     s.misses);
            }
        | _ -> None)
      statics.rta
  in
  let demand_falsified =
    List.filter_map
      (fun ((task : Model.Task.t), hi) ->
        let used = demand_of task.id in
        if used > hi then
          Some
            {
              p_source = "absint";
              p_task = task.id;
              p_claim =
                Printf.sprintf "derived per-job demand bound %s for tau%d"
                  (tstr hi) task.id;
              p_observed = Printf.sprintf "a job consumed %s" (tstr used);
            }
        else None)
      statics.demand
  in
  rta_falsified @ demand_falsified

let make_cell (cfg : Inject.config) statics baseline ~label ~plan =
  let outcome = Inject.run { cfg with plan; keep_trace = true } in
  let k = outcome.kernel in
  let tr = Kernel.trace k in
  let first_detection =
    List.fold_left
      (fun acc (s : Kernel.enf_stats) ->
        match (acc, s.e_first_detection) with
        | None, d -> d
        | d, None -> d
        | Some a, Some b -> Some (Model.Time.min a b))
      None (Kernel.enforcement_stats k)
  in
  let first_activation = Inject.first_activation outcome in
  let s = trace_sig k in
  {
    c_label = label;
    c_plan = plan;
    c_misses = Kernel.total_misses k;
    c_overruns = Sim.Trace.budget_overruns tr;
    c_kills = Sim.Trace.jobs_killed tr;
    c_sheds = Sim.Trace.jobs_shed tr;
    c_jobs =
      List.fold_left
        (fun acc (st : Kernel.task_stats) -> acc + st.jobs_completed)
        0 (Kernel.stats k);
    c_first_activation = first_activation;
    c_first_detection = first_detection;
    c_detection_latency =
      (match (first_activation, first_detection) with
      | Some a, Some d -> Some (Model.Time.sub d a)
      | _ -> None);
    c_matches_baseline = s = baseline;
    c_falsified = falsified statics k;
  }

let run ?plans (cfg : Inject.config) =
  let plans =
    match plans with
    | Some ps -> ps
    | None ->
      if cfg.plan = Plan.empty then [] else [ (Plan.render cfg.plan, cfg.plan) ]
  in
  let statics = compute_statics cfg in
  let baseline =
    trace_sig
      (Inject.run
         { cfg with plan = Plan.empty; enforcement = None; keep_trace = true })
        .kernel
  in
  let cells =
    List.map
      (fun (label, plan) -> make_cell cfg statics baseline ~label ~plan)
      (("no-fault", Plan.empty) :: plans)
  in
  {
    r_scenario = cfg.scenario.name;
    r_sched = Sched.spec_name cfg.spec;
    r_seed = cfg.seed;
    r_horizon = cfg.horizon;
    r_cells = cells;
  }

let violations t =
  List.exists
    (fun c -> c.c_misses + c.c_overruns + c.c_kills + c.c_sheds > 0)
    t.r_cells

(* ------------------------------------------------------------------ *)
(* Output *)

let render t =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf
    (Printf.sprintf "fault report: scenario %s, %s, seed %d, horizon %.1f ms\n"
       t.r_scenario t.r_sched t.r_seed (Model.Time.to_ms_f t.r_horizon));
  List.iter
    (fun c ->
      Buffer.add_string buf (Printf.sprintf "plan %s:\n" c.c_label);
      (match c.c_first_activation with
      | None -> ()
      | Some a ->
        Buffer.add_string buf
          (Printf.sprintf "  first fault activation at %s\n" (tstr a)));
      (match c.c_first_detection with
      | None ->
        if c.c_first_activation <> None then
          Buffer.add_string buf "  no enforcement detection\n"
      | Some d ->
        Buffer.add_string buf
          (Printf.sprintf "  first detection at %s%s\n" (tstr d)
             (match c.c_detection_latency with
             | Some l -> Printf.sprintf " (latency %s)" (tstr l)
             | None -> "")));
      Buffer.add_string buf
        (Printf.sprintf
           "  misses %d, overruns %d, kills %d, sheds %d, jobs %d%s\n"
           c.c_misses c.c_overruns c.c_kills c.c_sheds c.c_jobs
           (if c.c_matches_baseline then ", trace identical to baseline"
            else ""));
      match c.c_falsified with
      | [] -> ()
      | ps ->
        Buffer.add_string buf "  falsified static predictions:\n";
        List.iter
          (fun p ->
            Buffer.add_string buf
              (Printf.sprintf "    %s: %s -- observed: %s\n" p.p_source
                 p.p_claim p.p_observed))
          ps)
    t.r_cells;
  Buffer.contents buf

let to_json t =
  let open Util.Json in
  let prediction p =
    Obj
      [ ("source", String p.p_source); ("task", Int p.p_task); ("claim", String p.p_claim);
        ("observed", String p.p_observed) ]
  in
  let cell c =
    Obj
      [ ("plan", String c.c_label); ("faults", Plan.to_json c.c_plan);
        ("misses", Int c.c_misses); ("overruns", Int c.c_overruns); ("kills", Int c.c_kills);
        ("sheds", Int c.c_sheds); ("jobs", Int c.c_jobs);
        ("first_activation_ns", int_opt c.c_first_activation);
        ("first_detection_ns", int_opt c.c_first_detection);
        ("detection_latency_ns", int_opt c.c_detection_latency);
        ("matches_baseline", Bool c.c_matches_baseline);
        ("falsified", List (List.map prediction c.c_falsified)) ]
  in
  Obj
    [ ("scenario", String t.r_scenario); ("sched", String t.r_sched); ("seed", Int t.r_seed);
      ("horizon_ns", Int t.r_horizon); ("violations", Bool (violations t));
      ("cells", List (List.map cell t.r_cells)) ]

(* ------------------------------------------------------------------ *)
(* Fabric scoring (pure data; assembled by lib/fabric) *)

type net_score = {
  n_nodes : int;
  n_surviving : int;
  n_migrated : int;
  n_shed : int;
  n_e2e_misses : int;
  n_frames : int;
  n_dropped : int;
  n_corrupt : int;
  n_retries : int;
  n_timeouts : int;
  n_retry_amplification : float;
  n_bus_utilization : float;
  n_detect_latency : Model.Time.t option;
  n_failover_latency : Model.Time.t option;
  n_failover_bound : Model.Time.t option;
}

let net_within_bound n =
  match (n.n_failover_latency, n.n_failover_bound) with
  | Some obs, Some bound -> obs <= bound
  | _ -> true

let net_ok n = n.n_e2e_misses = 0 && net_within_bound n

let render_net n =
  let buf = Buffer.create 512 in
  Buffer.add_string buf
    (Printf.sprintf "fabric: %d node(s), %d surviving\n" n.n_nodes
       n.n_surviving);
  Buffer.add_string buf
    (Printf.sprintf
       "  wire: %d frame(s), %d dropped, %d corrupt, %d retries, %d \
        timeout(s), amplification %.2fx, utilization %.1f%%\n"
       n.n_frames n.n_dropped n.n_corrupt n.n_retries n.n_timeouts
       n.n_retry_amplification
       (100. *. n.n_bus_utilization));
  Buffer.add_string buf
    (Printf.sprintf "  failover: %d migrated, %d shed, %d e2e miss(es)\n"
       n.n_migrated n.n_shed n.n_e2e_misses);
  (match n.n_detect_latency with
  | Some d -> Buffer.add_string buf (Printf.sprintf "  detection %s\n" (tstr d))
  | None -> ());
  (match (n.n_failover_latency, n.n_failover_bound) with
  | Some obs, Some bound ->
    Buffer.add_string buf
      (Printf.sprintf "  failover latency %s vs static bound %s: %s\n"
         (tstr obs) (tstr bound)
         (if obs <= bound then "within bound" else "BOUND EXCEEDED"))
  | Some obs, None ->
    Buffer.add_string buf
      (Printf.sprintf "  failover latency %s (no bound computed)\n" (tstr obs))
  | None, Some bound ->
    Buffer.add_string buf
      (Printf.sprintf "  static failover bound %s (no crash observed)\n"
         (tstr bound))
  | None, None -> ());
  Buffer.add_string buf
    (Printf.sprintf "  verdict: %s\n"
       (if net_ok n then "graceful degradation" else "DEGRADATION VIOLATION"));
  Buffer.contents buf

let net_to_json n =
  Util.Json.(
    Obj
      [ ("nodes", Int n.n_nodes); ("surviving", Int n.n_surviving);
        ("migrated", Int n.n_migrated); ("shed", Int n.n_shed);
        ("e2e_misses", Int n.n_e2e_misses); ("frames", Int n.n_frames);
        ("dropped", Int n.n_dropped); ("corrupt", Int n.n_corrupt);
        ("retries", Int n.n_retries); ("timeouts", Int n.n_timeouts);
        ("retry_amplification", Float n.n_retry_amplification);
        ("bus_utilization", Float n.n_bus_utilization);
        ("detect_latency_ns", int_opt n.n_detect_latency);
        ("failover_latency_ns", int_opt n.n_failover_latency);
        ("failover_bound_ns", int_opt n.n_failover_bound); ("ok", Bool (net_ok n)) ])

let net_to_sarif n =
  let fabric = Some "fabric" in
  let bound_results =
    if net_within_bound n then []
    else
      match (n.n_failover_latency, n.n_failover_bound) with
      | Some obs, Some bound ->
        [
          {
            Lint.Sarif.rule_id = "failover-bound-exceeded";
            level = Lint.Sarif.Error;
            message =
              Printf.sprintf
                "observed failover latency %s exceeds the static \
                 migration-cost bound %s"
                (tstr obs) (tstr bound);
            logical = fabric;
          };
        ]
      | _ -> []
  in
  let miss_results =
    if n.n_e2e_misses = 0 then []
    else
      [
        {
          Lint.Sarif.rule_id = "e2e-miss-after-failover";
          level = Lint.Sarif.Error;
          message =
            Printf.sprintf
              "%d end-to-end deadline miss(es) on surviving shards after \
               failover completed"
              n.n_e2e_misses;
          logical = fabric;
        };
      ]
  in
  let wire_results =
    if n.n_timeouts = 0 && n.n_shed = 0 then []
    else
      [
        {
          Lint.Sarif.rule_id = "fabric-degraded";
          level = Lint.Sarif.Warning;
          message =
            Printf.sprintf
              "%d delivery timeout(s), %d task(s) shed during failover"
              n.n_timeouts n.n_shed;
          logical = fabric;
        };
      ]
  in
  let clean =
    if bound_results = [] && miss_results = [] && wire_results = [] then
      [
        {
          Lint.Sarif.rule_id = "fabric-clean";
          level = Lint.Sarif.Note;
          message =
            Printf.sprintf
              "fabric run clean: %d node(s), %d frame(s), amplification %.2fx"
              n.n_nodes n.n_frames n.n_retry_amplification;
          logical = fabric;
        };
      ]
    else []
  in
  bound_results @ miss_results @ wire_results @ clean

let to_sarif t =
  List.concat_map
    (fun c ->
      let summary =
        if c.c_misses + c.c_overruns + c.c_kills + c.c_sheds > 0 then
          [
            {
              Lint.Sarif.rule_id = "fault-detected";
              level = Lint.Sarif.Warning;
              message =
                Printf.sprintf
                  "plan %s on %s: %d deadline miss(es), %d budget overrun(s), \
                   %d kill(s), %d shed(s)%s"
                  c.c_label t.r_scenario c.c_misses c.c_overruns c.c_kills
                  c.c_sheds
                  (match c.c_detection_latency with
                  | Some l -> Printf.sprintf "; detection latency %s" (tstr l)
                  | None -> "");
              logical = Some (Printf.sprintf "scenario %s" t.r_scenario);
            };
          ]
        else
          [
            {
              Lint.Sarif.rule_id = "fault-clean";
              level = Lint.Sarif.Note;
              message =
                Printf.sprintf "plan %s on %s: no violation%s" c.c_label
                  t.r_scenario
                  (if c.c_matches_baseline then
                     " (trace identical to baseline)"
                   else "");
              logical = Some (Printf.sprintf "scenario %s" t.r_scenario);
            };
          ]
      in
      let falsified =
        List.map
          (fun p ->
            {
              Lint.Sarif.rule_id = "prediction-falsified";
              level = Lint.Sarif.Error;
              message =
                Printf.sprintf "plan %s: %s prediction falsified: %s -- %s"
                  c.c_label p.p_source p.p_claim p.p_observed;
              logical = Some (Printf.sprintf "task %d" p.p_task);
            })
          c.c_falsified
      in
      summary @ falsified)
    t.r_cells
