(* The campaign workload: the all-oracle sweep users run.

   Inputs are [Campaign.Driver.spec_streams] (all four families, 3-8
   tasks); one operation is one [Campaign.Eval.run ~index spec] with
   every oracle.  The campaign's output is its verdict: the findings
   each oracle reports.  A finding is a falsification the campaign
   exists to find; it is recorded per oracle, printed with its seed and
   index, and re-evaluated to confirm it reproduces.  An operation fails
   when it raises, or when a re-evaluation of the same scenario (every
   scenario with a finding, and every [recheck_every]-th one) reaches a
   different verdict or expansion count.  The traced run replays each scenario's stages through the
   layers' public entry points with the arguments [Eval.run] uses, so
   each layer's cost can be read off its own span. *)

let recheck_every = 16

(* Inputs are stratified: one [spec_streams] stream per (family, task
   count) pair, 4 families x 3-8 tasks, interleaved so that every
   [round] consecutive scenarios hold one of each.  The model checker's
   cost grows steeply with the task count; without the strata a run's
   figure would depend on how many 8-task scenarios its seed happened to
   draw. *)
let strata =
  List.concat_map
    (fun family -> List.map (fun n -> (family, n)) [ 3; 4; 5; 6; 7; 8 ])
    Workload.Generator.families

let round = List.length strata
let per_stratum = 96

(* One input: the scenario at [index] of the stream [config] describes,
   so [emeralds_cli campaign --seed S --family F --tasks N --count
   index+1] reproduces it. *)
type input = { config : Campaign.Driver.config; index : int; spec : Workload.Generator.spec }

let generate ~seed =
  let streams =
    List.mapi
      (fun k (family, n) ->
        let config =
          {
            Campaign.Driver.default_config with
            seed = (seed * 100) + k;
            count = per_stratum;
            family = Some family;
            n_tasks = Some n;
          }
        in
        (config, Array.of_list (Campaign.Driver.spec_streams config)))
      strata
  in
  Array.concat
    (List.init per_stratum (fun index ->
         Array.of_list
           (List.map (fun (config, specs) -> { config; index; spec = specs.(index) }) streams)))

let describe (c : input) =
  Printf.sprintf "stream seed %d family %s tasks %d index %d (%s)" c.config.seed
    (Workload.Generator.family_name (Option.get c.config.family))
    (Option.get c.config.n_tasks) c.index c.spec.s_name

type result = {
  timed : Measure.Timed.t;  (** work: scenarios *)
  attempted : int;
  failed : int;
  per_oracle : (string * int) list;
  findings : (input * Campaign.Oracle.finding) list;
  mc_expansions : int;
  mc_truncated : int;
  digest : string;
}

let verdict (r : Campaign.Eval.t) =
  ( List.map
      (fun (f : Campaign.Oracle.finding) -> (Campaign.Oracle.name f.oracle, f.task, f.message))
      r.findings,
    r.mc_expansions,
    r.mc_truncated )

(* Evaluate specs in stream order (wrapping) in whole rounds until
   [seconds] of evaluation time have been spent. *)
let run ~seconds specs =
  let n = Array.length specs in
  let findings = ref [] in
  let failed = ref 0 in
  let exps = ref 0 and truncs = ref 0 in
  let digest = Measure.Chain.create () and timed = Measure.Timed.create () in
  let count =
    Measure.Timed.run timed ~seconds ~round_len:round (fun i ->
        let input = specs.(i mod n) in
        let index = input.index and spec = input.spec in
        let t0 = Measure.now_ns () in
        let r = try Ok (Campaign.Eval.run ~index spec) with e -> Error e in
        Measure.Timed.op timed ~work:1.0 ~ns:(Measure.now_ns () - t0);
        match r with
        | Ok r ->
          exps := !exps + r.mc_expansions;
          if r.mc_truncated then incr truncs;
          List.iter
            (fun (f : Campaign.Oracle.finding) ->
              Printf.eprintf "campaign: finding at %s: %s: %s\n%!" (describe input)
                (Campaign.Oracle.name f.oracle) f.message)
            r.findings;
          findings := List.rev_append (List.map (fun f -> (input, f)) r.findings) !findings;
          let reproduces () =
            try verdict (Campaign.Eval.run ~index spec) = verdict r with _ -> false
          in
          if (r.findings <> [] || i mod recheck_every = 0) && not (reproduces ()) then begin
            incr failed;
            Printf.eprintf "campaign: %s: re-evaluation reached another verdict\n%!"
              (describe input)
          end;
          Measure.Chain.add digest
            (Printf.sprintf "%d:%d:%b:%d;" index r.mc_expansions r.mc_truncated
               (List.length r.findings))
        | Error e ->
          incr failed;
          Printf.eprintf "campaign: %s raised %s\n%!" (describe input) (Printexc.to_string e))
  in
  let findings = List.rev !findings in
  {
    timed;
    attempted = count;
    failed = !failed;
    per_oracle =
      List.map
        (fun k ->
          ( Campaign.Oracle.name k,
            List.length
              (List.filter (fun (_, (f : Campaign.Oracle.finding)) -> f.oracle = k) findings) ))
        Campaign.Oracle.all;
    findings;
    mc_expansions = !exps;
    mc_truncated = !truncs;
    digest = Measure.Chain.hex digest;
  }

(* -- traced replay ----------------------------------------------------- *)

(* Eval.run's private simulation helpers, restated from its source so
   the replay calls [Fault.Inject.run] with the same arguments. *)
let sim_horizon tasks =
  let maxp = Array.fold_left (fun a (t : Model.Task.t) -> max a t.period) 0 tasks in
  min (2 * maxp) (Model.Time.ms 1000)

let sporadic_observer (spec : Workload.Generator.spec) ~horizon k =
  List.iter
    (fun (t : Workload.Generator.task_spec) ->
      if t.g_sporadic then begin
        let rng = Util.Rng.split (Util.Rng.create ~seed:9) (3000 + t.g_id) in
        let draw () = t.g_period + Util.Rng.int rng (max 1 (t.g_period / 4)) in
        let now = ref (draw ()) in
        while !now <= horizon do
          Emeralds.Kernel.trigger_job_at k ~at:!now ~tid:t.g_id;
          now := !now + draw ()
        done
      end)
    spec.s_tasks

let declared_enforcement =
  {
    Emeralds.Kernel.budget_of = Fault.Inject.declared_budgets;
    policy = Emeralds.Kernel.Notify_only;
    miss = Emeralds.Kernel.Miss_record;
    shed_one_in = None;
  }

let inject_run ?attach spec ~horizon ~enforcement =
  let cfg =
    Fault.Inject.default_config ~scenario:(Workload.Generator.realize spec) ~horizon ~seed:9 ()
  in
  let observer k =
    sporadic_observer spec ~horizon k;
    match attach with Some f -> f k | None -> ()
  in
  (Fault.Inject.run { cfg with observer = Some observer; enforcement }).kernel

let layer_names =
  [
    "workload.realize"; "lint.run"; "lint.blocking_terms"; "absint.analyze"; "analysis.rta";
    "inject.run"; "fabric.e2e"; "mc.build"; "mc.check";
  ]

let stage_names = [ "statics"; "sim"; "e2e"; "mc" ]

type spanner = { span : 'a. string -> (unit -> 'a) -> 'a }

(* One scenario's stages, each layer call wrapped by [span name f]
   and each stage by [span ("stage." ^ stage) f].  Returns the model
   checker's expansion count and truncation bit. *)
let replay { span } ~index (spec : Workload.Generator.spec) =
  let realize () = span "workload.realize" (fun () -> Workload.Generator.realize spec) in
  let horizon, blocking_ok =
    span "stage.statics" (fun () ->
        let sc : Workload.Scenario.t = realize () in
        let tasks = Model.Taskset.tasks sc.taskset in
        let ctx =
          span "lint.run" (fun () ->
              let ctx =
                Lint.Ctx.make ~irq_signals:sc.irq_signals ~irq_writes:sc.irq_writes
                  ~taskset:sc.taskset ~programs:sc.programs ()
              in
              ignore (Lint.Report.run ctx);
              ctx)
        in
        ignore (span "absint.analyze" (fun () -> Absint.Report.analyze sc));
        let blocking = span "lint.blocking_terms" (fun () -> Lint.Blocking_terms.blocking_terms ctx) in
        let rta =
          span "analysis.rta" (fun () ->
              let rows =
                Analysis.Overhead.inflate ~cost:Sim.Cost.m68040 ~spec:Emeralds.Sched.Rm sc.taskset
              in
              Array.init (Array.length tasks) (fun i ->
                  Analysis.Rta.response_time ~blocking ~tasks:rows i))
        in
        (sim_horizon tasks, Array.length rta = Array.length tasks))
  in
  assert blocking_ok;
  span "stage.sim" (fun () ->
      let sc : Workload.Scenario.t = Workload.Generator.realize spec in
      let blame = Obs.Blame.create ~tasks:(Obs.Blame.of_taskset sc.taskset) () in
      ignore
        (span "inject.run" (fun () ->
             inject_run spec ~horizon ~enforcement:(Some declared_enforcement)
               ~attach:(fun k -> Obs.Blame.attach blame (Emeralds.Kernel.probe k))));
      ignore (span "inject.run" (fun () -> inject_run spec ~horizon ~enforcement:None)));
  span "stage.e2e" (fun () ->
      ignore
        (span "fabric.e2e" (fun () ->
             Campaign.Eval.run_e2e ~index ~ablation:Campaign.Oracle.No_ablation spec)));
  span "stage.mc" (fun () ->
      let sporadic =
        List.filter_map
          (fun (t : Workload.Generator.task_spec) ->
            if t.g_sporadic then Some (t.g_id, t.g_period, t.g_period * 5 / 4) else None)
          spec.s_tasks
      in
      let sc = realize () in
      let m = span "mc.build" (fun () -> Mc.Machine.of_scenario ~sporadic sc) in
      let bounds =
        { Mc.Explorer.horizon = min m.hyperperiod horizon; max_states = 4000; max_depth = 2000 }
      in
      let props = List.filter_map Mc.Props.by_name [ "deadlock"; "pi"; "invariants"; "tear"; "mem" ] in
      let res = span "mc.check" (fun () -> Mc.Explorer.check ~props ~bounds m) in
      (res.expansions, res.truncated))

type traced = {
  t_scenarios : int;
  t_failed : int;
  t_eval_ns : int;  (** untraced Eval.run wall, summed *)
  t_replay_plain_ns : int;  (** untraced replay wall, summed *)
  t_replay_traced_ns : int;  (** traced replay wall (scenario spans), summed *)
  t_expansions : int;  (** from the replay *)
  t_eval_expansions : int;  (** from Eval.run *)
  t_prefix_expansions : int;  (** from Eval.run, first [exact_prefix] scenarios *)
  t_truncated : int;
  t_minor_words : float;  (** per Eval.run *)
  t_self_sum_ok : bool;
}

let no_span = { span = (fun _ f -> f ()) }

(* The scenarios whose MC expansion total is reported exactly; every
   traced run covers them whatever its time budget. *)
let exact_prefix = 16

(* For each scenario: Eval.run untraced, the replay untraced, then the
   replay with spans; until [seconds] of wall time have passed. *)
let traced ~sp ~seconds specs =
  let n = Array.length specs in
  let t_start = Measure.now_ns () in
  let i = ref 0 and failed = ref 0 in
  let eval_ns = ref 0 and plain_ns = ref 0 and traced_ns = ref 0 in
  let exps = ref 0 and eval_exps = ref 0 and truncs = ref 0 and words = ref 0.0 in
  let prefix_exps = ref 0 in
  while !i < exact_prefix || Measure.secs_since t_start < seconds do
    let input = specs.(!i mod n) in
    let index = input.index and spec = input.spec in
    (try
       let w0 = Gc.minor_words () in
       let t0 = Measure.now_ns () in
       let r = Campaign.Eval.run ~index spec in
       eval_ns := !eval_ns + (Measure.now_ns () - t0);
       words := !words +. (Gc.minor_words () -. w0);
       let t0 = Measure.now_ns () in
       ignore (replay no_span ~index spec);
       plain_ns := !plain_ns + (Measure.now_ns () - t0);
       let t0 = Measure.now_ns () in
       let e, tr =
         Spans.with_span sp "scenario" ~id:index (fun () ->
             replay { span = (fun name f -> Spans.with_span sp name ~id:index f) } ~index spec)
       in
       traced_ns := !traced_ns + (Measure.now_ns () - t0);
       exps := !exps + e;
       eval_exps := !eval_exps + r.mc_expansions;
       if !i < exact_prefix then prefix_exps := !prefix_exps + r.mc_expansions;
       if tr then incr truncs;
       if e <> r.mc_expansions || tr <> r.mc_truncated then incr failed
     with e ->
       incr failed;
       Printf.eprintf "campaign (traced): %s raised %s\n%!" (describe input)
         (Printexc.to_string e));
    incr i
  done;
  (* every nanosecond of a scenario span is some span's self time *)
  let scen = Spans.named sp "scenario" in
  let total_scen = List.fold_left (fun a s -> a + Spans.duration s) 0 scen in
  let self_sum =
    List.fold_left
      (fun a name -> a + Spans.total_self_ns sp name)
      0
      ("scenario" :: List.map (fun s -> "stage." ^ s) stage_names @ layer_names)
  in
  {
    t_scenarios = !i;
    t_failed = !failed;
    t_eval_ns = !eval_ns;
    t_replay_plain_ns = !plain_ns;
    t_replay_traced_ns = !traced_ns;
    t_expansions = !exps;
    t_eval_expansions = !eval_exps;
    t_prefix_expansions = !prefix_exps;
    t_truncated = !truncs;
    t_minor_words = !words /. float_of_int (max 1 !i);
    t_self_sum_ok = self_sum = total_scen;
  }
