(* One blame-attributed run of a scenario, cross-validated against the
   scenario's claims. *)

type row = {
  summary : Obs.Blame.task_summary;
  deadline : Model.Time.t;
  rta_bound : Model.Time.t option;
  bounds : Claims.blame_bound list;
}

type t = {
  scenario : string;
  sched : string;
  horizon : Model.Time.t;
  seed : int;
  misses : int;
  overruns : int;
  kills : int;
  residual_violations : int;
  rows : row list;
}

let run ?task ~spec ~horizon ~seed (scenario : Workload.Scenario.t) =
  let claims = Claims.of_scenario scenario in
  let rm = spec = Emeralds.Sched.Rm in
  let blame =
    Obs.Blame.create ~tasks:(Obs.Blame.of_taskset scenario.taskset) ()
  in
  let cfg =
    {
      (Inject.default_config ~scenario ~spec ~horizon ~seed ()) with
      observer = Some (fun k -> Obs.Blame.attach blame (Emeralds.Kernel.probe k));
    }
  in
  let tr = Emeralds.Kernel.trace (Inject.run cfg).kernel in
  let tasks = Model.Taskset.tasks scenario.taskset in
  let row (s : Obs.Blame.task_summary) =
    {
      summary = s;
      deadline = tasks.(s.s_rank).deadline;
      rta_bound = (if rm then Claims.rta_bound claims s.s_rank else None);
      bounds = (if rm then Claims.blame_bounds claims s else []);
    }
  in
  {
    scenario = scenario.name;
    sched = Emeralds.Sched.spec_name spec;
    horizon;
    seed;
    misses = Sim.Trace.deadline_misses tr;
    overruns = Sim.Trace.budget_overruns tr;
    kills = Sim.Trace.jobs_killed tr;
    residual_violations = Obs.Blame.residual_violations blame;
    rows =
      Obs.Blame.summaries blame
      |> List.filter (fun (s : Obs.Blame.task_summary) ->
             Option.fold ~none:true ~some:(( = ) s.s_id) task)
      |> List.map row;
  }

let violations t =
  t.misses > 0 || t.overruns > 0 || t.kills > 0 || t.residual_violations > 0

let missed r = r.summary.s_max_response > r.deadline

(* the dominant cause of each missing task's worst job *)
let verdicts t =
  List.filter_map
    (fun r ->
      match r.summary.s_worst with
      | Some bd when missed r ->
        let cause, amount = Obs.Blame.dominant bd in
        Some (r.summary.s_id, cause, amount)
      | _ -> None)
    t.rows

let label = function
  | Claims.Exec -> "exec <= absint demand"
  | Interference j -> Printf.sprintf "interference(rank %d)" j
  | Blocking -> "blocking <= lint term"
  | Overhead -> "overhead <= Table-1"

let render t =
  let buf = Buffer.create 2048 in
  Printf.bprintf buf "explain: scenario %s, sched %s, horizon %d ms, seed %d\n"
    t.scenario t.sched
    (t.horizon / Model.Time.ms 1)
    t.seed;
  Printf.bprintf buf
    "  %d deadline miss(es), %d overrun(s), %d kill(s), %d conservation \
     violation(s)\n"
    t.misses t.overruns t.kills t.residual_violations;
  List.iter
    (fun r ->
      let s = r.summary in
      Printf.bprintf buf "\ntau%d (rank %d): %d job(s), max response %dns%s%s\n"
        s.s_id s.s_rank s.s_jobs s.s_max_response
        (match r.rta_bound with
        | Some b -> Printf.sprintf ", RTA bound %dns" b
        | None -> "")
        (if missed r then "  ** MISSED **" else "");
      match s.s_worst with
      | Some bd ->
        Buffer.add_string buf (Format.asprintf "%a" Obs.Blame.pp_breakdown bd);
        if r.bounds <> [] then begin
          Buffer.add_string buf
            "  cross-validation (worst per component across jobs vs \
             analytical term):\n";
          List.iter
            (fun (b : Claims.blame_bound) ->
              match b.bound with
              | Some bound ->
                Printf.bprintf buf "  %-22s %10dns <= %10dns  %s\n"
                  (label b.term) b.observed bound
                  (if b.observed <= bound then "ok" else "EXCEEDS")
              | None -> ())
            r.bounds
        end
      | None -> ())
    t.rows;
  List.iter
    (fun (tid, cause, amount) ->
      Printf.bprintf buf "\ntau%d missed its deadline: dominant blame %s (%dns)\n"
        tid
        (Obs.Blame.cause_label cause)
        amount)
    (verdicts t);
  Buffer.contents buf

let to_json t =
  let open Util.Json in
  let task r =
    let s = r.summary in
    let rta_bound =
      match r.rta_bound with Some b -> [ ("rta_bound", Int b) ] | None -> []
    in
    let worst =
      match s.s_worst with
      | Some bd ->
        let cause, amount = Obs.Blame.dominant bd in
        let interference (j, v) = Obj [ ("rank", Int j); ("ns", Int v) ] in
        [ ( "worst",
            Obj
              [ ("job", Int bd.b_job); ("response", Int bd.b_response);
                ("exec", Int bd.b_exec); ("backlog", Int bd.b_backlog);
                ("blocking", Int (Obs.Blame.blocking_total bd));
                ("overhead", Int (Obs.Blame.overhead_total bd));
                ("suspend", Int bd.b_suspend); ("gap", Int bd.b_gap);
                ("residual", Int bd.b_residual);
                ("interference", List (List.map interference bd.b_interference));
                ( "dominant",
                  Obj
                    [ ("cause", String (Obs.Blame.cause_label cause));
                      ("ns", Int amount) ] ) ] ) ]
      | None -> []
    in
    Obj
      ([ ("tid", Int s.s_id); ("rank", Int s.s_rank); ("jobs", Int s.s_jobs);
         ("max_response", Int s.s_max_response); ("missed", Bool (missed r)) ]
      @ rta_bound @ worst)
  in
  Obj
    [ ("scenario", String t.scenario); ("sched", String t.sched);
      ("horizon_ms", Int (t.horizon / Model.Time.ms 1)); ("seed", Int t.seed);
      ("misses", Int t.misses); ("overruns", Int t.overruns); ("kills", Int t.kills);
      ("residual_violations", Int t.residual_violations);
      ("tasks", List (List.map task t.rows)) ]

let findings t =
  let finding check message tid =
    Lint.Diag.make Lint.Diag.Error ~check ~scope:t.scenario ~task:tid message
  in
  List.filter_map
    (fun r ->
      let s = r.summary in
      if s.s_residual_violations > 0 then
        Some
          (finding "explain/conservation"
             (Printf.sprintf
                "blame components of %d job(s) missed the observed response \
                 by up to %dns"
                s.s_residual_violations s.s_max_abs_residual)
             s.s_id)
      else None)
    t.rows
  @ List.map
      (fun (tid, cause, amount) ->
        finding "explain/miss"
          (Printf.sprintf "deadline miss: dominant blame %s (%dns)"
             (Obs.Blame.cause_label cause)
             amount)
          tid)
      (verdicts t)
