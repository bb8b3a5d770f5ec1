(** The blame report: one simulated run of a scenario with the
    response-time attributor ({!Obs.Blame}) on its probe stream, every
    task's worst job broken down into named causes, and each component
    cross-validated against its analytical term from {!Claims}.

    The bound columns are the RM claims, so they appear only on RM
    runs and only for RTA-eligible tasks. *)

type row = {
  summary : Obs.Blame.task_summary;
  deadline : Model.Time.t;
  rta_bound : Model.Time.t option;
      (** {!Claims.rta_bound}, on RM runs only *)
  bounds : Claims.blame_bound list;
      (** {!Claims.blame_bounds}, on RM runs only *)
}

type t = {
  scenario : string;
  sched : string;
  horizon : Model.Time.t;
  seed : int;
  misses : int;
  overruns : int;
  kills : int;
  residual_violations : int;  (** across every task, selected or not *)
  rows : row list;  (** rank order, filtered by [task] *)
}

val run :
  ?task:int ->
  spec:Emeralds.Sched.spec ->
  horizon:Model.Time.t ->
  seed:int ->
  Workload.Scenario.t ->
  t
(** Simulate the scenario under [spec] (m68040 costs, no enforcement,
    empty fault plan) and explain every task, or only task id [task]. *)

val violations : t -> bool
(** Any deadline miss, overrun, kill or conservation violation — the
    CLI's exit-1 condition. *)

val render : t -> string
(** Ranked blame tables, the cross-validation lines, and the dominant
    cause of each missing task's worst job. *)

val to_json : t -> Util.Json.t

val findings : t -> Lint.Diag.t list
(** One error per task with conservation violations and one per
    missing task, naming its dominant blamer. *)
