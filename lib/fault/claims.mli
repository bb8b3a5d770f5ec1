(** The analytical claims a scenario's runs are checked against,
    computed once per scenario.

    EMERALDS' schedulability argument charges the Table 1 kernel
    overheads (queue parse, block/unblock, context switch) to every
    task.  The claims here are that argument made checkable: the
    response-time bounds of RM RTA over overhead-inflated WCETs and
    the lint blocking terms, the abstract interpreter's per-job demand
    bounds, and the per-term split of each response the blame
    attributor ({!Obs.Blame}) is cross-validated against.  The
    campaign's oracles, [inject]'s falsified predictions and
    [explain]'s cross-validation all read them from here.

    Everything is indexed by RM rank (0 = highest priority). *)

type t

val make :
  ?cost:Sim.Cost.t ->
  blocking:Model.Time.t array ->
  absint:Absint.Report.t ->
  Workload.Scenario.t ->
  t
(** Claims from one set of blocking terms (by rank) and one absint
    report of the scenario; [cost] (default [Sim.Cost.m68040]) prices
    the Table 1 inflation and overhead budgets.  The inputs are taken
    as given: a caller that weakens a layer passes the weakened
    terms or report. *)

val of_scenario : ?cost:Sim.Cost.t -> Workload.Scenario.t -> t
(** {!make} fed with the scenario's lint-extracted blocking terms and
    its absint report at [cost]. *)

val rta_bound : t -> int -> Model.Time.t option
(** Table-1-inflated RM response bound of an RTA-eligible task; [None]
    for ineligible tasks and for tasks RTA rates infeasible.  RTA's
    bounds only claim anything for tasks whose programs the recurrence
    models — computes and bounded critical sections — so a task with
    open-ended blocking (waits, receives, sends, delays) is
    ineligible. *)

val missed_rta :
  t ->
  Emeralds.Kernel.t ->
  (Model.Task.t * Model.Time.t * Emeralds.Kernel.task_stats) list
(** Tasks with an RTA bound that missed a deadline in the run, with
    the bound and their statistics, in rank order. *)

val demand_seen :
  t -> Emeralds.Kernel.t -> (Model.Task.t * Model.Time.t * Model.Time.t) list
(** [(task, bound, used)] for every task whose absint upper bound on
    one job's execution is finite, in rank order: [used] is the worst
    per-job execution the run observed — the enforcement accounting's
    banked figure joined with every [Budget_overrun] entry (0 when
    nothing was recorded). *)

(** {1 Blame domination} *)

type term =
  | Exec  (** own execution vs the absint demand bound *)
  | Interference of int
      (** preemption by rank [j] vs its RTA decomposition term plus
          one carry-in job *)
  | Blocking  (** total blocking vs the lint blocking term *)
  | Overhead
      (** ambient kernel overhead vs [Analysis.Overhead.job_budget]
          at the RTA fixpoint, priced with the observed IRQ count *)

type blame_bound = {
  term : term;
  observed : Model.Time.t;  (** the worst component across jobs *)
  bound : Model.Time.t option;  (** [None] when the claim has no term *)
}

val blame_bounds : t -> Obs.Blame.task_summary -> blame_bound list
(** One entry per term, in the order above with one [Interference]
    per rank in the summary; empty for an ineligible task. *)
