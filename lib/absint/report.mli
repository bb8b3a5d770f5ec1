(** Whole-scenario analysis: run the abstract interpreter over every
    task of a scenario and assemble the sound static bounds the rest of
    the toolchain consumes.

    The analysis closes the one loop a per-task pass cannot: nested
    acquires.  The time a task spends blocked acquiring semaphore [s]
    is bounded by [s]'s worst hold time anywhere else — which itself
    may include waits on other semaphores.  {!analyze} iterates
    interpretation to the fixpoint of that mutual dependency, widening
    a still-growing hold to [Inf] after a few rounds (only a cyclic
    lock order keeps it growing, and lint's deadlock check reports
    those separately).

    Soundness cross-checks are built in as diagnostics rather than
    trusted: a scenario whose declared WCET falls below the derived
    demand bound gets a [wcet-declaration] error; a derived footprint
    above the budget gets a [budget] error; and every per-semaphore
    hold bound is compared against [Lint.Blocking_terms.per_sem] — the
    exact extraction must be dominated by the abstract one, or the
    analyzer itself is unsound ([absint-vs-lint] error). *)

type task_bound = {
  task : Model.Task.t;
  rank : int;  (** RM rank, the index every analysis array uses *)
  summary : Exec.summary;
}

type sem_bound = {
  sem_id : int;
  ceiling : int;  (** best (lowest) RM rank among the sem's users *)
  hold : Itv.t;  (** worst hold time across all tasks and sections *)
  lint_worst : int;
      (** [Lint.Blocking_terms] exact worst bounded CS, ns — must be
          dominated by [hold] *)
}

type pool_bound = {
  pool_id : int;
  capacity : int;  (** blocks *)
  block_bytes : int;
  peak : Itv.t;
      (** bound on the blocks live pool-wide at once: the sum of every
          task's per-job peak — preemption can park each job at its
          peak simultaneously, so the sum is the sound concurrent
          bound.  The kernel's pool-wide high-water must fall under
          its upper end. *)
}

type t = {
  scenario_name : string;
  cost_name : string;
  tasks : task_bound array;  (** RM-rank order *)
  sems : sem_bound list;  (** sorted by sem id *)
  pools : pool_bound list;  (** sorted by pool id *)
  latency_bound : int;
      (** static interrupt-latency bound, ns: the longest
          non-preemptible kernel window any task opens, plus interrupt
          entry itself *)
  config : Emeralds.Footprint.config;  (** derived, not declared *)
  code_bytes : int;
  ram_bytes : int;
  total_bytes : int;  (** code + RAM, compared against the budget *)
  budget_bytes : int;
  diags : Lint.Diag.t list;
}

val analyze :
  ?lesion:Exec.lesion ->
  ?cost:Sim.Cost.t ->
  ?budget_bytes:int ->
  Workload.Scenario.t ->
  t
(** [cost] defaults to [Sim.Cost.m68040] (the paper's target);
    [budget_bytes] to {!Memory.budget_default} (128 KB).  [lesion]
    deliberately weakens the interpreter (see {!Exec.lesion}) — the
    campaign's [cfg-loop]/[cfg-join] ablations use it to prove the
    oracles notice when loop-bound multiplication or branch joins are
    dropped; production callers leave it unset. *)

val errors : t -> int
(** Error-severity diagnostics — non-zero means the scenario fails
    analysis (the CLI exit-1 condition). *)

val blocking_terms : t -> int array
(** Per-rank priority-inheritance blocking terms from the finite
    derived holds, via [Analysis.Blocking.blocking_terms] — the
    abstract counterpart of [Lint.Blocking_terms.blocking_terms],
    additionally covering kernel charges and bounded suspension inside
    critical sections.  Unbounded holds are excluded (they carry a
    [hold-unbounded] warning instead). *)

val derived_demand : t -> int option array
(** Per-rank derived per-job demand for the RTA feed:
    [exec.hi + suspend.hi] when the task's suspension is statically
    bounded, [None] when some wait has no bound (RTA cannot use it). *)

val render : t -> string
(** Human-readable report: per-task bounds, per-semaphore holds,
    latency, derived footprint with budget verdict, diagnostics. *)

val render_rta : t -> string
(** Response-time analysis fed with {!derived_demand} and
    {!blocking_terms} instead of declared WCETs and lint terms: per
    task its demand, blocking term, response bound and verdict, or why
    no bound exists (an untimed wait at or above its rank). *)

val to_json : t -> Util.Json.t
