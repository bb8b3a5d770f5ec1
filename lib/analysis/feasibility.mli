(** Overhead-aware schedulability: the paper's question "which
    scheduler can feasibly schedule this workload once its own run-time
    cost is charged?" (§5.7).  WCETs are first inflated by
    [Overhead.per_task], then checked with the test matching the
    scheduler: exact RTA for RM (either implementation), the
    processor-demand criterion for EDF, and the hierarchical test for
    CSD partitions (FP tasks by RTA against all shorter-period tasks;
    each DP queue by EDF demand under ceiling interference from the
    queues above it).

    The CSD test first rejects an inflated total utilization above
    [1 + 1e-12], the demand test's own bound, before any fixpoint
    runs.  It does so only when the FP queue is empty (the last DP
    queue's demand test then carries every row) or its lowest rank has
    [d <= p] and [C > 0] (its response time then exceeds its period
    whenever U > 1); a lowest FP rank with [d > p] can pass its
    first-job RTA at U > 1, and its verdict is left to the RTA.  The FP
    ranks' RTA is warm-started as in {!Rta.feasible}.  Both leave every
    verdict unchanged. *)

val feasible :
  ?max_points:int ->
  cost:Sim.Cost.t ->
  spec:Emeralds.Sched.spec ->
  Model.Taskset.t ->
  bool

val feasible_rows :
  ?max_points:int -> spec:Emeralds.Sched.spec -> (int * int * int) array -> bool
(** Same, on pre-inflated [(period, deadline, wcet)] rows in RM order
    (for callers that inflate once and test many partitions). *)
