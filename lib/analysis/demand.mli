(** Processor-demand feasibility for EDF task subsets, optionally under
    interference from statically higher-priority periodic tasks — the
    building block of the CSD schedulability test: each DP queue is EDF
    inside, while every shorter-period queue preempts it at fixed
    priority (§5.5.3's structure, following [36]). *)

val dbf : period:int -> deadline:int -> wcet:int -> int -> int
(** Demand-bound function of one periodic task at horizon [t]
    (synchronous release). *)

val feasible :
  ?max_points:int ->
  own:(int * int * int) array ->
  interference:(int * int) array ->
  unit ->
  bool
(** [feasible ~own ~interference ()] — can the [own] tasks
    [(period, deadline, wcet)] meet all deadlines under EDF while the
    [interference] tasks [(period, wcet)] preempt them arbitrarily
    (ceiling request-bound)?  Deadlines are non-negative, as every
    {!Model.Task} deadline is.  The verdict equals checking every [own]
    deadline within the synchronous busy period; the walk goes backwards
    from the period's end and skips the deadlines the demand already
    proves safe.  Conservative on resource exhaustion: the cap counts
    those deadlines and is decided before the walk, so more than
    [max_points] of them (default 200_000) reports infeasible. *)
