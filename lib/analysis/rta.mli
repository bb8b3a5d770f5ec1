(** Exact response-time analysis for fixed-priority preemptive
    scheduling (Joseph & Pandya / Audsley).  Tasks are given
    highest-priority-first; feasibility requires every response time to
    fit within its deadline. *)

val response_time :
  ?limit:int -> ?blocking:int array -> tasks:(int * int * int) array -> int -> int option
(** [response_time ~tasks i] is the worst-case response time of the
    task at index [i] of [(period, deadline, wcet)] rows sorted by
    decreasing priority, or [None] if the fixpoint exceeds the task's
    deadline (or [limit] iterations, default 10_000) — both mean
    "unschedulable at this priority".  The iteration starts cold, at
    [C_i + B_i].

    [blocking] gives each rank a priority-inversion blocking term added
    to its own demand (R = C + B + interference).  The terms typically
    come from {!Blocking.blocking_terms} over hand-declared critical
    sections, or from the static verifier's extraction
    ([Lint.Blocking_terms]) over actual thread programs. *)

type decomposition = {
  dec_response : int;  (** the fixpoint R* *)
  dec_own : int;  (** the task's own (overhead-inflated) WCET term C *)
  dec_blocking : int;  (** the priority-inversion term B *)
  dec_interference : int array;
      (** per higher-priority rank [j < i]: [ceil(R*/T_j) * C_j] *)
}
(** The per-term split of a response-time fixpoint:
    [dec_own + dec_blocking + sum dec_interference = dec_response]
    exactly.  This is what empirical blame components are
    cross-validated against ({!Obs.Blame}). *)

val decompose :
  ?limit:int ->
  ?blocking:int array ->
  tasks:(int * int * int) array ->
  int ->
  decomposition option
(** [decompose ~tasks i] re-derives the terms of [response_time] at
    its fixpoint; [None] exactly when {!response_time} is [None]. *)

val feasible : ?limit:int -> ?blocking:int array -> (int * int * int) array -> bool
(** Whole-set feasibility: every task's response time is within its
    deadline.  Without [blocking], rank [i]'s iteration is warm-started
    at [R_{i-1} + C_i], a proven lower bound on [R_i] (Davis, Zabos &
    Burns 2008), so it reaches the same fixpoint as {!response_time} in
    fewer steps; with [blocking], every rank starts cold.  [limit]
    counts iterations from wherever the iteration starts, so a warm
    start can pass where a cold one would run out of a small [limit].
    At the default it does not bind on the Figures 3–5 inputs, where
    cold counts stay below 70. *)

val feasible_prefix :
  ?limit:int -> ?blocking:int array -> (int * int * int) array -> upto:int -> bool
(** Feasibility of tasks [0..upto-1] only (interference still comes
    solely from higher-priority tasks, so this equals [feasible] on the
    truncated array). *)

val feasible_range :
  ?limit:int ->
  ?blocking:int array ->
  (int * int * int) array ->
  from:int ->
  upto:int ->
  bool
(** Feasibility of tasks [from..upto-1], each still interfered with by
    every higher-priority task [0..i-1] (the CSD test's FP queue).
    Rank [from] starts cold and later ranks start as in {!feasible}. *)
