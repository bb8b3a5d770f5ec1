(** Blocking-aware fixed-priority analysis.

    §6's semaphores use priority inheritance precisely so that blocking
    is bounded [26]: a job can be delayed by lower-priority tasks for
    at most one critical section per lower-priority task, and at most
    one per semaphore.  This module computes that bound from a
    declarative description of who locks what for how long, and folds
    it into response-time analysis — connecting the semaphore
    subsystem back to the schedulability story. *)

type critical_section = {
  task_rank : int;  (** priority rank of the task executing it (0 = highest) *)
  sem : int;        (** semaphore identifier *)
  duration : int;   (** worst-case time the lock is held, ns *)
  nested : int list;
      (** semaphores acquired while this section is held, one entry per
          acquire — the waits for them extend the hold *)
  chained : int list;
      (** for a merged back-to-back chain (release immediately followed
          by another acquire with no intervening yield): the other
          member semaphores.  The kernel's direct hand-off re-grants a
          waiter already re-queued in the same kernel event, so the
          chain blocks a higher-priority job as one continuous episode;
          [duration] then covers the whole chain and the section
          qualifies against a rank when {e any} member semaphore is
          used at or above it.  [[]] for an ordinary section. *)
}

val blocking_terms : n:int -> critical_section list -> int array
(** [blocking_terms ~n css] gives each priority rank its worst-case
    priority-inheritance blocking.  A section qualifies against rank
    [i] when a *lower*-priority task executes it on a semaphore also
    used at rank [i] or above; its effective duration is its own
    bounded time plus, recursively, the longest wait any [nested]
    acquire can incur (another task's effective section on the inner
    semaphore) — without this chain, a nested section's hold would be
    under-counted by the whole inner wait.  Under PI a job then blocks
    for at most one effective section per lower-priority task and at
    most one per semaphore, so B_i is the smaller of the two sums of
    per-key maxima.

    The [critical_section] list can be written by hand or extracted
    statically from thread programs by the verifier
    ([Lint.Blocking_terms.critical_sections]).  {!Rta.response_time}
    and {!Rta.feasible} fold the terms in through [~blocking]. *)
