(** Run every check and render the findings.

    [run] is the single entry point callers want: all six analyses over
    one {!Ctx.t}, findings sorted errors-first.  The blocking-term
    extraction itself lives in {!Blocking_terms} (it produces numbers,
    not diagnostics); [render_blocking] prints its per-semaphore
    summary alongside the findings table for the CLI. *)

val run : Ctx.t -> Diag.t list
(** All checks — lock balance, deadlock, blocking hygiene, state
    discipline, liveness — sorted by {!Diag.compare}. *)

val render : Diag.t list -> string
(** Human-readable findings table (severity / check / task / pc /
    message); a one-line all-clear when the list is empty. *)

val render_blocking : Ctx.t -> string
(** Per-semaphore table of priority ceilings and worst-case critical
    sections, plus the per-rank blocking terms, from
    {!Blocking_terms}. *)
