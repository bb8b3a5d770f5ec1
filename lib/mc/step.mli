(** The transition relation: deterministic cranking between
    nondeterministic decision points.

    Exploration alternates two moves.  {!expand} runs the kernel model
    forward deterministically — delivering due releases, timers,
    interrupts and deadline probes, dispatching the unique best ready
    task, executing its instructions, advancing virtual time — until it
    hits a {e decision point}: an unresolved arrival window that must
    be forked over before time may pass, or a dispatch tie among
    ready tasks with equal scheduler keys.  The explorer then expands
    the decision state once per offered {!choice}, passing it as
    [~choice]: the choice is committed inside that expansion's own
    working copy, so the children of one decision point share their
    parent state and no intermediate child state is ever built.

    Everything between two decision points is a single canonical
    schedule (same-instant kernel events fire in a fixed order —
    releases by rank, then timers, then interrupts by source — exactly
    as the discrete-event engine's FIFO tie-breaking does), so visited
    pruning at decision points loses no reachable decision states.
    Property probes run after every micro-step inside the segment, so
    violations inside a deterministic stretch are still caught at the
    state where they first hold; the probe sees a read-only view of the
    working copy, not a copy of it. *)

type choice =
  | Arm_irq of { src : int; at : int }
      (** interrupt source [src] next fires at absolute [at] *)
  | Arm_task of { idx : int; at : State.nr }
      (** sporadic task arrival ([At t]) or silence ([Never]) *)
  | Tie of int  (** dispatch this task among equal-key candidates *)
  | Take_branch of { idx : int; taken : bool }
      (** outcome of the data-dependent branch task [idx] sits on:
          where the kernel consults a bit of its per-job input word,
          the checker forks over both outcomes *)

type expansion = {
  state : State.t;  (** at the decision point (or final state) *)
  notes : (int * State.note) list;  (** time-stamped, chronological *)
  violation : (string * string * int) option;
      (** (property, message, time) — cranking stopped here *)
  next : [ `Branch of choice list | `Leaf ];
      (** [`Leaf]: quiescent up to the horizon, or stopped on a
          violation *)
}

val expand :
  ?emit:(int -> Sim.Trace.entry -> unit) ->
  ?check:(State.t -> (string * string) option) ->
  ?check_note:(at:int -> State.note -> (string * string) option) ->
  ?choice:choice ->
  horizon:int ->
  Machine.t ->
  State.t ->
  expansion
(** Commit [choice] (one of the [`Branch] list of the expansion that
    produced the given state; applying it never advances time), then
    crank to the next decision point.  [check] probes every
    intermediate state — the [State.t] it receives shares the working
    copy's arrays and is valid only during the call — and [check_note]
    every emitted note; the first [Some (prop, message)] aborts the
    crank and surfaces as [violation].  [emit] receives replayable
    {!Sim.Trace} entries (used by counterexample replay), including a
    [Note "choice: ..."] and, for a branch, a [Branch] entry for the
    committed choice; without [emit] neither is built. *)

val pp_choice : Machine.t -> Format.formatter -> choice -> unit
val choice_to_string : Machine.t -> choice -> string
