(** Pluggable checked properties.

    A property inspects either states (probed after every micro-step)
    or notes (emitted by the transition relation as they happen); the
    first failure aborts exploration with a counterexample. *)

type t = {
  name : string;
  doc : string;
  timing_sensitive : bool;
      (** verdict depends on execution-order timing, so the explorer
          must not apply partial-order reduction *)
  on_state : Machine.t -> State.t -> string option;
      (** the state may be a view of the checker's working copy: read
          it during the call, never keep it *)
  on_note : Machine.t -> at:int -> State.note -> string option;
}

val deadlock : t
(** No circular wait: no cycle in the blocked-task → semaphore-holder
    graph. *)

val pi : t
(** Priority-inheritance correctness: every task's incrementally
    maintained effective rank and effective deadline equal the
    declarative fixpoint — the minimum over itself and the effective
    values of all (transitive) waiters on semaphores it holds.
    Skipped on states that already contain a circular wait (the
    fixpoint is undefined there; {!deadlock} reports those). *)

val invariants : t
(** Structural kernel invariants on every state: at most one running
    task, semaphore value/holder/held-list consistency, no waiters on
    an available semaphore, mailbox occupancy within capacity and
    consistent with blocked senders/receivers, program counters in
    range, and no faulting operations (e.g. releasing an un-held
    semaphore). *)

val tear : t
(** State-message tear-freedom: no read observes [depth - 1] or more
    writes completed between its begin and end — the §7 bound
    [N >= ceil(read/write) + 2] is exactly what makes this
    unreachable. *)

val mem : t
(** Block-pool memory safety: every pool's occupancy stays within
    [0, capacity] and equals the sum of blocks tasks hold (no lost or
    duplicated blocks), no allocation is denied (OOM), and no job
    completes still holding blocks (leak). *)

val deadline : t
(** No deadline miss up to the horizon.  Timing-sensitive. *)

val all : t list
val by_name : string -> t option
val names : string list

val check_state :
  t list -> Machine.t -> State.t -> (string * string) option
(** First failing property on a state, as [(name, message)]. *)

val check_note :
  t list -> Machine.t -> at:int -> State.note -> (string * string) option
