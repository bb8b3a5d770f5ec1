(** Replayable counterexamples.

    A violation is witnessed by the list of choices taken at each
    decision point.  Because everything between decision points is
    deterministic, re-running {!Step.expand} over the recorded
    choices reproduces the violation exactly — and, with the
    emit hook attached, yields a full {!Sim.Trace} of the offending
    schedule that the CLI renders with the standard trace
    pretty-printers. *)

type t = {
  prop : string;
  message : string;
  at : int;  (** violation instant, ns *)
  horizon : int;  (** the bound the witness was found under *)
  choices : Step.choice list;
}

exception Divergence of string
(** Replay did not reproduce the recorded violation — the transition
    relation is not deterministic between decision points (a checker
    bug; the unit tests assert this never fires). *)

val replay : Machine.t -> props:Props.t list -> t -> Sim.Trace.t
(** Re-run the witness, checking the same properties; returns the
    trace of the violating schedule.
    @raise Divergence if the run does not reach the same property
    violation. *)

val render : Machine.t -> props:Props.t list -> t -> string
(** Human-readable report: the violation, the choices taken, and the
    replayed schedule timeline. *)
