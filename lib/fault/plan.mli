(** The fault-plan DSL.

    A plan is a list of deterministic, seeded perturbations of a
    scenario's inputs — the faults a deployed EMERALDS device actually
    meets: jobs that run past their declared WCET, releases that
    jitter, interrupt sources that storm or drop, wait-queue signals
    that get lost, sporadic arrivals that violate their declared
    minimum interarrival, and a tick clock that drifts.  The empty
    plan is the identity: injecting it leaves the simulation
    bit-identical to an unfaulted run (the differential the fuzz
    harness checks).

    Plans have a concrete syntax for the CLI ([--plan]); {!parse} and
    {!render} round-trip it.  Clauses are separated by [';'], each
    clause is [kind:key=value,key=value].  Durations accept [ns], [us]
    and [ms] suffixes (a bare integer is nanoseconds):

    {v
    wcet-scale:tid=2,pct=400[,from=1]     demand multiplied by pct/100
    wcet-add:tid=2,extra=3ms[,from=1]     demand increased by a constant
    jitter:tid=1,amp=500us                seeded release jitter in [-amp, amp]
    irq-storm:irq=9,at=20ms,count=40,spacing=100us
    irq-drop:irq=9,one-in=3               every 3rd delivery lost
    lost-signal:wq=0,one-in=4             every 4th waitq signal lost
    burst:tid=3,at=50ms,count=3,spacing=1ms   sporadic arrivals
    drift:ppm=500                         tick clock stretched 500 ppm
    frame-drop:one-in=7                   every 7th bus frame lost
    frame-corrupt:one-in=9                every 9th frame corrupted
    node-crash:node=1,at=40ms             station 1 fail-stops at 40 ms
    node-restart:node=1,at=80ms           station 1 rejoins at 80 ms
    link-partition:a=0,b=1,from=20ms,until=60ms
    v}

    The last five are fabric faults: pure data here, interpreted by
    [lib/fabric] (the single-node injector treats them as inert, so a
    fabric plan can be parsed anywhere). *)

type fault =
  | Wcet_scale of { tid : int; pct : int; from_job : int }
      (** multiply the task's compute demand by [pct/100] from job
          [from_job] on (jobs number from 1) *)
  | Wcet_add of { tid : int; extra : Model.Time.t; from_job : int }
  | Release_jitter of { tid : int; amplitude : Model.Time.t }
      (** seeded uniform offset in [[-amplitude, amplitude]] on every
          periodic release of the task *)
  | Irq_storm of {
      irq : int;
      at : Model.Time.t;
      count : int;
      spacing : Model.Time.t;
    }  (** [count] extra deliveries starting at [at] *)
  | Irq_drop of { irq : int; one_in : int }
      (** every [one_in]-th scheduled delivery of the source is lost *)
  | Lost_signal of { wq : int; one_in : int }
      (** every [one_in]-th signal of the wait queue is lost *)
  | Sporadic_burst of {
      tid : int;
      at : Model.Time.t;
      count : int;
      spacing : Model.Time.t;
    }
      (** [count] sporadic arrivals [spacing] apart — spacing below the
          task's period violates the declared minimum interarrival *)
  | Clock_drift of { ppm : int }
      (** stretch (positive) or shrink (negative) the tick clock;
          inert on event-precise kernels *)
  | Frame_drop of { one_in : int }
      (** every [one_in]-th transmitted bus frame is lost on the wire
          (for every receiver — a broadcast bus has one wire) *)
  | Frame_corrupt of { one_in : int }
      (** every [one_in]-th transmitted frame has its payload
          corrupted; receivers detect it by checksum and discard *)
  | Node_crash of { node : int; at : Model.Time.t }
      (** fail-stop of one fabric station at an absolute instant *)
  | Node_restart of { node : int; at : Model.Time.t }
      (** a crashed station rejoins (cold: no retained tasks) *)
  | Link_partition of {
      a : int;
      b : int;
      from_ : Model.Time.t;
      until : Model.Time.t;
    }
      (** frames between stations [a] and [b] (both directions) are
          suppressed during [[from_, until)] *)

type t = fault list
(** A plan; order is preserved (demand faults on one task compose in
    plan order). *)

val empty : t

val parse : string -> (t, string) result
(** Parse the concrete syntax above.  Whitespace around clauses is
    ignored; an empty string is the empty plan.  Errors name the
    offending clause. *)

val render : t -> string
(** Canonical concrete syntax; [parse (render p)] = [Ok p]. *)

val label : fault -> string
(** Short human label, e.g. ["wcet-scale tau2 x4.0"]. *)

val to_json : t -> Util.Json.t
(** JSON array of fault objects. *)
