(** Typed findings.

    The one finding record of every checking tool: lint, absint, the
    model checker, fault injection, fabric, explain and the campaign
    all report through it, and {!Sarif.log} renders it.  Every lint
    check emits these; [error] findings are program bugs the
    kernel would turn into a runtime [Invalid_argument], a deadlock, or
    a thread blocked forever — the CLI exits non-zero on any.
    [warning] findings are hazards the paper's discipline discourages
    (e.g. blocking while holding a lock extends the critical section
    unboundedly); [info] findings are derived facts worth surfacing
    (priority ceilings, unused objects). *)

type severity = Error | Warning | Info

type t = {
  severity : severity;
  check : string;       (** stable check identifier, e.g. ["lock-balance"] *)
  scope : string option;
      (** what the finding sits in, above its task: a scenario name,
          ["scenario overrun-demo"] or ["fabric"].  [None] for a
          finding about the one program set under check. *)
  task : int option;    (** task id, [None] for cross-task findings *)
  pc : int option;      (** program counter within the task's program *)
  message : string;
}

val make :
  severity -> check:string -> ?scope:string -> ?task:int -> ?pc:int -> string -> t

val severity_label : severity -> string
(** ["error"] / ["warning"] / ["info"]. *)

val compare : t -> t -> int
(** Errors first, then by check name, task, pc — a stable report
    order. *)

val count : severity -> t list -> int
val errors : t list -> int

val location : t -> string option
(** The logical location: the scope, then ["task 3, pc 2"], joined by
    [", "] (["engine, task 3, pc 2"]); [None] when the finding has
    neither. *)

val to_json : t -> Util.Json.t
(** One diagnostic as a JSON object (without its scope, which the
    enclosing document names). *)
