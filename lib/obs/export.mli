(** Exporters for traces and metrics: the JSON ones build
    {!Util.Json.t} values, Prometheus exposition is plain text. *)

val perfetto :
  ?blame:(int * Model.Time.t * Model.Time.t) array ->
  Sim.Trace.stamped list ->
  Util.Json.t
(** Chrome/Perfetto trace-event JSON ({"traceEvents": [...]}):
    [Context_switch] entries become B/E duration slices on the
    running task's track (any slice still open at the end is closed at
    the last timestamp), every other entry becomes an instant event
    named by its CSV kind with the probe category as "cat" and the
    CSV detail as an argument.  Timestamps are microseconds.

    With [?blame] (the {!Blame.create} [~tasks] rows), a {!Blame.t}
    replays the same events and each closed job adds a "C" counter
    sample on a per-task "blame tauN" track carrying the component
    split, and each deadline miss gains a flow arrow ("s"/"f") from
    the dominant blamer's track at miss time to the victim's track at
    completion, labelled with the dominant cause. *)

val prometheus : Metrics.t -> string
(** Prometheus text exposition (text/plain version 0.0.4): one
    [emeralds_events_total{kind=...}] counter per event kind and
    quantile/sum/count/max lines for each histogram series
    (per-task response and blocking time, interrupt latency,
    ready-queue depth, per-category overhead). *)

val metrics_json : Metrics.t -> Util.Json.t
(** Compact JSON digest of the same series (counters plus
    count/p50/p95/p99/max per histogram), for scripting. *)
