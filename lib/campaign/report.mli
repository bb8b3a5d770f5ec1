(** Campaign reporting: terminal text, JSON, and multi-run SARIF. *)

val render_text : Driver.summary -> string

val to_json : Driver.summary -> Util.Json.t

val to_sarif : Driver.summary -> Util.Json.t
(** A SARIF 2.1.0 log with one run per tool driver (lint, absint, mc,
    campaign); each finding is routed to the tool whose layer its
    falsified claim indicts.  Empty runs are emitted too: they state
    that the corresponding oracles were evaluated and held. *)
