(** Minimal SARIF 2.1.0 emission.

    A log of one or more runs, each with its own tool driver, a
    deduplicated rule table and a flat result list — enough for CI
    services and editors that ingest the static-analysis interchange
    format.  Shared by the lint report ([emeralds_cli lint --format
    sarif]), the model checker ([emeralds_cli check --format sarif])
    and the soundness campaign, which aggregates several oracles as
    separate runs of one log. *)

type level = Error | Warning | Note

type result = {
  rule_id : string;  (** stable check identifier, e.g. ["deadlock"] *)
  level : level;
  message : string;
  logical : string option;
      (** logical location, e.g. ["task 3, pc 2"] — these programs have
          no source files to point into *)
}

val of_diags : Diag.t list -> result list
(** Lint diagnostics as SARIF results ([Info] maps to [Note]). *)

val in_scenario : string -> result list -> result list
(** Prefix each result's logical location with a scenario name
    (["engine, task 3, pc 2"]), so results from several scenarios can
    share one log. *)

val log : (string * result list) list -> Util.Json.t
(** A complete SARIF 2.1.0 log with one run per [(tool name, results)]
    pair — the multi-run shape the campaign uses to report each oracle
    (lint, analyze, check, the differential lattice) as its own run. *)
