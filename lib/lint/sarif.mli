(** Minimal SARIF 2.1.0 emission.

    A log of one or more runs, each with its own tool driver, a
    deduplicated rule table and a flat result list — enough for CI
    services and editors that ingest the static-analysis interchange
    format.  Every checking subcommand's [--format sarif] renders its
    findings here, and the soundness campaign aggregates several
    oracles as separate runs of one log.

    A {!Diag.t} becomes one result: its check is the rule id, [Info]
    the level [note], and {!Diag.location} the logical location
    (["engine, task 3, pc 2"]) — these programs have no source files
    to point into. *)

val log : (string * Diag.t list) list -> Util.Json.t
(** A complete SARIF 2.1.0 log with one run per [(tool name, findings)]
    pair — the multi-run shape the campaign uses to report each oracle
    (lint, analyze, check, the differential lattice) as its own run. *)
