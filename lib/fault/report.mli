(** The resilience report: replay a scenario under a matrix of fault
    plans and score what the enforcement layer saw.

    Each plan becomes one cell: how many deadline misses, budget
    overruns, kills and sheds the run produced, how long after the
    first fault activation the kernel first *detected* anything
    (budget-exhaustion or deadline-miss policy firing), whether the
    trace stayed identical to the unfaulted baseline — and which
    static predictions the faults falsified.  Falsification is judged
    against the same analyses the rest of the toolchain trusts: the
    response-time bounds of {!Analysis.Rta} (fed with
    [Lint.Blocking_terms]) and the per-job demand bounds of
    {!Absint.Report}.  A fault plan that makes an analytically
    "schedulable" task miss, or a job consume more than its derived
    demand bound, has falsified exactly the prediction a deployed
    system would have been certified on. *)

type prediction = {
  p_source : string;  (** ["rta"] or ["absint"] *)
  p_task : int;  (** task id the prediction was about *)
  p_claim : string;  (** what the analysis predicted *)
  p_observed : string;  (** what the injected run actually did *)
}

type cell = {
  c_label : string;
  c_plan : Plan.t;
  c_misses : int;
  c_overruns : int;
  c_kills : int;
  c_sheds : int;
  c_jobs : int;  (** jobs completed across all tasks *)
  c_first_activation : Model.Time.t option;
  c_first_detection : Model.Time.t option;
      (** first budget-overrun or miss-policy detection, from
          [Kernel.enforcement_stats] *)
  c_detection_latency : Model.Time.t option;
      (** detection minus activation, when both exist *)
  c_matches_baseline : bool;
      (** trace entries, busy time and context switches all equal the
          unfaulted, enforcement-free baseline *)
  c_falsified : prediction list;
}

type t = {
  r_scenario : string;
  r_sched : string;
  r_seed : int;
  r_horizon : Model.Time.t;
  r_cells : cell list;
      (** first cell is always the empty plan (label ["no-fault"]) run
          with enforcement installed — the differential guard *)
}

val run : ?plans:(string * Plan.t) list -> Inject.config -> t
(** Replay [cfg.scenario] under the plan matrix.  [plans] defaults to
    the single entry [cfg.plan] (skipped when empty); the baseline and
    the empty-plan cell are always included.  Runs force [keep_trace]
    regardless of [cfg.keep_trace] (the baseline comparison needs
    entries). *)

val violations : t -> bool
(** Any cell with misses, overruns, kills or sheds — the CLI's exit-1
    condition. *)

val render : t -> string

val to_json : t -> Util.Json.t

val to_sarif : t -> Lint.Sarif.result list
(** One result per detected-fault cell (warning), per falsified
    prediction (error), and per clean cell (note). *)

(** {1 Fabric scoring}

    Pure scoring data for a multikernel fabric run; assembled by
    [lib/fabric] (this library never touches the bus), rendered and
    judged here so fabric reports share the single-node vocabulary. *)

type net_score = {
  n_nodes : int;  (** stations in the fabric *)
  n_surviving : int;  (** stations alive at the end of the run *)
  n_migrated : int;  (** tasks re-admitted on another node *)
  n_shed : int;
      (** tasks dropped during failover because every target's RTA
          re-check failed (Koren–Shasha fallback) *)
  n_e2e_misses : int;
      (** deadline misses on surviving shards {e after} the last
          failover completed — the graceful-degradation criterion *)
  n_frames : int;  (** frames transmitted on the wire *)
  n_dropped : int;  (** frames lost to the wire fault *)
  n_corrupt : int;  (** frames discarded by receiver checksum *)
  n_retries : int;  (** reliable-layer retransmissions *)
  n_timeouts : int;  (** sends that exhausted their retry budget *)
  n_retry_amplification : float;
      (** transmissions per unique application frame: 1.0 on a clean
          wire, grows under storm *)
  n_bus_utilization : float;  (** bus busy time / elapsed horizon *)
  n_detect_latency : Model.Time.t option;
      (** crash to detector firing (first crash when several) *)
  n_failover_latency : Model.Time.t option;
      (** crash to last migrated task re-admitted on its target *)
  n_failover_bound : Model.Time.t option;
      (** the static migration-cost bound the observed latency must
          not exceed — the Quest-V predictability claim *)
}

val net_within_bound : net_score -> bool
(** Observed failover latency within the static bound; vacuously true
    when either side is missing. *)

val net_ok : net_score -> bool
(** Degradation was graceful: no end-to-end misses after failover and,
    when both are known, observed failover latency within the static
    bound. *)

val render_net : net_score -> string

val net_to_json : net_score -> Util.Json.t

val net_to_sarif : net_score -> Lint.Sarif.result list
(** Error when the bound is exceeded or post-failover misses remain;
    warning per timeout/shed; note when clean. *)
