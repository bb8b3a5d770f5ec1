(** Bounded depth-first exploration with visited-set pruning.

    States are pruned at decision points using the canonical encoding
    ({!State.key}): once a decision state has been expanded, every
    later path reaching it is cut, which is sound because the
    continuation from a decision state depends only on the state.
    Exploration is bounded three ways — virtual-time horizon, total
    expansions, and decisions per path — and reports whether any bound
    actually truncated it, so "no violation" can be read as "none
    within the bounds" rather than a proof beyond them.

    The depth-first stack holds [(parent state, choice)] frames: the
    children of a decision state share it, and each child's choice is
    committed inside its own expansion ({!Step.expand} [~choice]).  The
    search stops as soon as the expansion budget is spent. *)

type bounds = {
  horizon : int;  (** virtual-time bound, ns *)
  max_states : int;  (** total expansions *)
  max_depth : int;  (** decisions along one path *)
}

val default_bounds : Machine.t -> bounds
(** One hyperperiod, 200k expansions, 10k decisions. *)

type result = {
  verdict : [ `Ok | `Violation of Counterexample.t ];
  expansions : int;  (** deterministic segments executed *)
  distinct : int;  (** decision states in the visited set *)
  revisits : int;  (** paths cut by visited pruning *)
  por_skipped : int;  (** choices pruned by partial-order reduction *)
  truncated : bool;  (** some bound cut exploration short *)
  truncated_by : [ `States | `Depth ] option;
      (** which bound: [`States] when the expansion budget stopped the
          search (it may also have cut paths at the depth bound before),
          [`Depth] when only the depth bound cut paths; [None] exactly
          when [truncated] is false *)
  jobs : int;  (** job completions observed across all paths *)
  max_response : int array;
      (** worst observed response per task (indexed like
          [Machine.tasks]); with [`Ok] and [truncated = false] these are
          exhaustive worst cases over every admissible schedule within
          the horizon — the numbers the RTA cross-check compares
          against analytical bounds *)
}

val check :
  ?por:bool ->
  ?seed:int ->
  props:Props.t list ->
  bounds:bounds ->
  Machine.t ->
  result
(** Explore.  [por] (default true) enables the tie reduction; it is
    forced off whenever a selected property is
    {!Props.timing_sensitive}, since the reduction deliberately drops
    schedules that differ only in timing.

    [seed] shuffles the order in which each branch's children are
    explored (default: the machine's deterministic enumeration order).
    The visited-set pruning makes the explored state space — and the
    verdict — independent of the order; what varies reproducibly is
    the search path, hence which of several violating traces is
    reported and how many expansions a violating run needs before
    finding it. *)
