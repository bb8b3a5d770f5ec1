(* Off-line schedulability: RTA, the demand criterion, the CSD test,
   the overhead model, partition search, and breakdown utilization. *)

open Alcotest

let qtest ?(count = 80) name gen law =
  QCheck_alcotest.to_alcotest ~speed_level:`Quick
    (QCheck2.Test.make ~count ~name gen law)

let ms = Model.Time.ms
let cost = Sim.Cost.m68040

let task id p c = Model.Task.make ~id ~period:(ms p) ~wcet:(ms c) ()

(* ------------------------------------------------------------------ *)
(* RTA *)

let test_rta_known_example () =
  (* classic example: R3 = 1 + interference *)
  let rows = [| (3, 3, 1); (5, 5, 2); (10, 10, 1) |] in
  check (option int) "R1 = C1" (Some 1) (Analysis.Rta.response_time ~tasks:rows 0);
  check (option int) "R2" (Some 3) (Analysis.Rta.response_time ~tasks:rows 1);
  (* R3: fixpoint of 1 + ceil(R/3)*1 + ceil(R/5)*2 = 5 *)
  check (option int) "R3" (Some 5) (Analysis.Rta.response_time ~tasks:rows 2);
  check bool "feasible" true (Analysis.Rta.feasible rows)

let test_rta_infeasible () =
  let rows = [| (4, 4, 2); (6, 6, 3) |] in
  (* R2 = 3 + ceil(R/4)*2: 5 -> 3+4=7 > 6 *)
  check (option int) "R2 overruns" None (Analysis.Rta.response_time ~tasks:rows 1);
  check bool "set infeasible" false (Analysis.Rta.feasible rows);
  check bool "prefix without the overrunning task is fine" true
    (Analysis.Rta.feasible_prefix rows ~upto:1)

let test_rta_table2 () =
  let rows =
    Array.map
      (fun (t : Model.Task.t) -> (t.period, t.deadline, t.wcet))
      (Model.Taskset.tasks Workload.Presets.table2)
  in
  check bool "tau5 fails under RM" false (Analysis.Rta.feasible rows);
  (* tau5 is at rank 4; everything above it is fine *)
  check bool "tau1..tau4 fine" true (Analysis.Rta.feasible_prefix rows ~upto:4);
  check bool "tau5 is the troublesome task" false
    (Analysis.Rta.feasible_prefix rows ~upto:5)

(* ------------------------------------------------------------------ *)
(* Demand criterion *)

let test_dbf () =
  check int "before deadline" 0
    (Analysis.Demand.dbf ~period:10 ~deadline:10 ~wcet:3 9);
  check int "at deadline" 3
    (Analysis.Demand.dbf ~period:10 ~deadline:10 ~wcet:3 10);
  check int "two jobs" 6
    (Analysis.Demand.dbf ~period:10 ~deadline:10 ~wcet:3 20);
  check int "constrained deadline" 3
    (Analysis.Demand.dbf ~period:10 ~deadline:4 ~wcet:3 4)

let test_demand_feasible () =
  check bool "U<1 implicit deadlines" true
    (Analysis.Demand.feasible
       ~own:[| (10, 10, 4); (15, 15, 5) |]
       ~interference:[||] ());
  check bool "U>1 infeasible" false
    (Analysis.Demand.feasible
       ~own:[| (10, 10, 6); (15, 15, 9) |]
       ~interference:[||] ());
  (* constrained deadlines can fail below U = 1 *)
  check bool "tight deadline fails" false
    (Analysis.Demand.feasible ~own:[| (10, 2, 3) |] ~interference:[||] ());
  (* interference consumes the slack *)
  check bool "with interference" true
    (Analysis.Demand.feasible ~own:[| (10, 10, 2) |] ~interference:[| (5, 2) |] ());
  check bool "interference overload" false
    (Analysis.Demand.feasible ~own:[| (10, 10, 4) |] ~interference:[| (5, 4) |] ())

(* ------------------------------------------------------------------ *)
(* Overhead model *)

let test_overhead_layout () =
  check (pair (list int) int) "clipped layout"
    ([ 2; 3 ], 5)
    (Analysis.Overhead.layout [ 2; 3 ] 10);
  check (pair (list int) int) "oversized partition clipped"
    ([ 4; 2 ], 0)
    (Analysis.Overhead.layout [ 4; 9 ] 6)

let test_overhead_magnitudes () =
  (* EDF per-period overhead at n=15:
     1.5 * (1.6 + 1.2 + 2*(1.2 + 0.25*15)) us = 1.5 * 12.7 = 19.05 *)
  let edf = Analysis.Overhead.per_task ~cost ~spec:Emeralds.Sched.Edf ~n:15 ~rank:0 in
  check int "edf n=15" (Model.Time.of_us_f 19.05) edf;
  (* RM at n=15: 1.5 * (1.0+0.36*15 + 1.4 + 2*0.6) us = 1.5 * 9.0 *)
  let rm = Analysis.Overhead.per_task ~cost ~spec:Emeralds.Sched.Rm ~n:15 ~rank:0 in
  check int "rm n=15" (Model.Time.of_us_f 13.5) rm;
  check bool "EDF overhead grows with n" true
    (Analysis.Overhead.per_task ~cost ~spec:Emeralds.Sched.Edf ~n:40 ~rank:0 > edf)

let test_overhead_csd_classes () =
  let spec = Emeralds.Sched.Csd [ 3; 5 ] in
  let dp1 = Analysis.Overhead.per_task ~cost ~spec ~n:20 ~rank:0 in
  let dp2 = Analysis.Overhead.per_task ~cost ~spec ~n:20 ~rank:4 in
  let fp = Analysis.Overhead.per_task ~cost ~spec ~n:20 ~rank:12 in
  (* Table 3: DP1 total O(r) < DP2 total O(2r - q) *)
  check bool "DP1 cheaper than DP2" true (dp1 < dp2);
  check bool "all positive" true (dp1 > 0 && dp2 > 0 && fp > 0);
  (* every class beats plain EDF at this size *)
  let edf = Analysis.Overhead.per_task ~cost ~spec:Emeralds.Sched.Edf ~n:20 ~rank:0 in
  check bool "DP1 cheaper than pure EDF" true (dp1 < edf)

(* ------------------------------------------------------------------ *)
(* Feasibility dispatch *)

let test_feasibility_table2 () =
  (* zero-cost: policy-only feasibility *)
  let z = Sim.Cost.zero in
  let ts = Workload.Presets.table2 in
  check bool "RM infeasible" false
    (Analysis.Feasibility.feasible ~cost:z ~spec:Emeralds.Sched.Rm ts);
  check bool "EDF feasible" true
    (Analysis.Feasibility.feasible ~cost:z ~spec:Emeralds.Sched.Edf ts);
  check bool "CSD-2 with tau1..5 dynamic feasible" true
    (Analysis.Feasibility.feasible ~cost:z ~spec:(Emeralds.Sched.Csd [ 5 ]) ts);
  (* a CSD-2 split below the troublesome task is still infeasible *)
  check bool "CSD-2 with tau1..4 dynamic infeasible" false
    (Analysis.Feasibility.feasible ~cost:z ~spec:(Emeralds.Sched.Csd [ 4 ]) ts)

let test_partition_candidates () =
  let c2 = Analysis.Partition.candidates ~mode:Exhaustive ~queues:2 ~n:10 in
  check int "CSD-2 exhaustive count" 10 (List.length c2);
  let c3 = Analysis.Partition.candidates ~mode:Exhaustive ~queues:3 ~n:10 in
  check int "CSD-3 exhaustive count = C(10,2)" 45 (List.length c3);
  List.iter
    (fun sizes -> check bool "sizes positive" true (List.for_all (fun s -> s > 0) sizes))
    c3;
  let grid = Analysis.Partition.candidates ~mode:Grid ~queues:3 ~n:50 in
  check bool "grid is small" true (List.length grid < 60);
  check bool "grid includes the all-DP split" true
    (List.exists (fun sizes -> List.fold_left ( + ) 0 sizes = 50) grid)

let test_exhaustive_best_table2 () =
  match Analysis.Partition.exhaustive_best ~cost:Sim.Cost.zero ~queues:2
          Workload.Presets.table2 with
  | Some [ r ] ->
    check int "search finds the troublesome boundary" 5 r
  | Some _ | None -> fail "expected a CSD-2 partition"

(* ------------------------------------------------------------------ *)
(* Breakdown utilization *)

let test_breakdown_edf_zero_cost () =
  let ts = Model.Taskset.of_list [ task 1 10 2; task 2 20 4; task 3 40 8 ] in
  let b = Analysis.Breakdown.of_spec ~cost:Sim.Cost.zero ~spec:Emeralds.Sched.Edf ts in
  check bool "EDF ideal breakdown ~ 1.0" true (b > 0.99 && b <= 1.01)

let test_breakdown_overheads_reduce () =
  let ts =
    Workload.Generator.random_taskset ~rng:(Util.Rng.create ~seed:3) ~n:30 ()
  in
  let ideal = Analysis.Breakdown.of_spec ~cost:Sim.Cost.zero ~spec:Emeralds.Sched.Edf ts in
  let real = Analysis.Breakdown.of_spec ~cost ~spec:Emeralds.Sched.Edf ts in
  check bool "overheads lower the breakdown" true (real < ideal)

let test_breakdown_csd_dominates () =
  let sets = Workload.Generator.batch ~seed:21 ~n:30 ~count:6 () in
  List.iter
    (fun ts ->
      let edf = Analysis.Breakdown.of_spec ~cost ~spec:Emeralds.Sched.Edf ts in
      let rm = Analysis.Breakdown.of_spec ~cost ~spec:Emeralds.Sched.Rm ts in
      let csd3 = Analysis.Breakdown.of_csd ~cost ~queues:3 ts in
      check bool "CSD-3 >= EDF (tolerance)" true (csd3 >= edf -. 0.02);
      check bool "CSD-3 >= RM (tolerance)" true (csd3 >= rm -. 0.02))
    sets

let prop_feasibility_monotone_in_scale =
  qtest "feasibility is monotone in the scale factor"
    QCheck2.Gen.(pair (int_range 1 1000) (float_range 0.1 0.9))
    (fun (seed, s) ->
      let ts =
        Workload.Generator.random_taskset ~rng:(Util.Rng.create ~seed) ~n:12 ()
      in
      let feasible x =
        match Model.Taskset.scale_wcets ts x with
        | None -> false
        | Some scaled ->
          Analysis.Feasibility.feasible ~cost ~spec:Emeralds.Sched.Edf scaled
      in
      (* if feasible at 1.0x it must be feasible at s < 1 too *)
      (not (feasible 1.0)) || feasible s)

let prop_breakdown_bounded =
  qtest "breakdown utilization lies in (0, 1]"
    QCheck2.Gen.(int_range 1 500)
    (fun seed ->
      let ts =
        Workload.Generator.random_taskset ~rng:(Util.Rng.create ~seed) ~n:10 ()
      in
      let b = Analysis.Breakdown.of_spec ~cost ~spec:Emeralds.Sched.Rm ts in
      b > 0.0 && b <= 1.02)

let test_demand_resource_cap () =
  (* a feasible set needing three check points: an artificially small
     point budget must yield the conservative (infeasible) verdict,
     never a hang or a false positive *)
  let own = [| (10, 10, 5); (14, 14, 6) |] in
  check bool "feasible with enough points" true
    (Analysis.Demand.feasible ~own ~interference:[||] ());
  check bool "conservative when capped" false
    (Analysis.Demand.feasible ~max_points:2 ~own ~interference:[||] ());
  check bool "a cap of exactly three points suffices" true
    (Analysis.Demand.feasible ~max_points:3 ~own ~interference:[||] ())

let test_rta_iteration_limit () =
  let rows = [| (ms 10, ms 10, ms 5); (ms 10, ms 10, ms 5) |] in
  (* converges normally *)
  check bool "fits exactly" true (Analysis.Rta.feasible rows);
  (* an absurdly small limit cannot loop forever *)
  check bool "limit respected" true
    (match Analysis.Rta.response_time ~limit:1 ~tasks:rows 1 with
    | Some _ | None -> true)

let prop_partition_candidates_valid =
  qtest "partition candidates are well-formed"
    QCheck2.Gen.(pair (int_range 2 4) (int_range 2 60))
    (fun (queues, n) ->
      let check_list mode =
        List.for_all
          (fun sizes ->
            sizes <> []
            && List.for_all (fun s -> s > 0) sizes
            && List.fold_left ( + ) 0 sizes <= n
            && List.length sizes = queues - 1)
          (Analysis.Partition.candidates ~mode ~queues ~n)
      in
      check_list Grid
      && (queues > 3 || n > 25 || check_list Exhaustive))

let test_breakdown_rejects_empty_utilization () =
  check bool "u0 <= 0 rejected" true
    (try
       ignore (Analysis.Breakdown.search ~feasible:(fun _ -> true) ~u0:0.0 ());
       false
     with Invalid_argument _ -> true)

(* PDC is exact for independent preemptive EDF, and the zero-cost
   kernel is an ideal EDF machine, so the two must agree both ways on
   constrained-deadline workloads. *)
let gen_constrained_taskset =
  QCheck2.Gen.(
    let* n = int_range 1 5 in
    let* specs =
      list_repeat n
        (triple
           (oneofl [ 4; 5; 8; 10; 20; 40 ])
           (int_range 20 400)
           (int_range 40 100))
    in
    let tasks =
      List.mapi
        (fun i (p, permille, dl_pct) ->
          let period = ms p in
          let deadline = max 1 (period * dl_pct / 100) in
          let wcet =
            Util.Intmath.clamp ~lo:1 ~hi:deadline (period * permille / 1000)
          in
          Model.Task.make ~id:(i + 1) ~period ~deadline ~wcet ())
        specs
    in
    return (Model.Taskset.of_list tasks))

let prop_demand_agrees_with_sim =
  qtest "PDC agrees with ideal EDF simulation" gen_constrained_taskset
    (fun ts ->
      let rows =
        Array.map
          (fun (t : Model.Task.t) -> (t.period, t.deadline, t.wcet))
          (Model.Taskset.tasks ts)
      in
      let feasible = Analysis.Demand.feasible ~own:rows ~interference:[||] () in
      let k =
        Emeralds.Kernel.create ~cost:Sim.Cost.zero ~spec:Emeralds.Sched.Edf
          ~taskset:ts ()
      in
      Emeralds.Kernel.run k ~until:(ms 80);
      let missed = Emeralds.Kernel.total_misses k > 0 in
      feasible = not missed)

(* The forward walk the backward one replaced: every own deadline in
   the synchronous busy period, in ascending order through a k-way
   merge, with the same point cap.  It also returns how many
   deadlines it checked; with [~check:false] that is all of them. *)
let forward_feasible ?(max_points = 200_000) ?(check = true) ~own
    ~interference () =
  let rbf ~period ~wcet t = Util.Intmath.ceil_div t period * wcet in
  let u =
    Array.fold_left
      (fun u (p, _, c) -> u +. (float_of_int c /. float_of_int p))
      0.0 own
    +. Array.fold_left
         (fun u (p, c) -> u +. (float_of_int c /. float_of_int p))
         0.0 interference
  in
  let busy_period () =
    let total w =
      Array.fold_left (fun a (p, _, c) -> a + rbf ~period:p ~wcet:c w) 0 own
      + Array.fold_left (fun a (p, c) -> a + rbf ~period:p ~wcet:c w) 0
          interference
    in
    let w0 =
      Array.fold_left (fun a (_, _, c) -> a + c) 0 own
      + Array.fold_left (fun a (_, c) -> a + c) 0 interference
    in
    let rec iterate w steps =
      if steps > 5_000 then None
      else
        let w' = total w in
        if w' = w then Some w else iterate w' (steps + 1)
    in
    if w0 = 0 then Some 0 else iterate w0 0
  in
  if u > 1.0 +. 1e-12 then (false, 0)
  else
    match busy_period () with
    | None -> (false, 0)
    | Some horizon ->
      let demand_ok t =
        (not check)
        || Array.fold_left
             (fun d (p, dl, c) ->
               d + Analysis.Demand.dbf ~period:p ~deadline:dl ~wcet:c t)
             0 own
           + Array.fold_left
               (fun d (p, c) -> d + rbf ~period:p ~wcet:c t)
               0 interference
           <= t
      in
      let heap =
        Util.Pqueue.create ~cmp:(fun (a, _) (b, _) -> compare a b) ()
      in
      Array.iteri
        (fun i (_, dl, _) ->
          if dl <= horizon then ignore (Util.Pqueue.add heap (dl, i)))
        own;
      let rec walk points =
        if points > max_points then (false, points)
        else
          match Util.Pqueue.pop heap with
          | None -> (true, points)
          | Some (t, i) ->
            if not (demand_ok t) then (false, points)
            else begin
              let p, dl, _ = own.(i) in
              let next = t + p in
              if next <= horizon && next - dl <= horizon then
                ignore (Util.Pqueue.add heap (next, i));
              walk (points + 1)
            end
      in
      walk 0

(* Periods with common factors, so deadlines of different tasks tie;
   constrained deadlines; 0-4 interference tasks.  With the fixed seed
   below, about a quarter of the 2000 cases are over-utilized, 45% fail
   a deadline check, 20% pass and 10% trip the cap. *)
let gen_demand_case =
  QCheck2.Gen.(
    let period = oneofl [ 4; 6; 8; 12; 16; 24; 48 ] in
    let* n = int_range 1 8 in
    let* own =
      list_repeat n
        (let* p = period in
         let* dl = int_range 1 p in
         let* c = int_range 1 (max 1 (dl / (n + 1))) in
         return (p, dl, c))
    in
    let* interference =
      list_size (int_bound 4)
        (let* p = period in
         let* c = int_range 1 (max 1 (p / 8)) in
         return (p, c))
    in
    let own = Array.of_list own and interference = Array.of_list interference in
    let _, points =
      forward_feasible ~check:false ~max_points:max_int ~own ~interference ()
    in
    let* max_points =
      oneofl [ Some (points - 1); Some points; Some (points + 1); None ]
    in
    return (own, interference, max_points))

let prop_demand_walks_agree =
  QCheck_alcotest.to_alcotest ~speed_level:`Quick
    ~rand:(Random.State.make [| 15 |])
    (QCheck2.Test.make ~count:2000
       ~name:"backward demand walk = forward walk, cap included"
       gen_demand_case
       (fun (own, interference, max_points) ->
         Analysis.Demand.feasible ?max_points ~own ~interference ()
         = fst (forward_feasible ?max_points ~own ~interference ())))

let test_inflate_per_queue () =
  List.iter
    (fun n ->
      let ts =
        Workload.Generator.random_taskset ~rng:(Util.Rng.create ~seed:n) ~n ()
      in
      let tasks = Model.Taskset.tasks ts in
      List.iter
        (fun queues ->
          List.iter
            (fun sizes ->
              let spec = Emeralds.Sched.Csd sizes in
              let by_rank =
                Array.mapi
                  (fun rank (t : Model.Task.t) ->
                    ( t.period,
                      t.deadline,
                      t.wcet + Analysis.Overhead.per_task ~cost ~spec ~n ~rank ))
                  tasks
              in
              check bool
                (Printf.sprintf "n=%d %s" n
                   (String.concat "," (List.map string_of_int sizes)))
                true
                (Analysis.Overhead.inflate ~cost ~spec ts = by_rank))
            (Analysis.Partition.candidates ~mode:Grid ~queues ~n))
        [ 2; 3; 4 ])
    [ 5; 23; 50 ]

(* ------------------------------------------------------------------ *)
(* Warm-started RTA and the pre-screened CSD test against the cold,
   unscreened code they replaced *)

(* The cold-start RTA: every rank iterates from its own C_i + B_i. *)
let cold_response_time ?(limit = 10_000) ?blocking ~tasks i =
  let _, deadline, wcet = tasks.(i) in
  let b = match blocking with None -> 0 | Some terms -> terms.(i) in
  let base = wcet + b in
  let rec iterate r steps =
    if steps > limit then None
    else begin
      let interference = ref 0 in
      for j = 0 to i - 1 do
        let period_j, _, wcet_j = tasks.(j) in
        interference := !interference + (Util.Intmath.ceil_div r period_j * wcet_j)
      done;
      let r' = base + !interference in
      if r' > deadline then None
      else if r' = r then Some r
      else iterate r' (steps + 1)
    end
  in
  iterate base 0

let cold_feasible_range ?limit ?blocking ?(from = 0) tasks ~upto =
  let rec loop i =
    i >= upto
    ||
    match cold_response_time ?limit ?blocking ~tasks i with
    | Some _ -> loop (i + 1)
    | None -> false
  in
  loop from

(* The CSD test with a cold FP loop and no utilization pre-check. *)
let reference_csd_feasible ?max_points sizes rows =
  let n = Array.length rows in
  let dp_lens, fp_len = Analysis.Overhead.layout sizes n in
  cold_feasible_range rows ~from:(n - fp_len) ~upto:n
  &&
  let rec check_queue start = function
    | [] -> true
    | len :: rest ->
      let own = Array.sub rows start len in
      let interference =
        Array.map (fun (p, _, c) -> (p, c)) (Array.sub rows 0 start)
      in
      Analysis.Demand.feasible ?max_points ~own ~interference ()
      && check_queue (start + len) rest
  in
  check_queue 0 dp_lens

(* RM-ordered rows with deadlines up to twice the period, some zero
   WCETs, optional blocking terms, a prefix length and sometimes a
   limit small enough to bind. *)
let gen_rta_case =
  QCheck2.Gen.(
    let* n = int_range 1 8 in
    let* rows =
      list_repeat n
        (let* p = oneof [ oneofl [ 4; 6; 8; 12; 16; 24; 48 ]; int_range 1 100 ] in
         let* d = int_range 1 (2 * p) in
         let* c = int_range 0 (max 1 (2 * p / n)) in
         return (p, d, c))
    in
    let rows = Array.of_list (List.stable_sort compare rows) in
    let* blocking = option (array_repeat n (int_range 0 4)) in
    let* limit = oneof [ return None; map Option.some (int_range 0 3) ] in
    let* upto = int_range 0 n in
    return (rows, blocking, limit, upto))

let prop_rta_warm_equals_cold =
  QCheck_alcotest.to_alcotest ~speed_level:`Quick
    ~rand:(Random.State.make [| 16 |])
    (QCheck2.Test.make ~count:3000
       ~name:"warm-started RTA = cold RTA; a binding limit only helps"
       gen_rta_case
       (fun (rows, blocking, limit, upto) ->
         let warm =
           Analysis.Rta.feasible_prefix ?limit ?blocking rows ~upto
         and cold = cold_feasible_range ?limit ?blocking rows ~upto in
         let whole = Analysis.Rta.feasible ?limit ?blocking rows
         and whole_cold =
           cold_feasible_range ?limit ?blocking rows ~upto:(Array.length rows)
         in
         match (blocking, limit) with
         | Some _, _ | None, None -> warm = cold && whole = whole_cold
         | None, Some _ ->
           (* the warm start needs no more steps than the cold one, and
              never passes a set the unlimited test rejects *)
           ((not cold) || warm)
           && ((not warm) || cold_feasible_range rows ~upto)
           && ((not whole_cold) || whole)
           && ((not whole) || cold_feasible_range rows ~upto:(Array.length rows))))

(* Rows whose utilization is random, or (with periods in units of 10^12)
   exactly 1 or within about 2e-12 of it either side, so the float
   pre-check's 1 + 1e-12 threshold is crossed; deadlines up to twice
   the period, often equal to it. *)
let gen_csd_case =
  QCheck2.Gen.(
    let* n = int_range 1 8 in
    let* near_one = bool in
    let scale = if near_one then 1_000_000_000_000 else 1 in
    let* rows =
      list_repeat n
        (let* p = oneofl [ 4; 6; 8; 12; 16; 24; 48 ] in
         let* d = oneof [ return p; int_range 1 (2 * p) ] in
         let* c = int_range 0 (max 1 (p / n)) in
         return (p * scale, d * scale, c * scale))
    in
    let* rows =
      if not near_one then return rows
      else
        (* One 48-unit row absorbs the remainder: its WCET is set so that
           sum C_i * (L / T_i) = L + delta with L = 48 * scale. *)
        let l = 48 * scale in
        let* k = int_bound (n - 1) in
        let* d = oneof [ return 48; int_range 1 96 ] in
        let* delta = oneof [ return 0; int_range (-100) 100 ] in
        let rows =
          List.mapi (fun i r -> if i = k then (l, d * scale, 0) else r) rows
        in
        let rest = List.fold_left (fun a (p, _, c) -> a + (c * (l / p))) 0 rows in
        return
          (List.mapi
             (fun i (p, d, c) -> if i = k then (p, d, max 0 (l + delta - rest)) else (p, d, c))
             rows)
    in
    let rows = Array.of_list (List.stable_sort compare rows) in
    let* max_points = oneof [ return None; map Option.some (int_range 0 20) ] in
    return (rows, max_points))

let prop_csd_screened_equals_reference =
  QCheck_alcotest.to_alcotest ~speed_level:`Quick
    ~rand:(Random.State.make [| 16 |])
    (QCheck2.Test.make ~count:400
       ~name:"screened, warm CSD test = cold CSD test on every Grid candidate"
       gen_csd_case
       (fun (rows, max_points) ->
         let n = Array.length rows in
         List.for_all
           (fun queues ->
             List.for_all
               (fun sizes ->
                 Analysis.Feasibility.feasible_rows ?max_points
                   ~spec:(Emeralds.Sched.Csd sizes) rows
                 = reference_csd_feasible ?max_points sizes rows)
               (Analysis.Partition.candidates ~mode:Grid ~queues ~n))
           [ 2; 3; 4 ]))

(* The utilization pre-check fires only where the unscreened test
   would reject anyway: never when the lowest FP rank has d > p. *)
let test_csd_precheck_precondition () =
  let csd sizes rows =
    Analysis.Feasibility.feasible_rows ~spec:(Emeralds.Sched.Csd sizes) rows
  in
  (* U = 1.1; the FP rank's first job ends at 17 <= 100 *)
  let late = [| (10, 10, 6); (10, 100, 5) |] in
  check bool "reference: FP rank with d > p passes at U > 1" true
    (reference_csd_feasible [ 1 ] late);
  check bool "FP rank with d > p passes at U > 1" true (csd [ 1 ] late);
  check bool "no FP queue: U > 1 rejected" false (csd [ 2 ] late);
  let tight = [| (10, 10, 6); (10, 10, 5) |] in
  check bool "reference: FP rank with d <= p rejected" false
    (reference_csd_feasible [ 1 ] tight);
  check bool "FP rank with d <= p rejected" false (csd [ 1 ] tight);
  check bool "no FP queue, d <= p: rejected" false (csd [ 2 ] tight);
  (* a zero-WCET lowest rank responds at 0, whatever U is above it *)
  let idle = [| (10, 10, 6); (10, 100, 5); (10, 10, 0) |] in
  check bool "reference: zero-WCET lowest FP rank passes at U > 1" true
    (reference_csd_feasible [ 1 ] idle);
  check bool "zero-WCET lowest FP rank passes at U > 1" true (csd [ 1 ] idle)

(* Breakdown utilizations of [Generator.batch ~seed:15 ~count:2] sets,
   as (n, period divisor, set, [EDF; RM; CSD-2; CSD-3; CSD-4]) in %h,
   recorded with the forward demand walk.  Any change to the demand
   test, the overhead model or the searches that moves a result by
   one ulp shows here. *)
let breakdown_pins =
  [
    (10, 1, 0,
      [ "0x1.fa2cccccccccdp-1"; "0x1.f2247ae147ae2p-1"; "0x1.f82ab851eb852p-1";
        "0x1.f82ab851eb852p-1"; "0x1.f82ab851eb852p-1" ] );
    (10, 1, 1,
      [ "0x1.fc2ee147ae148p-1"; "0x1.cbfcf5c28f5c3p-1"; "0x1.fc2ee147ae148p-1";
        "0x1.fc2ee147ae148p-1"; "0x1.fc2ee147ae148p-1" ] );
    (10, 3, 0,
      [ "0x1.ee2051eb851ecp-1"; "0x1.ea1c28f5c28f6p-1"; "0x1.ea1c28f5c28f6p-1";
        "0x1.ec1e3d70a3d71p-1"; "0x1.ea1c28f5c28f6p-1" ] );
    (10, 3, 1,
      [ "0x1.f628a3d70a3d8p-1"; "0x1.c7f8ccccccccdp-1"; "0x1.f4268f5c28f5dp-1";
        "0x1.f4268f5c28f5dp-1"; "0x1.f4268f5c28f5dp-1" ] );
    (30, 1, 0,
      [ "0x1.e415eb851eb85p-1"; "0x1.d6075c28f5c2ap-1"; "0x1.e011c28f5c28fp-1";
        "0x1.ea1c28f5c28f6p-1"; "0x1.ea1c28f5c28f6p-1" ] );
    (30, 1, 1,
      [ "0x1.e213d70a3d70ap-1"; "0x1.bbec51eb851ecp-1"; "0x1.de0fae147ae14p-1";
        "0x1.e81a147ae147bp-1"; "0x1.ea1c28f5c28f6p-1" ] );
    (30, 3, 0,
      [ "0x1.abdbae147ae15p-1"; "0x1.afdfd70a3d70bp-1"; "0x1.b5e6147ae147cp-1";
        "0x1.bdee666666666p-1"; "0x1.c3f4a3d70a3d7p-1" ] );
    (30, 3, 1,
      [ "0x1.a7d7851eb851fp-1"; "0x1.95c4ccccccccep-1"; "0x1.9fcf333333333p-1";
        "0x1.b9ea3d70a3d71p-1"; "0x1.bff07ae147ae1p-1" ] );
    (50, 1, 0,
      [ "0x1.b7e828f5c28f6p-1"; "0x1.a7d7851eb851fp-1"; "0x1.b3e4000000001p-1";
        "0x1.cdff0a3d70a3ep-1"; "0x1.d6075c28f5c2ap-1" ] );
    (50, 1, 1,
      [ "0x1.b7e828f5c28f6p-1"; "0x1.9dcd1eb851eb8p-1"; "0x1.b1e1eb851eb86p-1";
        "0x1.cdff0a3d70a3ep-1"; "0x1.d40547ae147afp-1" ] );
    (50, 3, 0,
      [ "0x1.2d58a3d70a3d8p-1"; "0x1.4b77d70a3d70bp-1"; "0x1.69970a3d70a3ep-1";
        "0x1.77a599999999ap-1"; "0x1.81bp-1" ] );
    (50, 3, 1,
      [ "0x1.29547ae147ae2p-1"; "0x1.416d70a3d70a4p-1"; "0x1.5f8ca3d70a3d7p-1";
        "0x1.6d9b333333334p-1"; "0x1.7fadeb851eb85p-1" ] );
  ]

let test_breakdown_pins () =
  List.iter
    (fun (n, divisor, i, expected) ->
      let ts = List.nth (Workload.Generator.batch ~seed:15 ~n ~count:2 ()) i in
      let ts =
        if divisor = 1 then ts
        else Option.get (Model.Taskset.scale_periods_down ts divisor)
      in
      let spec spec = Analysis.Breakdown.of_spec ~cost ~spec ts in
      let csd queues = Analysis.Breakdown.of_csd ~cost ~queues ts in
      check (list string)
        (Printf.sprintf "n=%d /%d set %d" n divisor i)
        expected
        (List.map (Printf.sprintf "%h")
           [ spec Emeralds.Sched.Edf; spec Emeralds.Sched.Rm; csd 2; csd 3; csd 4 ]))
    breakdown_pins

let suite =
  [
    test_case "rta: textbook example" `Quick test_rta_known_example;
    test_case "rta: infeasible detection" `Quick test_rta_infeasible;
    test_case "rta: Table 2" `Quick test_rta_table2;
    test_case "demand: dbf" `Quick test_dbf;
    test_case "demand: feasibility" `Quick test_demand_feasible;
    test_case "overhead: layout" `Quick test_overhead_layout;
    test_case "overhead: magnitudes" `Quick test_overhead_magnitudes;
    test_case "overhead: CSD classes" `Quick test_overhead_csd_classes;
    test_case "feasibility: Table 2" `Quick test_feasibility_table2;
    test_case "partition: candidates" `Quick test_partition_candidates;
    test_case "partition: exhaustive on Table 2" `Quick test_exhaustive_best_table2;
    test_case "breakdown: EDF ideal" `Quick test_breakdown_edf_zero_cost;
    test_case "breakdown: overheads matter" `Quick test_breakdown_overheads_reduce;
    test_case "breakdown: CSD dominates" `Quick test_breakdown_csd_dominates;
    prop_feasibility_monotone_in_scale;
    prop_breakdown_bounded;
    test_case "demand: resource cap" `Quick test_demand_resource_cap;
    test_case "rta: iteration limit" `Quick test_rta_iteration_limit;
    prop_partition_candidates_valid;
    test_case "breakdown: input validation" `Quick
      test_breakdown_rejects_empty_utilization;
    prop_demand_agrees_with_sim;
    prop_demand_walks_agree;
    test_case "overhead: inflate matches per_task rank by rank" `Quick
      test_inflate_per_queue;
    test_case "breakdown: results pinned bit for bit" `Quick test_breakdown_pins;
    prop_rta_warm_equals_cold;
    prop_csd_screened_equals_reference;
    test_case "feasibility: CSD pre-check needs d <= p, C > 0 at the lowest FP rank"
      `Quick test_csd_precheck_precondition;
  ]
