let implicit_deadlines rows =
  Array.for_all (fun (p, d, _) -> d >= p) rows

(* A loop on a local float ref, which stays unboxed: a fold would box
   the accumulator on every row of every CSD pre-check. *)
let utilization rows =
  let u = ref 0.0 in
  for i = 0 to Array.length rows - 1 do
    let p, _, c = rows.(i) in
    u := !u +. (float_of_int c /. float_of_int p)
  done;
  !u

let edf_feasible ?max_points rows =
  if implicit_deadlines rows then utilization rows <= 1.0 +. 1e-12
  else Demand.feasible ?max_points ~own:rows ~interference:[||] ()

let csd_feasible ?max_points sizes rows =
  let n = Array.length rows in
  let dp_lens, fp_len = Overhead.layout sizes n in
  let fp_start = n - fp_len in
  (* Over-utilized sets fail before any fixpoint.  With no FP queue the
     last DP queue's demand test carries every row and rejects U > 1
     itself; when the lowest FP rank has d <= p and C > 0, U > 1
     forces its response time past its period.  If that rank has
     d > p, its first-job RTA can pass at U > 1, so the test is
     skipped. *)
  let over_utilized =
    (fp_len = 0
    ||
    let p, d, c = rows.(n - 1) in
    d <= p && c > 0)
    && utilization rows > 1.0 +. 1e-12
  in
  (not over_utilized)
  (* FP tasks: response-time analysis; interference comes from every
     shorter-period task regardless of its queue. *)
  && Rta.feasible_range rows ~from:fp_start ~upto:n
  &&
  (* Each DP queue: EDF inside, preempted by all higher queues. *)
  let rec check_queue start = function
    | [] -> true
    | len :: rest ->
      let own = Array.sub rows start len in
      let interference =
        Array.map (fun (p, _, c) -> (p, c)) (Array.sub rows 0 start)
      in
      Demand.feasible ?max_points ~own ~interference ()
      && check_queue (start + len) rest
  in
  check_queue 0 dp_lens

let feasible_rows ?max_points ~spec rows =
  match (spec : Emeralds.Sched.spec) with
  | Edf -> edf_feasible ?max_points rows
  | Rm | Rm_heap -> Rta.feasible rows
  | Csd sizes -> csd_feasible ?max_points sizes rows

let feasible ?max_points ~cost ~spec taskset =
  feasible_rows ?max_points ~spec (Overhead.inflate ~cost ~spec taskset)
