(* Analytical claims of one scenario: RM RTA over Table-1-inflated
   rows, the eligibility mask, absint demand bounds and the per-term
   blame bounds, all by RM rank. *)

type t = {
  cost : Sim.Cost.t;
  taskset : Model.Taskset.t;
  tasks : Model.Task.t array;
  blocking : Model.Time.t array;
  rows : (int * int * int) array;
  rta : Model.Time.t option array;  (* eligible tasks only *)
  eligible : bool array;
  demand : Model.Time.t option array;
  programs : Emeralds.Program.t array Lazy.t;
}

let open_ended = function
  | Emeralds.Types.Wait _ | Timed_wait _ | Recv _ | Send _ | Delay _ -> true
  | _ -> false

let make ?(cost = Sim.Cost.m68040) ~blocking ~absint
    (sc : Workload.Scenario.t) =
  let tasks = Model.Taskset.tasks sc.taskset in
  let rows = Analysis.Overhead.inflate ~cost ~spec:Emeralds.Sched.Rm sc.taskset in
  let eligible =
    Array.map
      (fun t ->
        let ok = ref true in
        Emeralds.Program.iter_leaves
          (fun instr -> if open_ended instr then ok := false)
          (sc.programs t);
        !ok)
      tasks
  in
  let rta =
    Array.mapi
      (fun i _ ->
        if eligible.(i) then Analysis.Rta.response_time ~blocking ~tasks:rows i
        else None)
      tasks
  in
  let demand =
    Array.map
      (fun (t : Model.Task.t) ->
        match
          Array.find_opt
            (fun (tb : Absint.Report.task_bound) -> tb.task.id = t.id)
            absint.Absint.Report.tasks
        with
        | Some tb -> Absint.Itv.hi_int tb.summary.exec
        | None -> None)
      tasks
  in
  {
    cost;
    taskset = sc.taskset;
    tasks;
    blocking;
    rows;
    rta;
    eligible;
    demand;
    programs = lazy (Array.map sc.programs tasks);
  }

let of_scenario ?(cost = Sim.Cost.m68040) (sc : Workload.Scenario.t) =
  let ctx =
    Lint.Ctx.make ~irq_signals:sc.irq_signals ~irq_writes:sc.irq_writes
      ~taskset:sc.taskset ~programs:sc.programs ()
  in
  make ~cost
    ~blocking:(Lint.Blocking_terms.blocking_terms ctx)
    ~absint:(Absint.Report.analyze ~cost sc)
    sc

let rta_bound c i = c.rta.(i)

let missed_rta c k =
  let stats = Emeralds.Kernel.stats k in
  List.filter_map
    (fun i ->
      let t = c.tasks.(i) in
      match c.rta.(i) with
      | Some bound -> (
        match
          List.find_opt
            (fun (s : Emeralds.Kernel.task_stats) -> s.tid = t.id)
            stats
        with
        | Some s when s.misses > 0 -> Some (t, bound, s)
        | _ -> None)
      | None -> None)
    (List.init (Array.length c.tasks) Fun.id)

(* Worst per-job demand each task was observed to consume: the running
   job's banked figure from the enforcement state, joined with every
   Budget_overrun entry (those carry the consumption at detection). *)
let observed_demand k =
  let worst = Hashtbl.create 8 in
  let note tid v =
    let cur = Option.value ~default:0 (Hashtbl.find_opt worst tid) in
    if v > cur then Hashtbl.replace worst tid v
  in
  List.iter
    (fun (s : Emeralds.Kernel.enf_stats) -> note s.e_tid s.e_budget_used)
    (Emeralds.Kernel.enforcement_stats k);
  List.iter
    (fun (st : Sim.Trace.stamped) ->
      match st.entry with
      | Sim.Trace.Budget_overrun { tid; used; _ } -> note tid used
      | _ -> ())
    (Sim.Trace.entries (Emeralds.Kernel.trace k));
  fun tid -> Option.value ~default:0 (Hashtbl.find_opt worst tid)

let demand_seen c k =
  let used = observed_demand k in
  List.filter_map
    (fun i ->
      let t = c.tasks.(i) in
      Option.map (fun hi -> (t, hi, used t.id)) c.demand.(i))
    (List.init (Array.length c.tasks) Fun.id)

type term = Exec | Interference of int | Blocking | Overhead

type blame_bound = {
  term : term;
  observed : Model.Time.t;
  bound : Model.Time.t option;
}

let blame_bounds c (s : Obs.Blame.task_summary) =
  let i = s.s_rank in
  if not c.eligible.(i) then []
  else
    let dec = Analysis.Rta.decompose ~blocking:c.blocking ~tasks:c.rows i in
    let interference (j, v) =
      {
        term = Interference j;
        observed = v;
        bound =
          Option.map
            (fun (d : Analysis.Rta.decomposition) ->
              let _, _, cj = c.rows.(j) in
              d.dec_interference.(j) + cj)
            dec;
      }
    in
    let overhead =
      Option.map
        (fun rstar ->
          Analysis.Overhead.job_budget ~cost:c.cost ~spec:Emeralds.Sched.Rm
            ~taskset:c.taskset ~programs:(Lazy.force c.programs)
            ~rank:i ~response:rstar ~irqs:s.s_max_irqs)
        c.rta.(i)
    in
    ({ term = Exec; observed = s.s_max_exec; bound = c.demand.(i) }
    :: List.map interference s.s_max_interference)
    @ [
        {
          term = Blocking;
          observed = s.s_max_blocking_total;
          bound = Some c.blocking.(i);
        };
        { term = Overhead; observed = s.s_max_overhead_total; bound = overhead };
      ]
