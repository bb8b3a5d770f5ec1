open Emeralds

type task_bound = { task : Model.Task.t; rank : int; summary : Exec.summary }

type sem_bound = {
  sem_id : int;
  ceiling : int;
  hold : Itv.t;
  lint_worst : int;
}

type pool_bound = {
  pool_id : int;
  capacity : int;
  block_bytes : int;
  peak : Itv.t;
}

type t = {
  scenario_name : string;
  cost_name : string;
  tasks : task_bound array;
  sems : sem_bound list;
  pools : pool_bound list;
  latency_bound : int;
  config : Footprint.config;
  code_bytes : int;
  ram_bytes : int;
  total_bytes : int;
  budget_bytes : int;
  diags : Lint.Diag.t list;
}

module Imap = Map.Make (Int)

(* Worst hold per semaphore across all tasks' summaries: the join of
   every section's span (so the bound covers each concrete hold). *)
let hold_map summaries =
  Array.fold_left
    (fun acc (s : Exec.summary) ->
      List.fold_left
        (fun acc (h : Exec.hold) ->
          Imap.update h.sem.Types.sem_id
            (function
              | None -> Some h.span | Some itv -> Some (Itv.join itv h.span))
            acc)
        acc s.holds)
    Imap.empty summaries

(* A blocked acquirer waits between nothing (uncontended) and the
   semaphore's worst hold elsewhere. *)
let waits_of_holds holds =
  Imap.map (fun (itv : Itv.t) -> { Itv.lo = 0; hi = itv.Itv.hi }) holds

let waits_equal a b = Imap.equal Itv.equal a b

let analyze ?lesion ?(cost = Sim.Cost.m68040)
    ?(budget_bytes = Memory.budget_default) (sc : Workload.Scenario.t) =
  let tasks = Model.Taskset.tasks sc.taskset in
  let programs =
    Array.map (fun task -> Array.of_list (sc.programs task)) tasks
  in
  (* whole-scenario scans walk the leaves: programs are structured, so
     Sends/Allocs can sit inside branch arms and loop bodies *)
  let fold_leaves f acc =
    Array.fold_left
      (fun acc code ->
        let acc = ref acc in
        Program.iter_leaves (fun instr -> acc := f !acc instr)
          (Array.to_list code);
        !acc)
      acc programs
  in
  let mb_words =
    (* largest payload any task sends to each mailbox *)
    let m =
      fold_leaves
        (fun acc instr ->
          match instr with
          | Types.Send (mb, data) ->
            Imap.update mb.Types.mb_id
              (function
                | None -> Some (Array.length data)
                | Some w -> Some (max w (Array.length data)))
              acc
          | _ -> acc)
        Imap.empty
    in
    fun mb_id -> match Imap.find_opt mb_id m with Some w -> w | None -> 0
  in
  let interpret_all waits =
    let acquire_wait sem_id =
      match Imap.find_opt sem_id waits with
      | Some itv -> itv
      | None -> Itv.zero (* nobody holds it: acquire cannot block *)
    in
    Array.map
      (fun code ->
        Exec.interpret ?lesion { Exec.cost; mb_words; acquire_wait } code)
      programs
  in
  (* Nested-acquire fixpoint: hold times feed acquire waits feed hold
     times.  Widen after a few rounds so cyclic lock orders converge to
     [Inf] instead of climbing forever. *)
  let rec fix i waits =
    let summaries = interpret_all waits in
    let waits' = waits_of_holds (hold_map summaries) in
    if waits_equal waits waits' then summaries
    else
      let waits'' =
        if i < 8 then waits'
        else
          Imap.merge
            (fun _ old next ->
              match (old, next) with
              | Some o, Some n -> Some (Itv.widen o n)
              | _, n -> n)
            waits waits'
      in
      fix (i + 1) waits''
  in
  let summaries = fix 0 Imap.empty in
  let holds = hold_map summaries in
  let task_bounds =
    Array.mapi (fun rank task -> { task; rank; summary = summaries.(rank) }) tasks
  in
  (* Exact lint extraction for the ceiling and the domination check. *)
  let ctx =
    Lint.Ctx.make ~irq_signals:sc.irq_signals ~irq_writes:sc.irq_writes
      ~taskset:sc.taskset ~programs:sc.programs ()
  in
  let lint_per_sem = Lint.Blocking_terms.per_sem ctx in
  let ceiling_of sem_id =
    (* fall back to deriving from our own holds if lint has no row *)
    match
      List.find_opt (fun (s, _, _) -> s = sem_id) lint_per_sem
    with
    | Some (_, ceiling, _) -> ceiling
    | None ->
      Array.fold_left
        (fun best tb ->
          if
            List.exists
              (fun (h : Exec.hold) -> h.sem.Types.sem_id = sem_id)
              tb.summary.holds
          then min best tb.rank
          else best)
        max_int task_bounds
  in
  let sems =
    Imap.bindings holds
    |> List.map (fun (sem_id, hold) ->
           let lint_worst =
             match
               List.find_opt (fun (s, _, _) -> s = sem_id) lint_per_sem
             with
             | Some (_, _, worst) -> worst
             | None -> 0
           in
           { sem_id; ceiling = ceiling_of sem_id; hold; lint_worst })
  in
  let latency_bound =
    Array.fold_left (fun acc tb -> max acc tb.summary.atomic) 0 task_bounds
    + cost.interrupt_entry
  in
  (* Pool-wide peak bound: preemption can park every job at its own
     peak at once, so the concurrent bound is the interval sum of the
     per-task peaks. *)
  let pool_objs =
    fold_leaves
      (fun acc instr ->
        match instr with
        | Types.Alloc p | Types.Free p -> Imap.add p.Types.pool_id p acc
        | _ -> acc)
      Imap.empty
  in
  let pool_bounds =
    Imap.bindings pool_objs
    |> List.map (fun (pool_id, (p : Types.pool)) ->
           let peak =
             Array.fold_left
               (fun acc tb ->
                 match List.assoc_opt pool_id tb.summary.Exec.peak_live with
                 | Some itv -> Itv.add acc itv
                 | None -> acc)
               Itv.zero task_bounds
           in
           {
             pool_id;
             capacity = p.Types.pool_capacity;
             block_bytes = p.Types.pool_block_bytes;
             peak;
           })
  in
  let config =
    Memory.derive ~nesting:(fun rank -> summaries.(rank).Exec.nesting) sc
  in
  let code_bytes = Footprint.total_code_bytes in
  let ram_bytes = Footprint.total_ram_bytes config in
  let total_bytes = code_bytes + ram_bytes in
  let diags = ref [] in
  let diag sev ~check ?task ?pc msg =
    diags := Lint.Diag.make sev ~check ?task ?pc msg :: !diags
  in
  Array.iter
    (fun tb ->
      (match Itv.hi_int tb.summary.exec with
      | Some hi when tb.task.Model.Task.wcet < hi ->
        diag Lint.Diag.Error ~check:"wcet-declaration"
          ~task:tb.task.Model.Task.id
          (Printf.sprintf
             "declared WCET %.1fus is under the derived demand bound %.1fus"
             (Model.Time.to_us_f tb.task.Model.Task.wcet)
             (Model.Time.to_us_f hi))
      | _ -> ());
      List.iter
        (fun pc ->
          diag Lint.Diag.Warning ~check:"hold-unbounded"
            ~task:tb.task.Model.Task.id ~pc
            "blocks without a static bound while holding a semaphore; \
             the hold time is unbounded")
        tb.summary.unbounded_held_pcs)
    task_bounds;
  List.iter
    (fun sb ->
      if not (Itv.is_bounded sb.hold) then
        diag Lint.Diag.Warning ~check:"hold-unbounded"
          (Printf.sprintf
             "sem %d: hold bound is unbounded (cyclic lock order or \
              unbounded blocking while held)"
             sb.sem_id);
      if not (Itv.dominates sb.hold sb.lint_worst) then
        diag Lint.Diag.Error ~check:"absint-vs-lint"
          (Printf.sprintf
             "sem %d: abstract hold bound %s fails to dominate lint's \
              exact critical section %.1fus (analyzer unsound)"
             sb.sem_id (Itv.to_string sb.hold)
             (Model.Time.to_us_f sb.lint_worst)))
    sems;
  List.iter
    (fun pb ->
      (* certain denial for one task alone is the error case; the
         combined bound above capacity is only a hazard, since the
         peaks may never coincide *)
      Array.iter
        (fun tb ->
          match List.assoc_opt pb.pool_id tb.summary.Exec.peak_live with
          | Some itv
            when (match Itv.hi_int itv with
                 | Some h -> h > pb.capacity
                 | None -> true) ->
            diag Lint.Diag.Error ~check:"pool-sizing"
              ~task:tb.task.Model.Task.id
              (Printf.sprintf
                 "peak-live bound %s of pool %d exceeds its capacity %d: \
                  allocation denial is certain"
                 (Itv.to_string itv) pb.pool_id pb.capacity)
          | _ -> ())
        task_bounds;
      match Itv.hi_int pb.peak with
      | Some hi when hi > pb.capacity ->
        diag Lint.Diag.Warning ~check:"pool-sizing"
          (Printf.sprintf
             "pool %d: concurrent peak-live bound %s exceeds capacity %d; \
              preemption can exhaust the pool"
             pb.pool_id (Itv.to_string pb.peak) pb.capacity)
      | _ -> ())
    pool_bounds;
  if total_bytes > budget_bytes then
    diag Lint.Diag.Error ~check:"budget"
      (Printf.sprintf
         "derived footprint %d bytes (code %d + RAM %d) exceeds the \
          %d-byte budget"
         total_bytes code_bytes ram_bytes budget_bytes)
  else if total_bytes > Memory.envelope_lo then
    diag Lint.Diag.Info ~check:"envelope"
      (Printf.sprintf
         "derived footprint %d bytes fits the budget but exceeds the \
          32 KB small end of the paper's device range"
         total_bytes);
  {
    scenario_name = sc.name;
    cost_name = (if cost == Sim.Cost.zero then "zero" else "m68040");
    tasks = task_bounds;
    sems;
    pools = pool_bounds;
    latency_bound;
    config;
    code_bytes;
    ram_bytes;
    total_bytes;
    budget_bytes;
    diags = List.sort Lint.Diag.compare !diags;
  }

let errors t = Lint.Diag.errors t.diags

let blocking_terms t =
  let css =
    Array.to_list t.tasks
    |> List.concat_map (fun tb ->
           List.filter_map
             (fun (h : Exec.hold) ->
               match Itv.hi_int h.span with
               | Some hi ->
                 Some
                   {
                     Analysis.Blocking.task_rank = tb.rank;
                     sem = h.sem.Types.sem_id;
                     duration = hi;
                     (* the abstract hold analysis is per-task and does
                        not recover nesting; transitive waits are the
                        lint extraction's job *)
                     nested = [];
                     chained = [];
                   }
               | None -> None)
             tb.summary.holds)
  in
  Analysis.Blocking.blocking_terms ~n:(Array.length t.tasks) css

let derived_demand t =
  Array.map
    (fun tb ->
      match
        (Itv.hi_int tb.summary.exec, Itv.hi_int tb.summary.suspend)
      with
      | Some e, Some s -> Some (e + s)
      | _ -> None)
    t.tasks

let render t =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf
    (Printf.sprintf "scenario %s (cost model: %s)\n" t.scenario_name
       t.cost_name);
  let tt =
    Util.Tablefmt.create
      ~headers:
        [
          "task"; "declared wcet (us)"; "demand [bcet,wcet]"; "suspend";
          "nesting"; "atomic (us)";
        ]
  in
  Array.iter
    (fun tb ->
      Util.Tablefmt.add_row tt
        [
          tb.task.Model.Task.name;
          Util.Tablefmt.cell_f (Model.Time.to_us_f tb.task.Model.Task.wcet);
          Itv.to_string tb.summary.exec;
          Itv.to_string tb.summary.suspend;
          Util.Tablefmt.cell_i tb.summary.nesting;
          Util.Tablefmt.cell_f (Model.Time.to_us_f tb.summary.atomic);
        ])
    t.tasks;
  Buffer.add_string buf (Util.Tablefmt.render ~align:Util.Tablefmt.Left tt);
  (match t.sems with
  | [] -> Buffer.add_string buf "no semaphores in use\n"
  | sems ->
    let st =
      Util.Tablefmt.create
        ~headers:[ "sem"; "ceiling"; "hold bound"; "lint worst CS (us)" ]
    in
    List.iter
      (fun sb ->
        Util.Tablefmt.add_row st
          [
            Util.Tablefmt.cell_i sb.sem_id;
            Util.Tablefmt.cell_i sb.ceiling;
            Itv.to_string sb.hold;
            Util.Tablefmt.cell_f (Model.Time.to_us_f sb.lint_worst);
          ])
      sems;
    Buffer.add_string buf (Util.Tablefmt.render ~align:Util.Tablefmt.Left st));
  (match t.pools with
  | [] -> ()
  | pools ->
    let pt =
      Util.Tablefmt.create
        ~headers:[ "pool"; "capacity"; "block B"; "peak-live bound" ]
    in
    List.iter
      (fun pb ->
        Util.Tablefmt.add_row pt
          [
            Util.Tablefmt.cell_i pb.pool_id;
            Util.Tablefmt.cell_i pb.capacity;
            Util.Tablefmt.cell_i pb.block_bytes;
            Itv.to_string pb.peak;
          ])
      pools;
    Buffer.add_string buf (Util.Tablefmt.render ~align:Util.Tablefmt.Left pt));
  Buffer.add_string buf
    (Printf.sprintf "interrupt-latency bound: %.1fus\n"
       (Model.Time.to_us_f t.latency_bound));
  Buffer.add_string buf
    (Printf.sprintf
       "derived footprint: %d threads x %d B stack, %d sems, %d condvars, \
        %d mailboxes, %d state messages, %d timers\n"
       t.config.Footprint.threads t.config.Footprint.stack_bytes_per_thread
       t.config.Footprint.semaphores t.config.Footprint.condvars
       (List.length t.config.Footprint.mailboxes)
       (List.length t.config.Footprint.state_messages)
       t.config.Footprint.timers);
  (match t.config.Footprint.pools with
  | [] -> ()
  | ps ->
    Buffer.add_string buf
      (Printf.sprintf "derived block pools: %s\n"
         (String.concat ", "
            (List.map
               (fun (cap, bytes) -> Printf.sprintf "%dx%dB" cap bytes)
               ps))));
  Buffer.add_string buf
    (Printf.sprintf "memory: code %d + RAM %d = %d bytes (budget %d): %s\n"
       t.code_bytes t.ram_bytes t.total_bytes t.budget_bytes
       (if t.total_bytes > t.budget_bytes then "OVER BUDGET" else "within budget"));
  (match t.diags with
  | [] -> Buffer.add_string buf "analyze: no findings\n"
  | ds -> Buffer.add_string buf (Lint.Report.render ds));
  Buffer.contents buf

let to_json t =
  let open Util.Json in
  let itv (i : Itv.t) =
    Obj [ ("lo", Int i.lo); ("hi", match i.hi with Itv.Fin h -> Int h | Itv.Inf -> Null) ]
  in
  let task tb =
    Obj
      [ ("name", String tb.task.Model.Task.name); ("rank", Int tb.rank);
        ("declared_wcet", Int tb.task.Model.Task.wcet);
        ("exec", itv tb.summary.exec); ("suspend", itv tb.summary.suspend);
        ("nesting", Int tb.summary.nesting); ("atomic", Int tb.summary.atomic) ]
  in
  let sem sb =
    Obj
      [ ("sem", Int sb.sem_id); ("ceiling", Int sb.ceiling); ("hold", itv sb.hold);
        ("lint_worst", Int sb.lint_worst) ]
  in
  let pool pb =
    Obj
      [ ("pool", Int pb.pool_id); ("capacity", Int pb.capacity);
        ("block_bytes", Int pb.block_bytes); ("peak", itv pb.peak) ]
  in
  let fp = t.config in
  Obj
    [ ("scenario", String t.scenario_name); ("cost", String t.cost_name);
      ("tasks", List (Array.to_list (Array.map task t.tasks)));
      ("sems", List (List.map sem t.sems)); ("pools", List (List.map pool t.pools));
      ("latency_bound", Int t.latency_bound);
      ( "footprint",
        Obj
          [ ("threads", Int fp.Footprint.threads);
            ("stack_bytes_per_thread", Int fp.stack_bytes_per_thread);
            ("semaphores", Int fp.semaphores); ("condvars", Int fp.condvars);
            ("mailboxes", Int (List.length fp.mailboxes));
            ("state_messages", Int (List.length fp.state_messages));
            ("timers", Int fp.timers); ("code_bytes", Int t.code_bytes);
            ("ram_bytes", Int t.ram_bytes); ("total_bytes", Int t.total_bytes);
            ("budget_bytes", Int t.budget_bytes) ] );
      ("diags", List (List.map Lint.Diag.to_json t.diags)) ]

let render_rta r =
  let buf = Buffer.create 512 in
  let blocking = blocking_terms r in
  let demand = derived_demand r in
  let demand_of i (t : Model.Task.t) = Option.value demand.(i) ~default:t.wcet in
  let rows =
    Array.mapi
      (fun i tb -> (tb.task.Model.Task.period, tb.task.deadline, demand_of i tb.task))
      r.tasks
  in
  let us = Model.Time.to_us_f in
  Buffer.add_string buf "\nRTA with derived demand and absint blocking terms:\n";
  Array.iteri
    (fun i tb ->
      let t = tb.task in
      if Array.exists Option.is_none (Array.sub demand 0 (i + 1)) then
        Printf.bprintf buf
          "  %-8s demand unbounded (untimed wait): no RTA bound\n" t.name
      else
        match Analysis.Rta.response_time ~blocking ~tasks:rows i with
        | None ->
          Printf.bprintf buf "  %-8s demand %8.1fus  RTA: unbounded\n" t.name
            (us (demand_of i t))
        | Some bound ->
          Printf.bprintf buf
            "  %-8s demand %8.1fus  B %6.1fus  response %8.1fus  deadline \
             %8.1fus  %s\n"
            t.name
            (us (demand_of i t))
            (us blocking.(i)) (us bound) (us t.deadline)
            (if bound <= t.deadline then "ok" else "MISSED"))
    r.tasks;
  Buffer.contents buf
