(* The bounded model checker: the lint <-> MC <-> RTA cross-validation
   triangle, counterexample replay determinism, the state-message tear
   bound, and the kernel-vs-checker differential on deterministic
   schedules. *)

let ms = Model.Time.ms
let us = Model.Time.us

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let lint_errors (s : Workload.Scenario.t) =
  let ctx =
    Lint.Ctx.make ~irq_signals:s.irq_signals ~irq_writes:s.irq_writes
      ~taskset:s.taskset ~programs:s.programs ()
  in
  Lint.Report.run ctx

let has_error_check name diags =
  List.exists
    (fun (d : Lint.Diag.t) ->
      d.severity = Lint.Diag.Error && d.check = name)
    diags

(* --- seeded deadlock: lint flags it, the checker witnesses it ------- *)

let seeded_deadlock_witnessed () =
  let s = Workload.Scenario.seeded_deadlock () in
  check "lint flags the seeded lock-order cycle" true
    (has_error_check "deadlock" (lint_errors s));
  let m = Mc.Machine.of_scenario s in
  let bounds = Mc.Explorer.default_bounds m in
  let props = [ Mc.Props.deadlock ] in
  let r = Mc.Explorer.check ~props ~bounds m in
  match r.verdict with
  | `Ok -> Alcotest.fail "checker missed the seeded deadlock"
  | `Violation cex ->
    check "violated property is deadlock" true (cex.prop = "deadlock");
    (* the cycle is reachable on the deterministic schedule: both
       tasks' ranks are unique and there are no arrival windows *)
    check_int "witness needs no nondeterministic choices" 0
      (List.length cex.choices);
    check "deadlock strikes at 5ms" true (cex.at = ms 5);
    let trace = Mc.Counterexample.replay m ~props cex in
    check "replay trace mentions both semaphore blocks" true
      (List.length
         (List.filter
            (fun (st : Sim.Trace.stamped) ->
              match st.entry with Sim.Trace.Sem_blocked _ -> true | _ -> false)
            (Sim.Trace.entries trace))
      = 2)

(* --- presets: lint-clean and deadlock-free within bounds ------------ *)

let presets_agree () =
  List.iter
    (fun (s : Workload.Scenario.t) ->
      check_int
        (Printf.sprintf "%s is lint-clean" s.name)
        0
        (Lint.Diag.errors (lint_errors s));
      let m = Mc.Machine.of_scenario s in
      let bounds =
        {
          Mc.Explorer.horizon = min m.hyperperiod (ms 100);
          max_states = 30_000;
          max_depth = 2_000;
        }
      in
      let props =
        [ Mc.Props.deadlock; Mc.Props.pi; Mc.Props.invariants; Mc.Props.tear ]
      in
      let r = Mc.Explorer.check ~props ~bounds m in
      (match r.verdict with
      | `Ok -> ()
      | `Violation cex ->
        Alcotest.fail
          (Printf.sprintf "%s: %s" s.name
             (Mc.Counterexample.render m ~props cex)));
      check
        (Printf.sprintf "%s explored some states" s.name)
        true (r.expansions > 0 && r.jobs > 0))
    (Workload.Scenario.all ())

(* --- partial-order reduction: same verdicts, fewer states ----------- *)

let por_sound_on_ties () =
  (* table2 under EDF has genuine dispatch ties between pure-compute
     tasks (equal absolute deadlines), which is exactly what the
     reduction merges *)
  let s = Option.get (Workload.Scenario.make "table2") in
  let m = Mc.Machine.of_scenario ~sched:Mc.Machine.Edf s in
  let bounds =
    { Mc.Explorer.horizon = ms 50; max_states = 50_000; max_depth = 5_000 }
  in
  let props = [ Mc.Props.deadlock; Mc.Props.invariants ] in
  let with_por = Mc.Explorer.check ~por:true ~props ~bounds m in
  let without = Mc.Explorer.check ~por:false ~props ~bounds m in
  check "reduced run is clean" true (with_por.verdict = `Ok);
  check "unreduced run is clean" true (without.verdict = `Ok);
  check "reduction actually pruned tie choices" true
    (with_por.por_skipped > 0);
  check "reduction explored no more states than full run" true
    (with_por.expansions <= without.expansions)

(* --- RTA cross-check: observed responses within analytical bounds --- *)

let rows_of (ts : Model.Taskset.t) =
  Array.map
    (fun (t : Model.Task.t) -> (t.period, t.deadline, t.wcet))
    (Model.Taskset.tasks ts)

let rta_dominates_mc () =
  (* table2: pure computation, fixed priority, deterministic — the
     checker observes the exact critical-instant responses and RTA
     must bound every one of them *)
  let s = Option.get (Workload.Scenario.make "table2") in
  let m = Mc.Machine.of_scenario s in
  let bounds =
    { Mc.Explorer.horizon = ms 200; max_states = 50_000; max_depth = 5_000 }
  in
  let r = Mc.Explorer.check ~por:false ~props:[] ~bounds m in
  check "table2 exploration complete" true (not r.truncated);
  let rows = rows_of s.taskset in
  Array.iteri
    (fun i _ ->
      match Analysis.Rta.response_time ~tasks:rows i with
      | None -> ()
      | Some bound ->
        if r.max_response.(i) > bound then
          Alcotest.fail
            (Printf.sprintf
               "table2 rank %d: observed response %dns exceeds RTA bound %dns"
               i r.max_response.(i) bound))
    rows;
  (* the highest-priority task is never preempted: its observed
     response must be exactly its WCET *)
  check_int "rank 0 response = wcet" m.tasks.(0).wcet r.max_response.(0);
  (* engine: semaphores and a nondeterministic crank IRQ; the blocking
     terms extracted by the static verifier feed RTA, and the bound
     must dominate everything the checker can provoke within the
     horizon *)
  let s = Option.get (Workload.Scenario.make "engine") in
  let ctx =
    Lint.Ctx.make ~irq_signals:s.irq_signals ~irq_writes:s.irq_writes
      ~taskset:s.taskset ~programs:s.programs ()
  in
  let blocking = Lint.Blocking_terms.blocking_terms ctx in
  let m = Mc.Machine.of_scenario s in
  let bounds =
    { Mc.Explorer.horizon = ms 40; max_states = 20_000; max_depth = 2_000 }
  in
  let r = Mc.Explorer.check ~por:false ~props:[] ~bounds m in
  let rows = rows_of s.taskset in
  Array.iteri
    (fun i _ ->
      match Analysis.Rta.response_time ~blocking ~tasks:rows i with
      | None -> ()
      | Some bound ->
        if r.max_response.(i) > bound then
          Alcotest.fail
            (Printf.sprintf
               "engine rank %d: observed response %dns exceeds RTA bound %dns \
                (blocking %dns)"
               i r.max_response.(i) bound blocking.(i)))
    rows;
  check "engine saw jobs complete" true (r.jobs > 0)

(* --- the tear bound -------------------------------------------------- *)

(* One reader at top priority with a 1 ms copy span; an interrupt
   writer with a 300 us minimum inter-arrival.  Up to 3 writes can
   complete inside one copy, so depth 3 (tolerating 1) must tear and
   depth 6 = ceil(1000/300) + 2 (the paper's bound) must not. *)
let tear_scenario ~depth =
  let sm = Emeralds.State_msg.create ~depth ~words:4 in
  let taskset =
    Model.Taskset.of_list
      [
        Model.Task.make ~id:1 ~name:"reader" ~period:(ms 10) ~wcet:(ms 2) ();
      ]
  in
  let programs (_ : Model.Task.t) =
    [ Emeralds.Program.state_read sm; Emeralds.Program.compute (us 200) ]
  in
  Workload.Scenario.
    {
      name = Printf.sprintf "tear-depth-%d" depth;
      taskset;
      programs;
      irq_sources =
        [
          {
            irq = 1;
            min_interarrival = us 300;
            max_interarrival = us 500;
            signals = [];
            writes = [ sm ];
          };
        ];
      irq_signals = [];
      irq_writes = [ sm ];
    }

let tear_bound () =
  let props = [ Mc.Props.tear ] in
  let bounds m =
    { Mc.Explorer.horizon = min m.Mc.Machine.hyperperiod (ms 2);
      max_states = 20_000;
      max_depth = 1_000;
    }
  in
  (* depth 3 with a 1 ms copy: torn *)
  let m = Mc.Machine.of_scenario ~read_span:(ms 1) (tear_scenario ~depth:3) in
  let r = Mc.Explorer.check ~props ~bounds:(bounds m) m in
  (match r.verdict with
  | `Ok -> Alcotest.fail "depth 3 must admit a torn read"
  | `Violation cex ->
    check "violation is a tear" true (cex.prop = "tear");
    check "tear witness needs IRQ timing choices" true
      (List.length cex.choices > 0);
    (* the witness must replay to the same violation, twice *)
    let t1 = Mc.Counterexample.replay m ~props cex in
    let t2 = Mc.Counterexample.replay m ~props cex in
    check_int "replay is deterministic"
      (List.length (Sim.Trace.entries t1))
      (List.length (Sim.Trace.entries t2)));
  (* the paper's depth bound: ceil(read/write) + 2 = 6 is safe *)
  let m = Mc.Machine.of_scenario ~read_span:(ms 1) (tear_scenario ~depth:6) in
  let r = Mc.Explorer.check ~props ~bounds:(bounds m) m in
  check "paper-depth buffer is tear-free" true (r.verdict = `Ok);
  check "tear-free verdict is not a truncation artifact" true
    (not r.truncated);
  (* atomic reads (span 0) cannot tear at any depth *)
  let m = Mc.Machine.of_scenario (tear_scenario ~depth:2) in
  let r = Mc.Explorer.check ~props ~bounds:(bounds m) m in
  check "atomic reads never tear" true (r.verdict = `Ok)

(* --- sporadic arrivals ---------------------------------------------- *)

let sporadic_explored () =
  let sem = Emeralds.Objects.sem () in
  let taskset =
    Model.Taskset.of_list
      [
        Model.Task.make ~id:1 ~name:"ctl" ~period:(ms 10) ~wcet:(ms 2) ();
        Model.Task.make ~id:2 ~name:"burst" ~period:(ms 20) ~wcet:(ms 3) ();
      ]
  in
  let programs (t : Model.Task.t) =
    let open Emeralds.Program in
    if t.id = 1 then compute (us 500) :: critical sem (us 800)
    else critical sem (ms 2) @ [ compute (us 300) ]
  in
  let s =
    Workload.Scenario.
      {
        name = "sporadic-demo";
        taskset;
        programs;
        irq_sources = [];
        irq_signals = [];
        irq_writes = [];
      }
  in
  let m =
    Mc.Machine.of_scenario ~sporadic:[ (2, ms 5, ms 9) ] s
  in
  let bounds =
    { Mc.Explorer.horizon = ms 30; max_states = 20_000; max_depth = 1_000 }
  in
  let props = [ Mc.Props.deadlock; Mc.Props.pi; Mc.Props.invariants ] in
  let r = Mc.Explorer.check ~props ~bounds m in
  check "sporadic exploration is clean" true (r.verdict = `Ok);
  (* silence, earliest and latest arrivals all fork: more than one
     deterministic segment must have been expanded *)
  check "sporadic windows actually branch" true (r.expansions > 3)

(* --- kernel vs checker on deterministic schedules ------------------- *)

let kernel_differential () =
  let s = Option.get (Workload.Scenario.make "table2") in
  let horizon = ms 100 in
  let k =
    Emeralds.Kernel.create ~cost:Sim.Cost.zero ~spec:Emeralds.Sched.Rm
      ~taskset:s.taskset ~programs:s.programs ()
  in
  Emeralds.Kernel.run k ~until:horizon;
  let m = Mc.Machine.of_scenario s in
  let bounds =
    { Mc.Explorer.horizon = horizon; max_states = 50_000; max_depth = 5_000 }
  in
  let r = Mc.Explorer.check ~por:false ~props:[] ~bounds m in
  List.iter
    (fun (st : Emeralds.Kernel.task_stats) ->
      match Mc.Machine.task_of_tid m st.tid with
      | None -> Alcotest.fail "unknown tid in kernel stats"
      | Some mt ->
        check_int
          (Printf.sprintf "task %d worst response: kernel = checker" st.tid)
          st.max_response
          r.max_response.(mt.idx))
    (Emeralds.Kernel.stats k)

let snapshot_determinism () =
  let mk () =
    let s = Option.get (Workload.Scenario.make "engine") in
    Emeralds.Kernel.create ~cost:Sim.Cost.zero ~spec:Emeralds.Sched.Rm
      ~taskset:s.taskset ~programs:s.programs ()
  in
  let k1 = mk () and k2 = mk () in
  for _ = 1 to 400 do
    ignore (Emeralds.Kernel.step k1);
    ignore (Emeralds.Kernel.step k2)
  done;
  let s1 = Emeralds.Kernel.Snapshot.capture k1 in
  let s2 = Emeralds.Kernel.Snapshot.capture k2 in
  check "identical kernels stepped in lockstep snapshot equal" true
    (Emeralds.Kernel.Snapshot.equal s1 s2);
  check "equal snapshots hash equal" true
    (Emeralds.Kernel.Snapshot.hash s1 = Emeralds.Kernel.Snapshot.hash s2);
  match Emeralds.Kernel.Snapshot.thread s1 ~tid:1 with
  | None -> Alcotest.fail "snapshot lost task 1"
  | Some (mode, _, _, _, _) ->
    check "task 1 mode is a known word" true
      (List.mem mode [ "ready"; "running"; "dormant" ]
      || String.length mode >= 8 && String.sub mode 0 8 = "blocked:")

(* --- branch forking: the checker explores both arms ----------------- *)

(* A violation hiding behind one branch outcome: the taken arm
   over-commits a one-block pool, the untaken arm is innocuous.  The
   checker must fork on the branch, pin the guilty outcome in the
   witness's choice list, and replay must steer the kernel down that
   exact path — visible as [Branch] trace entries matching the
   choices. *)
let branch_fork_and_replay () =
  let pool = Emeralds.Objects.pool ~block_bytes:16 ~capacity:1 () in
  let ts =
    Model.Taskset.of_list
      [ Model.Task.make ~id:1 ~period:(ms 10) ~wcet:(ms 3) () ]
  in
  let programs (_ : Model.Task.t) =
    let open Emeralds.Program in
    [
      compute (us 100);
      if_input
        [ alloc pool; alloc pool; compute (us 100); free pool; free pool ]
        [ compute (us 200) ];
    ]
  in
  let s =
    {
      Workload.Scenario.name = "branch-overcommit";
      taskset = ts;
      programs;
      irq_sources = [];
      irq_signals = [];
      irq_writes = [];
    }
  in
  let m = Mc.Machine.of_scenario s in
  let bounds =
    { Mc.Explorer.horizon = ms 10; max_states = 1_000; max_depth = 500 }
  in
  let props = [ Mc.Props.mem ] in
  let r = Mc.Explorer.check ~props ~bounds m in
  match r.verdict with
  | `Ok -> Alcotest.fail "checker missed the over-commit behind the branch"
  | `Violation cex ->
    check "mem property violated" true (cex.prop = "mem");
    let chosen =
      List.filter_map
        (function
          | Mc.Step.Take_branch { taken; _ } -> Some taken | _ -> None)
        cex.choices
    in
    check "witness pins exactly the guilty branch outcome" true
      (chosen = [ true ]);
    let trace = Mc.Counterexample.replay m ~props cex in
    let recorded =
      List.filter_map
        (fun (st : Sim.Trace.stamped) ->
          match st.entry with
          | Sim.Trace.Branch { tid; idx; taken; _ } -> Some (tid, idx, taken)
          | _ -> None)
        (Sim.Trace.entries trace)
    in
    check "replay reproduces the exact taken path" true
      (recorded = [ (1, 0, true) ])

(* --- exploration parity ---------------------------------------------- *)

(* One generated scenario per (family, task count), checked with the
   campaign's bounds and properties.  The figures are pinned: a change
   to how the checker steps, probes or keys states must explore exactly
   the same space. *)

let campaign_props =
  [ Mc.Props.deadlock; Mc.Props.pi; Mc.Props.invariants; Mc.Props.tear; Mc.Props.mem ]

let generated family n =
  let spec =
    List.hd (Workload.Generator.scenario_specs ~seed:13 ~count:1 ~family ~n ())
  in
  let sporadic =
    List.filter_map
      (fun (t : Workload.Generator.task_spec) ->
        if t.g_sporadic then Some (t.g_id, t.g_period, t.g_period * 5 / 4)
        else None)
      spec.s_tasks
  in
  let sc = Workload.Generator.realize spec in
  let m = Mc.Machine.of_scenario ~sporadic sc in
  let maxp =
    Array.fold_left
      (fun a (t : Model.Task.t) -> max a t.period)
      0
      (Model.Taskset.tasks sc.taskset)
  in
  let horizon = min m.hyperperiod (min (2 * maxp) (ms 1000)) in
  (m, { Mc.Explorer.horizon; max_states = 4000; max_depth = 2000 })

let result_row name (r : Mc.Explorer.result) =
  Printf.sprintf "%s %s exp=%d dist=%d rev=%d por=%d trunc=%b jobs=%d resp=%s"
    name
    (match r.verdict with `Ok -> "ok" | `Violation c -> "violation:" ^ c.prop)
    r.expansions r.distinct r.revisits r.por_skipped r.truncated r.jobs
    (String.concat "," (Array.to_list (Array.map string_of_int r.max_response)))

let parity_rows =
  [
    "generic/3 ok exp=557 dist=278 rev=232 por=0 trunc=false jobs=587 resp=8020952,12861889,48930999";
    "generic/4 ok exp=4000 dist=2107 rev=1832 por=0 trunc=true jobs=800 resp=80000000,5163653,0,7029885";
    "generic/5 ok exp=1829 dist=914 rev=845 por=0 trunc=false jobs=7714 resp=1968297,3500292,3519558,67903892,87518274";
    "generic/6 ok exp=1 dist=0 rev=0 por=0 trunc=false jobs=243 resp=108594,2488301,29097419,427488301,13918235,88667080";
    "generic/7 ok exp=4000 dist=2041 rev=1835 por=0 trunc=true jobs=6978 resp=562515,2945366,7137508,5876274,0,49140877,87334644";
    "generic/8 ok exp=4000 dist=2080 rev=1905 por=0 trunc=true jobs=3403 resp=239550,1478901,2291554,0,187291554,13723919,14703021,145683977";
    "automotive/3 ok exp=4000 dist=2007 rev=1822 por=0 trunc=true jobs=516 resp=0,1066440,4629000";
    "automotive/4 ok exp=4000 dist=2017 rev=1805 por=0 trunc=true jobs=1416 resp=1184339,0,2169304,24086491";
    "automotive/5 ok exp=4000 dist=2008 rev=1552 por=0 trunc=true jobs=2735 resp=327513,2415217,5472361,32556259,34262002";
    "automotive/6 ok exp=4000 dist=2011 rev=1832 por=0 trunc=true jobs=2387 resp=1977366,2895530,2974568,8465703,19348947,0";
    "automotive/7 ok exp=89 dist=44 rev=27 por=0 trunc=false jobs=324 resp=772342,8068202,8078202,9596388,16647322,19312599,29688706";
    "automotive/8 ok exp=1887 dist=943 rev=857 por=0 trunc=false jobs=1710 resp=600005,3550594,3733205,4108238,19215505,24716375,31622519,31635919";
    "avionics/3 ok exp=1126 dist=562 rev=450 por=0 trunc=false jobs=30 resp=0,14312943,25688803";
    "avionics/4 ok exp=1090 dist=544 rev=432 por=0 trunc=false jobs=156 resp=23780789,27711952,0,96459576";
    "avionics/5 ok exp=421 dist=210 rev=172 por=0 trunc=false jobs=99 resp=6744867,20419414,41269362,140022668,144184354";
    "avionics/6 ok exp=1456 dist=727 rev=612 por=0 trunc=false jobs=468 resp=114924344,39708225,53958320,62068785,89782236,0";
    "avionics/7 ok exp=97 dist=48 rev=30 por=0 trunc=false jobs=77 resp=90931343,15921343,21984890,87412072,125358418,129965029,140622737";
    "avionics/8 ok exp=311 dist=155 rev=147 por=0 trunc=false jobs=190 resp=209064,672955,12673059,67236580,97404034,115647622,115689022,139176513";
    "robotics/3 ok exp=4 dist=1 rev=0 por=0 trunc=false jobs=0 resp=0,0,0";
    "robotics/4 ok exp=208 dist=103 rev=57 por=0 trunc=false jobs=231 resp=4202196,0,1558275,15331311";
    "robotics/5 ok exp=919 dist=459 rev=400 por=0 trunc=false jobs=693 resp=257010,1917173,3820627,21487190,22549665";
    "robotics/6 ok exp=1186 dist=592 rev=540 por=0 trunc=false jobs=1458 resp=1597730,2234367,2264367,7004765,14628569,0";
    "robotics/7 ok exp=1 dist=0 rev=0 por=0 trunc=false jobs=31 resp=628153,6471280,6481280,7452919,11595072,15511438,15349853";
    "robotics/8 ok exp=1 dist=0 rev=0 por=0 trunc=false jobs=35 resp=477004,2837475,2964364,4529894,13771979,14653263,22002082,22032082";
    "generic/5 no-por ok exp=1829 dist=914 rev=845 por=0 trunc=false jobs=7714 resp=1968297,3500292,3519558,67903892,87518274";
    "avionics/4 seed=7 ok exp=1090 dist=544 rev=432 por=0 trunc=false jobs=156 resp=23780789,27711952,0,96459576";
    "automotive/5 seed=3 ok exp=4000 dist=2011 rev=1545 por=0 trunc=true jobs=2712 resp=327513,2415217,5472361,32556259,34262002";
  ]

let exploration_parity () =
  let open Workload.Generator in
  let run ?por ?seed family n suffix =
    let m, bounds = generated family n in
    result_row
      (Printf.sprintf "%s/%d%s" (family_name family) n suffix)
      (Mc.Explorer.check ?por ?seed ~props:campaign_props ~bounds m)
  in
  let rows =
    List.concat_map
      (fun family -> List.init 6 (fun k -> run family (k + 3) ""))
      families
    @ [
        run ~por:false Generic 5 " no-por";
        run ~seed:7 Avionics 4 " seed=7";
        run ~seed:3 Automotive 5 " seed=3";
      ]
  in
  List.iter2 (fun want got -> Alcotest.(check string) want want got) parity_rows rows

(* The tear witness, rendered: choices, their replayed [choice:] notes
   and the schedule must not move either. *)
let rendered_counterexample () =
  let props = [ Mc.Props.tear ] in
  let m = Mc.Machine.of_scenario ~read_span:(ms 1) (tear_scenario ~depth:3) in
  let bounds =
    { Mc.Explorer.horizon = min m.hyperperiod (ms 2); max_states = 20_000;
      max_depth = 1_000 }
  in
  match (Mc.Explorer.check ~props ~bounds m).verdict with
  | `Ok -> Alcotest.fail "depth 3 must admit a torn read"
  | `Violation cex ->
    let sm = m.sm_ids.(0) in
    let want =
      String.concat "\n"
        [
          {|property "tear" violated at t=1000000ns (horizon 2000000ns)|};
          Printf.sprintf
            "  reader read state msg %d torn: 2 writes completed mid-read \
             (depth 3 admits at most 1)"
            sm;
          "";
          "nondeterministic choices along the witness:";
          "   1. irq1 arrives at 500000ns";
          "   2. irq1 arrives at 1000000ns";
          "   3. irq1 arrives at 1500000ns";
          "";
          "schedule:";
          "       0.000ms  note      choice: irq1 arrives at 500000ns";
          "       0.000ms  release   tau1#1 (deadline 10.000ms)";
          "       0.000ms  switch    idle -> tau1";
          "       0.500ms  interrupt irq1";
          Printf.sprintf "       0.500ms  st-write  tau-1 state%d seq=1" sm;
          "       0.500ms  note      choice: irq1 arrives at 1000000ns";
          "       1.000ms  interrupt irq1";
          Printf.sprintf "       1.000ms  st-write  tau-1 state%d seq=2" sm;
          "       1.000ms  note      choice: irq1 arrives at 1500000ns";
          Printf.sprintf "       1.000ms  st-read   tau1 state%d seq=2" sm;
          "";
        ]
    in
    Alcotest.(check string) "render" want (Mc.Counterexample.render m ~props cex)

(* --- key soundness ---------------------------------------------------- *)

(* The canonical value as a plain tuple, the reference the byte
   encoding must agree with: equal keys exactly when these values are
   equal. *)
let reference_canon (m : Mc.Machine.t) (st : Mc.State.t) =
  let open Mc.State in
  let now = st.now in
  let rel_t t = if t = max_int then max_int else t - now in
  let canon_nr = function
    | At t -> (0, t - now, 0)
    | Never -> (1, 0, 0)
    | Choose (lo, hi) -> (2, max lo now - now, max hi now - now)
  in
  let canon_mode = function
    | Idle -> (0, 0, 0)
    | Ready -> (1, 0, 0)
    | Run -> (2, 0, 0)
    | BSem s -> (3, s, 0)
    | BWait w -> (4, w, 0)
    | BTimed (w, t) -> (5, w, t - now)
    | BDelay t -> (6, t - now, 0)
    | BSend b -> (7, b, 0)
    | BRecv b -> (8, b, 0)
  in
  let task i t =
    let read_delta =
      if t.read_sm < 0 then -1
      else min (st.sm_seq.(t.read_sm) - t.read_seq) m.sm_depth.(t.read_sm)
    in
    ( canon_mode t.mode,
      t.pc,
      t.rem,
      rel_t t.dl,
      rel_t t.effdl,
      t.eff,
      t.inh,
      t.held,
      canon_nr t.next_rel,
      List.map (fun r -> r - now) t.pending,
      rel_t t.dl_check,
      (t.read_sm, read_delta),
      t.live,
      i )
  in
  ( now mod m.hyperperiod,
    Array.to_list (Array.mapi task st.tasks),
    Array.to_list st.sem_val,
    Array.to_list st.sem_holder,
    Array.to_list st.wq_sig,
    Array.to_list st.mb_occ,
    Array.to_list st.pool_occ,
    Array.to_list (Array.map canon_nr st.irq_next) )

(* Every state an unpruned DFS expands (revisits included, so equal
   canonical values recur as distinct values), up to [cap]. *)
let collect_states ~horizon m =
  let cap = 500 in
  let out = ref [] and n = ref 0 in
  let rec go st choice depth =
    if !n < cap then begin
      let e = Mc.Step.expand ?choice ~horizon m st in
      out := e.state :: !out;
      incr n;
      match e.next with
      | `Branch cs when depth < 30 ->
        List.iter (fun c -> go e.state (Some c) (depth + 1)) cs
      | _ -> ()
    end
  in
  go (Mc.State.init m) None 0;
  Array.of_list !out

let key_machines =
  lazy
    (let preset name = Mc.Machine.of_scenario (Option.get (Workload.Scenario.make name)) in
     let tear = Mc.Machine.of_scenario ~read_span:(ms 1) (tear_scenario ~depth:3) in
     let gen f n = fst (generated f n) in
     List.map
       (fun (m, horizon) -> (m, collect_states ~horizon m))
       [
         (preset "engine", ms 40);
         (preset "branchy", ms 100);
         (tear, ms 2);
         (gen Workload.Generator.Avionics 4, ms 300);
         (gen Workload.Generator.Automotive 5, ms 100);
       ]
     |> Array.of_list)

(* Over the collected states, the partition by key must be the
   partition by reference value — and must not be all singletons. *)
let key_partition () =
  Array.iter
    (fun (m, states) ->
      let by_key = Hashtbl.create 64 and by_ref = Hashtbl.create 64 in
      Array.iter
        (fun st ->
          let k = Mc.State.key m st and r = reference_canon m st in
          (match Hashtbl.find_opt by_key k with
          | Some r' -> check "equal keys, equal canonical values" true (r = r')
          | None -> Hashtbl.add by_key k r);
          match Hashtbl.find_opt by_ref r with
          | Some k' -> check "equal canonical values, equal keys" true (k = k')
          | None -> Hashtbl.add by_ref r k)
        states;
      check
        (Printf.sprintf "%s: some states recur" m.Mc.Machine.model_name)
        true
        (Hashtbl.length by_key < Array.length states))
    (Lazy.force key_machines)

(* Hand-built edits that stress the encoding: [max_int] and negative
   offsets, windows clamped at [now], list boundaries that would line
   up in a concatenation without length prefixes, and fields the key
   deliberately ignores. *)
type edit =
  | Dl_check of int * int option  (** task, offset from now; None = max_int *)
  | Pending of int * int list  (** offsets from now, negative = backlog *)
  | Window of int * int * int  (** task's Choose window, offsets from now *)
  | Next_at of int * int  (** task's next release, offset from now *)
  | Split of int * int list * int  (** held = prefix, pending = the rest *)
  | Live of int * (int * int) list
  | Inh of int * bool
  | Irq_window of int * int * int
  | Rel of int * int  (** job release: not part of the key *)
  | Brs of int * int  (** branch counter: not part of the key *)

let apply_edit (st : Mc.State.t) e =
  let open Mc.State in
  let tasks = Array.copy st.tasks and irq_next = Array.copy st.irq_next in
  let upd i f =
    let i = i mod Array.length tasks in
    tasks.(i) <- f tasks.(i)
  in
  let at d = st.now + d in
  (match e with
  | Dl_check (i, d) ->
    upd i (fun t ->
        { t with dl_check = (match d with None -> max_int | Some d -> at d) })
  | Pending (i, l) -> upd i (fun t -> { t with pending = List.map at l })
  | Window (i, lo, hi) -> upd i (fun t -> { t with next_rel = Choose (at lo, at hi) })
  | Next_at (i, d) -> upd i (fun t -> { t with next_rel = At (at d) })
  | Split (i, l, k) ->
    upd i (fun t ->
        {
          t with
          held = List.filteri (fun j _ -> j < k) l;
          pending = List.map at (List.filteri (fun j _ -> j >= k) l);
        })
  | Live (i, l) -> upd i (fun t -> { t with live = l })
  | Inh (i, b) -> upd i (fun t -> { t with inh = b })
  | Irq_window (k, lo, hi) ->
    if Array.length irq_next > 0 then
      irq_next.(k mod Array.length irq_next) <- Choose (at lo, at hi)
  | Rel (i, r) -> upd i (fun t -> { t with rel = r })
  | Brs (i, b) -> upd i (fun t -> { t with brs = b }));
  { st with tasks; irq_next }

let gen_edit =
  let open QCheck2.Gen in
  let task = int_bound 7 and small = int_range (-2) 2 in
  let ints = list_size (int_bound 3) (int_bound 2) in
  oneof
    [
      map2 (fun i d -> Dl_check (i, d)) task (opt small);
      map2 (fun i l -> Pending (i, l)) task (list_size (int_bound 3) small);
      map3 (fun i lo hi -> Window (i, lo, hi)) task small small;
      map2 (fun i d -> Next_at (i, d)) task small;
      map3 (fun i l k -> Split (i, l, k)) task ints (int_bound 3);
      map2
        (fun i l -> Live (i, l))
        task
        (list_size (int_bound 2) (pair (int_bound 1) (int_range 1 2)));
      map3 (fun k lo hi -> Irq_window (k, lo, hi)) task small small;
      map2 (fun i b -> Inh (i, b)) task bool;
      map2 (fun i r -> Rel (i, r)) task small;
      map2 (fun i b -> Brs (i, b)) task (int_bound 2);
    ]

(* Pairs of edits with the verdict the reference gives them.  The split
   pair is the one a concatenation without length prefixes confuses:
   held [0], next release now, pending [now; now] versus held [0; 0],
   next release now, pending [now] give the same run of zeros. *)
let edge_pairs =
  [
    ([ Dl_check (0, None) ], [ Dl_check (0, Some 0) ], false);
    ([ Dl_check (0, None) ], [ Dl_check (0, None); Rel (0, 5); Brs (0, 1) ], true);
    ([ Pending (0, [ -2; -1 ]) ], [ Pending (0, [ -2 ]) ], false);
    ([ Pending (0, [ -1 ]) ], [ Pending (0, [ 1 ]) ], false);
    ([ Window (0, -2, 1) ], [ Window (0, -1, 1) ], true);
    ([ Window (0, -2, 1) ], [ Window (0, 0, 1) ], true);
    ([ Window (0, 0, 1) ], [ Window (0, 1, 1) ], false);
    ([ Irq_window (0, -2, -1) ], [ Irq_window (0, 0, 0) ], true);
    ( [ Next_at (0, 0); Split (0, [ 0; 0; 0 ], 1) ],
      [ Next_at (0, 0); Split (0, [ 0; 0; 0 ], 2) ],
      false );
    ([ Live (0, [ (0, 1) ]) ], [ Live (0, [ (0, 1); (1, 1) ]) ], false);
    ([ Inh (0, true) ], [ Inh (0, false) ], false);
  ]

let key_edge_states () =
  Array.iter
    (fun (m, states) ->
      Array.iteri
        (fun i base ->
          if i < 20 then
            List.iteri
              (fun j (ea, eb, equal) ->
                let sa = List.fold_left apply_edit base ea
                and sb = List.fold_left apply_edit base eb in
                let what = Printf.sprintf "%s state %d pair %d" m.Mc.Machine.model_name i j in
                check (what ^ ": reference") equal
                  (reference_canon m sa = reference_canon m sb);
                check (what ^ ": key") (reference_canon m sa = reference_canon m sb)
                  (Mc.State.key m sa = Mc.State.key m sb))
              edge_pairs)
        states)
    (Lazy.force key_machines)

let key_iff_reference =
  let gen =
    let open QCheck2.Gen in
    let* mi = int_bound 4 in
    let* a = nat and* b = nat in
    let* edits_a = list_size (int_bound 2) gen_edit
    and* edits_b = list_size (int_bound 2) gen_edit in
    let* same_base = bool in
    return (mi, a, (if same_base then a else b), edits_a, edits_b)
  in
  QCheck_alcotest.to_alcotest ~speed_level:`Quick
    ~rand:(Random.State.make [| 13 |])
    (QCheck2.Test.make ~count:2000
       ~name:"key a = key b exactly when the canonical values are equal" gen
       (fun (mi, a, b, edits_a, edits_b) ->
         let m, states = (Lazy.force key_machines).(mi) in
         let pick i edits =
           List.fold_left apply_edit states.(i mod Array.length states) edits
         in
         let sa = pick a edits_a and sb = pick b edits_b in
         Mc.State.key m sa = Mc.State.key m sb
         = (reference_canon m sa = reference_canon m sb)))

let suite =
  [
    Alcotest.test_case "seeded deadlock: lint and MC agree" `Quick
      seeded_deadlock_witnessed;
    Alcotest.test_case "presets: lint-clean and MC-clean" `Quick presets_agree;
    Alcotest.test_case "POR keeps verdicts, prunes ties" `Quick
      por_sound_on_ties;
    Alcotest.test_case "RTA bounds dominate MC responses" `Quick
      rta_dominates_mc;
    Alcotest.test_case "state-message tear bound" `Quick tear_bound;
    Alcotest.test_case "sporadic windows explored" `Quick sporadic_explored;
    Alcotest.test_case "kernel = checker on deterministic runs" `Quick
      kernel_differential;
    Alcotest.test_case "kernel snapshots are deterministic" `Quick
      snapshot_determinism;
    Alcotest.test_case "branch fork and counterexample replay" `Quick
      branch_fork_and_replay;
    Alcotest.test_case "exploration parity on generated scenarios" `Quick
      exploration_parity;
    Alcotest.test_case "rendered counterexample is stable" `Quick
      rendered_counterexample;
    Alcotest.test_case "key partition equals canonical partition" `Quick
      key_partition;
    Alcotest.test_case "key on hand-built edge states" `Quick key_edge_states;
    key_iff_reference;
  ]
