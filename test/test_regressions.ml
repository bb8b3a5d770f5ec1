(* Regression tests for kernel and analysis bugs falsified by the
   differential soundness campaign (lib/campaign) and the enforcement
   fuzzer.  Each test pins the minimal mechanism; the campaign suite
   replays the original generated scenarios end-to-end. *)

open Alcotest
open Emeralds

let ms = Model.Time.ms
let us = Model.Time.us

let taskset_of rows =
  Model.Taskset.of_list
    (List.map
       (fun (id, period, wcet) -> Model.Task.make ~id ~period ~wcet ())
       rows)

(* A job that crosses its budget inside a burst segment that ends
   before the next tick boundary, then blocks.  Detection must fire as
   soon as the job runs again: the old probe re-quantized forward on
   every re-arm, so a job yielding just before each boundary overran
   without bound (campaign fuzz case n=2 std Edf tick=700us seed=122:
   1968us consumed against a 1200us budget, zero overruns). *)
let test_budget_probe_overdue () =
  let wq = Objects.waitq () in
  let taskset = taskset_of [ (1, ms 50, ms 3) ] in
  let program _ =
    [
      Program.compute (us 1100);
      Program.wait wq;
      Program.compute (us 500);
      Program.wait wq;
      Program.compute (us 400);
    ]
  in
  let k =
    Kernel.create ~cost:Sim.Cost.zero ~spec:Sched.Edf ~taskset
      ~tick:(us 700) ~programs:program ()
  in
  let budget = us 1000 in
  Kernel.set_enforcement k
    (Some
       {
         Kernel.budget_of = (fun _ -> Some budget);
         policy = Kernel.Kill_job;
         miss = Kernel.Miss_record;
         shed_one_in = None;
       });
  (* resume instants sit strictly between tick boundaries, and each
     resumed burst ends before the next boundary *)
  Kernel.at k ~at:(us 5_000) (fun () -> Kernel.signal_waitq k wq);
  Kernel.at k ~at:(us 9_300) (fun () -> Kernel.signal_waitq k wq);
  Kernel.run k ~until:(ms 15);
  let st = List.hd (Kernel.enforcement_stats k) in
  check bool "overrun detected" true (st.e_overruns >= 1);
  check bool "kill happened" true (st.e_kills >= 1);
  check bool "budget bound holds" true
    (st.e_budget_used <= budget + us 700 + 1)

(* Sporadic triggers used to steal the next periodic job number; the
   later periodic release then re-used it, and [begin_job] started a
   job with [job_no = completed_job] — which silently disabled its
   budget probe and deadline check (both guard on
   [completed_job < job]).  Job numbers must be strictly increasing
   per task across mixed periodic and sporadic arrivals. *)
let test_job_numbers_unique () =
  let taskset = taskset_of [ (1, ms 20, ms 2) ] in
  let program _ = [ Program.compute (us 1500) ] in
  let k =
    Kernel.create ~cost:Sim.Cost.zero ~spec:Sched.Edf ~taskset
      ~programs:program ()
  in
  let budget = us 1000 in
  Kernel.set_enforcement k
    (Some
       {
         Kernel.budget_of = (fun _ -> Some budget);
         policy = Kernel.Kill_job;
         miss = Kernel.Miss_kill;
         shed_one_in = None;
       });
  (* a sporadic arrival between the first two periodic releases *)
  Kernel.trigger_job_at k ~at:(ms 10) ~tid:1;
  Kernel.run k ~until:(ms 70);
  let releases =
    List.filter_map
      (fun (st : Sim.Trace.stamped) ->
        match st.entry with
        | Sim.Trace.Job_release { tid = 1; job; _ } -> Some job
        | _ -> None)
      (Sim.Trace.entries (Kernel.trace k))
  in
  check bool "several jobs released" true (List.length releases >= 4);
  let rec increasing = function
    | a :: (b :: _ as rest) -> a < b && increasing rest
    | _ -> true
  in
  check bool "job numbers strictly increasing" true (increasing releases);
  (* every admitted job overruns its 1000us budget by construction;
     with unique numbering none escapes detection *)
  let st = List.hd (Kernel.enforcement_stats k) in
  check int "every job detected" (List.length releases) st.e_overruns

(* Back-to-back critical sections with no CPU-yielding instruction
   between them execute as one kernel episode: the releasing task is
   re-granted by direct hand-off ahead of higher-priority tasks that
   have not issued their own acquire.  [blocking_sections] must emit
   the merged chain (summed duration) alongside the individual
   members.  A genuine yield ([Compute]/[Delay]) breaks the chain; a
   [Wait] does not, because it may complete instantly off a pending
   signal. *)
let test_chain_blocking_sections () =
  let s1 = Objects.sem ~kind:Types.Emeralds () in
  let s2 = Objects.sem ~kind:Types.Emeralds () in
  let wq = Objects.waitq () in
  let taskset = taskset_of [ (1, ms 10, ms 1); (2, ms 50, ms 2) ] in
  let chained (t : Model.Task.t) =
    if t.id = 1 then [ Program.compute (us 100) ]
    else
      [
        Program.acquire s1;
        Program.compute (us 100);
        Program.release s1;
        Program.wait wq (* may complete instantly: chain continues *);
        Program.acquire s2;
        Program.compute (us 200);
        Program.release s2;
      ]
  in
  let ctx = Lint.Ctx.make ~taskset ~programs:chained () in
  let merged =
    List.filter
      (fun (cs : Analysis.Blocking.critical_section) -> cs.chained <> [])
      (Lint.Blocking_terms.blocking_sections ctx)
  in
  (match merged with
  | [ cs ] ->
    check int "merged duration sums the chain" (us 300) cs.duration;
    check int "merged section is the low task's" 1 cs.task_rank
  | l -> failf "expected one merged section, got %d" (List.length l));
  let broken (t : Model.Task.t) =
    if t.id = 1 then [ Program.compute (us 100) ]
    else
      [
        Program.acquire s1;
        Program.compute (us 100);
        Program.release s1;
        Program.compute (us 50) (* yields: chain broken *);
        Program.acquire s2;
        Program.compute (us 200);
        Program.release s2;
      ]
  in
  let ctx = Lint.Ctx.make ~taskset ~programs:broken () in
  check int "yield breaks the chain" 0
    (List.length
       (List.filter
          (fun (cs : Analysis.Blocking.critical_section) -> cs.chained <> [])
          (Lint.Blocking_terms.blocking_sections ctx)))

(* The merged chain must be emitted in addition to its members — the
   members carry their own semaphores for ceiling and nested-wait
   lookups, and dropping them shrank other ranks' blocking terms. *)
let test_chain_keeps_members () =
  let s1 = Objects.sem ~kind:Types.Emeralds () in
  let taskset = taskset_of [ (1, ms 10, ms 1); (2, ms 50, ms 2) ] in
  let programs (t : Model.Task.t) =
    if t.id = 1 then [ Program.acquire s1; Program.release s1 ]
    else
      [
        Program.acquire s1;
        Program.compute (us 100);
        Program.release s1;
        Program.acquire s1;
        Program.compute (us 200);
        Program.release s1;
      ]
  in
  let ctx = Lint.Ctx.make ~taskset ~programs ()  in
  let low =
    List.filter
      (fun (cs : Analysis.Blocking.critical_section) -> cs.task_rank = 1)
      (Lint.Blocking_terms.blocking_sections ctx)
  in
  let durations =
    List.sort compare
      (List.map
         (fun (cs : Analysis.Blocking.critical_section) -> cs.duration)
         low)
  in
  check (list int) "members and merged chain all present"
    [ us 100; us 200; us 300 ]
    durations;
  (* the blocking term for rank 0 counts the whole chained episode *)
  let b = Lint.Blocking_terms.blocking_terms ctx in
  check bool "rank-0 blocking covers the chain" true (b.(0) >= us 300)

(* Direct hand-off at [sem_release] must re-inherit from the waiters
   that remain queued: the wait list is rank-sorted, so the new holder
   already dominates every remaining waiter's rank, but a remaining
   waiter's *deadline* component can be tighter.  Under EDF the
   un-re-inherited holder ran at its own (laxer) deadline and a
   model-checked PI property caught the inversion (campaign scenario
   gen-2468). *)
let test_handoff_reinherits_deadline () =
  let s = Objects.sem ~kind:Types.Emeralds () in
  (* tau3 (lowest rank) holds the lock; tau1 and tau2 queue on it.
     tau1 has the better RM rank and receives the hand-off, but tau2's
     deadline is the tighter one at that instant. *)
  let taskset =
    taskset_of [ (1, ms 40, ms 4); (2, ms 50, ms 2); (3, ms 60, ms 6) ]
  in
  let programs (t : Model.Task.t) =
    if t.id = 3 then
      [
        Program.compute (us 100);
        Program.acquire s;
        Program.compute (us 2000);
        Program.release s;
      ]
    else if t.id = 1 then
      [
        Program.compute (us 500);
        Program.acquire s;
        Program.compute (us 3000);
        Program.release s;
      ]
    else
      [
        Program.compute (us 800);
        Program.acquire s;
        Program.compute (us 200);
        Program.release s;
      ]
  in
  let k =
    Kernel.create ~cost:Sim.Cost.zero ~spec:Sched.Edf ~taskset
      ~programs ()
  in
  Kernel.run k ~until:(ms 30);
  Kernel.check_invariants k;
  (* the hand-off recipient holds the lock while tau2 still waits; its
     effective deadline must be at least as tight as any waiter's *)
  let tr = Sim.Trace.entries (Kernel.trace k) in
  check bool "simulation produced hand-offs" true
    (List.exists
       (fun (st : Sim.Trace.stamped) ->
         match st.entry with
         | Sim.Trace.Sem_acquired _ -> true
         | _ -> false)
       tr);
  (* the model checker mirrors the hand-off; its PI property explores
     every interleaving of the same contention and must stay clean *)
  let sc =
    {
      Workload.Scenario.name = "handoff-reinherit";
      taskset;
      programs;
      irq_sources = [];
      irq_signals = [];
      irq_writes = [];
    }
  in
  let m = Mc.Machine.of_scenario sc in
  let props = List.filter_map Mc.Props.by_name [ "pi"; "invariants" ] in
  let bounds =
    { Mc.Explorer.horizon = ms 60; max_states = 20_000; max_depth = 4_000 }
  in
  let res = Mc.Explorer.check ~props ~bounds m in
  (match res.verdict with
  | `Ok -> ()
  | `Violation _ -> fail "MC found a PI violation after hand-off")

(* A spec file may name a task with any bytes.  The exporters used
   OCaml's %S escaping, which writes "na\195\175ve\001" for "naïve"
   followed by byte 0x01 -- not JSON.  A Perfetto trace and a SARIF log
   carrying the name must parse back to the same value. *)
let test_spec_file_name_escaping () =
  let name = "na\xc3\xafve\x01" in
  let path = Filename.temp_file "emeralds" ".tasks" in
  Out_channel.with_open_bin path (fun oc ->
      Printf.fprintf oc "task 1 period=10ms wcet=1ms name=%s\n" name);
  let loaded = Workload.Spec_file.load path in
  Sys.remove path;
  let taskset = match loaded with Ok ts -> ts | Error e -> failf "spec file: %s" e in
  let task = Model.Taskset.get taskset 0 in
  check string "name loaded verbatim" name task.name;
  let k = Kernel.create ~cost:Sim.Cost.m68040 ~spec:Sched.Rm ~taskset () in
  Kernel.run k ~until:(ms 20);
  let rec strings = function
    | Util.Json.String s -> [ s ]
    | List l -> List.concat_map strings l
    | Obj kv -> List.concat_map (fun (_, v) -> strings v) kv
    | _ -> []
  in
  let reads_back what v =
    check bool (what ^ " parses back") true (Util.Json.of_string (Util.Json.to_string v) = Ok v);
    check bool (what ^ " carries the name") true (List.mem name (strings v))
  in
  let note = { Sim.Trace.at = ms 20; entry = Note task.name } in
  reads_back "perfetto" (Obs.Export.perfetto (Sim.Trace.entries (Kernel.trace k) @ [ note ]));
  let diag = Lint.Diag.make Info ~check:"hygiene" ~task:1 task.name in
  reads_back "sarif"
    (Lint.Sarif.log [ ("emeralds-lint", Lint.Sarif.(in_scenario "spec" (of_diags [ diag ]))) ])

(* The deadlock message listed the whole blocked-on walk from the
   lowest-index blocked task, so a high-priority bystander that merely
   waits behind a deadlocked pair was named as part of the circular
   wait ("circular wait: lo -> mid -> by").  Here mid (s2, then s1) and
   lo (s1, then s2) close an opposite-order cycle at 6 ms; by blocked
   on mid's s2 at 3 ms, before the cycle closed. *)
let test_deadlock_names_only_the_cycle () =
  let s1 = Objects.sem () and s2 = Objects.sem () in
  let taskset =
    Model.Taskset.of_list
      [
        Model.Task.make ~id:1 ~name:"by" ~period:(ms 10) ~wcet:(ms 1)
          ~phase:(ms 3) ();
        Model.Task.make ~id:2 ~name:"mid" ~period:(ms 20) ~wcet:(ms 3)
          ~phase:(ms 1) ();
        Model.Task.make ~id:3 ~name:"lo" ~period:(ms 50) ~wcet:(ms 7) ();
      ]
  in
  let programs (t : Model.Task.t) =
    let open Program in
    match t.id with
    | 1 -> [ acquire s2; release s2 ]
    | 2 ->
      [ acquire s2; compute (ms 1); acquire s1; release s1; release s2 ]
    | _ ->
      [ acquire s1; compute (ms 5); acquire s2; release s2; release s1 ]
  in
  let sc =
    {
      Workload.Scenario.name = "deadlock-bystander";
      taskset;
      programs;
      irq_sources = [];
      irq_signals = [];
      irq_writes = [];
    }
  in
  let m = Mc.Machine.of_scenario sc in
  let res =
    Mc.Explorer.check ~props:[ Mc.Props.deadlock ]
      ~bounds:(Mc.Explorer.default_bounds m) m
  in
  match res.verdict with
  | `Ok -> fail "MC missed the lo/mid deadlock"
  | `Violation cex ->
    check int "cycle closes at 6ms" (ms 6) cex.at;
    check string "only the cycle's members are named"
      "circular wait: lo -> mid" cex.message

let suite =
  [
    test_case "budget probe fires when detection is overdue" `Quick
      test_budget_probe_overdue;
    test_case "job numbers stay unique across sporadic arrivals" `Quick
      test_job_numbers_unique;
    test_case "back-to-back critical sections merge into a chain" `Quick
      test_chain_blocking_sections;
    test_case "chain merge keeps individual members" `Quick
      test_chain_keeps_members;
    test_case "hand-off re-inherits remaining waiters' deadlines" `Quick
      test_handoff_reinherits_deadline;
    test_case "spec-file task names survive JSON and SARIF" `Quick
      test_spec_file_name_escaping;
    test_case "deadlock message names only the cycle" `Quick
      test_deadlock_names_only_the_cycle;
  ]
