(* Micro rows for the layers below the workloads: the ready-queue
   operations of Table 1 on [Mock] TCBs, the engine's schedule+step
   pair, trace append, probe emission and one feasibility test.  Each
   row is repeated samples (median, quartiles, minor words per op). *)

open Emeralds

let mocks n = Array.init n (fun i -> Mock.tcb ~tid:i ())

let readyq_rows () =
  List.concat_map
    (fun n ->
      let tag = Printf.sprintf "n%d" n in
      let edf = Readyq.Edf_queue.create () and edf_t = mocks n in
      Array.iter (Readyq.Edf_queue.add edf) edf_t;
      let rm = Readyq.Rm_queue.create () and rm_t = mocks n in
      Array.iter (Readyq.Rm_queue.add rm) rm_t;
      let heap = Readyq.Heap_queue.create () and heap_t = mocks n in
      Array.iter (Readyq.Heap_queue.note_unblocked heap) heap_t;
      let block_unblock note_blocked note_unblocked (v : Types.tcb) () =
        v.state <- Types.Blocked "perfbench";
        note_blocked v;
        v.state <- Types.Ready;
        note_unblocked v
      in
      [
        Measure.micro ("readyq.select_ns.edf." ^ tag) (fun () ->
            ignore (Readyq.Edf_queue.select edf));
        Measure.micro ("readyq.select_ns.rm." ^ tag) (fun () -> ignore (Readyq.Rm_queue.select rm));
        Measure.micro ("readyq.select_ns.heap." ^ tag) (fun () ->
            ignore (Readyq.Heap_queue.select heap));
        Measure.micro ("readyq.block_unblock_ns.edf." ^ tag)
          (block_unblock (Readyq.Edf_queue.note_blocked edf) (Readyq.Edf_queue.note_unblocked edf)
             edf_t.(0));
        Measure.micro ("readyq.block_unblock_ns.rm." ^ tag)
          (block_unblock
             (fun v -> ignore (Readyq.Rm_queue.note_blocked rm v))
             (Readyq.Rm_queue.note_unblocked rm) rm_t.(0));
        Measure.micro ("readyq.block_unblock_ns.heap." ^ tag)
          (block_unblock (Readyq.Heap_queue.note_blocked heap)
             (Readyq.Heap_queue.note_unblocked heap) heap_t.(0));
      ])
    [ 8; 64 ]

(* A schedule+step pair on an engine holding [depth] far-future events
   (the pending depth the traced sim-dispatch run observed). *)
let engine_row ~depth =
  let e = Sim.Engine.create () in
  for _ = 1 to depth do
    ignore (Sim.Engine.schedule e ~at:(max_int / 2) ignore)
  done;
  Measure.micro "engine.schedule_step_ns" (fun () ->
      ignore (Sim.Engine.schedule_after e ~delay:1 ignore);
      ignore (Sim.Engine.step e))

let switch = Sim.Trace.Context_switch { from_tid = Some 1; to_tid = Some 2 }

let trace_rows () =
  let emit_row name keep_entries =
    let tr = ref (Sim.Trace.create ~keep_entries ()) in
    Measure.micro name
      ~reset:(fun () -> tr := Sim.Trace.create ~keep_entries ())
      (fun () -> Sim.Trace.emit !tr ~at:0 switch)
  in
  let probe_row name subscribers =
    let p = Obs.Probe.create ~trace:(Sim.Trace.create ~keep_entries:false ()) () in
    for _ = 1 to subscribers do
      Obs.Probe.subscribe p ~mask:Obs.Probe.all_mask ignore
    done;
    Measure.micro name (fun () -> Obs.Probe.emit p ~at:0 switch)
  in
  [
    emit_row "trace.emit_ns.keep" true;
    emit_row "trace.emit_ns.drop" false;
    probe_row "probe.emit_ns.nosub" 0;
    probe_row "probe.emit_ns.onesub" 1;
  ]

(* One [Feasibility.feasible] call on a 20-task set at U = 0.8. *)
let feasible_rows ~seed =
  let ts =
    Workload.Generator.random_taskset ~rng:(Util.Rng.create ~seed) ~n:20 ~target_u:0.8 ()
  in
  List.map
    (fun (name, spec) ->
      Measure.micro name (fun () ->
          ignore (Analysis.Feasibility.feasible ~cost:Sim.Cost.m68040 ~spec ts)))
    [
      ("analysis.feasible_ns.rm", Sched.Rm);
      ("analysis.feasible_ns.edf", Sched.Edf);
      ("analysis.feasible_ns.csd3", Sched.Csd [ 4; 6 ]);
    ]
