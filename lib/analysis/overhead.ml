open Sim

(* Queue layout of a CSD partition over an n-task workload: the DP
   queue sizes actually populated, and the FP queue length. *)
let layout sizes n =
  let rec take acc remaining = function
    | [] -> (List.rev acc, remaining)
    | s :: rest ->
      if remaining <= 0 then (List.rev acc, 0)
      else
        let used = min s remaining in
        take (used :: acc) (remaining - used) rest
  in
  take [] n sizes

(* Queue index (0-based; [List.length dp_lens] = FP) of a rank. *)
let queue_of_rank dp_lens rank =
  let rec loop q acc = function
    | [] -> q
    | len :: rest -> if rank < acc + len then q else loop (q + 1) (acc + len) rest
  in
  loop 0 0 dp_lens

(* t = 1.5 (t_b + t_u + t_s_block + t_s_unblock) (+ queue-list parses). *)
let combine ~t_b ~t_u ~t_s_block ~t_s_unblock ~parse =
  let sum = t_b + t_u + t_s_block + t_s_unblock + (2 * parse) in
  sum * 3 / 2

let edf_overhead cost ~n =
  combine ~t_b:cost.Cost.edf_tb ~t_u:cost.Cost.edf_tu
    ~t_s_block:(Cost.edf_ts cost ~n) ~t_s_unblock:(Cost.edf_ts cost ~n)
    ~parse:0

let rm_overhead cost ~n =
  combine ~t_b:(Cost.rm_tb cost ~scanned:n) ~t_u:cost.Cost.rm_tu
    ~t_s_block:cost.Cost.rm_ts ~t_s_unblock:cost.Cost.rm_ts ~parse:0

let heap_overhead cost ~n =
  combine ~t_b:(Cost.heap_tb cost ~n) ~t_u:(Cost.heap_tu cost ~n)
    ~t_s_block:cost.Cost.heap_ts ~t_s_unblock:cost.Cost.heap_ts ~parse:0

(* Table 3, generalised to any number of DP queues.  [dp_lens] are the
   populated DP queue lengths, [fp_len] the FP queue length, [q] the
   task's queue index. *)
let csd_overhead cost ~dp_lens ~fp_len ~q ~parse_queues =
  let parse = Cost.csd_parse cost ~queues:parse_queues in
  let ndp = List.length dp_lens in
  if q < ndp then begin
    (* DP task: when it blocks, selection scans the longest queue at or
       below its own (lower DP queues may hold the next ready task);
       when it unblocks, selection scans its own queue. *)
    let own_len = List.nth dp_lens q in
    let max_below =
      List.fold_left max 0
        (List.filteri (fun i _ -> i >= q) dp_lens)
    in
    let t_s_block =
      max (Cost.edf_ts cost ~n:max_below) cost.Cost.rm_ts
    in
    let t_s_unblock = Cost.edf_ts cost ~n:own_len in
    combine ~t_b:cost.Cost.edf_tb ~t_u:cost.Cost.edf_tu ~t_s_block
      ~t_s_unblock ~parse
  end
  else begin
    (* FP task: blocking is the RM scan of the FP queue, and selection
       is O(1) because no DP task can be ready while an FP task runs;
       unblocking selection must assume a DP queue has ready tasks. *)
    let max_dp = List.fold_left max 0 dp_lens in
    let t_s_unblock = max (Cost.edf_ts cost ~n:max_dp) cost.Cost.rm_ts in
    combine
      ~t_b:(Cost.rm_tb cost ~scanned:fp_len)
      ~t_u:cost.Cost.rm_tu ~t_s_block:cost.Cost.rm_ts ~t_s_unblock ~parse
  end

(* Per-rank overhead of an [n]-task workload.  It depends only on the
   task's queue (there is one queue outside CSD), so each queue's row
   is priced once and every rank looks its queue up. *)
let pricer ~cost ~spec ~n =
  match (spec : Emeralds.Sched.spec) with
  | Edf -> Fun.const (edf_overhead cost ~n)
  | Rm -> Fun.const (rm_overhead cost ~n)
  | Rm_heap -> Fun.const (heap_overhead cost ~n)
  | Csd sizes ->
    let dp_lens, fp_len = layout sizes n in
    let parse_queues = List.length sizes + 1 in
    let by_queue =
      Array.init (List.length dp_lens + 1) (fun q ->
          csd_overhead cost ~dp_lens ~fp_len ~q ~parse_queues)
    in
    fun rank -> by_queue.(queue_of_rank dp_lens rank)

let per_task ~cost ~spec ~n ~rank = pricer ~cost ~spec ~n rank

(* ------------------------------------------------------------------ *)
(* Per-job charge envelopes: what the kernel's Table 1 charges can add
   up to inside one job, priced from the program structure.  Used by
   the blame oracle to dominate the *ambient* overhead an attributor
   observes inside a response window (every charge landing in the
   window is attributed, whoever caused it). *)

(* Worst-case kernel charge of one leaf instruction, mirroring the
   [charge] sites of [Kernel.run_instrs].  [recv_words] bounds the
   payload of a received message (the copy cost depends on the sender,
   not the receiver's program). *)
let rec path_charges (cost : Cost.t) ~recv_words (prog : Emeralds.Program.t) =
  List.fold_left
    (fun acc (ins : Emeralds.Types.instr) ->
      acc
      +
      match ins with
      | Compute _ -> 0
      | Acquire _ | Release _ -> cost.Cost.syscall_entry + cost.Cost.sem_admin
      | Wait _ | Signal _ | Broadcast _ -> cost.Cost.syscall_entry
      | Timed_wait _ -> cost.Cost.syscall_entry + cost.Cost.timer_service
      | Send (_, data) ->
        cost.Cost.syscall_entry
        + Cost.mailbox_copy cost ~words:(Array.length data)
      | Recv _ ->
        cost.Cost.syscall_entry + Cost.mailbox_copy cost ~words:recv_words
      | State_write (sm, _) ->
        cost.Cost.syscall_entry
        + Cost.state_write cost ~words:(Emeralds.State_msg.words sm)
      | State_read sm ->
        cost.Cost.syscall_entry
        + Cost.state_read cost ~words:(Emeralds.State_msg.words sm)
      | Delay _ -> cost.Cost.timer_service
      | Alloc _ | Free _ -> cost.Cost.syscall_entry + cost.Cost.pool_admin
      | If_input (a, b) ->
        max
          (path_charges cost ~recv_words a)
          (path_charges cost ~recv_words b)
      | Repeat (n, body) -> n * path_charges cost ~recv_words body
      | Br_input _ | Jump _ -> 0)
    0 prog

let program_charges ~cost ?(recv_words = 16) prog =
  path_charges cost ~recv_words prog

(* Worst-path count of leaves that can block (and of acquires, which
   can additionally trigger an inherit/restore pair on the holder). *)
let rec path_counts (prog : Emeralds.Program.t) =
  List.fold_left
    (fun (blocks, acqs) (ins : Emeralds.Types.instr) ->
      match ins with
      | Acquire _ -> (blocks + 1, acqs + 1)
      | Wait _ | Timed_wait _ | Send _ | Recv _ | Delay _ ->
        (blocks + 1, acqs)
      | If_input (a, b) ->
        let ba, aa = path_counts a and bb, ab = path_counts b in
        (blocks + max ba bb, acqs + max aa ab)
      | Repeat (n, body) ->
        let b, a = path_counts body in
        (blocks + (n * b), acqs + (n * a))
      | Compute _ | Release _ | Signal _ | Broadcast _ | State_write _
      | State_read _ | Alloc _ | Free _ | Br_input _ | Jump _ ->
        (blocks, acqs))
    (0, 0) prog

(* Everything one job of rank [rank] can charge: its syscall-layer
   charges, one §5.1 scheduler term per block/unblock cycle (the job
   blocks once per blocking leaf plus its release/completion cycle),
   two extra scheduler terms per acquire (a waiter's inherit and the
   release-time restore are each bounded by t_b + t_u <= per_task),
   and a context-switch pair per cycle. *)
let job_envelope ~cost ~spec ~n ~rank prog =
  let blocks, acqs = path_counts prog in
  let sched = per_task ~cost ~spec ~n ~rank in
  program_charges ~cost prog
  + (sched * (1 + blocks + (2 * acqs)))
  + ((1 + blocks) * 2
    * (cost.Cost.context_switch + cost.Cost.address_space_switch))

let job_budget ~cost ~spec ~taskset ~programs ~rank ~response ~irqs =
  let tasks = Model.Taskset.tasks taskset in
  let n = Array.length tasks in
  let total = ref (irqs * cost.Cost.interrupt_entry) in
  Array.iteri
    (fun j (task : Model.Task.t) ->
      let env = job_envelope ~cost ~spec ~n ~rank:j programs.(j) in
      if j = rank then total := !total + env
      else
        (* any job of [j] overlapping a window of length [response]
           can land charges in it: ceil(R/T_j) releases inside the
           window plus one carried in *)
        let jobs = Util.Intmath.ceil_div response task.period + 1 in
        total := !total + (jobs * env))
    tasks;
  !total

let inflate ~cost ~spec taskset =
  let n = Model.Taskset.size taskset in
  let overhead = pricer ~cost ~spec ~n in
  Array.mapi
    (fun rank (task : Model.Task.t) ->
      (task.period, task.deadline, task.wcet + overhead rank))
    (Model.Taskset.tasks taskset)
