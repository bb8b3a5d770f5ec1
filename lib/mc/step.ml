open State

type choice =
  | Arm_irq of { src : int; at : int }
  | Arm_task of { idx : int; at : State.nr }
  | Tie of int
  | Take_branch of { idx : int; taken : bool }

type expansion = {
  state : State.t;
  notes : (int * State.note) list;
  violation : (string * string * int) option;
  next : [ `Branch of choice list | `Leaf ];
}

exception Stop_violation of string * string

(* Mutable working copy of a state.  [tstate] records stay immutable
   and are replaced wholesale per index, so freezing is just copying
   the spine arrays, and a read-only [State.t] view can share them. *)
type ctx = {
  m : Machine.t;
  mutable now : int;
  tasks : tstate array;
  sem_val : int array;
  sem_holder : int array;
  wq_sig : int array;
  mb_occ : int array;
  sm_seq : int array;
  pool_occ : int array;
  irq_next : nr array;
  mutable notes : (int * note) list; (* reversed *)
  trace : (int -> Sim.Trace.entry -> unit) option;
  mutable on_note : at:int -> note -> unit;
}

let thaw ?emit m (st : State.t) =
  {
    m;
    now = st.now;
    tasks = Array.copy st.tasks;
    sem_val = Array.copy st.sem_val;
    sem_holder = Array.copy st.sem_holder;
    wq_sig = Array.copy st.wq_sig;
    mb_occ = Array.copy st.mb_occ;
    sm_seq = Array.copy st.sm_seq;
    pool_occ = Array.copy st.pool_occ;
    irq_next = Array.copy st.irq_next;
    notes = [];
    trace = emit;
    on_note = (fun ~at:_ _ -> ());
  }

(* The working copy as a [State.t] without copying: valid only until
   the next mutation, so only for read-only probes. *)
let view c : State.t =
  {
    now = c.now;
    tasks = c.tasks;
    sem_val = c.sem_val;
    sem_holder = c.sem_holder;
    wq_sig = c.wq_sig;
    mb_occ = c.mb_occ;
    sm_seq = c.sm_seq;
    pool_occ = c.pool_occ;
    irq_next = c.irq_next;
  }

let freeze c : State.t =
  {
    now = c.now;
    tasks = Array.copy c.tasks;
    sem_val = Array.copy c.sem_val;
    sem_holder = Array.copy c.sem_holder;
    wq_sig = Array.copy c.wq_sig;
    mb_occ = Array.copy c.mb_occ;
    sm_seq = Array.copy c.sm_seq;
    pool_occ = Array.copy c.pool_occ;
    irq_next = Array.copy c.irq_next;
  }

let set c i t = c.tasks.(i) <- t
let tid c i = c.m.tasks.(i).tid
let emit c e = match c.trace with Some f -> f c.now e | None -> ()
let tracing c = Option.is_some c.trace

let note c n =
  c.notes <- (c.now, n) :: c.notes;
  c.on_note ~at:c.now n

let job_no c i =
  let mt = c.m.tasks.(i) in
  match mt.release with
  | Machine.Periodic -> ((c.tasks.(i).rel - mt.phase) / mt.period) + 1
  | Machine.Sporadic _ -> 0

let sem_waiters c s = State.waiters c.m c.tasks Sem s
let wq_waiters c w = State.waiters c.m c.tasks Wq w

(* the running task, or -1 *)
let running c =
  let r = ref (-1) in
  Array.iteri (fun i t -> match t.mode with Run -> r := i | _ -> ()) c.tasks;
  !r

let rec remove_first x = function
  | [] -> []
  | y :: tl -> if y = x then tl else y :: remove_first x tl

(* --- priority inheritance ------------------------------------------- *)

(* Mirror of the kernel's [do_inherit]: boost the holder to the
   waiter's effective rank and deadline, walking blocking chains
   transitively.  The declarative fixpoint lives in [Props]; the two
   must agree, which is itself a checked property. *)
let rec inherit_into c ~holder ~waiter =
  if holder <> waiter then begin
    let h = c.tasks.(holder) and w = c.tasks.(waiter) in
    let eff = min h.eff w.eff and effdl = min h.effdl w.effdl in
    if eff < h.eff || effdl < h.effdl then begin
      set c holder { h with eff; effdl; inh = true };
      emit c
        (Sim.Trace.Priority_inherit
           { holder = tid c holder; from_tid = tid c waiter });
      match h.mode with
      | BSem s -> (
        match c.sem_holder.(s) with
        | -1 -> ()
        | h2 -> inherit_into c ~holder:h2 ~waiter:holder)
      | _ -> ()
    end
  end

(* Mirror of the kernel's [restore_prio]: back to base, then
   re-inherit from the waiters of everything still held. *)
let restore_prio c i =
  let t = c.tasks.(i) in
  let was_inh = t.inh in
  set c i { t with eff = i; effdl = t.dl; inh = false };
  List.iter
    (fun s ->
      List.iter (fun w -> inherit_into c ~holder:i ~waiter:w) (sem_waiters c s))
    t.held;
  if was_inh && not c.tasks.(i).inh then
    emit c (Sim.Trace.Priority_restore { holder = tid c i })

(* --- job lifecycle --------------------------------------------------- *)

let begin_job c i ~release =
  let mt = c.m.tasks.(i) in
  let t = c.tasks.(i) in
  let dl = release + mt.deadline in
  let late = dl + 1 < c.now in
  (* the kernel probes at deadline+1; a backlogged job starting after
     that instant has already missed *)
  let dl_check = if late then max_int else dl + 1 in
  set c i
    {
      t with
      mode = (match t.mode with Idle -> Ready | md -> md);
      pc = 0;
      rem = 0;
      rel = release;
      dl;
      effdl = (if t.inh then t.effdl else dl);
      dl_check;
      brs = 0;
    };
  emit c (Sim.Trace.Job_release { tid = tid c i; job = job_no c i; deadline = dl });
  if late then begin
    note c (Miss { idx = i });
    emit c
      (Sim.Trace.Deadline_miss
         { tid = tid c i; job = job_no c i; lateness = c.now - dl })
  end

let release_task c i =
  let t = c.tasks.(i) in
  (match t.mode with
  | Idle -> begin_job c i ~release:c.now
  | _ -> set c i { t with pending = t.pending @ [ c.now ] });
  let mt = c.m.tasks.(i) in
  let t = c.tasks.(i) in
  let next_rel =
    match mt.release with
    | Machine.Periodic -> At (c.now + mt.period)
    | Machine.Sporadic { min_ia; max_ia } ->
      Choose (c.now + min_ia, c.now + max_ia)
  in
  set c i { t with next_rel }

let job_complete c i =
  let t = c.tasks.(i) in
  (* mirror of the kernel's reclaim-and-record: blocks still live at
     job end are a leak, noted then reclaimed, before the completion *)
  List.iter
    (fun (p, n) ->
      c.pool_occ.(p) <- max 0 (c.pool_occ.(p) - n);
      note c (Leak { idx = i; pool = p; count = n });
      emit c
        (Sim.Trace.Pool_leak
           { tid = tid c i; job = job_no c i; pool = c.m.pool_ids.(p); count = n }))
    t.live;
  let response = c.now - t.rel in
  note c (Job_done { idx = i; response });
  emit c
    (Sim.Trace.Job_complete { tid = tid c i; job = job_no c i; response });
  set c i { t with dl_check = max_int; live = [] };
  match t.pending with
  | [] -> set c i { (c.tasks.(i)) with mode = Idle }
  | r :: rest ->
    set c i { (c.tasks.(i)) with pending = rest };
    begin_job c i ~release:r

(* --- wakeups --------------------------------------------------------- *)

(* Complete a blocking call: back to ready with the pc advanced past
   the blocking instruction. *)
let wake c i =
  let t = c.tasks.(i) in
  set c i { t with mode = Ready; pc = t.pc + 1 };
  emit c (Sim.Trace.Thread_unblock { tid = tid c i })

let do_signal c w =
  match State.first_waiter c.m c.tasks Wq w with
  | -1 -> c.wq_sig.(w) <- c.wq_sig.(w) + 1
  | i -> wake c i

let do_broadcast c w = List.iter (wake c) (wq_waiters c w)

let deliver_irq c k =
  let src = c.m.irqs.(k) in
  emit c (Sim.Trace.Interrupt { irq = src.src_irq });
  List.iter (do_signal c) src.sig_wqs;
  List.iter
    (fun smi ->
      c.sm_seq.(smi) <- c.sm_seq.(smi) + 1;
      emit c
        (Sim.Trace.State_written
           { tid = -1; state = c.m.sm_ids.(smi); seq = c.sm_seq.(smi) }))
    src.wr_sms;
  c.irq_next.(k) <- Choose (c.now + src.min_ia, c.now + src.max_ia)

(* Fire everything due at the current instant, in the canonical order
   (releases by rank, then timers, then interrupts by source, then
   deadline probes).  Idempotent: firing consumes the event. *)
let deliver_due c =
  Array.iteri
    (fun i (t : tstate) ->
      match t.next_rel with At r when r <= c.now -> release_task c i | _ -> ())
    c.tasks;
  Array.iteri
    (fun i (t : tstate) ->
      match t.mode with
      | BDelay w when w <= c.now ->
        set c i { t with mode = Ready };
        emit c (Sim.Trace.Thread_unblock { tid = tid c i })
      | BTimed (_, tmo) when tmo <= c.now -> wake c i
      | _ -> ())
    c.tasks;
  Array.iteri
    (fun k nr ->
      match nr with At t when t <= c.now -> deliver_irq c k | _ -> ())
    c.irq_next;
  Array.iteri
    (fun i (t : tstate) ->
      if t.dl_check <= c.now then begin
        set c i { t with dl_check = max_int };
        note c (Miss { idx = i });
        emit c
          (Sim.Trace.Deadline_miss
             { tid = tid c i; job = job_no c i; lateness = c.now - t.dl })
      end)
    c.tasks

(* Unresolved arrival windows, canonical order: sporadic tasks first,
   then interrupt sources.  Time may not advance past one. *)
let arm_choices c =
  let dedup = function
    | [ a; b ] when a = b -> [ a ]
    | l -> l
  in
  let rec task_choice i =
    if i >= Array.length c.tasks then None
    else
      match c.tasks.(i).next_rel with
      | Choose (lo, hi) ->
        Some
          (dedup
             [
               Arm_task { idx = i; at = At (max lo c.now) };
               Arm_task { idx = i; at = At (max hi c.now) };
             ]
          @ [ Arm_task { idx = i; at = Never } ])
      | _ -> task_choice (i + 1)
  in
  match task_choice 0 with
  | Some cs -> Some cs
  | None ->
    let rec irq_choice k =
      if k >= Array.length c.irq_next then None
      else
        match c.irq_next.(k) with
        | Choose (lo, hi) ->
          Some
            (dedup
               [
                 Arm_irq { src = k; at = max lo c.now };
                 Arm_irq { src = k; at = max hi c.now };
               ])
        | _ -> irq_choice (k + 1)
    in
    irq_choice 0

let next_event_time c =
  let best = ref max_int in
  let consider t = if t < !best then best := t in
  Array.iter
    (fun (t : tstate) ->
      (match t.next_rel with At r -> consider r | _ -> ());
      (match t.mode with
      | BDelay w -> consider w
      | BTimed (_, tmo) -> consider tmo
      | _ -> ());
      if t.dl_check < max_int then consider t.dl_check)
    c.tasks;
  Array.iter (function At t -> consider t | _ -> ()) c.irq_next;
  if !best = max_int then None else Some !best

(* --- dispatch -------------------------------------------------------- *)

type picked = PRun of int | PTie of int list | PIdle

let pick c =
  let n = Array.length c.tasks in
  let cands = ref 0 and mink = ref 0 and first = ref (-1) and run = ref (-1) in
  for i = 0 to n - 1 do
    match c.tasks.(i).mode with
    | (Ready | Run) as md ->
      let k = State.dispatch_key c.m c.tasks.(i) in
      if !cands = 0 || k < !mink then begin
        mink := k;
        first := i;
        cands := 1
      end
      else if k = !mink then incr cands;
      (match md with Run -> run := i | _ -> ())
    | _ -> ()
  done;
  if !cands = 0 then PIdle
  (* the incumbent keeps the CPU on equal keys (no preemption without a
     strictly better key — the kernel behaves the same) *)
  else if !run >= 0 && State.dispatch_key c.m c.tasks.(!run) = !mink then
    PRun !run
  else if !cands = 1 then PRun !first
  else begin
    let best = ref [] in
    for i = n - 1 downto 0 do
      match c.tasks.(i).mode with
      | Ready | Run when State.dispatch_key c.m c.tasks.(i) = !mink ->
        best := i :: !best
      | _ -> ()
    done;
    PTie !best
  end

let dispatch c i =
  let prev = running c in
  if prev <> i then begin
    if prev >= 0 then set c prev { (c.tasks.(prev)) with mode = Ready };
    set c i { (c.tasks.(i)) with mode = Run };
    emit c
      (Sim.Trace.Context_switch
         {
           from_tid = (if prev < 0 then None else Some (tid c prev));
           to_tid = Some (tid c i);
         })
  end

(* --- instruction execution ------------------------------------------ *)

let exec_instr c i ~horizon =
  let mt = c.m.tasks.(i) in
  let t = c.tasks.(i) in
  if t.pc >= Array.length mt.code then begin
    job_complete c i;
    `Ok
  end
  else
    match mt.code.(t.pc) with
    | Machine.ICompute d ->
      let rem = if t.rem > 0 then t.rem else d in
      if rem = 0 then begin
        set c i { t with pc = t.pc + 1; rem = 0 };
        `Ok
      end
      else begin
        let t_done = c.now + rem in
        let t_ev =
          match next_event_time c with Some t -> t | None -> max_int
        in
        let target = min t_done t_ev in
        if target > horizon then `Capped
        else begin
          let elapsed = target - c.now in
          c.now <- target;
          if target = t_done then set c i { t with rem = 0; pc = t.pc + 1 }
          else set c i { t with rem = rem - elapsed };
          `Ok
        end
      end
    | Machine.IAcquire s ->
      if c.sem_val.(s) > 0 then begin
        c.sem_val.(s) <- c.sem_val.(s) - 1;
        if c.m.sem_initial.(s) = 1 then c.sem_holder.(s) <- i;
        set c i { t with pc = t.pc + 1; held = s :: t.held };
        emit c (Sim.Trace.Sem_acquired { tid = tid c i; sem = c.m.sem_ids.(s) })
      end
      else begin
        set c i { t with mode = BSem s };
        emit c (Sim.Trace.Sem_blocked { tid = tid c i; sem = c.m.sem_ids.(s) });
        emit c (Sim.Trace.Thread_block { tid = tid c i; reason = "sem" });
        match c.sem_holder.(s) with
        | -1 -> ()
        | h -> inherit_into c ~holder:h ~waiter:i
      end;
      `Ok
    | Machine.IRelease s ->
      if not (List.mem s t.held) then begin
        note c
          (Fault
             (Printf.sprintf "%s releases sem %d it does not hold" mt.task_name
                c.m.sem_ids.(s)));
        set c i { t with pc = t.pc + 1 }
      end
      else begin
        set c i { t with pc = t.pc + 1; held = remove_first s t.held };
        emit c (Sim.Trace.Sem_released { tid = tid c i; sem = c.m.sem_ids.(s) });
        restore_prio c i;
        match sem_waiters c s with
        | [] ->
          c.sem_val.(s) <- c.sem_val.(s) + 1;
          if c.sem_holder.(s) = i then c.sem_holder.(s) <- -1
        | w :: rest ->
          (* direct handoff, like the kernel's [sem_release]: the best
             waiter leaves with the unit.  Its rank dominates the
             rank-sorted queue, but a remaining waiter's *deadline*
             component may still be tighter — re-inherit so the new
             holder's effective deadline is the min over the queue. *)
          if c.m.sem_initial.(s) = 1 then c.sem_holder.(s) <- w;
          let wt = c.tasks.(w) in
          set c w { wt with mode = Ready; pc = wt.pc + 1; held = s :: wt.held };
          emit c (Sim.Trace.Thread_unblock { tid = tid c w });
          emit c
            (Sim.Trace.Sem_acquired { tid = tid c w; sem = c.m.sem_ids.(s) });
          if c.m.sem_initial.(s) = 1 then
            List.iter (fun w2 -> inherit_into c ~holder:w ~waiter:w2) rest
      end;
      `Ok
    | Machine.IWait w ->
      if c.wq_sig.(w) > 0 then begin
        c.wq_sig.(w) <- c.wq_sig.(w) - 1;
        set c i { t with pc = t.pc + 1 }
      end
      else begin
        set c i { t with mode = BWait w };
        emit c (Sim.Trace.Thread_block { tid = tid c i; reason = "waitq" })
      end;
      `Ok
    | Machine.ITimed_wait (w, d) ->
      if c.wq_sig.(w) > 0 then begin
        c.wq_sig.(w) <- c.wq_sig.(w) - 1;
        set c i { t with pc = t.pc + 1 }
      end
      else begin
        set c i { t with mode = BTimed (w, c.now + d) };
        emit c (Sim.Trace.Thread_block { tid = tid c i; reason = "waitq" })
      end;
      `Ok
    | Machine.ISignal w ->
      set c i { t with pc = t.pc + 1 };
      do_signal c w;
      `Ok
    | Machine.IBroadcast w ->
      set c i { t with pc = t.pc + 1 };
      do_broadcast c w;
      `Ok
    | Machine.ISend b ->
      (match State.first_waiter c.m c.tasks Recv b with
      | -1 ->
        if c.mb_occ.(b) < c.m.mb_cap.(b) then begin
          c.mb_occ.(b) <- c.mb_occ.(b) + 1;
          set c i { t with pc = t.pc + 1 };
          emit c
            (Sim.Trace.Msg_sent { tid = tid c i; mailbox = c.m.mb_ids.(b); words = 0 })
        end
        else begin
          set c i { t with mode = BSend b };
          emit c (Sim.Trace.Thread_block { tid = tid c i; reason = "mailbox" })
        end
      | r ->
        (* a blocked receiver takes delivery directly *)
        set c i { t with pc = t.pc + 1 };
        emit c (Sim.Trace.Msg_sent { tid = tid c i; mailbox = c.m.mb_ids.(b); words = 0 });
        wake c r;
        emit c
          (Sim.Trace.Msg_received
             { tid = tid c r; mailbox = c.m.mb_ids.(b); words = 0; queued_for = 0 }));
      `Ok
    | Machine.IRecv b ->
      if c.mb_occ.(b) > 0 then begin
        c.mb_occ.(b) <- c.mb_occ.(b) - 1;
        set c i { t with pc = t.pc + 1 };
        emit c
          (Sim.Trace.Msg_received
             { tid = tid c i; mailbox = c.m.mb_ids.(b); words = 0; queued_for = 0 });
        (* a freed slot admits the best blocked sender's message *)
        match State.first_waiter c.m c.tasks Send b with
        | -1 -> ()
        | s ->
          c.mb_occ.(b) <- c.mb_occ.(b) + 1;
          wake c s;
          emit c
            (Sim.Trace.Msg_sent
               { tid = tid c s; mailbox = c.m.mb_ids.(b); words = 0 })
      end
      else begin
        match State.first_waiter c.m c.tasks Send b with
        | -1 ->
          set c i { t with mode = BRecv b };
          emit c (Sim.Trace.Thread_block { tid = tid c i; reason = "mailbox" })
        | s ->
          (* zero-capacity rendezvous *)
          set c i { t with pc = t.pc + 1 };
          wake c s;
          emit c
            (Sim.Trace.Msg_received
               { tid = tid c i; mailbox = c.m.mb_ids.(b); words = 0; queued_for = 0 })
      end;
      `Ok
    | Machine.ISwrite sm ->
      c.sm_seq.(sm) <- c.sm_seq.(sm) + 1;
      set c i { t with pc = t.pc + 1 };
      emit c
        (Sim.Trace.State_written
           { tid = tid c i; state = c.m.sm_ids.(sm); seq = c.sm_seq.(sm) });
      `Ok
    | Machine.ISread_begin sm ->
      set c i { t with pc = t.pc + 1; read_sm = sm; read_seq = c.sm_seq.(sm) };
      `Ok
    | Machine.ISread_end sm ->
      let writes = c.sm_seq.(sm) - t.read_seq in
      set c i { t with pc = t.pc + 1; read_sm = -1; read_seq = 0 };
      emit c
        (Sim.Trace.State_read
           { tid = tid c i; state = c.m.sm_ids.(sm); seq = c.sm_seq.(sm) });
      if writes >= c.m.sm_depth.(sm) - 1 then
        note c (Torn { idx = i; sm; writes });
      `Ok
    | Machine.IDelay d ->
      if d = 0 then set c i { t with pc = t.pc + 1 }
      else begin
        set c i { t with mode = BDelay (c.now + d); pc = t.pc + 1 };
        emit c (Sim.Trace.Thread_block { tid = tid c i; reason = "delay" })
      end;
      `Ok
    | Machine.IAlloc p ->
      if c.pool_occ.(p) < c.m.pool_cap.(p) then begin
        c.pool_occ.(p) <- c.pool_occ.(p) + 1;
        let mine =
          (match List.assoc_opt p t.live with Some n -> n | None -> 0) + 1
        in
        let live = List.sort compare ((p, mine) :: List.remove_assoc p t.live) in
        set c i { t with pc = t.pc + 1; live };
        emit c
          (Sim.Trace.Block_alloc
             { tid = tid c i; pool = c.m.pool_ids.(p); live = c.pool_occ.(p) })
      end
      else begin
        note c (Oom { idx = i; pool = p });
        emit c (Sim.Trace.Pool_oom { tid = tid c i; pool = c.m.pool_ids.(p) });
        set c i { t with pc = t.pc + 1 }
      end;
      `Ok
    | Machine.IFree p -> (
      match List.assoc_opt p t.live with
      | None | Some 0 ->
        (* the kernel rejects the program here; the checker records the
           fault and runs on so one trace can carry several findings *)
        note c
          (Fault
             (Printf.sprintf "%s frees a block of pool %d it does not hold"
                mt.task_name c.m.pool_ids.(p)));
        set c i { t with pc = t.pc + 1 };
        `Ok
      | Some mine ->
        c.pool_occ.(p) <- c.pool_occ.(p) - 1;
        let rest = List.remove_assoc p t.live in
        let live =
          if mine = 1 then rest else List.sort compare ((p, mine - 1) :: rest)
        in
        set c i { t with pc = t.pc + 1; live };
        emit c
          (Sim.Trace.Block_free
             { tid = tid c i; pool = c.m.pool_ids.(p); live = c.pool_occ.(p) });
        `Ok)
    | Machine.IBr_input _ ->
      (* a data-dependent branch is a nondeterminism source: stop here
         and let the crank fork over both outcomes *)
      `Fork
    | Machine.IJump target ->
      set c i { t with pc = target };
      `Ok

(* --- the crank ------------------------------------------------------- *)

let rec crank ~horizon ~probe c =
  match arm_choices c with
  | Some cs -> `Branch cs
  | None -> (
    deliver_due c;
    match arm_choices c with
    | Some cs -> `Branch cs
    | None -> (
      probe c;
      match pick c with
      | PTie best -> `Branch (List.map (fun i -> Tie i) best)
      | PIdle -> (
        match next_event_time c with
        | Some t when t <= horizon ->
          c.now <- t;
          crank ~horizon ~probe c
        | Some _ | None -> `Leaf)
      | PRun i -> (
        dispatch c i;
        match exec_instr c i ~horizon with
        | `Capped -> `Leaf
        | `Fork ->
          `Branch
            [
              Take_branch { idx = i; taken = true };
              Take_branch { idx = i; taken = false };
            ]
        | `Ok ->
          (* A job whose program just ran out finishes *now*, even if a
             same-instant release is about to preempt the task —
             completion is zero-time, so deferring it to the next
             dispatch would inflate the measured response. *)
          let t = c.tasks.(i) in
          (match t.mode with
          | Run when t.pc >= Array.length c.m.tasks.(i).code -> job_complete c i
          | _ -> ());
          crank ~horizon ~probe c)))

let pp_choice (m : Machine.t) fmt = function
  | Arm_irq { src; at } ->
    Format.fprintf fmt "irq%d arrives at %dns" m.irqs.(src).src_irq at
  | Arm_task { idx; at = At t } ->
    Format.fprintf fmt "sporadic %s released at %dns" m.tasks.(idx).task_name t
  | Arm_task { idx; at = _ } ->
    Format.fprintf fmt "sporadic %s stays silent" m.tasks.(idx).task_name
  | Tie i -> Format.fprintf fmt "tie-break: dispatch %s" m.tasks.(i).task_name
  | Take_branch { idx; taken } ->
    Format.fprintf fmt "branch in %s: %s" m.tasks.(idx).task_name
      (if taken then "taken" else "not taken")

let choice_to_string m c = Format.asprintf "%a" (pp_choice m) c

(* Commit [choice] to the working copy.  Applying a choice never
   advances time; the crank that follows does. *)
let apply c choice =
  if tracing c then
    emit c (Sim.Trace.Note ("choice: " ^ choice_to_string c.m choice));
  match choice with
  | Arm_irq { src; at } -> c.irq_next.(src) <- At at
  | Arm_task { idx; at } -> set c idx { (c.tasks.(idx)) with next_rel = at }
  | Tie i -> dispatch c i
  | Take_branch { idx; taken } ->
    let t = c.tasks.(idx) in
    let target =
      match c.m.tasks.(idx).code.(t.pc) with
      | Machine.IBr_input target -> target
      | _ -> invalid_arg "Mc.Step.expand: Take_branch at a non-branch pc"
    in
    if tracing c then
      emit c (Sim.Trace.Branch { tid = tid c idx; pc = t.pc; idx = t.brs; taken });
    set c idx
      { t with pc = (if taken then t.pc + 1 else target); brs = t.brs + 1 }

let expand ?emit ?check ?(check_note = fun ~at:_ _ -> None) ?choice ~horizon
    m st =
  let c = thaw ?emit m st in
  c.on_note <-
    (fun ~at n ->
      match check_note ~at n with
      | Some (p, msg) -> raise (Stop_violation (p, msg))
      | None -> ());
  let probe =
    match check with
    | None -> fun _ -> ()
    | Some check -> (
      fun c ->
        match check (view c) with
        | Some (p, msg) -> raise (Stop_violation (p, msg))
        | None -> ())
  in
  Option.iter (apply c) choice;
  let next, violation =
    match crank ~horizon ~probe c with
    | r -> (r, None)
    | exception Stop_violation (p, msg) -> (`Leaf, Some (p, msg, c.now))
  in
  { state = freeze c; notes = List.rev c.notes; violation; next }
