type t = {
  name : string;
  doc : string;
  timing_sensitive : bool;
  on_state : Machine.t -> State.t -> string option;
  on_note : Machine.t -> at:int -> State.note -> string option;
}

let no_state _ _ = None
let no_note _ ~at:_ _ = None

(* --- deadlock -------------------------------------------------------- *)

(* The blocked-on graph is functional: each task blocks on at most one
   semaphore and a mutex has at most one holder. *)
let succ (st : State.t) i =
  match st.tasks.(i).mode with State.BSem s -> st.sem_holder.(s) | _ -> -1

(* [i] is [j] or a task on [j]'s chain, counting [steps] edges walked
   so far against the [n]-edge limit *)
let rec reaches (st : State.t) i j steps =
  j >= 0
  && (j = i
     || (steps < Array.length st.tasks && reaches st i (succ st j) (steps + 1)))

let on_cycle st i = reaches st i (succ st i) 1

(* where a walk of [steps] edges from [j] stops; -1 if the chain ends *)
let rec walk st j steps =
  if j < 0 || steps = 0 then j else walk st (succ st j) (steps - 1)

let rec first_on_cycle st j =
  if on_cycle st j then j else first_on_cycle st (succ st j)

let rec cycle_from st h acc j =
  let acc = j :: acc in
  let k = succ st j in
  if k = h then acc else cycle_from st h acc k

(* The circular wait of the lowest-index task whose chain closes one,
   members only (a waiter merely blocked behind the cycle is not part
   of it), in reverse walk order from where the chain enters the
   cycle.  Allocates only when there is a cycle to report: on a state
   with no task blocked on a semaphore, every walk ends at its first
   step. *)
let rec find_cycle_from (st : State.t) i =
  let n = Array.length st.tasks in
  if i >= n then None
  (* a chain still going after [n] steps is inside its cycle *)
  else if walk st i n < 0 then find_cycle_from st (i + 1)
  else
    let h = first_on_cycle st i in
    Some (cycle_from st h [] h)

let find_cycle st = find_cycle_from st 0

let deadlock =
  {
    name = "deadlock";
    doc = "no circular wait among semaphore holders";
    timing_sensitive = false;
    on_state =
      (fun m st ->
        match find_cycle st with
        | None -> None
        | Some cycle ->
          let names =
            String.concat " -> "
              (List.map (fun i -> m.tasks.(i).task_name) cycle)
          in
          Some (Printf.sprintf "circular wait: %s" names));
    on_note = no_note;
  }

(* --- priority inheritance ------------------------------------------- *)

let rec mem_int x = function [] -> false | y :: tl -> y = x || mem_int x tl

(* The declarative fixpoint of one component: the minimum of [own]
   over [i] and every (transitive) waiter on a semaphore [i] holds.
   A min does not depend on order or duplicates, so the waiters are
   folded straight from the task modes.  Terminates because the caller
   has ruled out circular waits. *)
let rec fixpoint (st : State.t) own i =
  let t = st.tasks.(i) in
  let v = ref (own i t) in
  for w = 0 to Array.length st.tasks - 1 do
    match st.tasks.(w).mode with
    | State.BSem s when st.sem_holder.(s) = i && mem_int s t.held ->
      let x = fixpoint st own w in
      if x < !v then v := x
    | _ -> ()
  done;
  !v

let base_rank i (_ : State.tstate) = i
let base_deadline _ (t : State.tstate) = t.dl

(* the first non-idle task from [i] on whose effective values are not
   the fixpoint *)
let rec pi_mismatch (m : Machine.t) (st : State.t) i =
  if i >= Array.length st.tasks then None
  else
    let t = st.tasks.(i) in
    match t.mode with
    | State.Idle -> pi_mismatch m st (i + 1)
    | _ ->
      let e = fixpoint st base_rank i and d = fixpoint st base_deadline i in
      if t.eff <> e || t.effdl <> d then
        Some
          (Printf.sprintf
             "%s: effective (rank %d, deadline %d) but inheritance fixpoint \
              gives (rank %d, deadline %d)"
             m.tasks.(i).task_name t.eff t.effdl e d)
      else pi_mismatch m st (i + 1)

let pi =
  {
    name = "pi";
    doc = "effective priorities equal the inheritance fixpoint";
    timing_sensitive = false;
    on_state =
      (fun m st ->
        match find_cycle st with
        | Some _ -> None (* fixpoint undefined; the deadlock prop owns this *)
        | None -> pi_mismatch m st 0);
    on_note = no_note;
  }

(* --- structural invariants ------------------------------------------ *)

(* A check raises the first failure, in the fixed order of its tests;
   each message is built only once its condition has failed. *)
exception Fail of string

let fail fmt = Printf.ksprintf (fun msg -> raise (Fail msg)) fmt

let first_failure check m st =
  match check m st with () -> None | exception Fail msg -> Some msg

let structure (m : Machine.t) (st : State.t) =
  let runners = ref 0 in
  for i = 0 to Array.length st.tasks - 1 do
    match st.tasks.(i).mode with State.Run -> incr runners | _ -> ()
  done;
  if !runners > 1 then fail "%d tasks running at once" !runners;
  for s = 0 to Array.length st.sem_val - 1 do
    let v = st.sem_val.(s) in
    if not (v >= 0 && v <= m.sem_initial.(s)) then
      fail "sem %d value %d outside [0,%d]" m.sem_ids.(s) v m.sem_initial.(s);
    if v <> 0 && State.has_waiter st.tasks Sem s then
      fail "sem %d available (value %d) yet has waiters" m.sem_ids.(s) v;
    match st.sem_holder.(s) with
    | -1 -> ()
    | h ->
      if m.sem_initial.(s) <> 1 then
        fail "counting sem %d has a tracked holder" m.sem_ids.(s);
      if v <> 0 then fail "sem %d held yet value %d" m.sem_ids.(s) v;
      if not (mem_int s st.tasks.(h).held) then
        fail "sem %d holder %s does not list it as held" m.sem_ids.(s)
          m.tasks.(h).task_name;
      (match st.tasks.(h).mode with
      | State.BSem s' when s' = s ->
        fail "sem %d holder %s blocked on its own sem" m.sem_ids.(s)
          m.tasks.(h).task_name
      | _ -> ())
  done;
  for b = 0 to Array.length st.mb_occ - 1 do
    let occ = st.mb_occ.(b) in
    if not (occ >= 0 && occ <= m.mb_cap.(b)) then
      fail "mailbox %d occupancy %d outside [0,%d]" m.mb_ids.(b) occ
        m.mb_cap.(b);
    if occ <> m.mb_cap.(b) && State.has_waiter st.tasks Send b then
      fail "mailbox %d has blocked senders yet %d/%d slots" m.mb_ids.(b) occ
        m.mb_cap.(b);
    if occ <> 0 && State.has_waiter st.tasks Recv b then
      fail "mailbox %d has blocked receivers yet occupancy %d" m.mb_ids.(b)
        occ
  done;
  for w = 0 to Array.length st.wq_sig - 1 do
    let n = st.wq_sig.(w) in
    if n < 0 then fail "wait queue %d pending count %d" m.wq_ids.(w) n
  done;
  for i = 0 to Array.length st.tasks - 1 do
    let t = st.tasks.(i) and len = Array.length m.tasks.(i).code in
    if not (t.pc >= 0 && t.pc <= len) then
      fail "%s pc %d outside [0,%d]" m.tasks.(i).task_name t.pc len;
    if t.rem < 0 then fail "%s negative remaining burst" m.tasks.(i).task_name
  done

let invariants =
  {
    name = "invariants";
    doc = "structural kernel-state invariants hold everywhere";
    timing_sensitive = false;
    on_state = first_failure structure;
    on_note =
      (fun _ ~at:_ -> function
        | State.Fault msg -> Some msg
        | _ -> None);
  }

(* --- tear-freedom ---------------------------------------------------- *)

let tear =
  {
    name = "tear";
    doc = "no state-message read is torn by concurrent writes";
    timing_sensitive = false;
    on_state = no_state;
    on_note =
      (fun m ~at:_ -> function
        | State.Torn { idx; sm; writes } ->
          Some
            (Printf.sprintf
               "%s read state msg %d torn: %d writes completed mid-read \
                (depth %d admits at most %d)"
               m.tasks.(idx).task_name m.sm_ids.(sm) writes m.sm_depth.(sm)
               (m.sm_depth.(sm) - 2))
        | _ -> None);
  }

(* --- memory safety ---------------------------------------------------- *)

let rec blocks_of p = function
  | [] -> 0
  | (q, n) :: tl -> if q = p then n else blocks_of p tl

let pools (m : Machine.t) (st : State.t) =
  for p = 0 to Array.length st.pool_occ - 1 do
    let occ = st.pool_occ.(p) in
    if not (occ >= 0 && occ <= m.pool_cap.(p)) then
      fail "pool %d occupancy %d outside [0,%d]" m.pool_ids.(p) occ
        m.pool_cap.(p);
    let owned = ref 0 in
    for i = 0 to Array.length st.tasks - 1 do
      owned := !owned + blocks_of p st.tasks.(i).live
    done;
    if !owned <> occ then
      fail "pool %d: tasks hold %d block(s) yet occupancy is %d" m.pool_ids.(p)
        !owned occ
  done

let mem =
  {
    name = "mem";
    doc = "block pools never over-commit, deny, or leak";
    timing_sensitive = false;
    on_state = first_failure pools;
    on_note =
      (fun m ~at -> function
        | State.Oom { idx; pool } ->
          Some
            (Printf.sprintf "%s denied a block of pool %d (exhausted) at %dns"
               m.tasks.(idx).task_name m.Machine.pool_ids.(pool) at)
        | State.Leak { idx; pool; count } ->
          Some
            (Printf.sprintf
               "%s leaked %d block(s) of pool %d at job end"
               m.tasks.(idx).task_name count m.Machine.pool_ids.(pool))
        | _ -> None);
  }

(* --- deadline safety -------------------------------------------------- *)

let deadline =
  {
    name = "deadline";
    doc = "no deadline miss up to the horizon";
    timing_sensitive = true;
    on_state = no_state;
    on_note =
      (fun m ~at -> function
        | State.Miss { idx } ->
          Some
            (Printf.sprintf "%s missed its deadline at %dns"
               m.tasks.(idx).task_name at)
        | _ -> None);
  }

let all = [ deadlock; pi; invariants; tear; mem; deadline ]
let names = List.map (fun p -> p.name) all
let by_name n = List.find_opt (fun p -> p.name = n) all

let rec check_state props m st =
  match props with
  | [] -> None
  | p :: rest -> (
    match p.on_state m st with
    | Some msg -> Some (p.name, msg)
    | None -> check_state rest m st)

let rec check_note props m ~at n =
  match props with
  | [] -> None
  | p :: rest -> (
    match p.on_note m ~at n with
    | Some msg -> Some (p.name, msg)
    | None -> check_note rest m ~at n)
