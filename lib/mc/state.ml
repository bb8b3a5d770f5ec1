type nr = At of int | Never | Choose of int * int

type mode =
  | Idle
  | Ready
  | Run
  | BSem of int
  | BWait of int
  | BTimed of int * int
  | BDelay of int
  | BSend of int
  | BRecv of int

type tstate = {
  mode : mode;
  pc : int;
  rem : int;
  rel : int;
  dl : int;
  effdl : int;
  eff : int;
  inh : bool;
  held : int list;
  next_rel : nr;
  pending : int list;
  dl_check : int;
  read_sm : int;
  read_seq : int;
  live : (int * int) list;
      (* pool index -> blocks this job holds; sorted, no zero entries *)
  brs : int;
      (* branch outcomes consumed this job — labels replayed [Branch]
         trace entries with the kernel's input-bit index; excluded from
         the canonical key because the pc alone determines the future *)
}

type t = {
  now : int;
  tasks : tstate array;
  sem_val : int array;
  sem_holder : int array;
  wq_sig : int array;
  mb_occ : int array;
  sm_seq : int array;
  pool_occ : int array;
  irq_next : nr array;
}

type note =
  | Job_done of { idx : int; response : int }
  | Miss of { idx : int }
  | Torn of { idx : int; sm : int; writes : int }
  | Oom of { idx : int; pool : int }
  | Leak of { idx : int; pool : int; count : int }
  | Fault of string

let init (m : Machine.t) =
  let tasks =
    Array.map
      (fun (mt : Machine.mtask) ->
        let next_rel =
          match mt.release with
          | Machine.Periodic -> At mt.phase
          | Machine.Sporadic { min_ia; max_ia } ->
            (* first arrival anywhere in [phase, phase + window slack],
               or never *)
            Choose (mt.phase, mt.phase + (max_ia - min_ia))
        in
        {
          mode = Idle;
          pc = 0;
          rem = 0;
          rel = 0;
          (* the first job's deadline, so the declarative PI fixpoint
             ([Props]) holds of the initial state too *)
          dl = mt.phase + mt.deadline;
          effdl = mt.phase + mt.deadline;
          eff = mt.idx;
          inh = false;
          held = [];
          next_rel;
          pending = [];
          dl_check = max_int;
          read_sm = -1;
          read_seq = 0;
          live = [];
          brs = 0;
        })
      m.tasks
  in
  {
    now = 0;
    tasks;
    sem_val = Array.copy m.sem_initial;
    sem_holder = Array.make (Array.length m.sem_ids) (-1);
    wq_sig = Array.make (Array.length m.wq_ids) 0;
    mb_occ = Array.make (Array.length m.mb_ids) 0;
    sm_seq = Array.make (Array.length m.sm_ids) 0;
    pool_occ = Array.make (Array.length m.pool_ids) 0;
    irq_next =
      Array.map (fun (s : Machine.irq_src) -> Choose (s.min_ia, s.max_ia)) m.irqs;
  }

type queue = Sem | Wq | Send | Recv

let dispatch_key (m : Machine.t) (t : tstate) =
  match m.sched with Machine.Fp -> t.eff | Machine.Edf -> t.effdl

let waits_on q x mode =
  match (q, mode) with
  | Sem, BSem s | Wq, (BWait s | BTimed (s, _)) | Send, BSend s | Recv, BRecv s
    ->
    s = x
  | _ -> false

(* [a] dispatches before [b]: smaller key, then smaller index *)
let before m tasks a b =
  let ka = dispatch_key m tasks.(a) and kb = dispatch_key m tasks.(b) in
  ka < kb || (ka = kb && a < b)

let waiters m tasks q x =
  let out = ref [] in
  for i = Array.length tasks - 1 downto 0 do
    if waits_on q x tasks.(i).mode then out := i :: !out
  done;
  List.stable_sort (fun a b -> if before m tasks a b then -1 else 1) !out

let first_waiter m tasks q x =
  let best = ref (-1) in
  for i = 0 to Array.length tasks - 1 do
    if waits_on q x tasks.(i).mode && (!best < 0 || before m tasks i !best)
    then best := i
  done;
  !best

let has_waiter tasks q x =
  let rec go i = i < Array.length tasks && (waits_on q x tasks.(i).mode || go (i + 1)) in
  go 0

(* Canonical encoding.  All absolute instants become offsets from
   [now]; the clock survives only as its residue modulo the
   hyperperiod; state-message sequence numbers survive only as the
   per-reader write delta (capped at the depth — beyond that the read
   is torn either way), since nothing else about an unbounded counter
   affects the future.  Job release times are dropped entirely: they
   feed only the response-time notes. *)

(* zigzag maps the signed word onto the unsigned one (0, -1, 1, -2, ...
   -> 0, 1, 2, 3, ...), a bijection on 63-bit words; LEB128 then writes
   7 bits per byte, high bit set on every byte but the last *)
let add_int b n =
  let z = ref ((n lsl 1) lxor (n asr (Sys.int_size - 1))) in
  while !z lsr 7 <> 0 do
    Buffer.add_char b (Char.unsafe_chr (!z land 0x7f lor 0x80));
    z := !z lsr 7
  done;
  Buffer.add_char b (Char.unsafe_chr !z)

let add_ints b f l =
  add_int b (List.length l);
  List.iter (fun x -> add_int b (f x)) l

let add_time b now t = add_int b (if t = max_int then max_int else t - now)

let add_nr b now = function
  | At t ->
    add_int b 0;
    add_int b (t - now)
  | Never -> add_int b 1
  | Choose (lo, hi) ->
    add_int b 2;
    add_int b (max lo now - now);
    add_int b (max hi now - now)

let add_mode b now = function
  | Idle -> add_int b 0
  | Ready -> add_int b 1
  | Run -> add_int b 2
  | BSem s -> add_int b 3; add_int b s
  | BWait w -> add_int b 4; add_int b w
  | BTimed (w, t) -> add_int b 5; add_int b w; add_int b (t - now)
  | BDelay t -> add_int b 6; add_int b (t - now)
  | BSend x -> add_int b 7; add_int b x
  | BRecv x -> add_int b 8; add_int b x

let key (m : Machine.t) st =
  let now = st.now in
  let b = Buffer.create (32 + (24 * Array.length st.tasks)) in
  add_int b (now mod m.hyperperiod);
  Array.iter
    (fun t ->
      add_mode b now t.mode;
      add_int b t.pc;
      add_int b t.rem;
      add_time b now t.dl;
      add_time b now t.effdl;
      add_int b t.eff;
      add_int b (Bool.to_int t.inh);
      add_ints b Fun.id t.held;
      add_nr b now t.next_rel;
      add_ints b (fun r -> r - now) t.pending;
      add_time b now t.dl_check;
      add_int b t.read_sm;
      if t.read_sm >= 0 then
        add_int b
          (min (st.sm_seq.(t.read_sm) - t.read_seq) m.sm_depth.(t.read_sm));
      add_int b (List.length t.live);
      List.iter (fun (p, n) -> add_int b p; add_int b n) t.live)
    st.tasks;
  Array.iter (add_int b) st.sem_val;
  Array.iter (add_int b) st.sem_holder;
  Array.iter (add_int b) st.wq_sig;
  Array.iter (add_int b) st.mb_occ;
  Array.iter (add_int b) st.pool_occ;
  Array.iter (add_nr b now) st.irq_next;
  Buffer.contents b

let pp_mode (m : Machine.t) fmt = function
  | Idle -> Format.pp_print_string fmt "idle"
  | Ready -> Format.pp_print_string fmt "ready"
  | Run -> Format.pp_print_string fmt "run"
  | BSem s -> Format.fprintf fmt "blocked:sem%d" m.sem_ids.(s)
  | BWait w -> Format.fprintf fmt "blocked:wq%d" m.wq_ids.(w)
  | BTimed (w, t) -> Format.fprintf fmt "blocked:wq%d(timeout@%d)" m.wq_ids.(w) t
  | BDelay t -> Format.fprintf fmt "delay(until@%d)" t
  | BSend b -> Format.fprintf fmt "blocked:mb%d(send)" m.mb_ids.(b)
  | BRecv b -> Format.fprintf fmt "blocked:mb%d(recv)" m.mb_ids.(b)

let pp (m : Machine.t) fmt st =
  Format.fprintf fmt "@[<v>t=%dns@," st.now;
  Array.iteri
    (fun i (t : tstate) ->
      Format.fprintf fmt "  %s: %a pc=%d rem=%d eff=%d%s%a@,"
        m.tasks.(i).task_name (pp_mode m) t.mode t.pc t.rem t.eff
        (if t.inh then "*" else "")
        (fun fmt -> function
          | [] -> ()
          | held ->
            Format.fprintf fmt " held=[%s]"
              (String.concat ","
                 (List.map (fun s -> string_of_int m.sem_ids.(s)) held)))
        t.held)
    st.tasks;
  Array.iteri
    (fun s v ->
      Format.fprintf fmt "  sem%d: value=%d holder=%s@," m.sem_ids.(s) v
        (match st.sem_holder.(s) with
        | -1 -> "-"
        | h -> m.tasks.(h).task_name))
    st.sem_val;
  Array.iteri
    (fun p occ ->
      Format.fprintf fmt "  pool%d: live=%d/%d@," m.pool_ids.(p) occ
        m.pool_cap.(p))
    st.pool_occ;
  Format.fprintf fmt "@]"

let pp_note (m : Machine.t) fmt = function
  | Job_done { idx; response } ->
    Format.fprintf fmt "%s: job done, response %dns" m.tasks.(idx).task_name
      response
  | Miss { idx } ->
    Format.fprintf fmt "%s: DEADLINE MISS" m.tasks.(idx).task_name
  | Torn { idx; sm; writes } ->
    Format.fprintf fmt
      "%s: TORN READ of state msg %d (%d writes completed mid-read, depth %d)"
      m.tasks.(idx).task_name m.sm_ids.(sm) writes m.sm_depth.(sm)
  | Oom { idx; pool } ->
    Format.fprintf fmt "%s: POOL OOM on pool %d" m.tasks.(idx).task_name
      m.pool_ids.(pool)
  | Leak { idx; pool; count } ->
    Format.fprintf fmt "%s: LEAK of %d block(s) of pool %d at job end"
      m.tasks.(idx).task_name count m.pool_ids.(pool)
  | Fault msg -> Format.fprintf fmt "FAULT: %s" msg
