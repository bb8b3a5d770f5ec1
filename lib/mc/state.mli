(** Pure explorer state, with a canonical encoding for visited-set
    pruning.

    Everything the transition relation can observe lives here as a
    plain immutable value: per-task control state, semaphore values and
    holders, wait-queue pending-signal counts, mailbox occupancy,
    state-message sequence numbers, and the next scheduled arrival of
    every release/interrupt source.  Deliberately absent: blocked-task
    queue orderings (derived from task modes and effective priorities,
    so they cannot drift out of sync with them) and statistics like
    response times (reported as {!note}s, never stored — a state that
    differs only in its best-seen response must hash equal or pruning
    collapses).

    The canonical encoding rebases every absolute instant to the
    current virtual time and keeps only the clock's residue modulo the
    hyperperiod, so states one hyperperiod apart with identical futures
    coincide.  {!key} writes that canonical value straight into a byte
    string: every int as a zigzag LEB128 varint (self-delimiting, any
    sign or magnitude, [max_int] included), every variable-length list
    ([held], [pending], [live]) prefixed with its length, every variant
    as a tag followed by exactly the fields that tag carries.  The
    fields appear in a fixed order and every array has the length the
    machine fixes, so the byte string is a prefix-free code for the
    canonical value: within one machine two states get equal keys
    exactly when their canonical values are equal.  Pruning is exact —
    no hash can collide it into unsoundness.

    A [t] is never mutated once built, so many holders may share one.
    The transition relation ({!Step}) works on a private mutable copy;
    its per-micro-step property probe sees a [t] whose arrays {e are}
    that working copy's (a read-only view, valid only during the
    probe), and only the state at a decision point is copied out.  The
    explorer's stack holds [(parent state, choice)] frames: all the
    children of one decision point share the parent, and each child's
    choice is applied inside its own expansion's working copy. *)

(** Next arrival of a release or interrupt source. *)
type nr =
  | At of int  (** scheduled absolute instant *)
  | Never  (** source chosen silent (sporadic only) *)
  | Choose of int * int
      (** unresolved: the checker must fork over \{lo, hi\} (plus
          [Never] for sporadic tasks) before time may pass *)

type mode =
  | Idle  (** between jobs *)
  | Ready
  | Run
  | BSem of int
  | BWait of int
  | BTimed of int * int  (** wait queue, absolute timeout *)
  | BDelay of int  (** absolute wake-up *)
  | BSend of int
  | BRecv of int

type tstate = {
  mode : mode;
  pc : int;
  rem : int;  (** ns left of the current [ICompute] burst; 0 = fresh *)
  rel : int;  (** absolute release of the current job *)
  dl : int;  (** absolute deadline of the current job *)
  effdl : int;  (** deadline after inheritance (EDF dispatch key) *)
  eff : int;  (** priority rank after inheritance (FP dispatch key) *)
  inh : bool;  (** currently boosted by priority inheritance *)
  held : int list;  (** semaphore indices, most recently taken first *)
  next_rel : nr;
  pending : int list;  (** backlogged release instants, oldest first *)
  dl_check : int;  (** absolute miss-probe instant; [max_int] = none *)
  read_sm : int;  (** state message mid-read, -1 = none *)
  read_seq : int;  (** sequence snapshot taken at [ISread_begin] *)
  live : (int * int) list;
      (** blocks the current job holds, [(pool index, count)]; sorted
          by pool index with zero entries dropped, so it is canonical
          as stored *)
  brs : int;
      (** branch outcomes consumed this job, labelling replayed
          {!Sim.Trace.Branch} entries with the kernel's input-bit
          index; excluded from {!key} — the pc determines the future *)
}

type t = {
  now : int;
  tasks : tstate array;  (** indexed like [Machine.tasks] *)
  sem_val : int array;
  sem_holder : int array;  (** task index, -1 = none *)
  wq_sig : int array;  (** pending (saved) signals *)
  mb_occ : int array;
  sm_seq : int array;
  pool_occ : int array;  (** blocks live pool-wide *)
  irq_next : nr array;
}

(** What a transition segment observed — consumed by properties and
    statistics, never part of the state. *)
type note =
  | Job_done of { idx : int; response : int }
  | Miss of { idx : int }
  | Torn of { idx : int; sm : int; writes : int }
      (** a read at depth [d] saw [writes >= d - 1] completed writes *)
  | Oom of { idx : int; pool : int }
      (** an allocation was denied: the pool was exhausted *)
  | Leak of { idx : int; pool : int; count : int }
      (** blocks still live when the job completed (then reclaimed) *)
  | Fault of string
      (** executed an operation the kernel would reject (e.g. releasing
          a semaphore held by someone else) *)

val init : Machine.t -> t
(** All tasks idle before their first release; sporadic tasks and
    interrupt sources start [Choose]-unresolved. *)

val key : Machine.t -> t -> string
(** Canonical encoding for the visited set (see above). *)

(** The kernel queues a blocked task can sit on. *)
type queue =
  | Sem  (** [BSem] *)
  | Wq  (** [BWait] or [BTimed] *)
  | Send  (** [BSend] *)
  | Recv  (** [BRecv] *)

val dispatch_key : Machine.t -> tstate -> int
(** The scheduler key of a task: [eff] under FP, [effdl] under EDF.
    Smaller dispatches first; equal keys fall back to the lower task
    index. *)

val waiters : Machine.t -> tstate array -> queue -> int -> int list
(** Tasks blocked on queue object [x], best {!dispatch_key} first.
    Derived from task modes, not stored — queue order cannot drift out
    of sync with the modes. *)

val first_waiter : Machine.t -> tstate array -> queue -> int -> int
(** The head of {!waiters}, or [-1]; allocates nothing. *)

val has_waiter : tstate array -> queue -> int -> bool
(** [waiters <> []], without building the list. *)

val pp : Machine.t -> Format.formatter -> t -> unit
val pp_note : Machine.t -> Format.formatter -> note -> unit
