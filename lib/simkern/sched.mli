(** Deterministic cooperative thread scheduler over virtual time.

    The simulator models POSIX threads as cooperative fibers (OCaml 5
    effects) with per-thread virtual clocks measured in CPU cycles. The
    scheduler is a conservative discrete-event loop: it always resumes the
    runnable thread with the smallest clock, so cross-thread interactions
    (mutexes, message queues) observe a causally consistent order and every
    run is reproducible.

    A thread advances its own clock with {!charge}; it never pre-empts.
    Blocking primitives ({!suspend}, {!Mutex}, {!Cond}, {!join}) hand
    control back to the scheduler; when woken at virtual time [at], the
    thread's clock becomes [max clock at], which is how waiting time
    manifests. *)

type t
type tid = int

type outcome =
  | Completed
  | Failed of exn
      (** The thread died with an uncaught exception — for a simulated
          process this is the analogue of crashing on an unhandled
          signal. *)

exception Deadlock of string
(** Raised by {!run} when every remaining thread is blocked. *)

exception Killed
(** Delivered into a thread terminated with {!kill}. *)

val create : unit -> t

val spawn : t -> ?name:string -> (unit -> unit) -> tid
(** Create a thread. When called from inside a running thread the child's
    clock starts at the parent's current time; otherwise at 0. Tids come
    from a counter that {!suspend_timeout} also draws from, so they
    increase but can have gaps. *)

val run : t -> unit
(** Execute until no thread is runnable. @raise Deadlock if threads remain
    blocked with nothing to wake them. *)

val outcome : t -> tid -> outcome option
(** [None] while the thread has not finished. *)

val outcomes : t -> (tid * string * outcome) list
(** All finished threads, in tid order. *)

val horizon : t -> float
(** Largest clock reached by any thread, or by any {!suspend_timeout}
    deadline that fired (a deadline that fires after its waiter was woken
    still counts) — the makespan of the simulation, used for throughput
    computations. *)

(** The functions below may only be called from inside a running thread. *)

val self : unit -> tid
val self_name : unit -> string

val now : unit -> float
(** Current thread's clock, in cycles. *)

val charge : float -> unit
(** Advance the current thread's clock by the given number of cycles. *)

val yield : unit -> unit
(** Reschedule; another thread with a smaller clock may run first. *)

val sleep : float -> unit
(** [charge] then [yield]. *)

val wait_until : float -> unit
(** Advance the current thread's clock to [at] (no-op if already past),
    accounting the jump as waiting rather than work — e.g. a blocking read
    whose data arrives at a known time. *)

val thread_clock : t -> tid -> float option
val thread_waited : t -> tid -> float option

val busy_fraction : t -> tid -> float option
(** Fraction of the simulation span the thread spent computing rather
    than waiting — CPU utilization for saturation analysis. *)

type wake = at:float -> unit
(** Wake callback handed to a suspension. Calling it more than once, or
    after the thread was woken through another path, is a no-op. *)

val suspend : (wake -> unit) -> unit
(** Block the current thread. The registration function receives the wake
    callback and must arrange for it to be invoked later (e.g. stash it in
    a wait queue). *)

val suspend_timeout : deadline:float -> (wake -> unit) -> unit
(** {!suspend} with a deadline: if no other wake arrives first, the
    scheduler wakes the thread at [deadline] itself (its clock jumps there
    and the jump counts as waited time). Whichever wake comes first wins;
    the other is a no-op, as is the deadline after a {!kill}. The caller
    re-checks its condition on return, as after any suspension.

    The deadline is a run-queue entry, not a thread: it takes the next tid
    from the counter {!spawn} uses (so same-time events keep their order
    as if a timer thread had been spawned here) but never appears in
    {!outcomes}. For the same reason the trace hook sees it as a
    [Spawned] child of the waiter. *)

val join : tid -> unit
(** Block until the given thread finishes. Does not re-raise its
    failure — inspect {!outcome}. *)

val kill : t -> tid -> unit
(** Terminate a thread: {!Killed} is raised inside it at its next
    resumption point, so handlers and finalizers unwind as for any fatal
    exception (the victim's outcome is [Failed Killed] unless it catches).
    A blocked victim is made runnable immediately; killing a finished or
    unknown thread is a no-op. Fault-injection uses this to model the
    scheduler-level loss of a thread. *)

val current : unit -> t
(** The scheduler driving the calling thread. *)

val in_thread : unit -> bool
(** Whether the caller is executing inside a simulated thread. *)

(** {1 Synchronization trace hook}

    The happens-before skeleton of a run, reported to an external
    observer: spawn and join edges, and exclusive/shared lock transfers
    ({!Mutex} and the two sides of {!Rwlock}; {!Cond} needs no events of
    its own because its synchronization is carried by the mutex it is
    used with). The race detector ({!Analysis.Race}) installs the hook.

    Emission is purely host-side — no virtual time is charged and no
    scheduling decision changes — so installing a hook cannot perturb a
    deterministic run. Lock events carry a process-wide lock id shared
    between mutexes and rwlocks ({!Mutex.id} / {!Rwlock.id}). *)

type trace_event =
  | Spawned of { parent : tid; child : tid }
      (** [parent = -1] when spawned from outside the simulation. *)
  | Joined of { waiter : tid; joined : tid }
  | Locked of { lock : int; tid : tid }
      (** Exclusive acquisition (mutex lock or rwlock write lock). *)
  | Unlocked of { lock : int; tid : tid }
  | Rd_locked of { lock : int; tid : tid }
  | Rd_unlocked of { lock : int; tid : tid }

val set_trace_hook : (trace_event -> unit) option -> unit
(** Install (or clear, with [None]) the single trace-hook slot. *)

(** Mutual exclusion with virtual-time contention accounting. Unlock hands
    the lock directly to the longest-waiting thread. *)
module Mutex : sig
  type mutex

  val create : unit -> mutex
  val lock : mutex -> unit
  val unlock : mutex -> unit
  val with_lock : mutex -> (unit -> 'a) -> 'a

  val id : mutex -> int
  (** Stable id in the shared mutex/rwlock namespace (trace events). *)

  val contentions : mutex -> int
  (** Number of lock acquisitions that had to wait. *)

  val wait_cycles : mutex -> float
  (** Total virtual time spent waiting on this mutex. *)
end

(** Reader-writer lock (writer-preferring, as glibc's
    pthread_rwlock with the writer-nonrecursive policy). *)
module Rwlock : sig
  type rw

  val create : unit -> rw
  val rd_lock : rw -> unit
  val rd_unlock : rw -> unit
  val wr_lock : rw -> unit
  val wr_unlock : rw -> unit
  val with_rd : rw -> (unit -> 'a) -> 'a
  val with_wr : rw -> (unit -> 'a) -> 'a

  val id : rw -> int
  (** Stable id in the shared mutex/rwlock namespace (trace events). *)

  val readers : rw -> int
  (** Current read-side holders (test hook). *)
end

(** Condition variables (Mesa semantics). *)
module Cond : sig
  type cond

  val create : unit -> cond
  val wait : cond -> Mutex.mutex -> unit
  val signal : cond -> unit
  val broadcast : cond -> unit
end
