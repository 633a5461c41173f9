open Effect
open Effect.Deep

type tid = int
type outcome = Completed | Failed of exn
type wake = at:float -> unit

exception Deadlock of string

(* Delivered into a thread killed with [kill]: it is raised at the
   victim's next resumption point, so Fun.protect finalizers and
   exception handlers run — the simulation analogue of a fatal signal
   that the runtime turns into an unwind. *)
exception Killed

type status = Ready | Running | Blocked | Done of outcome

type thread = {
  tid : int;
  name : string;
  mutable clock : float;
  mutable waited : float;  (* virtual time spent blocked or waiting *)
  mutable status : status;
  mutable entry : (unit -> unit) option;
  mutable cont : (unit, unit) continuation option;
  mutable susp_serial : int;
  mutable joiners : wake list;
  mutable killed : bool;
}

(* Placeholder for the run queue's empty slots; never scheduled. *)
let no_thread =
  {
    tid = -1;
    name = "";
    clock = 0.0;
    waited = 0.0;
    status = Done Completed;
    entry = None;
    cont = None;
    susp_serial = 0;
    joiners = [];
    killed = false;
  }

(* The run queue: a binary min-heap ordered by (key, id), stored as
   parallel arrays (keys unboxed in a float array) so a push allocates
   nothing and a pop hands back the thread record without a table
   lookup. Two kinds of entry share it:
   - a run entry ([serial] < 0) resumes its thread. Deletion is lazy: the
     entry is valid only if the thread is still Ready at exactly [key];
   - a timer entry ([serial] >= 0) is a timed suspension's deadline: it
     wakes its thread at [key] if the thread still sits in suspension
     number [serial], and does nothing otherwise.
   Ids are tids; a timer draws its id from the same counter, so same-time
   events keep one total order. *)
module Heap = struct
  type t = {
    mutable keys : float array;
    mutable ids : int array;
    mutable ths : thread array;
    mutable serials : int array;
    mutable n : int;
  }

  let create () =
    {
      keys = Array.make 64 0.0;
      ids = Array.make 64 0;
      ths = Array.make 64 no_thread;
      serials = Array.make 64 (-1);
      n = 0;
    }

  let grow h =
    let cap = 2 * Array.length h.keys in
    let extend a fill =
      let a' = Array.make cap fill in
      Array.blit a 0 a' 0 h.n;
      a'
    in
    h.keys <- extend h.keys 0.0;
    h.ids <- extend h.ids 0;
    h.ths <- extend h.ths no_thread;
    h.serials <- extend h.serials (-1)

  let[@inline] move h ~src ~dst =
    h.keys.(dst) <- h.keys.(src);
    h.ids.(dst) <- h.ids.(src);
    h.ths.(dst) <- h.ths.(src);
    h.serials.(dst) <- h.serials.(src)

  let[@inline] set h i key id th serial =
    h.keys.(i) <- key;
    h.ids.(i) <- id;
    h.ths.(i) <- th;
    h.serials.(i) <- serial

  (* Whether slot [i] orders strictly before (key, id). *)
  let[@inline] before h i key id =
    let k = h.keys.(i) in
    k < key || (k = key && h.ids.(i) < id)

  let push h key id th serial =
    if h.n = Array.length h.keys then grow h;
    let i = ref h.n in
    h.n <- h.n + 1;
    let sifting = ref true in
    while !sifting && !i > 0 do
      let p = (!i - 1) / 2 in
      if before h p key id then sifting := false
      else begin
        move h ~src:p ~dst:!i;
        i := p
      end
    done;
    set h !i key id th serial

  (* Drop the minimum (slot 0); the caller reads it first. *)
  let drop_top h =
    let n = h.n - 1 in
    h.n <- n;
    let key = h.keys.(n) and id = h.ids.(n) in
    let th = h.ths.(n) and serial = h.serials.(n) in
    (* Clear the vacated slot so a finished thread can be freed. *)
    h.ths.(n) <- no_thread;
    if n > 0 then begin
      let i = ref 0 and sifting = ref true in
      while !sifting do
        let l = (2 * !i) + 1 in
        if l >= n then sifting := false
        else begin
          let r = l + 1 in
          let c = if r < n && before h r h.keys.(l) h.ids.(l) then r else l in
          if before h c key id then begin
            move h ~src:c ~dst:!i;
            i := c
          end
          else sifting := false
        end
      done;
      set h !i key id th serial
    end
end

type t = {
  mutable next_tid : int;
  threads : (int, thread) Hashtbl.t;
  ready : Heap.t;
  mutable current : thread option;
  mutable running : bool;
  mutable horizon : float;
}

type _ Effect.t +=
  | Yield_eff : unit Effect.t
  | Suspend_eff : (wake -> unit) -> unit Effect.t
  | Suspend_timeout_eff : float * int * (wake -> unit) -> unit Effect.t

let active : t option ref = ref None

(* Synchronization trace hook (single slot, like [active]): when set, the
   scheduler reports the happens-before-relevant events — spawn/join
   edges and lock transfers — to an external observer (the race detector
   in lib/analysis installs one). Emission is host-side only: it charges
   no virtual time and takes no scheduling decision, so an installed hook
   cannot perturb a deterministic run. *)
type trace_event =
  | Spawned of { parent : tid; child : tid }
  | Joined of { waiter : tid; joined : tid }
  | Locked of { lock : int; tid : tid }
  | Unlocked of { lock : int; tid : tid }
  | Rd_locked of { lock : int; tid : tid }
  | Rd_unlocked of { lock : int; tid : tid }

let trace_hook : (trace_event -> unit) option ref = ref None
let set_trace_hook h = trace_hook := h
let trace ev = match !trace_hook with Some f -> f ev | None -> ()

(* Mutexes and rwlocks share one id namespace so lock-set observers can
   treat them uniformly. *)
let next_lock_id = ref 0

let fresh_lock_id () =
  let id = !next_lock_id in
  next_lock_id := id + 1;
  id

let create () =
  {
    next_tid = 0;
    threads = Hashtbl.create 64;
    ready = Heap.create ();
    current = None;
    running = false;
    horizon = 0.0;
  }

let current_thread () =
  match !active with
  | Some t -> (
      match t.current with
      | Some th -> th
      | None -> failwith "Sched: no current thread")
  | None -> failwith "Sched: not inside a simulation"

let in_thread () =
  match !active with Some t -> t.current <> None | None -> false

let current () =
  match !active with
  | Some t -> t
  | None -> failwith "Sched: not inside a simulation"

let self () = (current_thread ()).tid
let self_name () = (current_thread ()).name
let now () = (current_thread ()).clock

let charge c =
  let th = current_thread () in
  th.clock <- th.clock +. c

let make_ready t th =
  th.status <- Ready;
  Heap.push t.ready th.clock th.tid th (-1)

let spawn t ?name f =
  let tid = t.next_tid in
  t.next_tid <- tid + 1;
  let name = match name with Some n -> n | None -> Printf.sprintf "t%d" tid in
  let clock =
    match t.current with Some parent -> parent.clock | None -> 0.0
  in
  let th =
    {
      tid;
      name;
      clock;
      waited = 0.0;
      status = Ready;
      entry = Some f;
      cont = None;
      susp_serial = 0;
      joiners = [];
      killed = false;
    }
  in
  Hashtbl.replace t.threads tid th;
  Heap.push t.ready clock tid th (-1);
  trace
    (Spawned
       {
         parent = (match t.current with Some p -> p.tid | None -> -1);
         child = tid;
       });
  tid

let wake_at t th serial at =
  if th.susp_serial = serial && th.status = Blocked then begin
    if at > th.clock then th.waited <- th.waited +. (at -. th.clock);
    th.clock <- Float.max th.clock at;
    make_ready t th
  end

let wake_fn t th serial : wake = fun ~at -> wake_at t th serial at

let finish t th oc =
  th.status <- Done oc;
  th.cont <- None;
  if th.clock > t.horizon then t.horizon <- th.clock;
  let joiners = th.joiners in
  th.joiners <- [];
  List.iter (fun w -> w ~at:th.clock) joiners

(* Park the thread in a new suspension; wakes carry its serial. *)
let block th k =
  th.cont <- Some k;
  th.status <- Blocked;
  th.susp_serial <- th.susp_serial + 1

let handler t th =
  {
    retc = (fun () -> finish t th Completed);
    exnc = (fun e -> finish t th (Failed e));
    effc =
      (fun (type a) (eff : a Effect.t) ->
        match eff with
        | Yield_eff ->
            Some
              (fun (k : (a, unit) continuation) ->
                th.cont <- Some k;
                make_ready t th)
        | Suspend_eff register ->
            Some
              (fun (k : (a, unit) continuation) ->
                block th k;
                register (wake_fn t th th.susp_serial))
        | Suspend_timeout_eff (deadline, id, register) ->
            Some
              (fun (k : (a, unit) continuation) ->
                block th k;
                Heap.push t.ready deadline id th th.susp_serial;
                register (wake_fn t th th.susp_serial))
        | _ -> None);
  }

let resume t th =
  th.status <- Running;
  t.current <- Some th;
  (if th.killed then begin
     th.entry <- None;
     match th.cont with
     | Some k ->
         th.cont <- None;
         discontinue k Killed
     | None -> finish t th (Failed Killed)
   end
   else
     match th.entry with
     | Some f ->
         th.entry <- None;
         match_with f () (handler t th)
     | None -> (
         match th.cont with
         | Some k ->
             th.cont <- None;
             continue k ()
         | None -> failwith "Sched: resuming thread without continuation"));
  t.current <- None

let blocked_threads t =
  Hashtbl.fold
    (fun _ th acc -> if th.status = Blocked then th :: acc else acc)
    t.threads []

let run t =
  if t.running then failwith "Sched.run: already running";
  let saved = !active in
  active := Some t;
  t.running <- true;
  let restore () =
    t.running <- false;
    active := saved
  in
  (try
     let h = t.ready in
     while h.Heap.n > 0 do
       let key = h.Heap.keys.(0) and th = h.Heap.ths.(0) in
       let serial = h.Heap.serials.(0) in
       Heap.drop_top h;
       if serial >= 0 then begin
         (* A timed suspension's deadline: it ends the makespan no earlier
            than the deadline, whether or not the waiter still needs it. *)
         if key > t.horizon then t.horizon <- key;
         wake_at t th serial key
       end
       else
         match th.status with
         | Ready when th.clock = key -> resume t th
         | _ -> () (* stale entry *)
     done
   with e ->
     restore ();
     raise e);
  restore ();
  match blocked_threads t with
  | [] -> ()
  | blocked ->
      let names = String.concat ", " (List.map (fun th -> th.name) blocked) in
      raise (Deadlock names)

let outcome t tid =
  match Hashtbl.find_opt t.threads tid with
  | Some { status = Done oc; _ } -> Some oc
  | _ -> None

let outcomes t =
  let finished =
    Hashtbl.fold
      (fun tid th acc ->
        match th.status with
        | Done oc -> (tid, th.name, oc) :: acc
        | Ready | Running | Blocked -> acc)
      t.threads []
  in
  List.sort (fun (a, _, _) (b, _, _) -> compare a b) finished

let horizon t =
  Hashtbl.fold (fun _ th acc -> Float.max acc th.clock) t.threads t.horizon

(* Advancing virtual time is a scheduling point: the thread re-queues at
   the target clock so every runnable thread at an earlier virtual time
   runs first. Without the yield, a thread that waits to a far deadline
   teleports past its contemporaries and acts (e.g. fires a timeout
   wake-up) before events that happen earlier in virtual time — a timed
   receive would then charge its full deadline even when the reply was
   already in flight. Once no runnable thread sits below [at], nothing
   can create an earlier event, so resuming is safe. *)
let wait_until at =
  let th = current_thread () in
  if at > th.clock then begin
    th.waited <- th.waited +. (at -. th.clock);
    th.clock <- at;
    perform Yield_eff
  end

let thread_clock t tid =
  Option.map (fun th -> th.clock) (Hashtbl.find_opt t.threads tid)

let thread_waited t tid =
  Option.map (fun th -> th.waited) (Hashtbl.find_opt t.threads tid)

let busy_fraction t tid =
  match Hashtbl.find_opt t.threads tid with
  | None -> None
  | Some th ->
      let span = horizon t in
      if span <= 0.0 then None
      else Some ((th.clock -. th.waited) /. span)

let yield () = perform Yield_eff
let suspend register = perform (Suspend_eff register)

(* The timer reports itself as a child of the waiter, so a trace
   observer's happens-before skeleton (and its edge count) is the one a
   spawned timer thread would have produced. *)
let suspend_timeout ~deadline register =
  let t = current () in
  let id = t.next_tid in
  t.next_tid <- id + 1;
  trace (Spawned { parent = self (); child = id });
  perform (Suspend_timeout_eff (deadline, id, register))

let sleep c =
  charge c;
  yield ()

(* Kill a thread: it unwinds with [Killed] at its next resumption. A
   blocked victim is made runnable immediately (its pending wake-ups are
   invalidated); a ready one dies when the scheduler picks it. Killing a
   finished thread is a no-op. The victim's clock is advanced to the
   killer's so the death is causally ordered. *)
let kill t tid =
  match Hashtbl.find_opt t.threads tid with
  | None -> ()
  | Some ({ status = Done _; _ }) -> ()
  | Some th ->
      th.killed <- true;
      let at = match t.current with Some cur -> cur.clock | None -> th.clock in
      if at > th.clock then begin
        th.waited <- th.waited +. (at -. th.clock);
        th.clock <- at
      end;
      if th.status = Blocked then begin
        th.susp_serial <- th.susp_serial + 1;
        make_ready t th
      end
      else if th.status = Ready then
        (* Re-queue at the (possibly advanced) clock; the stale heap entry
           is skipped by the clock check in [run]. *)
        Heap.push t.ready th.clock th.tid th (-1)

let join tid =
  let t = current () in
  match Hashtbl.find_opt t.threads tid with
  | None -> invalid_arg "Sched.join: unknown thread"
  | Some th ->
      (match th.status with
      | Done _ -> ()
      | Ready | Running | Blocked ->
          suspend (fun wake -> th.joiners <- wake :: th.joiners));
      (* The edge exists even when the target already finished: the
         joiner now happens-after everything the joined thread did. *)
      trace (Joined { waiter = self (); joined = tid })

module Mutex = struct
  type mutex = {
    id : int;
    mutable locked : bool;
    mutable owner : tid;
    waiters : wake Queue.t;
    mutable contentions : int;
    mutable wait_cycles : float;
  }

  let create () =
    { id = fresh_lock_id (); locked = false; owner = -1; waiters = Queue.create (); contentions = 0; wait_cycles = 0.0 }

  let id m = m.id

  let lock m =
    if not m.locked then begin
      m.locked <- true;
      m.owner <- self ()
    end
    else begin
      m.contentions <- m.contentions + 1;
      let t0 = now () in
      suspend (fun wake -> Queue.add wake m.waiters);
      (* The lock was handed to us by [unlock]; it is still marked locked. *)
      m.owner <- self ();
      m.wait_cycles <- m.wait_cycles +. (now () -. t0)
    end;
    trace (Locked { lock = m.id; tid = m.owner })

  let unlock m =
    if not m.locked then invalid_arg "Mutex.unlock: not locked";
    (match !trace_hook with
    | Some f -> f (Unlocked { lock = m.id; tid = self () })
    | None -> ());
    match Queue.take_opt m.waiters with
    | None ->
        m.locked <- false;
        m.owner <- -1
    | Some wake ->
        (* Direct handoff: ownership transfers when the waiter resumes. *)
        wake ~at:(now ())

  let with_lock m f =
    lock m;
    match f () with
    | v ->
        unlock m;
        v
    | exception e ->
        unlock m;
        raise e

  let contentions m = m.contentions
  let wait_cycles m = m.wait_cycles
end

module Rwlock = struct
  type rw = {
    id : int;
    mutable active_readers : int;
    mutable writer : bool;
    mutable waiting_writers : int;
    reader_q : wake Queue.t;
    writer_q : wake Queue.t;
  }

  let create () =
    {
      id = fresh_lock_id ();
      active_readers = 0;
      writer = false;
      waiting_writers = 0;
      reader_q = Queue.create ();
      writer_q = Queue.create ();
    }

  let id rw = rw.id

  (* Mesa-style: a woken waiter re-checks its condition and may sleep
     again; wake-ups are therefore conservative (broadcasts). *)
  let rec rd_lock rw =
    if rw.writer || rw.waiting_writers > 0 then begin
      suspend (fun wake -> Queue.add wake rw.reader_q);
      rd_lock rw
    end
    else begin
      rw.active_readers <- rw.active_readers + 1;
      trace (Rd_locked { lock = rw.id; tid = self () })
    end

  let drain q =
    let t = now () in
    let rec go () =
      match Queue.take_opt q with
      | Some wake ->
          wake ~at:t;
          go ()
      | None -> ()
    in
    go ()

  let rd_unlock rw =
    if rw.active_readers <= 0 then invalid_arg "Rwlock.rd_unlock: not read-locked";
    (match !trace_hook with
    | Some f -> f (Rd_unlocked { lock = rw.id; tid = self () })
    | None -> ());
    rw.active_readers <- rw.active_readers - 1;
    if rw.active_readers = 0 then drain rw.writer_q

  let rec wr_lock rw =
    if rw.writer || rw.active_readers > 0 then begin
      rw.waiting_writers <- rw.waiting_writers + 1;
      suspend (fun wake -> Queue.add wake rw.writer_q);
      rw.waiting_writers <- rw.waiting_writers - 1;
      wr_lock rw
    end
    else begin
      rw.writer <- true;
      (* The write side is an exclusive lock: same event as a mutex. *)
      trace (Locked { lock = rw.id; tid = self () })
    end

  let wr_unlock rw =
    if not rw.writer then invalid_arg "Rwlock.wr_unlock: not write-locked";
    (match !trace_hook with
    | Some f -> f (Unlocked { lock = rw.id; tid = self () })
    | None -> ());
    rw.writer <- false;
    if Queue.is_empty rw.writer_q then drain rw.reader_q else drain rw.writer_q

  let with_rd rw f =
    rd_lock rw;
    match f () with
    | v ->
        rd_unlock rw;
        v
    | exception e ->
        rd_unlock rw;
        raise e

  let with_wr rw f =
    wr_lock rw;
    match f () with
    | v ->
        wr_unlock rw;
        v
    | exception e ->
        wr_unlock rw;
        raise e

  let readers rw = rw.active_readers
end

module Cond = struct
  type cond = { waiters : wake Queue.t }

  let create () = { waiters = Queue.create () }

  let wait c m =
    (* Enqueue before releasing the mutex so a signal between unlock and
       suspend cannot be lost; suspension registration happens atomically
       with respect to other threads because fibers are cooperative. *)
    Mutex.unlock m;
    suspend (fun wake -> Queue.add wake c.waiters);
    Mutex.lock m

  let signal c =
    match Queue.take_opt c.waiters with
    | Some wake -> wake ~at:(now ())
    | None -> ()

  let broadcast c =
    let t = now () in
    let rec drain () =
      match Queue.take_opt c.waiters with
      | Some wake ->
          wake ~at:t;
          drain ()
      | None -> ()
    in
    drain ()
end
