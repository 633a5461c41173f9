(* Tests for the simkern substrate: RNG determinism, virtual-time
   scheduling order, mutex handoff and contention accounting, condition
   variables, joins and failure reporting. *)

module Rng = Simkern.Rng
module Sched = Simkern.Sched
module Cost = Simkern.Cost

let check = Alcotest.check
let int = Alcotest.int
let bool = Alcotest.bool

(* {1 Rng} *)

let test_rng_determinism () =
  let a = Rng.create 42 and b = Rng.create 42 in
  for _ = 1 to 100 do
    check int "same stream" (Rng.int a 1_000_000) (Rng.int b 1_000_000)
  done

let test_rng_seed_sensitivity () =
  let a = Rng.create 1 and b = Rng.create 2 in
  let va = List.init 10 (fun _ -> Rng.int a 1_000_000) in
  let vb = List.init 10 (fun _ -> Rng.int b 1_000_000) in
  check bool "different streams" true (va <> vb)

let test_rng_split_independent () =
  let root = Rng.create 7 in
  let child = Rng.split root in
  let vr = List.init 10 (fun _ -> Rng.int root 1000) in
  let vc = List.init 10 (fun _ -> Rng.int child 1000) in
  check bool "independent" true (vr <> vc)

let test_rng_float_range () =
  let r = Rng.create 3 in
  for _ = 1 to 1000 do
    let f = Rng.float r in
    check bool "in [0,1)" true (f >= 0.0 && f < 1.0)
  done

let test_rng_shuffle_permutes () =
  let r = Rng.create 5 in
  let a = Array.init 50 Fun.id in
  Rng.shuffle r a;
  let sorted = Array.copy a in
  Array.sort compare sorted;
  check bool "still a permutation" true (sorted = Array.init 50 Fun.id);
  check bool "actually moved" true (a <> Array.init 50 Fun.id)

let rng_int_bounds =
  QCheck.Test.make ~name:"rng int stays in bounds" ~count:500
    QCheck.(pair small_int (int_range 1 10_000))
    (fun (seed, bound) ->
      let r = Rng.create seed in
      let v = Rng.int r bound in
      v >= 0 && v < bound)

(* {1 Sched} *)

let test_sched_runs_in_clock_order () =
  let t = Sched.create () in
  let order = ref [] in
  let mark label = order := label :: !order in
  let _ =
    Sched.spawn t ~name:"slow" (fun () ->
        Sched.charge 100.0;
        Sched.yield ();
        mark "slow")
  in
  let _ =
    Sched.spawn t ~name:"fast" (fun () ->
        Sched.charge 10.0;
        Sched.yield ();
        mark "fast")
  in
  Sched.run t;
  check (Alcotest.list Alcotest.string) "fast first" [ "fast"; "slow" ]
    (List.rev !order)

let test_sched_charge_advances_clock () =
  let t = Sched.create () in
  let final = ref 0.0 in
  let _ =
    Sched.spawn t (fun () ->
        Sched.charge 123.0;
        Sched.charge 77.0;
        final := Sched.now ())
  in
  Sched.run t;
  check (Alcotest.float 0.001) "clock" 200.0 !final

let test_sched_horizon_is_makespan () =
  let t = Sched.create () in
  let _ = Sched.spawn t (fun () -> Sched.charge 50.0) in
  let _ = Sched.spawn t (fun () -> Sched.charge 400.0) in
  let _ = Sched.spawn t (fun () -> Sched.charge 10.0) in
  Sched.run t;
  check (Alcotest.float 0.001) "horizon" 400.0 (Sched.horizon t)

let test_sched_join_waits () =
  let t = Sched.create () in
  let seen = ref false in
  let worker =
    Sched.spawn t ~name:"worker" (fun () ->
        Sched.charge 1000.0;
        seen := true)
  in
  let _ =
    Sched.spawn t ~name:"joiner" (fun () ->
        Sched.join worker;
        check bool "worker finished before join returned" true !seen;
        check bool "joiner clock caught up" true (Sched.now () >= 1000.0))
  in
  Sched.run t

let test_sched_failure_reported () =
  let t = Sched.create () in
  let tid = Sched.spawn t ~name:"crasher" (fun () -> failwith "boom") in
  Sched.run t;
  match Sched.outcome t tid with
  | Some (Sched.Failed (Failure m)) -> check Alcotest.string "msg" "boom" m
  | _ -> Alcotest.fail "expected Failed outcome"

let test_sched_deadlock_detected () =
  let t = Sched.create () in
  let m = Sched.Mutex.create () in
  let _ =
    Sched.spawn t (fun () ->
        Sched.Mutex.lock m;
        (* never unlocks; second thread blocks forever *)
        Sched.charge 1.0)
  in
  let _ = Sched.spawn t (fun () -> Sched.Mutex.lock m) in
  Alcotest.check_raises "deadlock"
    (Sched.Deadlock "t1")
    (fun () -> Sched.run t)

(* {1 Timed suspension} *)

let flt = Alcotest.float 0.0

(* Woken before its deadline, the waiter resumes at the wake time; the
   deadline entry fires later but must not wake the thread out of its
   next, unrelated suspension. *)
let test_timed_early_wake () =
  let t = Sched.create () in
  let early = ref None and later = ref None in
  let resumed = ref [] in
  let waiter =
    Sched.spawn t ~name:"waiter" (fun () ->
        Sched.suspend_timeout ~deadline:1_000.0 (fun w -> early := Some w);
        resumed := Sched.now () :: !resumed;
        Sched.charge 10.0;
        Sched.suspend (fun w -> later := Some w);
        resumed := Sched.now () :: !resumed)
  in
  let _ =
    Sched.spawn t ~name:"waker" (fun () ->
        Sched.charge 100.0;
        (Option.get !early) ~at:(Sched.now ());
        Sched.sleep 4_900.0;
        (Option.get !later) ~at:(Sched.now ()))
  in
  Sched.run t;
  check (Alcotest.list flt) "resumed at the wakes, not the deadline"
    [ 100.0; 5_000.0 ] (List.rev !resumed);
  check (Alcotest.option flt) "waited time" (Some 4_990.0)
    (Sched.thread_waited t waiter)

let test_timed_deadline_wake () =
  let t = Sched.create () in
  let woke = ref 0.0 in
  let waiter =
    Sched.spawn t ~name:"waiter" (fun () ->
        Sched.charge 200.0;
        Sched.suspend_timeout ~deadline:1_500.0 (fun _ -> ());
        woke := Sched.now ())
  in
  Sched.run t;
  check flt "clock jumps to the deadline" 1_500.0 !woke;
  check (Alcotest.option flt) "the jump is waited time" (Some 1_300.0)
    (Sched.thread_waited t waiter);
  check (Alcotest.option flt) "busy share excludes the wait"
    (Some (200.0 /. 1_500.0))
    (Sched.busy_fraction t waiter)

let test_timed_kill () =
  let t = Sched.create () in
  let victim =
    Sched.spawn t ~name:"victim" (fun () ->
        Sched.suspend_timeout ~deadline:10_000.0 (fun _ -> ()))
  in
  let _ =
    Sched.spawn t ~name:"killer" (fun () ->
        Sched.charge 300.0;
        Sched.kill (Sched.current ()) victim)
  in
  Sched.run t;
  (match Sched.outcome t victim with
  | Some (Sched.Failed Sched.Killed) -> ()
  | _ -> Alcotest.fail "victim not killed");
  check (Alcotest.option flt) "died at the killer's time" (Some 300.0)
    (Sched.thread_clock t victim)

(* The deadline draws its id from the tid counter when the wait starts,
   so at equal clocks it fires between the threads spawned before and
   after that point — and the waiter it readies runs by its own
   (smaller) tid. *)
let test_timed_same_clock_order () =
  let t = Sched.create () in
  let order = ref [] in
  let mark l = order := l :: !order in
  let late = ref (-1) in
  let a =
    Sched.spawn t ~name:"a" (fun () ->
        Sched.suspend_timeout ~deadline:500.0 (fun _ -> ());
        mark "a")
  in
  let b =
    Sched.spawn t ~name:"b" (fun () ->
        late :=
          Sched.spawn (Sched.current ()) ~name:"c" (fun () ->
              Sched.wait_until 500.0;
              mark "c");
        Sched.wait_until 500.0;
        mark "b")
  in
  Sched.run t;
  check (Alcotest.list int) "tids skip the timer's id" [ 0; 1; 3 ] [ a; b; !late ];
  check (Alcotest.list Alcotest.string) "same-clock order" [ "b"; "a"; "c" ]
    (List.rev !order)

let test_timed_horizon () =
  let t = Sched.create () in
  let wake = ref None in
  let _ =
    Sched.spawn t ~name:"waiter" (fun () ->
        Sched.suspend_timeout ~deadline:8_000.0 (fun w -> wake := Some w))
  in
  let _ =
    Sched.spawn t ~name:"waker" (fun () ->
        Sched.charge 50.0;
        (Option.get !wake) ~at:(Sched.now ()))
  in
  Sched.run t;
  check flt "horizon includes the fired deadline" 8_000.0 (Sched.horizon t)

(* Timed network waits block in the scheduler, not in timer threads:
   only the threads the test spawned finish. *)
let test_timed_no_timer_threads () =
  let t = Sched.create () in
  let net = Netsim.create Cost.default in
  let l = Netsim.listen net ~port:7 in
  let _ =
    Sched.spawn t ~name:"server" (fun () ->
        let c = Option.get (Netsim.accept l) in
        Sched.charge 50_000.0;
        Netsim.send c "late";
        let ws = Netsim.Waitset.create () in
        Netsim.Waitset.add ws c;
        check bool "ws timeout" true
          (Netsim.Waitset.wait_deadline ws ~deadline:(Sched.now () +. 1_000.0)
          = None))
  in
  let _ =
    Sched.spawn t ~name:"client" (fun () ->
        let c = Netsim.connect net ~port:7 in
        check bool "recv timeout" true
          (Netsim.recv_deadline c ~deadline:10_000.0 = None);
        check bool "recv in time" true
          (Netsim.recv_deadline c ~deadline:1.0e6 = Some "late"))
  in
  Sched.run t;
  check (Alcotest.list Alcotest.string) "only spawned threads"
    [ "server"; "client" ]
    (List.map (fun (_, name, _) -> name) (Sched.outcomes t))

let test_mutex_mutual_exclusion () =
  let t = Sched.create () in
  let m = Sched.Mutex.create () in
  let inside = ref 0 and max_inside = ref 0 in
  for i = 0 to 9 do
    ignore
      (Sched.spawn t
         ~name:(Printf.sprintf "w%d" i)
         (fun () ->
           for _ = 1 to 5 do
             Sched.Mutex.with_lock m (fun () ->
                 incr inside;
                 if !inside > !max_inside then max_inside := !inside;
                 Sched.charge 10.0;
                 Sched.yield ();
                 decr inside)
           done))
  done;
  Sched.run t;
  check int "never two holders" 1 !max_inside

let test_mutex_contention_accounting () =
  let t = Sched.create () in
  let m = Sched.Mutex.create () in
  let _ =
    Sched.spawn t (fun () ->
        Sched.Mutex.lock m;
        Sched.sleep 500.0;
        Sched.Mutex.unlock m)
  in
  let _ =
    Sched.spawn t (fun () ->
        Sched.charge 1.0;
        Sched.Mutex.lock m;
        Sched.Mutex.unlock m)
  in
  Sched.run t;
  check int "one contention" 1 (Sched.Mutex.contentions m);
  check bool "waited about 499 cycles" true (Sched.Mutex.wait_cycles m >= 400.0)

let test_cond_signal_wakes () =
  let t = Sched.create () in
  let m = Sched.Mutex.create () in
  let c = Sched.Cond.create () in
  let got = ref None in
  let q = Queue.create () in
  let _ =
    Sched.spawn t ~name:"consumer" (fun () ->
        Sched.Mutex.lock m;
        while Queue.is_empty q do
          Sched.Cond.wait c m
        done;
        got := Some (Queue.pop q);
        Sched.Mutex.unlock m)
  in
  let _ =
    Sched.spawn t ~name:"producer" (fun () ->
        Sched.charge 100.0;
        Sched.Mutex.lock m;
        Queue.push 42 q;
        Sched.Cond.signal c;
        Sched.Mutex.unlock m)
  in
  Sched.run t;
  check (Alcotest.option int) "received" (Some 42) !got

let test_cond_broadcast_wakes_all () =
  let t = Sched.create () in
  let m = Sched.Mutex.create () in
  let c = Sched.Cond.create () in
  let go = ref false in
  let woken = ref 0 in
  for _ = 1 to 5 do
    ignore
      (Sched.spawn t (fun () ->
           Sched.Mutex.lock m;
           while not !go do
             Sched.Cond.wait c m
           done;
           incr woken;
           Sched.Mutex.unlock m))
  done;
  let _ =
    Sched.spawn t (fun () ->
        Sched.charge 10.0;
        Sched.Mutex.lock m;
        go := true;
        Sched.Cond.broadcast c;
        Sched.Mutex.unlock m)
  in
  Sched.run t;
  check int "all woken" 5 !woken

let test_sched_spawn_inherits_clock () =
  let t = Sched.create () in
  let child_start = ref 0.0 in
  let _ =
    Sched.spawn t (fun () ->
        Sched.charge 777.0;
        let child = Sched.spawn (Sched.current ()) (fun () -> child_start := Sched.now ()) in
        Sched.join child)
  in
  Sched.run t;
  check bool "child starts at parent's time" true (!child_start >= 777.0)

let test_sched_determinism () =
  let run_once () =
    let t = Sched.create () in
    let trace = Buffer.create 64 in
    let r = Rng.create 11 in
    for i = 0 to 4 do
      ignore
        (Sched.spawn t (fun () ->
             for _ = 1 to 3 do
               Sched.charge (float_of_int (Rng.int r 100));
               Buffer.add_string trace (string_of_int i);
               Sched.yield ()
             done))
    done;
    Sched.run t;
    Buffer.contents trace
  in
  check Alcotest.string "identical traces" (run_once ()) (run_once ())


let test_rwlock_readers_share () =
  let t = Sched.create () in
  let rw = Sched.Rwlock.create () in
  let max_concurrent = ref 0 in
  for _ = 1 to 4 do
    ignore
      (Sched.spawn t (fun () ->
           Sched.Rwlock.with_rd rw (fun () ->
               if Sched.Rwlock.readers rw > !max_concurrent then
                 max_concurrent := Sched.Rwlock.readers rw;
               Sched.sleep 100.0)))
  done;
  Sched.run t;
  check bool "readers overlapped" true (!max_concurrent > 1)

let test_rwlock_writer_exclusive () =
  let t = Sched.create () in
  let rw = Sched.Rwlock.create () in
  let in_write = ref false and violations = ref 0 in
  for _ = 1 to 3 do
    ignore
      (Sched.spawn t (fun () ->
           for _ = 1 to 4 do
             Sched.Rwlock.with_wr rw (fun () ->
                 if !in_write then incr violations;
                 in_write := true;
                 Sched.sleep 10.0;
                 in_write := false)
           done));
    ignore
      (Sched.spawn t (fun () ->
           for _ = 1 to 4 do
             Sched.Rwlock.with_rd rw (fun () ->
                 if !in_write then incr violations;
                 Sched.sleep 5.0)
           done))
  done;
  Sched.run t;
  check int "no read/write overlap" 0 !violations

let test_rwlock_writer_waits_for_readers () =
  let t = Sched.create () in
  let rw = Sched.Rwlock.create () in
  let order = ref [] in
  let _ =
    Sched.spawn t ~name:"reader" (fun () ->
        Sched.Rwlock.rd_lock rw;
        Sched.sleep 1000.0;
        order := `Reader_done :: !order;
        Sched.Rwlock.rd_unlock rw)
  in
  let _ =
    Sched.spawn t ~name:"writer" (fun () ->
        Sched.charge 10.0;
        Sched.Rwlock.wr_lock rw;
        order := `Writer_in :: !order;
        Sched.Rwlock.wr_unlock rw)
  in
  Sched.run t;
  check bool "writer entered after reader finished" true
    (List.rev !order = [ `Reader_done; `Writer_in ])

let test_rwlock_misuse_detected () =
  let t = Sched.create () in
  let rw = Sched.Rwlock.create () in
  let tid =
    Sched.spawn t (fun () -> Sched.Rwlock.rd_unlock rw)
  in
  Sched.run t;
  match Sched.outcome t tid with
  | Some (Sched.Failed (Invalid_argument _)) -> ()
  | _ -> Alcotest.fail "unbalanced rd_unlock not caught"

(* {1 Cost} *)

let test_cost_conversions () =
  let c = Cost.default in
  check (Alcotest.float 1e-9) "1us at 2.1GHz" 2100.0 (Cost.cycles_of_us c 1.0);
  check (Alcotest.float 1e-9) "roundtrip" 1.0
    (Cost.us_of_cycles c (Cost.cycles_of_us c 1.0))

let () =
  Alcotest.run "simkern"
    [
      ( "rng",
        [
          Alcotest.test_case "determinism" `Quick test_rng_determinism;
          Alcotest.test_case "seed sensitivity" `Quick test_rng_seed_sensitivity;
          Alcotest.test_case "split independence" `Quick test_rng_split_independent;
          Alcotest.test_case "float range" `Quick test_rng_float_range;
          Alcotest.test_case "shuffle permutes" `Quick test_rng_shuffle_permutes;
          QCheck_alcotest.to_alcotest rng_int_bounds;
        ] );
      ( "sched",
        [
          Alcotest.test_case "clock order" `Quick test_sched_runs_in_clock_order;
          Alcotest.test_case "charge advances clock" `Quick test_sched_charge_advances_clock;
          Alcotest.test_case "horizon" `Quick test_sched_horizon_is_makespan;
          Alcotest.test_case "join waits" `Quick test_sched_join_waits;
          Alcotest.test_case "failure reported" `Quick test_sched_failure_reported;
          Alcotest.test_case "deadlock detected" `Quick test_sched_deadlock_detected;
          Alcotest.test_case "spawn inherits clock" `Quick test_sched_spawn_inherits_clock;
          Alcotest.test_case "determinism" `Quick test_sched_determinism;
        ] );
      ( "timed-suspend",
        [
          Alcotest.test_case "early wake" `Quick test_timed_early_wake;
          Alcotest.test_case "deadline wake" `Quick test_timed_deadline_wake;
          Alcotest.test_case "kill" `Quick test_timed_kill;
          Alcotest.test_case "same-clock order" `Quick test_timed_same_clock_order;
          Alcotest.test_case "horizon" `Quick test_timed_horizon;
          Alcotest.test_case "no timer threads" `Quick test_timed_no_timer_threads;
        ] );
      ( "sync",
        [
          Alcotest.test_case "mutual exclusion" `Quick test_mutex_mutual_exclusion;
          Alcotest.test_case "contention accounting" `Quick test_mutex_contention_accounting;
          Alcotest.test_case "cond signal" `Quick test_cond_signal_wakes;
          Alcotest.test_case "cond broadcast" `Quick test_cond_broadcast_wakes_all;
          Alcotest.test_case "rwlock readers share" `Quick test_rwlock_readers_share;
          Alcotest.test_case "rwlock writer exclusive" `Quick test_rwlock_writer_exclusive;
          Alcotest.test_case "rwlock writer waits" `Quick test_rwlock_writer_waits_for_readers;
          Alcotest.test_case "rwlock misuse" `Quick test_rwlock_misuse_detected;
        ] );
      ("cost", [ Alcotest.test_case "conversions" `Quick test_cost_conversions ]);
    ]
