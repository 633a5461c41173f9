(* Open-loop playback: plays a Poisson schedule over session fibers
   against a world and times every request from its due time. *)

module Sched = Simkern.Sched

type phase = {
  lat : float array;
      (** cycles from due time to a correct reply; [infinity] when the
          request was refused, timed out or answered wrongly *)
  wrong : string list;  (** correctness violations, first few *)
  late : int;  (** requests sent after their due time *)
  span : float;  (** cycles from the phase opening to its last reply *)
}

let correct p = Array.fold_left (fun n l -> if Float.is_finite l then n + 1 else n) 0 p.lat

(* Nearest-rank percentile over a latency sample; refused requests sit
   at [infinity], above every served one. *)
let percentile sorted q =
  let n = Array.length sorted in
  sorted.(max 0 (min (n - 1) (int_of_float (Float.ceil (q *. float_of_int n)) - 1)))

let sorted p =
  let a = Array.copy p.lat in
  Array.sort compare a;
  a

(* Run one phase from inside the simulation: [t0] is the virtual time
   the phase opens; request [i] is due at [t0 + sched.due.(i)] and
   carried by session [i mod sessions]. Returns when every reply is in. *)
let phase (w : World.world) (s : Gen.schedule) ~sessions ~t0 =
  let n = Gen.length s in
  let lat = Array.make n infinity in
  let wrong = ref [] and late = ref 0 and last = ref t0 in
  let session j () =
    let i = ref j in
    while !i < n do
      let due = t0 +. s.Gen.due.(!i) in
      let now = Sched.now () in
      if now < due then Sched.sleep (due -. now) else if now > due then incr late;
      (match w.World.issue j s.Gen.ops.(!i) s.Gen.keys.(!i) with
      | World.Ok_reply -> lat.(!i) <- Sched.now () -. due
      | World.Refused -> ()
      | World.Wrong m -> if List.length !wrong < 5 then wrong := m :: !wrong);
      if Sched.now () > !last then last := Sched.now ();
      i := !i + sessions
    done
  in
  let tids =
    List.init (min sessions n) (fun j ->
        Sched.spawn w.World.sched ~name:(Printf.sprintf "session%d" j) (session j))
  in
  List.iter Sched.join tids;
  { lat; wrong = List.rev !wrong; late = !late; span = !last -. t0 }

(* Idle virtual time between the load and the run, and between probes,
   so one phase's tail never overlaps the next. *)
let gap = World.cycles_per_us *. 200.0

type sim = {
  world : World.world;
  setup_s : float;  (** host wall seconds from empty world to run start *)
  run_s : float;  (** host wall seconds of the run phase *)
  checks : string list;
}

(* One simulated world: build and load it, then hand it to [body] at
   the first run-phase due time. [body] returns the phase's results; it
   may run several phases (capacity probes). *)
let simulate (spec : World.spec) knobs ~seed body =
  let h0 = Unix.gettimeofday () in
  let sched = Sched.create () in
  let out = ref None and world = ref None and h_setup = ref 0.0 in
  let _ =
    Sched.spawn sched ~name:"orchestrator" (fun () ->
        let w = World.build spec knobs ~seed sched in
        world := Some w;
        w.World.load ();
        h_setup := Unix.gettimeofday ();
        w.World.start_run ();
        let r = body w ~t0:(Sched.now () +. gap) in
        out := Some r;
        w.World.stop ())
  in
  Sched.run sched;
  let h1 = Unix.gettimeofday () in
  let w = Option.get !world in
  let checks = w.World.checks () in
  ( { world = w; setup_s = !h_setup -. h0; run_s = h1 -. !h_setup; checks },
    Option.get !out )
