(* End-to-end measurement: the measured run at the fixed offered rate,
   its virtual outcome, and the capacity search. *)

let rate_per_cycle rps = rps /. (World.cycles_per_us *. 1e6)
let us c = c /. World.cycles_per_us

let schedule (spec : World.spec) ~seed ~salt ~n ~rps =
  Gen.poisson ~seed ~salt ~n ~rate_per_cycle:(rate_per_cycle rps)
    ~read_fraction:spec.World.read_fraction ~records:(max 1 spec.World.records)
    ~keys:spec.World.keys

(* Everything the measured run produces in virtual time. Deterministic
   per seed: repetitions must reproduce [digest] bit for bit. *)
type virt = {
  samples : int;
  correct : int;
  wrong : string list;
  late : int;
  p50_us : float;
  p999_us : float;
  goodput_rps : float;
  digest : string;
}

(* Virtual counters of a whole world, folded into the digest. *)
let world_counters (w : World.world) =
  ( Simkern.Sched.horizon w.World.sched,
    List.map
      (fun s -> (Kvcache.Server.requests_served s, Kvcache.Server.rewinds s))
      w.World.kv,
    List.map (fun s -> (Vmem.Space.wrpkru_writes s, Vmem.Space.pkru_elided s)) w.World.spaces,
    List.map Sdrad.Api.audit_appended w.World.sds,
    Option.map Httpd.Server.requests_served w.World.http )

let virt_of (sim : Drive.sim) (p : Drive.phase) =
  let a = Drive.sorted p in
  let correct = Drive.correct p in
  {
    samples = Array.length p.Drive.lat;
    correct;
    wrong = p.Drive.wrong;
    late = p.Drive.late;
    p50_us = us (Drive.percentile a 0.5);
    p999_us = us (Drive.percentile a 0.999);
    goodput_rps = float_of_int correct /. (us p.Drive.span *. 1e-6);
    digest =
      Digest.to_hex
        (Digest.string
           (Marshal.to_string
              (p.Drive.lat, p.Drive.late, p.Drive.span, world_counters sim.Drive.world)
              []));
  }

(* One repetition: a fresh world from [seed], loaded, then the measured
   run at the workload's offered rate. [around] is called when the run
   opens and returns what to call when its last reply is in (a traced
   run's probes). *)
let measured ?(knobs = World.default_knobs) ?(around = fun _ () -> ()) spec ~seed =
  let s = schedule spec ~seed ~salt:0 ~n:spec.World.requests ~rps:spec.World.offered_rps in
  Drive.simulate spec knobs ~seed (fun w ~t0 ->
      let finish = around w in
      let p = Drive.phase w s ~sessions:spec.World.sessions ~t0 in
      finish ();
      p)

(* A probe's p99.9 (refusals counting as infinite), and whether it
   passes: p99.9 within the limit and a backlog that does not grow (the
   median latency of the last fifth of arrivals stays within twice that
   of the second fifth). *)
let probe_ok (spec : World.spec) (p : Drive.phase) =
  let n = Array.length p.Drive.lat in
  let fifth k =
    let a = Array.sub p.Drive.lat (k * n / 5) (n / 5) in
    Array.sort compare a;
    Drive.percentile a 0.5
  in
  let p999 = us (Drive.percentile (Drive.sorted p) 0.999) in
  (p999, p999 <= spec.World.limit_us && fifth 4 <= 2.0 *. fifth 1)

(* Highest offered rate meeting the limit, by bisection over
   [offered / 2, 2 * offered] with sequential probes in one world (each
   probe opens after the previous one's last reply plus an idle gap).
   The result interpolates p99.9 linearly between the last passing and
   the last failing probe, so it is not confined to the bisection grid.
   Deterministic per seed. *)
let bisect_steps = 8
let probe_requests = 20_000

let capacity ?(knobs = World.default_knobs) (spec : World.spec) ~seed =
  let limit = spec.World.limit_us in
  let _, cap =
    Drive.simulate spec knobs ~seed (fun w ~t0 ->
        let lo = ref (spec.World.offered_rps /. 2.0, nan)
        and hi = ref (spec.World.offered_rps *. 2.0, nan)
        and t = ref t0 in
        for k = 1 to bisect_steps do
          let rps = (fst !lo +. fst !hi) /. 2.0 in
          let s = schedule spec ~seed ~salt:(100 * k) ~n:probe_requests ~rps in
          let p = Drive.phase w s ~sessions:spec.World.sessions ~t0:!t in
          t := Simkern.Sched.now () +. Drive.gap;
          let p999, ok = probe_ok spec p in
          if ok then lo := (rps, p999) else hi := (rps, p999)
        done;
        let (r0, l0), (r1, l1) = (!lo, !hi) in
        if Float.is_finite l0 && Float.is_finite l1 && l1 > limit && l0 <= limit then
          r0 +. ((r1 -. r0) *. (limit -. l0) /. (l1 -. l0))
        else (r0 +. r1) /. 2.0)
  in
  cap

(* Peak resident set of this process, from /proc (Linux). *)
let peak_rss_mib () =
  try
    let ic = open_in "/proc/self/status" in
    let rec go () =
      match input_line ic with
      | l when String.length l > 6 && String.sub l 0 6 = "VmHWM:" ->
          Scanf.sscanf (String.sub l 6 (String.length l - 6)) " %d" (fun kb ->
              float_of_int kb /. 1024.0)
      | _ -> go ()
    in
    let v = go () in
    close_in ic;
    v
  with _ -> nan

let median xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  let n = Array.length a in
  if n = 0 then nan
  else if n mod 2 = 1 then a.(n / 2)
  else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

type result = {
  virt : virt;  (** the first repetition's virtual outcome *)
  reps : int;
  attempted : int;
  failed : int;
  problems : string list;  (** failed output checks, empty when correct *)
  metrics : (string * string * float) list;  (** end-to-end: name, unit, value *)
}

(* Repetitions of the measured run for at least [seconds] host seconds
   (at least [min_reps]); host metrics are their medians, and every
   repetition must reproduce the first one's virtual outputs. Then the
   capacity search. *)
let min_reps = 3

let end_to_end ?(knobs = World.default_knobs) (spec : World.spec) ~seed ~seconds =
  let t_start = Unix.gettimeofday () in
  let setups = ref [] and runs = ref [] and peak = ref nan in
  let first = ref None and problems = ref [] and attempted = ref 0 and failed = ref 0 in
  let rep = ref 0 in
  while !rep < min_reps || Unix.gettimeofday () -. t_start < seconds do
    incr rep;
    Gc.compact ();
    let sim, p = measured ~knobs spec ~seed in
    let v = virt_of sim p in
    if !rep = 1 then peak := peak_rss_mib ();
    setups := sim.Drive.setup_s :: !setups;
    runs := (float_of_int v.correct /. sim.Drive.run_s) :: !runs;
    attempted := !attempted + v.samples;
    failed := !failed + (v.samples - v.correct);
    problems := !problems @ v.wrong @ sim.Drive.checks;
    match !first with
    | None -> first := Some v
    | Some v0 ->
        if v.digest <> v0.digest then
          problems := !problems @ [ Printf.sprintf "repetition %d: virtual outputs differ" !rep ]
  done;
  let v = Option.get !first in
  let cap = capacity ~knobs spec ~seed in
  {
    virt = v;
    reps = !rep;
    attempted = !attempted;
    failed = !failed;
    problems = List.sort_uniq compare !problems;
    metrics =
      [
        ("setup_s", "s", median !setups);
        ("host_rps", "1/s", median !runs);
        ("host_peak_mib", "MiB", !peak);
        ("vgoodput_rps", "1/s", v.goodput_rps);
        ("vlat_p50_us", "us", v.p50_us);
        ("vlat_p999_us", "us", v.p999_us);
        ("vcap_rps", "1/s", cap);
      ];
  }

let metric r name =
  match List.find_opt (fun (n, _, _) -> n = name) r.metrics with
  | Some (_, _, v) -> v
  | None -> invalid_arg name
