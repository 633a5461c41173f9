(* The benchmark's own tests: the generator's properties, due-time
   latency accounting, and the sensitivity self-check proving that each
   clock is measured. Run with `dune build @servebench/selftest`; exits
   non-zero when any property fails. *)

let failures = ref 0

let check name ok detail =
  Printf.printf "%s %s (%s)\n%!" (if ok then "ok  " else "FAIL") name detail;
  if not ok then incr failures

let kv_zipf = Option.get (Workloads.find "kv-zipf")

(* The host_rps bound of BENCHMARK.json: a change of public config that
   leaves the simulator's work per request alone must stay within it. *)
let host_rps_bound = 0.25

let generator () =
  let rate = Measure.rate_per_cycle 360_000.0 in
  let mk seed =
    Gen.poisson ~seed ~salt:0 ~n:100_000 ~rate_per_cycle:rate ~read_fraction:0.95
      ~records:20_000 ~keys:(Gen.Zipfian 0.99)
  in
  let a = mk 7 and b = mk 7 and c = mk 8 in
  check "same seed gives the same arrivals, operations and keys" (a = b) "seed 7 twice";
  check "different seeds give different arrivals and keys"
    (a.Gen.due <> c.Gen.due && a.Gen.keys <> c.Gen.keys)
    "seeds 7 and 8";
  let mean, cv = Gen.gap_stats a.Gen.due in
  check "mean gap matches the configured rate"
    (Float.abs ((mean *. rate) -. 1.0) < 0.02)
    (Printf.sprintf "mean gap %.1f cycles, 1/rate %.1f" mean (1.0 /. rate));
  check "gaps are exponential: coefficient of variation about 1"
    (Float.abs (cv -. 1.0) < 0.03)
    (Printf.sprintf "cv %.4f" cv);
  let counts = Array.make 20_000 0 in
  Array.iter (fun k -> counts.(k) <- counts.(k) + 1) a.Gen.keys;
  check "Zipf: record 0 is the hottest key"
    (Array.for_all (fun c -> c <= counts.(0)) counts)
    (Printf.sprintf "%d of 100000 requests" counts.(0));
  let reads = Array.fold_left (fun n o -> if o = Gen.Read then n + 1 else n) 0 a.Gen.ops in
  check "read fraction matches the mix"
    (Float.abs ((float_of_int reads /. 100_000.0) -. 0.95) < 0.005)
    (Printf.sprintf "%d reads" reads)

(* The repo's own open loop, for contrast: Ycsb with [arrival_interval]
   against a kvcache server. The virtual send times of its run-phase
   GETs, taken off the network, sit on an evenly spaced grid: their gaps
   vary only by the few cycles of per-request client work. *)
let ycsb_grid () =
  let ops = 4_000 and interval = World.cycles_per_us *. 20.0 in
  let sched = Simkern.Sched.create () in
  let net = Netsim.create Simkern.Cost.default in
  let space = Vmem.Space.create ~size_mib:64 () in
  let cfg =
    { Workload.Ycsb.workload_c with records = 1_000; value_size = 256; operations = ops;
      clients = 16; arrival_interval = interval }
  in
  (* Load-phase sets and all replies are longer than 64 bytes or are
     the 8-byte STORED; GET requests lie between. *)
  let sends = ref [] in
  Netsim.set_fault_hook net
    (Some
       (fun ~len ->
         if len > 8 && len < 64 then sends := Simkern.Sched.now () :: !sends;
         Netsim.Deliver));
  let results = ref (fun () -> failwith "Ycsb not launched") in
  let _ =
    Simkern.Sched.spawn sched ~name:"ycsb" (fun () ->
        let srv = Kvcache.Server.start sched space net Kvcache.Server.default_config in
        results :=
          Workload.Ycsb.launch sched net cfg ~on_done:(fun () -> Kvcache.Server.stop srv) ())
  in
  Simkern.Sched.run sched;
  let r = !results () in
  check "Ycsb's open loop completes without failures"
    (r.Workload.Ycsb.run_ops = ops && r.Workload.Ycsb.failures = 0)
    (Printf.sprintf "%d operations, %d failures" r.Workload.Ycsb.run_ops r.Workload.Ycsb.failures);
  let t = Array.of_list (List.rev !sends) in
  Array.sort compare t;
  let n = Array.length t in
  check "Ycsb's open loop sends every run-phase GET" (n = ops)
    (Printf.sprintf "%d of %d" n ops);
  if n > 1 then begin
    let mean, cv = Gen.gap_stats (Array.map (fun x -> x -. t.(0)) (Array.sub t 1 (n - 1))) in
    check "Ycsb's open loop sends on a grid: gap coefficient of variation about 0" (cv < 0.01)
      (Printf.sprintf "mean gap %.1f cycles, arrival_interval %.1f, cv %.2g" mean interval cv)
  end

(* A stall of the server's link halfway through the run delays every
   reply sent during it. Later requests queue behind the stall in their
   sessions and go out late; timing from the due time charges them the
   wait, so their p99.9 rises while the first half stays bit-identical. *)
let stall () =
  let spec = { kv_zipf with World.requests = 20_000 } in
  let n = spec.World.requests in
  let s = Measure.schedule spec ~seed:3 ~salt:0 ~n ~rps:spec.World.offered_rps in
  let stall_cycles = World.cycles_per_us *. 300.0 in
  let stalled (w : World.world) =
    let mid = Simkern.Sched.now () +. Drive.gap +. s.Gen.due.(n / 2) in
    Netsim.set_fault_hook w.World.net
      (Some
         (fun ~len:_ ->
           let t = Simkern.Sched.now () in
           if t >= mid && t < mid +. stall_cycles then Netsim.Delay stall_cycles
           else Netsim.Deliver));
    fun () -> ()
  in
  let _, base = Measure.measured spec ~seed:3 in
  let _, slow = Measure.measured ~around:stalled spec ~seed:3 in
  let p999 (p : Drive.phase) lo hi =
    let a = Array.sub p.Drive.lat lo (hi - lo) in
    Array.sort compare a;
    Measure.us (Drive.percentile a 0.999)
  in
  check "requests before the stall are unchanged"
    (Array.sub base.Drive.lat 0 (n / 2) = Array.sub slow.Drive.lat 0 (n / 2))
    (Printf.sprintf "first-half p99.9 %.2f us" (p999 base 0 (n / 2)));
  let b = p999 base (n / 2) n and l = p999 slow (n / 2) n in
  check "the stall shows in the p99.9 of later requests"
    (l > b +. 150.0)
    (Printf.sprintf "second-half p99.9 %.2f -> %.2f us" b l);
  check "requests queued behind the stall went out late, and are charged for it"
    (slow.Drive.late > base.Drive.late)
    (Printf.sprintf "%d -> %d sent late" base.Drive.late slow.Drive.late)

(* proc_cycles x 1.1 is a virtual change: latency rises and capacity
   falls, host speed stays. The race detector is a host-only change:
   every virtual output stays bit-identical while host speed falls. *)
let sensitivity () =
  let run knobs = Measure.end_to_end ~knobs kv_zipf ~seed:5 ~seconds:0.0 in
  let base = run World.default_knobs in
  let slow = run { World.default_knobs with World.proc_scale = 1.1 } in
  let race = run { World.default_knobs with World.race_detector = true } in
  let m r = Measure.metric r in
  List.iter
    (fun r ->
      check "the run's outputs are correct" (r.Measure.problems = [])
        (String.concat "; " ("kv-zipf seed 5" :: r.Measure.problems)))
    [ base; slow; race ];
  check "proc_cycles x1.1 raises vlat_p999_us"
    (m slow "vlat_p999_us" > m base "vlat_p999_us")
    (Printf.sprintf "%.2f -> %.2f us" (m base "vlat_p999_us") (m slow "vlat_p999_us"));
  check "proc_cycles x1.1 lowers vcap_rps"
    (m slow "vcap_rps" < m base "vcap_rps")
    (Printf.sprintf "%.0f -> %.0f req/s" (m base "vcap_rps") (m slow "vcap_rps"));
  let ratio = m slow "host_rps" /. m base "host_rps" in
  check "proc_cycles x1.1 keeps host_rps within its bound"
    (Float.abs (ratio -. 1.0) <= host_rps_bound)
    (Printf.sprintf "ratio %.3f, bound %.2f" ratio host_rps_bound);
  check "race_detector keeps every virtual output bit-identical"
    (race.Measure.virt.Measure.digest = base.Measure.virt.Measure.digest
    && List.for_all
         (fun name -> m race name = m base name)
         [ "vgoodput_rps"; "vlat_p50_us"; "vlat_p999_us"; "vcap_rps" ])
    (Printf.sprintf "digest %s" base.Measure.virt.Measure.digest);
  check "race_detector lowers host_rps"
    (m race "host_rps" < m base "host_rps" *. (1.0 -. host_rps_bound))
    (Printf.sprintf "%.0f -> %.0f req/s" (m base "host_rps") (m race "host_rps"))

let () =
  generator ();
  ycsb_grid ();
  stall ();
  sensitivity ();
  if !failures > 0 then begin
    Printf.printf "%d self-test properties failed\n" !failures;
    exit 1
  end;
  print_endline "all servebench self-tests passed"
