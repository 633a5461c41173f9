(* The traced run: the same workload and seed as the measured run, with
   every layer observed through its public counters, hooks and tracer
   spans, plus host ns per call from timed calls into each layer's hot
   functions at the workload's own mix. The traced run must reproduce
   the untraced run's virtual outputs bit for bit. *)

module Sched = Simkern.Sched
module Space = Vmem.Space
module Api = Sdrad.Api
module M = Telemetry.Metrics

(* Sum of every series of [name] in a registry's exposition (counters
   over all label sets; [name_sum] / [name_count] for histograms). *)
let series reg name =
  let n = String.length name in
  List.fold_left
    (fun acc line ->
      if
        String.length line > n
        && String.sub line 0 n = name
        && (line.[n] = ' ' || line.[n] = '{')
      then
        match String.rindex_opt line ' ' with
        | Some i -> (
            match float_of_string_opt (String.sub line (i + 1) (String.length line - i - 1)) with
            | Some v -> acc +. v
            | None -> acc)
        | None -> acc
      else acc)
    0.0
    (String.split_on_char '\n' (M.expose reg))

(* Everything counted between the run's opening and its last reply. *)
type probe = {
  mutable accesses : int;
  mutable bytes : float;
  hist : int array;  (** accesses by power-of-two size class *)
  hist_bytes : float array;
  mutable lock_events : int;
  mutable msgs : int;
  mutable msg_bytes : float;
  mutable deltas : (string * float) list;  (** counter name -> increase *)
  mutable busy : (int * float * float) list;  (** tid, busy and waited cycles *)
  mutable vspan : float;
  mutable host_s : float;
  mutable cpu_s : float;
  mutable minor_words : float;
  mutable promoted_words : float;
  mutable major_collections : int;
  mutable pkru_share : float;
  mutable spans_dropped : int;
  mutable fibers : int;
}

let classes = 18

let size_class len =
  let rec go c l = if l <= 1 || c = classes - 1 then c else go (c + 1) (l lsr 1) in
  go 0 len

let fresh () =
  {
    accesses = 0; bytes = 0.0; hist = Array.make classes 0;
    hist_bytes = Array.make classes 0.0; lock_events = 0; msgs = 0; msg_bytes = 0.0;
    deltas = []; busy = []; vspan = 0.0; host_s = 0.0; cpu_s = 0.0; minor_words = 0.0;
    promoted_words = 0.0; major_collections = 0; pkru_share = nan; spans_dropped = 0;
    fibers = 0;
  }

(* The counters read at both ends of the run, summed over every server,
   monitor and space of the world. *)
let counters (w : World.world) =
  let regs = List.map Api.metrics w.World.sds in
  let sum name = List.fold_left (fun a r -> a +. series r name) 0.0 regs in
  let spaces f = float_of_int (List.fold_left (fun a s -> a + f s) 0 w.World.spaces) in
  let kv f = float_of_int (List.fold_left (fun a s -> a + f s) 0 w.World.kv) in
  let http f = match w.World.http with Some h -> float_of_int (f h) | None -> 0.0 in
  let fleet f = match w.World.fleet with Some t -> f t | None -> 0.0 in
  let engines f =
    float_of_int (List.fold_left (fun a e -> a + f e) 0 !(w.World.retry_engines))
  in
  [
    ("enters", sum "sdrad_domain_enters_total");
    ("switch_cycles", sum "sdrad_switch_cycles_sum");
    ("gate_batched", sum "gate_batched_calls_total");
    ("mallocs", sum "tlsf_malloc_calls_total");
    ("frees", sum "tlsf_free_calls_total");
    ("flight", sum "sdrad_flight_events_total");
    ("rewind_cycles", sum "sdrad_rewind_cycles_sum");
    ("sdrad_rewinds", sum "sdrad_rewinds_total");
    ("audit", sum "sdrad_audit_appended_total");
    ("sup_rejections", sum "supervisor_rejections_total");
    ("pkru_writes", spaces Space.wrpkru_writes);
    ("pkru_elided", spaces Space.pkru_elided);
    ("tlb_hits", spaces Space.tlb_hits);
    ("tlb_misses", spaces Space.tlb_misses);
    ("tlb_shootdowns", spaces Space.tlb_shootdowns);
    ("kv_busy", List.fold_left (fun a s -> a +. Kvcache.Server.worker_busy_cycles s) 0.0 w.World.kv);
    ("replay_hits", kv Kvcache.Server.replay_hits +. http Httpd.Server.replay_hits);
    ("shed", kv Kvcache.Server.shed_count +. http Httpd.Server.shed_count);
    ("busy_rejections", kv Kvcache.Server.busy_rejections +. http Httpd.Server.busy_rejections);
    ("evictions", kv Kvcache.Server.evictions);
    ("http_restarts", http Httpd.Server.worker_restarts);
    ("http_dropped", http Httpd.Server.dropped_connections);
    ("fault_fires",
      match w.World.faults with
      | Some f -> float_of_int (Resilience.Fault_inject.fires f)
      | None -> 0.0);
    ("calls", engines Resilience.Retry.calls);
    ("retries", engines Resilience.Retry.retries);
    ("forwards", fleet (fun t -> series (Cluster.Fleet.metrics t) "cluster_forwards_total"));
    ("router_shed", fleet (fun t -> float_of_int (Cluster.Fleet.router_shed t)));
    ("forward_timeouts", fleet (fun t -> float_of_int (Cluster.Fleet.forward_timeouts t)));
    ("drops", float_of_int w.World.drops);
  ]
  @ List.mapi
      (fun i s -> (Printf.sprintf "served%d" i, float_of_int (Kvcache.Server.requests_served s)))
      w.World.kv

(* (busy, waited) cycles of every thread existing so far, by tid. *)
let thread_times sched =
  let rec go tid acc =
    match (Sched.thread_clock sched tid, Sched.thread_waited sched tid) with
    | Some c, Some wt -> go (tid + 1) ((tid, (c -. wt, wt)) :: acc)
    | _ -> acc
  in
  go 0 []

(* Install the observers at the run's opening; the returned closure
   reads every counter again when the last reply is in. *)
let around ob (w : World.world) =
  let c0 = counters w and th0 = thread_times w.World.sched in
  let v0 = Sched.now () in
  let gc0 = Gc.quick_stat () in
  let t0 = Unix.gettimeofday () and cpu0 = Unix.times () in
  let hook _addr len _acc =
    ob.accesses <- ob.accesses + 1;
    ob.bytes <- ob.bytes +. float_of_int len;
    let c = size_class len in
    ob.hist.(c) <- ob.hist.(c) + 1;
    ob.hist_bytes.(c) <- ob.hist_bytes.(c) +. float_of_int len
  in
  List.iter (fun s -> Space.set_access_hook s (Some hook)) w.World.spaces;
  Sched.set_trace_hook
    (Some
       (function
       | Sched.Locked _ | Sched.Rd_locked _ -> ob.lock_events <- ob.lock_events + 1
       | _ -> ()));
  w.World.on_send <-
    Some
      (fun len ->
        ob.msgs <- ob.msgs + 1;
        ob.msg_bytes <- ob.msg_bytes +. float_of_int len);
  w.World.time_checks <- true;
  let tracers = List.map Api.tracer w.World.sds in
  List.iter (fun t -> Telemetry.Trace.set_enabled t true) tracers;
  fun () ->
    let t1 = Unix.gettimeofday () and cpu1 = Unix.times () in
    let gc1 = Gc.quick_stat () in
    ob.host_s <- t1 -. t0;
    ob.cpu_s <-
      cpu1.Unix.tms_utime +. cpu1.Unix.tms_stime -. cpu0.Unix.tms_utime -. cpu0.Unix.tms_stime;
    ob.minor_words <- gc1.Gc.minor_words -. gc0.Gc.minor_words;
    ob.promoted_words <- gc1.Gc.promoted_words -. gc0.Gc.promoted_words;
    ob.major_collections <- gc1.Gc.major_collections - gc0.Gc.major_collections;
    ob.vspan <- Sched.now () -. v0;
    List.iter (fun s -> Space.set_access_hook s None) w.World.spaces;
    Sched.set_trace_hook None;
    w.World.on_send <- None;
    w.World.time_checks <- false;
    let c1 = counters w in
    ob.deltas <- List.map2 (fun (n, a) (_, b) -> (n, b -. a)) c0 c1;
    let th1 = thread_times w.World.sched in
    ob.busy <-
      List.filter_map
        (fun (tid, (b1, w1)) ->
          let b0, w0 = Option.value (List.assoc_opt tid th0) ~default:(0.0, 0.0) in
          Some (tid, b1 -. b0, w1 -. w0))
        th1;
    (* Switch anatomy from the spans the tracers retained: the share of
       enter/exit span time spent in the PKRU writes nested inside them
       (same thread, inside the interval). *)
    let pkru = ref 0.0 and sw = ref 0.0 in
    List.iter
      (fun t ->
        let spans = Telemetry.Trace.spans t in
        let switches =
          List.filter
            (fun s ->
              s.Telemetry.Trace.s_name = "switch.enter"
              || s.Telemetry.Trace.s_name = "switch.exit")
            spans
        in
        List.iter (fun s -> sw := !sw +. s.Telemetry.Trace.s_dur) switches;
        List.iter
          (fun (p : Telemetry.Trace.span) ->
            if
              p.s_name = "switch.pkru_write"
              && List.exists
                   (fun (s : Telemetry.Trace.span) ->
                     s.s_tid = p.s_tid && s.s_start <= p.s_start
                     && p.s_start +. p.s_dur <= s.s_start +. s.s_dur)
                   switches
            then pkru := !pkru +. p.s_dur)
          spans;
        ob.spans_dropped <- ob.spans_dropped + Telemetry.Trace.dropped t;
        Telemetry.Trace.set_enabled t false)
      tracers;
    ob.pkru_share <- (if !sw > 0.0 then !pkru /. !sw else 0.0)

(* Host ns per call of each layer's hot functions, timed outside any
   workload on a private world, at the traced run's size mix. *)
type micro = {
  ns_load64 : float;
  ns_mix : float;  (** one checked access at the run's size mix *)
  ns_malloc_free : float;
  ns_enter_exit : float;
  ns_send_recv : float;
  ns_yield : float;
}

let time_per n f =
  let best = ref infinity in
  for _ = 1 to 3 do
    let t = Unix.gettimeofday () in
    f n;
    best := Float.min !best ((Unix.gettimeofday () -. t) /. float_of_int n)
  done;
  !best *. 1e9

let in_sim f =
  let sched = Sched.create () in
  let out = ref None in
  ignore (Sched.spawn sched ~name:"micro" (fun () -> out := Some (f sched)));
  Sched.run sched;
  Option.get !out

let micro ob ~msg_size =
  let total = max 1 (Array.fold_left ( + ) 0 ob.hist) in
  let mix =
    List.filter_map
      (fun c ->
        if ob.hist.(c) = 0 then None
        else
          Some
            ( float_of_int ob.hist.(c) /. float_of_int total,
              max 1 (int_of_float (ob.hist_bytes.(c) /. float_of_int ob.hist.(c))) ))
      (List.init classes Fun.id)
  in
  in_sim (fun sched ->
      let space = Space.create ~size_mib:16 () in
      let base = Space.mmap space ~len:(1 lsl 20) ~prot:Vmem.Prot.rw ~pkey:0 in
      let ns_load64 =
        time_per 200_000 (fun n ->
            for i = 1 to n do
              ignore (Space.load64 space (base + ((i land 1023) * 8)))
            done)
      in
      let ns_mix =
        List.fold_left
          (fun acc (share, len) ->
            let len = min len (1 lsl 18) in
            let ns =
              if len <= 8 then ns_load64
              else
                time_per (max 200 (2_000_000 / len)) (fun n ->
                    for _ = 1 to n do
                      Space.blit space ~src:base ~dst:(base + (1 lsl 19)) ~len
                    done)
            in
            acc +. (share *. ns))
          0.0 mix
      in
      let heap = Tlsf.create space ~name:"micro" in
      let region = Space.mmap space ~len:(4 lsl 20) ~prot:Vmem.Prot.rw ~pkey:0 in
      Tlsf.add_region heap ~addr:region ~len:(4 lsl 20);
      let sizes =
        match List.map (fun (_, l) -> min (max l 16) 65536) mix with
        | [] -> [| 64 |]
        | l -> Array.of_list l
      in
      let ns_malloc_free =
        time_per 50_000 (fun n ->
            for i = 1 to n do
              Tlsf.free heap (Tlsf.malloc heap sizes.(i mod Array.length sizes))
            done)
      in
      let sd = Api.create (Space.create ~size_mib:16 ()) in
      let ns_enter_exit =
        Api.run sd ~udi:3
          ~on_rewind:(fun _ -> nan)
          (fun () ->
            time_per 50_000 (fun n ->
                for _ = 1 to n do
                  Api.enter sd 3;
                  Api.exit_domain sd
                done))
      in
      let net = Netsim.create Simkern.Cost.default in
      let l = Netsim.listen net ~port:1 in
      let c = Netsim.connect net ~port:1 in
      let s = Option.get (Netsim.accept l) in
      let msg = String.make (max 1 msg_size) 'x' in
      let ns_send_recv =
        time_per 50_000 (fun n ->
            for _ = 1 to n do
              Netsim.send c msg;
              ignore (Netsim.recv s)
            done)
      in
      let fibers = 64 and rounds = 500 in
      let ns_yield =
        time_per (fibers * rounds) (fun _ ->
            let tids =
              List.init fibers (fun _ ->
                  Sched.spawn sched (fun () ->
                      for _ = 1 to rounds do
                        Sched.charge 1.0;
                        Sched.yield ()
                      done))
            in
            List.iter Sched.join tids)
      in
      { ns_load64; ns_mix; ns_malloc_free; ns_enter_exit; ns_send_recv; ns_yield })

(* Layer metric, unit, and the end-to-end metric it should move (the
   workload named second is where the prediction is no change). *)
let table =
  [
    ("simkern.fibers", "count", "host_rps on fleet-uniform, not kv-zipf");
    ("simkern.worker_busy_frac", "frac", "vlat_p999_us");
    ("simkern.worker_wait_frac", "frac", "vlat_p999_us");
    ("simkern.lock_events_per_req", "count/req", "host_rps on fleet-uniform, not kv-zipf");
    ("simkern.host_ns_yield", "ns", "host_rps on fleet-uniform, not kv-zipf");
    ("vmem.accesses_per_req", "count/req", "host_rps on kv-zipf and http-static, not fleet-uniform");
    ("vmem.bytes_per_req", "B/req", "host_rps on kv-zipf and http-static, not fleet-uniform");
    ("vmem.host_ns_per_access", "ns", "host_rps on kv-zipf and http-static, not fleet-uniform");
    ("vmem.host_ns_load64", "ns", "host_rps on kv-zipf and http-static, not fleet-uniform");
    ("vmem.host_ns_blit_mix", "ns", "host_rps on kv-zipf and http-static, not fleet-uniform");
    ("vmem.tlb_hit_rate", "frac", "host_rps on kv-zipf and http-static");
    ("vmem.tlb_shootdowns", "count", "host_rps on kv-zipf and http-static");
    ("vmem.pkru_writes_per_req", "count/req", "vlat_p50_us and vcap_rps on kv-zipf");
    ("vmem.pkru_elided_per_req", "count/req", "vlat_p50_us and vcap_rps on kv-zipf");
    ("vmem.sim_rss_mib", "MiB", "setup_s and host_peak_mib");
    ("tlsf.mallocs_per_req", "count/req", "host_rps on kv-rewind, not kv-zipf");
    ("tlsf.frees_per_req", "count/req", "host_rps on kv-rewind, not kv-zipf");
    ("tlsf.host_ns_malloc_free", "ns", "host_rps on kv-rewind, not kv-zipf");
    ("core.enters_per_req", "count/req", "vlat_p50_us and vcap_rps on kv-zipf and http-static");
    ("core.switch_vcycles_per_req", "cycles/req", "vlat_p50_us and vcap_rps on kv-zipf and http-static");
    ("core.pkru_share", "frac", "vlat_p50_us and vcap_rps on kv-zipf and http-static");
    ("core.gate_batched_per_req", "count/req", "vlat_p50_us and vcap_rps on kv-zipf and http-static");
    ("core.host_ns_enter_exit", "ns", "host_rps on kv-zipf and http-static");
    ("checkpoint.rewinds", "count", "vlat_p999_us on kv-rewind, not kv-zipf");
    ("checkpoint.vrewind_p50_us", "us", "vlat_p999_us on kv-rewind, not kv-zipf");
    ("checkpoint.vrewind_p99_us", "us", "vlat_p999_us on kv-rewind, not kv-zipf");
    ("checkpoint.discard_vcycles_per_rewind", "cycles", "vlat_p999_us on kv-rewind, not kv-zipf");
    ("checkpoint.audit_records", "count", "vlat_p999_us on kv-rewind, not kv-zipf");
    ("checkpoint.flight_events_per_req", "count/req", "vlat_p999_us on kv-rewind, not kv-zipf");
    ("resilience.useful_ratio", "frac", "vlat_p999_us and vgoodput_rps on kv-rewind");
    ("resilience.retries_per_req", "count/req", "vlat_p999_us and vgoodput_rps on kv-rewind");
    ("resilience.replay_hits", "count", "vlat_p999_us and vgoodput_rps on kv-rewind");
    ("resilience.shed", "count", "vlat_p999_us and vgoodput_rps on kv-rewind");
    ("resilience.supervisor_rejections", "count", "vlat_p999_us and vgoodput_rps on kv-rewind");
    ("resilience.fault_fires", "count", "vlat_p999_us and vgoodput_rps on kv-rewind");
    ("netsim.msgs_per_req", "count/req", "host_rps on fleet-uniform and http-static");
    ("netsim.bytes_per_req", "B/req", "host_rps on fleet-uniform and http-static");
    ("netsim.drops", "count", "host_rps on fleet-uniform and http-static");
    ("netsim.host_ns_send_recv", "ns", "host_rps on fleet-uniform and http-static");
    ("kvcache.busy_vcycles_per_req", "cycles/req", "vcap_rps on kv-zipf and kv-rewind");
    ("kvcache.hit_ratio", "frac", "vcap_rps on kv-zipf and kv-rewind");
    ("kvcache.evictions", "count", "vcap_rps on kv-zipf and kv-rewind");
    ("httpd.busy_vcycles_per_req", "cycles/req", "vcap_rps and vlat_p999_us on http-static");
    ("httpd.worker_restarts", "count", "vcap_rps and vlat_p999_us on http-static");
    ("httpd.dropped_connections", "count", "vcap_rps and vlat_p999_us on http-static");
    ("cluster.forwards_per_req", "count/req", "vcap_rps and vlat_p999_us on fleet-uniform");
    ("cluster.router_busy_frac", "frac", "vcap_rps and vlat_p999_us on fleet-uniform");
    ("cluster.shard_imbalance", "ratio", "vcap_rps and vlat_p999_us on fleet-uniform");
    ("cluster.router_shed", "count", "vcap_rps and vlat_p999_us on fleet-uniform");
    ("cluster.forward_timeouts", "count", "vcap_rps and vlat_p999_us on fleet-uniform");
    ("telemetry.trace_overhead_pct", "%", "(the cost of tracing)");
    ("telemetry.spans_dropped", "count", "(the cost of tracing)");
    ("gen.samples", "count", "explains vlat_p999_us");
    ("gen.late_frac", "frac", "explains vlat_p999_us");
    ("gen.host_share", "frac", "keeps host_rps a measure of the program");
    ("gc.minor_words_per_req", "words/req", "host_rps and host_peak_mib on all workloads");
    ("gc.promoted_words_per_req", "words/req", "host_rps and host_peak_mib on all workloads");
    ("gc.major_collections", "count", "host_rps and host_peak_mib on all workloads");
    ("host.cpu_wall_ratio", "frac", "host_rps on all workloads");
    ("host.attributed_share", "frac", "host_rps on all workloads");
    ("host.residual_s", "s", "host_rps on all workloads");
  ]

let run (spec : World.spec) ~seed ~seconds =
  let t_start = Unix.gettimeofday () in
  let ts = Unix.gettimeofday () in
  let sched =
    Measure.schedule spec ~seed ~salt:0 ~n:spec.World.requests ~rps:spec.World.offered_rps
  in
  let sched_s = Unix.gettimeofday () -. ts in
  let plain = ref [] and traced = ref [] and problems = ref [] and digest = ref None in
  let check (sim : Drive.sim) p what =
    let v = Measure.virt_of sim p in
    problems := !problems @ v.Measure.wrong @ sim.Drive.checks;
    match !digest with
    | None -> digest := Some v.Measure.digest
    | Some d ->
        if d <> v.Measure.digest then
          problems := !problems @ [ what ^ " run's virtual outputs differ from the first run's" ]
  in
  let reps = ref 0 and last = ref None in
  while !reps < 1 || Unix.gettimeofday () -. t_start < seconds do
    incr reps;
    let sim, p = Measure.measured spec ~seed in
    check sim p "untraced";
    plain := sim.Drive.run_s :: !plain;
    let ob = fresh () in
    let sim, p = Measure.measured ~around:(around ob) spec ~seed in
    check sim p "traced";
    traced := sim.Drive.run_s :: !traced;
    last := Some (ob, sim, p)
  done;
  let ob, sim, p = Option.get !last in
  let w = sim.Drive.world in
  let outcomes = Sched.outcomes w.World.sched in
  ob.fibers <- List.length outcomes;
  let names = Hashtbl.create 1024 in
  List.iter (fun (tid, name, _) -> Hashtbl.replace names tid name) outcomes;
  let n = float_of_int (Array.length p.Drive.lat) in
  let d name = Option.value (List.assoc_opt name ob.deltas) ~default:0.0 in
  let per name = d name /. n in
  let threads prefix =
    List.filter
      (fun (tid, _, _) ->
        String.starts_with ~prefix (Option.value (Hashtbl.find_opt names tid) ~default:""))
      ob.busy
  in
  let frac sel ths =
    match ths with
    | [] -> 0.0
    | _ ->
        List.fold_left (fun a t -> a +. sel t) 0.0 ths
        /. (float_of_int (List.length ths) *. ob.vspan)
  in
  let workers = threads "mc-worker" @ threads "nginx-worker" in
  let router = threads "cluster.worker-" in
  let rewinds = List.concat_map Kvcache.Server.rewind_latencies w.World.kv in
  let rewinds =
    match w.World.http with
    | Some h -> rewinds @ Httpd.Server.rewind_latencies h
    | None -> rewinds
  in
  let rq q =
    match rewinds with
    | [] -> 0.0
    | l ->
        let a = Array.of_list l in
        Array.sort compare a;
        Measure.us (Drive.percentile a q)
  in
  let served =
    List.filter_map
      (fun (k, v) -> if String.starts_with ~prefix:"served" k then Some v else None)
      ob.deltas
  in
  let imbalance =
    match served with
    | [] | [ _ ] -> 1.0
    | l ->
        let mean = List.fold_left ( +. ) 0.0 l /. float_of_int (List.length l) in
        List.fold_left Float.max 0.0 l /. mean
  in
  let mi = micro ob ~msg_size:(int_of_float (ob.msg_bytes /. float_of_int (max 1 ob.msgs))) in
  let plain_s = Measure.median !plain and traced_s = Measure.median !traced in
  let correct = float_of_int (Drive.correct p) in
  let attempts = if !(w.World.retry_engines) = [] then n else d "calls" +. d "retries" in
  (* GETs answered with a value against those answered with a miss;
     refused GETs are neither. *)
  let hits = ref 0 in
  Array.iteri
    (fun i o -> if o = Gen.Read && Float.is_finite p.Drive.lat.(i) then incr hits)
    sched.Gen.ops;
  let yields = float_of_int ((2 * ob.msgs) + ob.lock_events) in
  let attributed_s =
    1e-9
    *. ((float_of_int ob.accesses *. mi.ns_mix)
       +. ((d "mallocs" +. d "frees") /. 2.0 *. mi.ns_malloc_free)
       +. (d "enters" *. mi.ns_enter_exit)
       +. (float_of_int ob.msgs *. mi.ns_send_recv)
       +. (yields *. mi.ns_yield))
  in
  let values =
    [
      ("simkern.fibers", float_of_int ob.fibers);
      ("simkern.worker_busy_frac", frac (fun (_, b, _) -> b) workers);
      ("simkern.worker_wait_frac", frac (fun (_, _, wt) -> wt) workers);
      ("simkern.lock_events_per_req", float_of_int ob.lock_events /. n);
      ("simkern.host_ns_yield", mi.ns_yield);
      ("vmem.accesses_per_req", float_of_int ob.accesses /. n);
      ("vmem.bytes_per_req", ob.bytes /. n);
      ("vmem.host_ns_per_access", plain_s *. 1e9 /. float_of_int (max 1 ob.accesses));
      ("vmem.host_ns_load64", mi.ns_load64);
      ("vmem.host_ns_blit_mix", mi.ns_mix);
      ("vmem.tlb_hit_rate", d "tlb_hits" /. Float.max 1.0 (d "tlb_hits" +. d "tlb_misses"));
      ("vmem.tlb_shootdowns", d "tlb_shootdowns");
      ("vmem.pkru_writes_per_req", per "pkru_writes");
      ("vmem.pkru_elided_per_req", per "pkru_elided");
      ( "vmem.sim_rss_mib",
        float_of_int (List.fold_left (fun a s -> a + Space.max_rss_bytes s) 0 w.World.spaces)
        /. 1048576.0 );
      ("tlsf.mallocs_per_req", per "mallocs");
      ("tlsf.frees_per_req", per "frees");
      ("tlsf.host_ns_malloc_free", mi.ns_malloc_free);
      ("core.enters_per_req", per "enters");
      ("core.switch_vcycles_per_req", per "switch_cycles");
      ("core.pkru_share", ob.pkru_share);
      ("core.gate_batched_per_req", per "gate_batched");
      ("core.host_ns_enter_exit", mi.ns_enter_exit);
      ("checkpoint.rewinds", d "sdrad_rewinds");
      ("checkpoint.vrewind_p50_us", rq 0.5);
      ("checkpoint.vrewind_p99_us", rq 0.99);
      ( "checkpoint.discard_vcycles_per_rewind",
        if d "sdrad_rewinds" > 0.0 then d "rewind_cycles" /. d "sdrad_rewinds" else 0.0 );
      ("checkpoint.audit_records", d "audit");
      ("checkpoint.flight_events_per_req", per "flight");
      ("resilience.useful_ratio", correct /. attempts);
      ("resilience.retries_per_req", per "retries");
      ("resilience.replay_hits", d "replay_hits");
      ("resilience.shed", d "shed");
      ("resilience.supervisor_rejections", d "sup_rejections" +. d "busy_rejections");
      ("resilience.fault_fires", d "fault_fires");
      ("netsim.msgs_per_req", float_of_int ob.msgs /. n);
      ("netsim.bytes_per_req", ob.msg_bytes /. n);
      ("netsim.drops", d "drops");
      ("netsim.host_ns_send_recv", mi.ns_send_recv);
      ("kvcache.busy_vcycles_per_req", per "kv_busy");
      ( "kvcache.hit_ratio",
        if w.World.kv = [] then 0.0
        else float_of_int !hits /. float_of_int (max 1 (!hits + w.World.misses)) );
      ("kvcache.evictions", d "evictions");
      ( "httpd.busy_vcycles_per_req",
        List.fold_left (fun a (_, b, _) -> a +. b) 0.0 (threads "nginx-worker") /. n );
      ("httpd.worker_restarts", d "http_restarts");
      ("httpd.dropped_connections", d "http_dropped");
      ("cluster.forwards_per_req", per "forwards");
      ("cluster.router_busy_frac", frac (fun (_, b, _) -> b) router);
      ("cluster.shard_imbalance", if w.World.fleet = None then 0.0 else imbalance);
      ("cluster.router_shed", d "router_shed");
      ("cluster.forward_timeouts", d "forward_timeouts");
      ("telemetry.trace_overhead_pct", 100.0 *. (traced_s -. plain_s) /. plain_s);
      ("telemetry.spans_dropped", float_of_int ob.spans_dropped);
      ("gen.samples", n);
      ("gen.late_frac", float_of_int p.Drive.late /. n);
      ("gen.host_share", (sched_s +. w.World.check_s) /. (sched_s +. traced_s));
      ("gc.minor_words_per_req", ob.minor_words /. n);
      ("gc.promoted_words_per_req", ob.promoted_words /. n);
      ("gc.major_collections", float_of_int ob.major_collections);
      ("host.cpu_wall_ratio", ob.cpu_s /. ob.host_s);
      ("host.attributed_share", attributed_s /. plain_s);
      ("host.residual_s", plain_s -. attributed_s);
    ]
  in
  let problems = List.sort_uniq compare !problems in
  List.iter (fun m -> Printf.printf "CHECK FAILED: %s\n" m) problems;
  Printf.printf
    "%s seed %d: %d untraced + %d traced runs of %d requests; untraced run %.3f s, traced %.3f s\n"
    spec.World.name seed !reps !reps (Array.length p.Drive.lat) plain_s traced_s;
  Printf.printf "  %-40s %16s %-10s %s\n" "layer metric" "value" "unit" "should move";
  List.iter
    (fun (name, unit_, moves) ->
      Printf.printf "  %-40s %16.4f %-10s %s\n" name (List.assoc name values) unit_ moves)
    table;
  let ms = List.map (fun (name, unit_, _) -> (name, unit_, List.assoc name values)) table in
  let attempted = !reps * 2 * Array.length p.Drive.lat in
  (problems, attempted, !reps * 2 * (Array.length p.Drive.lat - Drive.correct p), ms)
