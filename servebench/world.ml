(* Simulated worlds, one per workload kind, built from a seed and driven
   only through the servers' public APIs: [Kvcache.Server],
   [Httpd.Server], [Cluster.Fleet], [Netsim], [Kvcache.Proto] and
   [Resilience.Retry]. *)

module Sched = Simkern.Sched
module Space = Vmem.Space
module Api = Sdrad.Api
module Proto = Kvcache.Proto

type kind = Kv | Fleet | Http

(* The public configuration a sensitivity run may change. *)
type knobs = { proc_scale : float; race_detector : bool }

let default_knobs = { proc_scale = 1.0; race_detector = false }

type spec = {
  name : string;
  kind : kind;
  offered_rps : float;  (** fixed offered rate of the measured run *)
  limit_us : float;  (** p99.9 latency limit that defines capacity *)
  records : int;
  value_size : int;
  read_fraction : float;
  keys : Gen.keys;
  sessions : int;
  faults : bool;  (** wild writes, drops, supervisor and retries *)
  requests : int;  (** run-phase requests of the measured run *)
}

type outcome = Ok_reply | Refused | Wrong of string

type world = {
  sched : Sched.t;
  net : Netsim.t;
  spaces : Space.t list;
  sds : Api.t list;
  kv : Kvcache.Server.t list;
  http : Httpd.Server.t option;
  fleet : Cluster.Fleet.t option;
  faults : Resilience.Fault_inject.t option;
  retry_engines : Resilience.Retry.t list ref;
  mutable drops : int;
  mutable on_send : (int -> unit) option;  (** observes every message *)
  mutable time_checks : bool;  (** account host time of reply checks *)
  mutable check_s : float;
  mutable misses : int;  (** run-phase GET misses *)
  load : unit -> unit;  (** record load; runs inside the simulation *)
  start_run : unit -> unit;  (** arm the run phase's link faults *)
  issue : int -> Gen.op -> int -> outcome;  (** session, op, record *)
  stop : unit -> unit;
  checks : unit -> string list;
}

let cycles_per_us = Simkern.Cost.cycles_of_us Simkern.Cost.default 1.0

let retry_policy =
  {
    Resilience.Retry.max_attempts = 6;
    attempt_timeout = 150_000.0;
    overall_timeout = 8.0e6;
    backoff_base = 5_000.0;
    backoff_cap = 160_000.0;
  }

let kv_config knobs =
  {
    Kvcache.Server.default_config with
    variant = Kvcache.Server.Sdrad;
    workers = 4;
    proc_cycles = Kvcache.Server.default_config.proc_cycles *. knobs.proc_scale;
    race_detector = knobs.race_detector;
  }

let http_path = "/static/page.bin"
let http_size = 16 * 1024

let http_request =
  Printf.sprintf "GET %s HTTP/1.1\r\nHost: bench.local\r\nConnection: keep-alive\r\n\r\n"
    http_path

(* A per-session connection, opened on first use and reopened when the
   server or a timeout closed it. *)
let live net port conn =
  match !conn with
  | Some c when Netsim.is_open c && not (Netsim.peer_closed c) -> c
  | prev ->
      Option.iter Netsim.close prev;
      let c = Netsim.connect net ~port in
      conn := Some c;
      c

(* Every record is loaded before the run and the store never evicts at
   these sizes, so a GET miss is lost data: it fails the run like a wrong
   value, and [on_miss] counts it for the hit ratio. *)
let check_kv ~body ~on_miss op key reply =
  match (op, Proto.parse_reply reply) with
  | Gen.Read, Proto.Value v ->
      if Gen.value_ok ~body key v then Ok_reply
      else Wrong (Printf.sprintf "GET %s: wrong value" (Gen.key_of key))
  | Gen.Read, Proto.Miss ->
      on_miss ();
      Wrong (Printf.sprintf "GET %s: miss" (Gen.key_of key))
  | Gen.Update, Proto.Stored -> Ok_reply
  | _, Proto.Failed _ -> Refused
  | _ ->
      Wrong
        (Printf.sprintf "%s %s: unexpected reply %S"
           (match op with Gen.Read -> "GET" | Gen.Update -> "SET")
           (Gen.key_of key)
           (String.sub reply 0 (min 40 (String.length reply))))

(* Reply checks, timed when a traced run asks for the generator's own
   host cost. *)
let timed (w : world option ref) f =
  match !w with
  | Some w when w.time_checks ->
      let t = Unix.gettimeofday () in
      let r = f () in
      w.check_s <- w.check_s +. (Unix.gettimeofday () -. t);
      r
  | _ -> f ()

let kv_request ~body ?rid ~trace op key =
  match op with
  | Gen.Read -> Proto.fmt_get ~trace (Gen.key_of key)
  | Gen.Update ->
      Proto.fmt_storage "set" ?rid ~trace ~key:(Gen.key_of key) ~flags:0
        ~value:(Gen.value_of ~body key) ()

(* Build the world for [spec] inside the running simulation. Sessions
   past [spec.sessions] belong to the record loaders. *)
let build spec knobs ~seed sched =
  let net = Netsim.create Simkern.Cost.default in
  let body = Gen.value_body spec.value_size in
  let loaders = 16 in
  let n_sessions = spec.sessions + loaders in
  let conns = Array.init n_sessions (fun _ -> ref None) in
  let retry_engines = ref [] in
  let self = ref None in
  let on_miss () = Option.iter (fun w -> w.misses <- w.misses + 1) !self in
  let check_kv ~body op key r = timed self (fun () -> check_kv ~body ~on_miss op key r) in
  let engines =
    Array.init n_sessions (fun i ->
        if spec.faults then begin
          let e =
            Resilience.Retry.create retry_policy
              ~rng:(Simkern.Rng.create ((seed * 7_919) + i))
              ~name:(Printf.sprintf "s%d-" i)
          in
          retry_engines := e :: !retry_engines;
          Some e
        end
        else None)
  in
  let kv_issue port s op key =
    let conn = conns.(s) in
    match engines.(s) with
    | None -> (
        let c = live net port conn in
        Netsim.send c (kv_request ~body ~trace:0L op key);
        match Netsim.recv c with
        | Some r -> check_kv ~body op key r
        | None -> Refused)
    | Some eng -> (
        match
          Resilience.Retry.execute_ctx eng (fun ~ctx ~rid ~attempt:_ ~deadline ->
              let c = live net port conn in
              Netsim.send c
                (kv_request ~body ~rid ~trace:(Telemetry.Context.trace ctx) op key);
              match Netsim.recv_deadline c ~deadline with
              | Some r when r = Proto.server_error_busy -> Error (`Retry "busy")
              | Some r -> Ok r
              | None ->
                  Netsim.close c;
                  Error (`Retry "timeout"))
        with
        | Ok r -> check_kv ~body op key r
        | Error _ -> Refused)
  in
  (* Sixteen loaders store the records round-robin, each on its own
     session. *)
  let kv_load issue () =
    let failures = ref [] in
    let tids =
      List.init loaders (fun l ->
          Sched.spawn sched ~name:(Printf.sprintf "load%d" l) (fun () ->
              let k = ref l in
              while !k < spec.records do
                (match issue (spec.sessions + l) Gen.Update !k with
                | Ok_reply -> ()
                | Refused -> failures := Printf.sprintf "load of record %d refused" !k :: !failures
                | Wrong m -> failures := m :: !failures);
                k := !k + loaders
              done;
              Option.iter Netsim.close !(conns.(spec.sessions + l))))
    in
    List.iter Sched.join tids;
    if !failures <> [] then failwith (List.hd !failures)
  in
  let close_all () = Array.iter (fun c -> Option.iter Netsim.close !c) conns in
  (* The run phase's link: 1% seeded drops on a faulty workload, and an
     observer for traced runs. A hook answering [Deliver] is the same as
     no hook. *)
  let drop_hook w () =
    self := Some w;
    let r = Gen.Rng.split seed 99 in
    Netsim.set_fault_hook net
      (Some
         (fun ~len ->
           Option.iter (fun f -> f len) w.on_send;
           if spec.faults && Gen.Rng.float r < 0.01 then begin
             w.drops <- w.drops + 1;
             Netsim.Drop
           end
           else Netsim.Deliver))
  in
  match spec.kind with
  | Kv ->
      let space = Space.create ~size_mib:192 () in
      let sd = Api.create space in
      let sup, faults =
        if spec.faults then
          ( Some
              (Resilience.Supervisor.attach
                 ~policy:
                   {
                     Resilience.Supervisor.default_policy with
                     budget_max = 100_000;
                     backoff_base = 2_000.0;
                     backoff_max = 20_000.0;
                   }
                 sd),
            Some
              (Resilience.Fault_inject.create ~seed
                 [
                   Resilience.Fault_inject.rule ~prob:0.005 ~site:"kv.domain"
                     Resilience.Fault_inject.Wild_write;
                 ]) )
        else (None, None)
      in
      let cfg = kv_config knobs in
      let srv = Kvcache.Server.start sched space ~sdrad:sd ?supervisor:sup ?faults net cfg in
      let issue = kv_issue cfg.Kvcache.Server.port in
      let rec w =
        {
          sched; net; spaces = [ space ]; sds = [ sd ]; kv = [ srv ]; http = None;
          fleet = None; faults; retry_engines; drops = 0;
          on_send = None; time_checks = false; check_s = 0.0; misses = 0;
          load = kv_load issue;
          start_run = (fun () -> drop_hook w ());
          issue;
          stop =
            (fun () ->
              close_all ();
              Kvcache.Server.stop srv);
          checks =
            (fun () ->
              let db = Kvcache.Server.db_check srv in
              let rw =
                match (faults, sup) with
                | Some f, Some sup ->
                    let fires = Resilience.Fault_inject.fires f
                    and rewinds = Kvcache.Server.rewinds srv
                    and audit = Api.audit_appended sd
                    and quarantined =
                      Resilience.Supervisor.transition_count sup
                        ~from:Resilience.Supervisor.Backoff
                        ~target:Resilience.Supervisor.Quarantined
                      + Resilience.Supervisor.transition_count sup
                          ~from:Resilience.Supervisor.Closed
                          ~target:Resilience.Supervisor.Quarantined
                      + Resilience.Supervisor.transition_count sup
                          ~from:Resilience.Supervisor.Half_open
                          ~target:Resilience.Supervisor.Quarantined
                    in
                    (if fires = rewinds && rewinds = audit then []
                     else
                       [ Printf.sprintf "fault fires %d, rewinds %d, audit records %d differ"
                           fires rewinds audit ])
                    @ if quarantined = 0 then []
                      else [ Printf.sprintf "%d quarantines" quarantined ]
                | _ -> []
              in
              List.map (fun m -> "db_check: " ^ m) db @ rw);
        }
      in
      w
  | Fleet ->
      let base = Cluster.Fleet.default_config in
      let cfg =
        {
          base with
          shards = 4;
          router_workers = 48;
          (* No request may be refused at the offered rate: a slow reply
             must show as latency, so the router's forward deadline and
             shed age sit well above the 300 us latency limit. *)
          forward_timeout = 1.0e6;
          shed_wait = 1.2e6;
          kv = { (kv_config knobs) with Kvcache.Server.port = base.Cluster.Fleet.base_port };
        }
      in
      let fleet = Cluster.Fleet.start sched net cfg in
      let issue = kv_issue cfg.Cluster.Fleet.router_port in
      let shards = List.init 4 (fun i -> i) in
      let rec w =
        {
          sched; net;
          spaces = List.map (fun i -> Api.space (Cluster.Fleet.shard_sd fleet i)) shards;
          sds = List.map (Cluster.Fleet.shard_sd fleet) shards;
          kv = List.map (Cluster.Fleet.shard_server fleet) shards;
          http = None; fleet = Some fleet; faults = None; retry_engines; drops = 0;
          on_send = None; time_checks = false; check_s = 0.0; misses = 0;
          load = kv_load issue;
          start_run = (fun () -> drop_hook w ());
          issue;
          stop =
            (fun () ->
              close_all ();
              Cluster.Fleet.stop fleet);
          checks =
            (fun () ->
              List.concat_map
                (fun i ->
                  List.map
                    (fun m -> Printf.sprintf "shard %d db_check: %s" i m)
                    (Kvcache.Server.db_check (Cluster.Fleet.shard_server fleet i))
                  @
                  match Cluster.Fleet.shard_state fleet i with
                  | "serving" -> []
                  | s -> [ Printf.sprintf "shard %d ends %s" i s ])
                shards
              @
              match Cluster.Fleet.failovers fleet with
              | 0 -> []
              | n -> [ Printf.sprintf "%d failovers" n ]);
        }
      in
      w
  | Http ->
      let space = Space.create ~size_mib:192 () in
      let sd = Api.create space in
      let fs = Httpd.Fs.create space in
      Httpd.Fs.add fs ~path:http_path ~size:http_size;
      let expected = Httpd.Fs.read_body fs http_path in
      let cfg =
        {
          Httpd.Server.default_config with
          variant = Httpd.Server.Sdrad;
          workers = 4;
          proc_cycles = Httpd.Server.default_config.proc_cycles *. knobs.proc_scale;
          race_detector = knobs.race_detector;
        }
      in
      let srv = Httpd.Server.start sched space ~sdrad:sd net ~fs cfg in
      let port = cfg.Httpd.Server.port in
      let issue s _op _key =
        let c = live net port conns.(s) in
        Netsim.send c http_request;
        match Netsim.recv c with
        | None -> Refused
        | Some r ->
            timed self @@ fun () ->
            let n = String.length r and b = String.length expected in
            if n >= 12 && String.sub r 9 3 = "503" then Refused
            else if
              n > b && String.sub r 0 12 = "HTTP/1.1 200"
              && Gen.sub_equal r (n - b - 4) "\r\n\r\n" 0 4
              && Gen.sub_equal r (n - b) expected 0 b
            then Ok_reply
            else Wrong (Printf.sprintf "HTTP reply %S" (String.sub r 0 (min 40 n)))
      in
      let rec w =
        {
          sched; net; spaces = [ space ]; sds = [ sd ]; kv = []; http = Some srv;
          fleet = None; faults = None; retry_engines; drops = 0;
          on_send = None; time_checks = false; check_s = 0.0; misses = 0;
          load = (fun () -> ());
          start_run = (fun () -> drop_hook w ());
          issue;
          stop =
            (fun () ->
              close_all ();
              Httpd.Server.stop srv);
          checks =
            (fun () ->
              (match Httpd.Server.worker_restarts srv with
              | 0 -> []
              | n -> [ Printf.sprintf "%d httpd worker restarts" n ])
              @
              match Httpd.Server.dropped_connections srv with
              | 0 -> []
              | n -> [ Printf.sprintf "%d httpd connections dropped" n ]);
        }
      in
      w
