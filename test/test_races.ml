(* Tests for the rewind-aware race & atomicity analyzer (Analysis.Race):
   FastTrack/Eraser detection over simkern fibers, the rewind-atomicity
   and lock-discipline rules, the Dlock holder-only clearing contract,
   Dlock poisoning under cluster failover, and the zero-perturbation
   guarantee — a chaos run with the detector attached must be
   byte-for-byte identical to the same run without it. *)

module Space = Vmem.Space
module Sched = Simkern.Sched
module Rng = Simkern.Rng
module Api = Sdrad.Api
module Types = Sdrad.Types
module Dlock = Sdrad.Dlock
module Race = Analysis.Race
module Server = Kvcache.Server
module Proto = Kvcache.Proto
module Fleet = Cluster.Fleet

let check = Alcotest.check
let int = Alcotest.int
let bool = Alcotest.bool

(* Run [f space sd det] in a simulated thread with a detector attached;
   the detector is detached before the result is inspected. *)
let with_race ?granule ?track_root f =
  let space = Space.create ~size_mib:64 () in
  let sd = Api.create space in
  let det = Race.attach ?granule ?track_root sd in
  let sched = Sched.create () in
  let tid = Sched.spawn sched ~name:"main" (fun () -> f space sd det) in
  Sched.run sched;
  Race.detach det;
  (match Sched.outcome sched tid with
  | Some Sched.Completed -> ()
  | Some (Sched.Failed e) -> raise e
  | None -> Alcotest.fail "main thread did not finish");
  det

(* Shared-memory fixture: one data domain, one fresh granule-aligned
   allocation in it. *)
let shared_cell sd =
  Api.init_data sd ~udi:7 ();
  Api.malloc sd ~udi:7 64

(* {1 Engine: happens-before over fibers} *)

let test_unordered_writes_flagged () =
  let det =
    with_race (fun space sd _ ->
        let cell = shared_cell sd in
        let sched = Sched.current () in
        let w1 =
          Sched.spawn sched ~name:"w1" (fun () -> Space.store64 space cell 1)
        in
        let w2 =
          Sched.spawn sched ~name:"w2" (fun () -> Space.store64 space cell 2)
        in
        Sched.join w1;
        Sched.join w2)
  in
  check int "one shared-race" 1 (Race.class_count det `Shared_race);
  match Race.findings det with
  | [ f ] ->
      check Alcotest.string "rule" "shared-race" f.Race.rule;
      check (Alcotest.option int) "owning domain" (Some 7) f.Race.udi
  | fs -> Alcotest.failf "expected exactly one finding, got %d" (List.length fs)

let test_read_write_race_flagged () =
  let det =
    with_race (fun space sd _ ->
        let cell = shared_cell sd in
        let sched = Sched.current () in
        let r =
          Sched.spawn sched ~name:"r" (fun () ->
              ignore (Space.load64 space cell))
        in
        let w =
          Sched.spawn sched ~name:"w" (fun () -> Space.store64 space cell 2)
        in
        Sched.join r;
        Sched.join w)
  in
  check int "read/write race" 1 (Race.class_count det `Shared_race)

let test_mutex_hb_suppresses () =
  let det =
    with_race (fun space sd _ ->
        let cell = shared_cell sd in
        let sched = Sched.current () in
        let mu = Sched.Mutex.create () in
        let touch v () =
          Sched.Mutex.lock mu;
          Space.store64 space cell (Space.load64 space cell + v);
          Sched.Mutex.unlock mu
        in
        let w1 = Sched.spawn sched ~name:"w1" (touch 1) in
        let w2 = Sched.spawn sched ~name:"w2" (touch 2) in
        Sched.join w1;
        Sched.join w2)
  in
  check int "no findings under a common mutex" 0 (Race.total det)

let test_spawn_join_edges () =
  let det =
    with_race (fun space sd _ ->
        let cell = shared_cell sd in
        let sched = Sched.current () in
        Space.store64 space cell 1;
        let child =
          Sched.spawn sched ~name:"child" (fun () ->
              Space.store64 space cell 2)
        in
        Sched.join child;
        Space.store64 space cell 3)
  in
  check int "spawn/join order the accesses" 0 (Race.total det)

let test_alloc_reuse_clears_history () =
  (* The classic reuse false positive: one fiber writes a block and frees
     it, a concurrent fiber gets the same address back from malloc and
     writes it. The Rv_alloc boundary must wipe the granule history. *)
  let det =
    with_race (fun space sd _ ->
        Api.init_data sd ~udi:7 ();
        let sched = Sched.current () in
        let addr1 = ref 0 and addr2 = ref 0 in
        let a =
          Sched.spawn sched ~name:"a" (fun () ->
              let p = Api.malloc sd ~udi:7 48 in
              addr1 := p;
              Space.store64 space p 1;
              Api.free sd ~udi:7 p)
        in
        Sched.join a;
        let b =
          Sched.spawn sched ~name:"b" (fun () ->
              let p = Api.malloc sd ~udi:7 48 in
              addr2 := p;
              Space.store64 space p 2)
        in
        Sched.join b;
        (* The premise of the test: TLSF recycled the block. *)
        check int "allocator reused the address" !addr1 !addr2)
  in
  check int "no race across a malloc reuse boundary" 0 (Race.total det)

(* {1 Rewind atomicity} *)

let in_domain sd udi f =
  Api.run sd ~udi
    ~on_rewind:(fun _ -> ())
    (fun () ->
      Api.enter sd udi;
      Api.dprotect sd ~udi ~tddi:7 Vmem.Prot.rw;
      let r = f () in
      Api.exit_domain sd;
      r)

let test_unlocked_nested_write_is_hazard () =
  let det =
    with_race (fun space sd _ ->
        let cell = shared_cell sd in
        in_domain sd 1 (fun () -> Space.store64 space cell 42))
  in
  check int "rewind-atomicity hazard" 1 (Race.class_count det `Rewind_atomicity);
  match
    List.filter (fun f -> f.Race.rule = "rewind-atomicity") (Race.findings det)
  with
  | [ f ] -> check (Alcotest.option int) "hazard domain" (Some 1) f.Race.udi
  | _ -> Alcotest.fail "expected one rewind-atomicity finding"

let test_dlock_guard_suppresses_hazard () =
  let det =
    with_race (fun space sd _ ->
        let cell = shared_cell sd in
        let l = Dlock.create sd in
        in_domain sd 1 (fun () ->
            Dlock.with_lock l (fun ~poisoned:_ ->
                Space.store64 space cell 42)))
  in
  check int "no hazard under a Dlock" 0 (Race.class_count det `Rewind_atomicity)

(* {1 Lock discipline} *)

let test_cross_domain_release_flagged () =
  let det =
    with_race (fun _ sd _ ->
        ignore (shared_cell sd);
        let l = Dlock.create sd in
        in_domain sd 2 (fun () -> ignore (Dlock.acquire l));
        Dlock.release l)
  in
  check int "cross-domain release" 1 (Race.class_count det `Lock_discipline)

let crash_holding sd space l udi =
  Api.run sd ~udi
    ~on_rewind:(fun _ -> ())
    (fun () ->
      Api.enter sd udi;
      ignore (Dlock.acquire l);
      ignore (Space.load8 space 0))

let test_unguarded_poison_clear_flagged () =
  let det =
    with_race (fun space sd _ ->
        ignore (shared_cell sd);
        let l = Dlock.create sd in
        crash_holding sd space l 3;
        check bool "arrived poisoned" false (Dlock.acquire l);
        Dlock.clear_poisoned l;
        Dlock.release l)
  in
  check int "unguarded clear" 1 (Race.class_count det `Lock_discipline)

let test_guarded_poison_clear_ok () =
  let det =
    with_race (fun space sd _ ->
        let cell = shared_cell sd in
        let l = Dlock.create sd in
        crash_holding sd space l 3;
        check bool "arrived poisoned" false (Dlock.acquire l);
        (* Rebuild the protected state while holding, then clear: the
           guarding write makes the clear legitimate. *)
        Space.store64 space cell 0;
        Dlock.clear_poisoned l;
        Dlock.release l)
  in
  check int "guarded clear is clean" 0 (Race.class_count det `Lock_discipline)

(* {1 Dlock holder-only clearing (regression)} *)

let test_clear_poisoned_requires_holder () =
  let space = Space.create ~size_mib:32 () in
  let sd = Api.create space in
  let sched = Sched.create () in
  let tid =
    Sched.spawn sched ~name:"main" (fun () ->
        let l = Dlock.create sd in
        (* Nobody holds it. *)
        Alcotest.check_raises "unheld clear rejected"
          (Invalid_argument
             "Dlock.clear_poisoned: caller does not hold the lock")
          (fun () -> Dlock.clear_poisoned l);
        (* Somebody else holds it. *)
        let holder =
          Sched.spawn (Sched.current ()) ~name:"holder" (fun () ->
              ignore (Dlock.acquire l);
              Sched.sleep 10_000.0;
              Dlock.release l)
        in
        Sched.sleep 1_000.0;
        Alcotest.check_raises "foreign clear rejected"
          (Invalid_argument
             "Dlock.clear_poisoned: caller does not hold the lock")
          (fun () -> Dlock.clear_poisoned l);
        Sched.join holder;
        (* The holder itself may clear. *)
        ignore (Dlock.acquire l);
        Dlock.clear_poisoned l;
        Dlock.release l)
  in
  Sched.run sched;
  match Sched.outcome sched tid with
  | Some Sched.Completed -> ()
  | Some (Sched.Failed e) -> raise e
  | None -> Alcotest.fail "main thread did not finish"

(* {1 Publication into the flight recorder} *)

let test_publish_flight_events () =
  let space = Space.create ~size_mib:64 () in
  let sd = Api.create space in
  let det = Race.attach sd in
  let sched = Sched.create () in
  let _ =
    Sched.spawn sched ~name:"main" (fun () ->
        let cell = shared_cell sd in
        in_domain sd 1 (fun () -> Space.store64 space cell 42);
        Race.publish det)
  in
  Sched.run sched;
  Race.detach det;
  check int "one finding" 1 (Race.total det);
  let races =
    List.filter
      (fun (e : Checkpoint.Flight.event) -> e.e_kind = Checkpoint.Flight.Race)
      (Api.flight_events sd ~udi:1)
  in
  check int "finding published to domain 1's ring" 1 (List.length races)

(* {1 Planted hazard across seeds} *)

(* A seeded scenario — noise volume varies with the seed — with one
   planted unlocked shared write inside a nested domain. The hazard must
   be reported on every seed. *)
let test_planted_hazard_every_seed () =
  List.iter
    (fun seed ->
      let det =
        with_race (fun space sd _ ->
            let cell = shared_cell sd in
            let l = Dlock.create sd in
            let rng = Rng.create seed in
            for _ = 1 to 5 + Rng.int rng 10 do
              Dlock.with_lock l (fun ~poisoned:_ ->
                  Space.store64 space cell (Rng.int rng 1000))
            done;
            in_domain sd 9 (fun () -> Space.store64 space (cell + 32) 1))
      in
      check bool
        (Printf.sprintf "hazard reported for seed %d" seed)
        true
        (Race.class_count det `Rewind_atomicity >= 1))
    [ 3; 7; 11; 23; 42 ]

(* {1 Zero perturbation: detector-on == detector-off} *)

(* One seeded kvcache chaos run: benign clients, one attacker firing the
   lying SET, and a planted rewind-atomicity hazard. Every reply byte,
   the final store contents and the final virtual clock go into the
   digest. *)
let run_kv_digest ~seed ~race =
  let space = Space.create ~size_mib:192 () in
  let sd = Api.create space in
  let sched = Sched.create () in
  let net = Netsim.create (Space.cost space) in
  let cfg =
    {
      Server.default_config with
      variant = Server.Sdrad;
      vulnerable = true;
      workers = 2;
      race_detector = race;
    }
  in
  let buf = Buffer.create 4096 in
  let srv = ref None in
  let _ =
    Sched.spawn sched ~name:"diff" (fun () ->
        let s = Server.start sched space ~sdrad:sd net cfg in
        srv := Some s;
        let tids = ref [] in
        for i = 0 to 2 do
          tids :=
            Sched.spawn sched
              ~name:(Printf.sprintf "good%d" i)
              (fun () ->
                let rng = Rng.create (seed + (31 * i)) in
                let c = Netsim.connect net ~port:11211 in
                for _ = 1 to 25 do
                  Sched.sleep (float_of_int (Rng.int rng 4_000));
                  let key = Printf.sprintf "k%d" (Rng.int rng 20) in
                  let req =
                    match Rng.int rng 3 with
                    | 0 -> Proto.fmt_get key
                    | 1 ->
                        let value =
                          Bytes.to_string (Rng.bytes rng (1 + Rng.int rng 200))
                        in
                        Proto.fmt_set ~key ~flags:0 ~value
                    | _ -> Proto.fmt_delete key
                  in
                  Netsim.send c req;
                  match Netsim.recv c with
                  | Some r -> Buffer.add_string buf r
                  | None -> Buffer.add_string buf "<none>"
                done;
                Netsim.close c)
            :: !tids
        done;
        tids :=
          Sched.spawn sched ~name:"evil" (fun () ->
              let rng = Rng.create (seed + 999) in
              Sched.sleep (float_of_int (5_000 + Rng.int rng 50_000));
              let c = Netsim.connect net ~port:11211 in
              Netsim.send c
                (Proto.fmt_set_lying ~key:"pwn" ~flags:0 ~declared:(-1)
                   ~value:(String.make 500 'X'));
              (match Netsim.recv c with
              | Some r -> Buffer.add_string buf r
              | None -> Buffer.add_string buf "<closed>");
              Netsim.close c)
          :: !tids;
        (* The planted hazard, in both runs, so the workloads match. *)
        tids :=
          Sched.spawn sched ~name:"plant" (fun () ->
              Sched.sleep 40_000.0;
              Api.run sd ~udi:55
                ~on_rewind:(fun _ -> ())
                (fun () ->
                  Api.enter sd 55;
                  Api.dprotect sd ~udi:55 ~tddi:cfg.Server.db_udi Vmem.Prot.rw;
                  let p = Api.malloc sd ~udi:cfg.Server.db_udi 32 in
                  Space.store64 space p 0xDEAD;
                  Api.free sd ~udi:cfg.Server.db_udi p;
                  Api.exit_domain sd))
          :: !tids;
        List.iter Sched.join !tids;
        Buffer.add_string buf
          (Printf.sprintf "|rewinds=%d|count=%d|t=%.0f" (Server.rewinds s)
             (Kvcache.Store.count (Server.store s))
             (Sched.now ()));
        Server.stop s)
  in
  Sched.run sched;
  let s = Option.get !srv in
  let det = Server.race_detector s in
  (match det with Some d -> Race.detach d | None -> ());
  ( Digest.to_hex (Digest.string (Buffer.contents buf)),
    match det with Some d -> Race.class_count d `Rewind_atomicity | None -> 0 )

let test_kv_differential () =
  List.iter
    (fun seed ->
      let off, _ = run_kv_digest ~seed ~race:false in
      let on, hazards = run_kv_digest ~seed ~race:true in
      check Alcotest.string
        (Printf.sprintf "seed %d: detector-on run byte-identical" seed)
        off on;
      check bool
        (Printf.sprintf "seed %d: planted hazard reported" seed)
        true (hazards >= 1))
    [ 3; 7; 11; 23; 42 ]

(* The web server under the same differential treatment. *)
let run_web_digest ~seed ~race =
  let space = Space.create ~size_mib:192 () in
  let sd = Api.create space in
  let sched = Sched.create () in
  let net = Netsim.create (Space.cost space) in
  let fs = Httpd.Fs.create space in
  Httpd.Fs.add fs ~path:"/index.html" ~size:2048;
  let cfg =
    {
      Httpd.Server.default_config with
      variant = Httpd.Server.Sdrad;
      workers = 2;
      race_detector = race;
    }
  in
  let buf = Buffer.create 4096 in
  let srv = ref None in
  let _ =
    Sched.spawn sched ~name:"diff" (fun () ->
        let s = Httpd.Server.start sched space ~sdrad:sd net ~fs cfg in
        srv := Some s;
        let tids = ref [] in
        for i = 0 to 1 do
          tids :=
            Sched.spawn sched
              ~name:(Printf.sprintf "web%d" i)
              (fun () ->
                let rng = Rng.create (seed + (17 * i)) in
                for _ = 1 to 10 do
                  Sched.sleep (float_of_int (Rng.int rng 6_000));
                  let c = Netsim.connect net ~port:8080 in
                  Netsim.send c
                    "GET /index.html HTTP/1.0\r\nHost: x\r\n\r\n";
                  (match Netsim.recv c with
                  | Some r -> Buffer.add_string buf r
                  | None -> Buffer.add_string buf "<none>");
                  Netsim.close c
                done)
            :: !tids
        done;
        List.iter Sched.join !tids;
        Buffer.add_string buf (Printf.sprintf "|t=%.0f" (Sched.now ()));
        Httpd.Server.stop s)
  in
  Sched.run sched;
  let s = Option.get !srv in
  (match Httpd.Server.race_detector s with
  | Some d -> Race.detach d
  | None -> ());
  Digest.to_hex (Digest.string (Buffer.contents buf))

let test_web_differential () =
  List.iter
    (fun seed ->
      let off = run_web_digest ~seed ~race:false in
      let on = run_web_digest ~seed ~race:true in
      check Alcotest.string
        (Printf.sprintf "seed %d: web run byte-identical" seed)
        off on)
    [ 3; 7; 11; 23; 42 ]

(* The sharded fleet: rid-carrying writes, a planned failover, reads
   through the shrunken ring. Every shard runs with (or without) a
   detector via the kv config template. *)
let run_cluster_digest ~seed ~race =
  let sched = Sched.create () in
  let net = Netsim.create Simkern.Cost.default in
  let cfg =
    {
      Fleet.default_config with
      shards = 2;
      kv = { Fleet.default_config.kv with race_detector = race };
    }
  in
  let buf = Buffer.create 4096 in
  let fleet = ref None in
  let _ =
    Sched.spawn sched ~name:"diff" (fun () ->
        let t = Fleet.start sched net cfg in
        fleet := Some t;
        let c = Netsim.connect net ~port:cfg.Fleet.router_port in
        let rng = Rng.create seed in
        for i = 1 to 10 do
          Sched.sleep (float_of_int (1_000 + Rng.int rng 4_000));
          Netsim.send c
            (Proto.fmt_storage "set"
               ~rid:(Printf.sprintf "d%d-%d" seed i)
               ~key:(Printf.sprintf "k%d" i)
               ~flags:0 ~value:"v" ());
          match Netsim.recv c with
          | Some r -> Buffer.add_string buf r
          | None -> Buffer.add_string buf "<none>"
        done;
        Fleet.drain_shard t 0;
        for i = 1 to 10 do
          Sched.sleep 2_000.0;
          Netsim.send c (Proto.fmt_get (Printf.sprintf "k%d" i));
          match Netsim.recv c with
          | Some r -> Buffer.add_string buf r
          | None -> Buffer.add_string buf "<none>"
        done;
        Buffer.add_string buf
          (Printf.sprintf "|failovers=%d|t=%.0f" (Fleet.failovers t)
             (Sched.now ()));
        Netsim.close c;
        Fleet.stop t)
  in
  Sched.run sched;
  let t = Option.get !fleet in
  for i = 0 to Fleet.shard_count t - 1 do
    match Server.race_detector (Fleet.shard_server t i) with
    | Some d -> Race.detach d
    | None -> ()
  done;
  Digest.to_hex (Digest.string (Buffer.contents buf))

let test_cluster_differential () =
  List.iter
    (fun seed ->
      let off = run_cluster_digest ~seed ~race:false in
      let on = run_cluster_digest ~seed ~race:true in
      check Alcotest.string
        (Printf.sprintf "seed %d: cluster run byte-identical" seed)
        off on)
    [ 3; 7; 11; 23; 42 ]

(* {1 Dlock poisoning under cluster failover} *)

(* A shard-side critical section dies with its shard (the scheduler kills
   the fiber, as fault injection models a crash). The Dlock must be
   poison-released by the unwind, so the post-failover acquirer — the
   replaying new owner — sees the poison instead of deadlocking. *)
let test_failover_dlock_poison () =
  let sched = Sched.create () in
  let net = Netsim.create Simkern.Cost.default in
  let cfg = { Fleet.default_config with shards = 2 } in
  let saw_poison = ref None in
  let _ =
    Sched.spawn sched ~name:"test" (fun () ->
        let t = Fleet.start sched net cfg in
        let sd0 = Fleet.shard_sd t 0 in
        let l = Dlock.create sd0 in
        let holder =
          Sched.spawn (Sched.current ()) ~name:"cs-holder" (fun () ->
              Dlock.with_lock l (fun ~poisoned:_ ->
                  (* Parked mid-critical-section when the crash lands. *)
                  Sched.sleep 1.0e12))
        in
        Sched.sleep 10_000.0;
        (* The shard crash takes the fiber mid-section... *)
        Sched.kill (Sched.current ()) holder;
        (* ...and the fleet fails the shard's keys over. *)
        Fleet.drain_shard t 0;
        (* The replaying new owner must get the lock — poisoned. *)
        let clean = Dlock.acquire l in
        saw_poison := Some (not clean);
        Dlock.clear_poisoned l;
        Dlock.release l;
        Fleet.stop t)
  in
  Sched.run sched;
  check (Alcotest.option bool) "new owner saw the poison, no deadlock"
    (Some true) !saw_poison

let () =
  Alcotest.run "races"
    [
      ( "engine",
        [
          Alcotest.test_case "unordered writes" `Quick
            test_unordered_writes_flagged;
          Alcotest.test_case "read/write race" `Quick
            test_read_write_race_flagged;
          Alcotest.test_case "mutex suppresses" `Quick test_mutex_hb_suppresses;
          Alcotest.test_case "spawn/join edges" `Quick test_spawn_join_edges;
          Alcotest.test_case "alloc reuse clears" `Quick
            test_alloc_reuse_clears_history;
        ] );
      ( "rewind-atomicity",
        [
          Alcotest.test_case "unlocked nested write" `Quick
            test_unlocked_nested_write_is_hazard;
          Alcotest.test_case "dlock guard" `Quick
            test_dlock_guard_suppresses_hazard;
          Alcotest.test_case "planted hazard, 5 seeds" `Quick
            test_planted_hazard_every_seed;
        ] );
      ( "lock-discipline",
        [
          Alcotest.test_case "cross-domain release" `Quick
            test_cross_domain_release_flagged;
          Alcotest.test_case "unguarded poison clear" `Quick
            test_unguarded_poison_clear_flagged;
          Alcotest.test_case "guarded poison clear ok" `Quick
            test_guarded_poison_clear_ok;
        ] );
      ( "dlock",
        [
          Alcotest.test_case "holder-only clear" `Quick
            test_clear_poisoned_requires_holder;
          Alcotest.test_case "failover poison surfaces" `Slow
            test_failover_dlock_poison;
        ] );
      ( "publication",
        [
          Alcotest.test_case "flight events" `Quick test_publish_flight_events;
        ] );
      ( "differential",
        [
          Alcotest.test_case "kvcache, 5 seeds" `Slow test_kv_differential;
          Alcotest.test_case "httpd, 5 seeds" `Slow test_web_differential;
          Alcotest.test_case "cluster, 5 seeds" `Slow test_cluster_differential;
        ] );
    ]
