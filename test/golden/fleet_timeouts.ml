(* Determinism golden for the scheduler's timed waits: a small seeded
   fleet behind the router, with retrying YCSB clients and 1% of all
   messages dropped, so router forward deadlines and client
   [recv_deadline] timeouts really fire. Every figure printed is a
   virtual-time or count output; a change to how timeouts are scheduled
   that moves any event by one cycle shows up here. *)

module Sched = Simkern.Sched
module Cost = Simkern.Cost
module Rng = Simkern.Rng
module Fleet = Cluster.Fleet
module Ycsb = Workload.Ycsb

let shards = 3

let run seed =
  let sched = Sched.create () in
  let net = Netsim.create Cost.default in
  let drops = ref 0 in
  let rng = Rng.create (1000 + seed) in
  Netsim.set_fault_hook net
    (Some
       (fun ~len:_ ->
         if Rng.float rng < 0.01 then begin
           incr drops;
           Netsim.Drop
         end
         else Netsim.Deliver));
  let cfg = { Fleet.default_config with shards } in
  let wl =
    {
      Ycsb.default_config with
      records = 300;
      value_size = 64;
      operations = 2400;
      clients = 48;
      distribution = Ycsb.Uniform;
      read_fraction = 0.8;
      port = cfg.Fleet.router_port;
      seed;
      retry = Some Resilience.Retry.default_policy;
      arrival_interval = 8000.0;
    }
  in
  let fleet = ref None and read = ref (fun () -> assert false) in
  let _ =
    Sched.spawn sched ~name:"golden" (fun () ->
        let f = Fleet.start sched net cfg in
        fleet := Some f;
        read := Ycsb.launch sched net wl ~on_done:(fun () -> Fleet.stop f) ())
  in
  Sched.run sched;
  let f = Option.get !fleet and r = !read () in
  Printf.printf "seed %d\n" seed;
  Printf.printf "  horizon_cycles    %.17g\n" (Sched.horizon sched);
  Printf.printf "  drops             %d\n" !drops;
  Printf.printf "  served_per_shard ";
  for i = 0 to shards - 1 do
    Printf.printf " %d" (Kvcache.Server.requests_served (Fleet.shard_server f i))
  done;
  print_newline ();
  Printf.printf "  forward_timeouts  %d\n" (Fleet.forward_timeouts f);
  Printf.printf "  router_shed       %d\n" (Fleet.router_shed f);
  Printf.printf "  failovers         %d\n" (Fleet.failovers f);
  Printf.printf "  run_ops           %d\n" r.Ycsb.run_ops;
  Printf.printf "  failures          %d\n" r.Ycsb.failures;
  Printf.printf "  retries           %d\n" r.Ycsb.retries;
  Printf.printf "  run_cycles        %.17g\n" r.Ycsb.run_cycles;
  let lat = Array.of_list r.Ycsb.run_latencies in
  Array.sort compare lat;
  let n = Array.length lat in
  List.iter
    (fun (label, q) ->
      let i = min (n - 1) (int_of_float (q *. float_of_int n)) in
      Printf.printf "  lat_%-5s         %.17g\n" label lat.(i))
    [ ("p50", 0.50); ("p90", 0.90); ("p99", 0.99); ("p999", 0.999); ("max", 1.0) ];
  Printf.printf "  lat_sum           %.17g\n" (Array.fold_left ( +. ) 0.0 lat)

let () = List.iter run [ 1; 2; 3 ]
