(* The four workloads. Offered rates and latency limits are fixed here,
   absolute, and quoted in each workload's "why" in BENCHMARK.json; each
   offered rate sits near 80% of the workload's measured capacity. *)

let kv_base =
  {
    World.name = "";
    kind = World.Kv;
    offered_rps = 0.0;
    limit_us = 0.0;
    records = 20_000;
    value_size = 1024;
    read_fraction = 0.95;
    keys = Gen.Zipfian 0.99;
    sessions = 64;
    faults = false;
    requests = 400_000;
  }

let all =
  [
    { kv_base with name = "kv-zipf"; offered_rps = 380_000.0; limit_us = 100.0 };
    {
      kv_base with
      name = "kv-rewind";
      offered_rps = 265_000.0;
      limit_us = 200.0;
      read_fraction = 0.5;
      faults = true;
      requests = 200_000;
    };
    {
      kv_base with
      name = "fleet-uniform";
      kind = World.Fleet;
      offered_rps = 1_300_000.0;
      limit_us = 300.0;
      records = 10_000;
      value_size = 64;
      keys = Gen.Uniform;
      sessions = 10_000;
      requests = 300_000;
    };
    {
      kv_base with
      name = "http-static";
      kind = World.Http;
      offered_rps = 285_000.0;
      limit_us = 300.0;
      records = 1;
      sessions = 64;
      requests = 300_000;
    };
  ]

let find name = List.find_opt (fun s -> s.World.name = name) all
