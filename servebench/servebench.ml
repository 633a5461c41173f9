(* servebench: two-clock serving benchmark.

   servebench.exe --workload NAME --seed N --seconds S --trace 0|1

   --trace 0 prints the end-to-end metrics; --trace 1 runs the same
   workload and seed once untraced and once traced and prints the
   per-layer table. The last line of standard output is one JSON object
   with the keys correct, attempted, failed and metrics. *)

let json_metrics ms =
  String.concat ", "
    (List.map
       (fun (name, unit_, v) ->
         Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" name
           (if Float.is_finite v then Printf.sprintf "%.17g" v else "null")
           unit_)
       ms)

let print_result ~correct ~attempted ~failed ms =
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    correct attempted failed (json_metrics ms)

let end_to_end (spec : World.spec) ~seed ~seconds =
  let r = Measure.end_to_end spec ~seed ~seconds in
  let v = r.Measure.virt in
  List.iter (fun m -> Printf.printf "CHECK FAILED: %s\n" m) r.Measure.problems;
  Printf.printf
    "%s seed %d: %d repetitions, %d run-phase samples each (%d beyond p99.9), \
     offered %.0f req/s, p99.9 limit %.0f us, %d sent late\n"
    spec.World.name seed r.Measure.reps v.Measure.samples
    (v.Measure.samples - int_of_float (Float.ceil (0.999 *. float_of_int v.Measure.samples)))
    spec.World.offered_rps spec.World.limit_us v.Measure.late;
  List.iter (fun (n, u, x) -> Printf.printf "  %-14s %14.4f %s\n" n x u) r.Measure.metrics;
  print_result ~correct:(r.Measure.problems = []) ~attempted:r.Measure.attempted
    ~failed:r.Measure.failed r.Measure.metrics;
  if r.Measure.problems = [] then 0 else 1

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10.0 and trace = ref 0 in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME workload to run");
      ("--seed", Arg.Set_int seed, "N seed of the generated inputs");
      ("--seconds", Arg.Set_float seconds, "S host seconds of repetitions");
      ("--trace", Arg.Set_int trace, "0|1 end-to-end metrics or per-layer table");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "servebench --workload NAME --seed N --seconds S --trace 0|1";
  match Workloads.find !workload with
  | None ->
      Printf.eprintf "unknown workload %S (known: %s)\n" !workload
        (String.concat ", " (List.map (fun s -> s.World.name) Workloads.all));
      exit 2
  | Some spec ->
      exit
        (if !trace = 0 then end_to_end spec ~seed:!seed ~seconds:!seconds
         else
           let problems, attempted, failed, ms = Layers.run spec ~seed:!seed ~seconds:!seconds in
           print_result ~correct:(problems = []) ~attempted ~failed ms;
           if problems = [] then 0 else 1)
