module Sched = Simkern.Sched
module Space = Vmem.Space
module Prot = Vmem.Prot
module Api = Sdrad.Api
module Types = Sdrad.Types
module Supervisor = Resilience.Supervisor
module Journal = Resilience.Journal
module M = Telemetry.Metrics

type variant = Baseline | Tlsf_alloc | Sdrad

let prepare space variant sd ~who ~image_bytes =
  (match (variant, sd) with
  | Sdrad, None -> invalid_arg (who ^ ": Sdrad variant needs ~sdrad")
  | _ -> ());
  if image_bytes > 0 then begin
    (* The process image: text, shared libraries, static data. *)
    let img = Space.mmap space ~len:image_bytes ~prot:Prot.rw ~pkey:0 in
    Space.fill space ~addr:img ~len:image_bytes '\x90'
  end

let registry = function Some sd -> Api.metrics sd | None -> M.create ()

(* glibc cost model for the Baseline variant: allocations come from a
   bump arena; the (amortized) malloc/free work is charged as constants.
   Per-size free lists recycle freed chunks, as glibc's bins would, so
   the model neither leaks RSS nor charges real allocator work (that is
   what the constants are for). *)
let glibc_allocator space =
  let arena = ref 0 and off = ref 0 and arena_len = 256 * 1024 in
  let bins : (int, int list ref) Hashtbl.t = Hashtbl.create 16 in
  let bin n =
    match Hashtbl.find_opt bins n with
    | Some l -> l
    | None ->
        let l = ref [] in
        Hashtbl.replace bins n l;
        l
  in
  let sizes : (int, int) Hashtbl.t = Hashtbl.create 64 in
  let alloc n =
    Sched.charge 80.0;
    let n = (n + 15) land lnot 15 in
    let p =
      match !(bin n) with
      | p :: rest ->
          (bin n) := rest;
          p
      | [] ->
          if !arena = 0 || !off + n > arena_len then begin
            arena := Space.mmap space ~len:(max arena_len n) ~prot:Prot.rw ~pkey:0;
            off := 0
          end;
          let p = !arena + !off in
          off := !off + n;
          p
    in
    Hashtbl.replace sizes p n;
    p
  in
  let free p =
    Sched.charge 50.0;
    match Hashtbl.find_opt sizes p with
    | Some n ->
        Hashtbl.remove sizes p;
        (bin n) := p :: !(bin n)
    | None -> ()
  in
  (alloc, free)

(* A TLSF buffer heap that grows from [region] in regions of at least
   1 MiB; [faults] may fail its allocations at [site]. *)
let tlsf_allocator space ~heap ~site ~region faults =
  let heap = Tlsf.create space ~name:heap in
  Option.iter (fun fi -> Resilience.Fault_inject.arm_tlsf fi heap ~site) faults;
  let alloc n =
    match Tlsf.malloc_opt heap n with
    | Some p -> p
    | None ->
        let len = max (n + 64) (1024 * 1024) in
        Tlsf.add_region heap ~addr:(region len) ~len;
        Tlsf.malloc heap n
  in
  (alloc, Tlsf.free heap)

type t = {
  space : Space.t;
  variant : variant;
  sd : Api.t option;
  sup : Supervisor.t option;
  metrics : M.t;
  journal : Journal.t;
  buf_alloc : int -> int;
  buf_free : int -> unit;
  conns : (int, int) Hashtbl.t;
  conn_buf_size : int;
  shed_queue_limit : int;
  gate_batch_limit : int;
  race : Analysis.Race.t option;
  c_shed : M.counter;
  c_rewinds : M.counter;
  h_rewind_cycles : M.histogram;
  mutable rewind_lat : float list;
}

let create space variant ~sd ~sup ~faults ~metrics ~journal ~heap ~site ~region
    ~conn_buf_size ~shed_queue_limit ~gate_batch_limit ~race_detector ~shed
    ~rewinds ~rewind_cycles =
  let buf_alloc, buf_free =
    match variant with
    | Baseline -> glibc_allocator space
    | Tlsf_alloc | Sdrad -> tlsf_allocator space ~heap ~site ~region faults
  in
  (* Dynamic race detection over shared (data-domain) memory. Host-side
     only: attaching never perturbs the simulated run. *)
  let race =
    match (race_detector, sd) with
    | true, Some sd -> Some (Analysis.Race.attach sd)
    | _ -> None
  in
  (* Rewind audit records carry the journal's cumulative replay hits, so
     an incident lines up against the "no acked write lost" guarantee. *)
  Option.iter
    (fun sd -> Api.add_journal_probe sd (fun () -> Journal.hits journal))
    sd;
  {
    space;
    variant;
    sd;
    sup;
    metrics;
    journal;
    buf_alloc;
    buf_free;
    conns = Hashtbl.create 64;
    conn_buf_size;
    shed_queue_limit;
    gate_batch_limit;
    race;
    c_shed = shed;
    c_rewinds = rewinds;
    h_rewind_cycles = rewind_cycles;
    rewind_lat = [];
  }

let open_conn t c =
  Hashtbl.replace t.conns (Netsim.id c) (t.buf_alloc t.conn_buf_size)

let stage t c msg =
  let cbuf = Hashtbl.find t.conns (Netsim.id c) in
  let len = min (String.length msg) (t.conn_buf_size - 2) in
  Space.store_string t.space cbuf (String.sub msg 0 len);
  (cbuf, len)

let release t c =
  Netsim.close c;
  match Hashtbl.find_opt t.conns (Netsim.id c) with
  | Some cbuf ->
      t.buf_free cbuf;
      Hashtbl.remove t.conns (Netsim.id c)
  | None -> ()

let drop t ws c =
  Netsim.Waitset.remove ws c;
  release t c

let should_shed t ws =
  t.shed_queue_limit > 0 && Netsim.Waitset.backlog ws > t.shed_queue_limit

let shed t c ~trace ~udi ~busy =
  M.inc t.c_shed;
  (* Shedding happens before the request touches simulated memory, but
     the dropped op still deserves a flight-recorder event carrying its
     trace id — that is how the client's timeout shows up in forensics. *)
  (match t.sd with
  | Some sd ->
      Api.with_trace sd trace (fun () ->
          Api.flight_event sd ~udi:(udi ()) Checkpoint.Flight.Shed)
  | None -> ());
  Netsim.send c busy

let worker t ws ~serve ~drop ~after =
  let batching = t.gate_batch_limit > 0 && t.variant = Sdrad in
  (* Pull whatever else is already deliverable into the same open gate
     (a zero-deadline wait is a poll), up to the batch limit — the
     gate's privilege raise/drop then amortizes over the batch. *)
  let rec drain n =
    if n < t.gate_batch_limit then
      match Netsim.Waitset.wait_deadline ws ~deadline:(Sched.now ()) with
      | None -> ()
      | Some c -> (
          match Netsim.recv c with
          | None ->
              drop c;
              drain n
          | Some msg ->
              serve c msg;
              drain (n + 1))
  in
  let rec loop () =
    match Netsim.Waitset.wait ws with
    | None -> ()
    | Some c ->
        (match Netsim.recv c with
        | None -> drop c
        | Some msg ->
            if batching then
              Api.with_gate (Option.get t.sd) (fun () ->
                  serve c msg;
                  drain 1)
            else serve c msg);
        after ();
        loop ()
  in
  loop ()

let domain_opts = { Types.default_options with heap_size = 64 * 1024 }

(* A quarantined udi is turned away before any domain state is touched;
   the rewind path needs no bookkeeping here beyond [on_rewind]. *)
let run t ~udi ~on_rewind body =
  match t.sup with
  | Some sup ->
      Supervisor.run sup ~udi ~opts:domain_opts ~on_rewind
        ~on_busy:(fun ~until:_ -> `Busy)
        body
  | None -> Api.run (Option.get t.sd) ~udi ~opts:domain_opts ~on_rewind body

(* At-most-once bracket around a mutation: a request id that is already
   journaled is answered with the journaled response instead of being
   re-applied; a fresh execution's response is journaled right after the
   commit, before it can be lost on the wire. Both halves run in the
   parent (root domain), so this is exactly the window a nested-domain
   rewind cannot touch: no entry = the commit never happened and the
   retry re-executes; entry = the commit happened and the retry replays. *)
let replay_or t rid compute =
  match rid with
  | None -> compute ()
  | Some r -> (
      match Journal.find t.journal r with
      | Some reply ->
          (* A journal hit is a causal consequence of the original op's
             earlier attempt: record it under the retry's trace id. *)
          Option.iter (fun sd -> Api.flight_event sd Checkpoint.Flight.Replay) t.sd;
          reply
      | None ->
          let reply = compute () in
          Journal.record t.journal r reply;
          reply)

let rewound t (f : Types.fault) =
  M.inc t.c_rewinds;
  let lat = Sched.now () -. f.at in
  t.rewind_lat <- lat :: t.rewind_lat;
  M.observe t.h_rewind_cycles lat
