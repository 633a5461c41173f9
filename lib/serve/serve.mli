(** The serving pipeline shared by the kvcache (§V-A) and httpd (§V-B)
    case-study servers. Both follow the same request chain — accept,
    shed, batched gate, supervised domain run, rewind, journal replay,
    reply — and differ only in protocol parsing and replies, which stay
    in each server. This module owns the plumbing: buffer allocators, the
    connection table, admission shedding, the worker wait/drain loop,
    the supervised-run dispatch, the at-most-once journal bracket and
    the rewind bookkeeping. *)

type variant = Baseline | Tlsf_alloc | Sdrad
(** The build variants of the paper's Figures 4 and 5: the plain server,
    the plain server with the TLSF allocator swapped in, and SDRaD. *)

val prepare :
  Vmem.Space.t ->
  variant ->
  Sdrad.Api.t option ->
  who:string ->
  image_bytes:int ->
  unit
(** Reject the {!Sdrad} variant without a monitor (raising
    [Invalid_argument] prefixed by [who]), then map and touch the
    resident process image. Call first: the image comes before every
    other mapping. *)

val registry : Sdrad.Api.t option -> Telemetry.Metrics.t
(** The monitor's registry when there is one, so a scrape shows core,
    supervisor and server series together; a private one otherwise. *)

type t = private {
  space : Vmem.Space.t;
  variant : variant;
  sd : Sdrad.Api.t option;
  sup : Resilience.Supervisor.t option;
  metrics : Telemetry.Metrics.t;
  journal : Resilience.Journal.t;  (** root-domain state *)
  buf_alloc : int -> int;  (** connection and per-request buffers *)
  buf_free : int -> unit;
  conns : (int, int) Hashtbl.t;  (** conn id -> connection buffer *)
  conn_buf_size : int;
  shed_queue_limit : int;
  gate_batch_limit : int;
  race : Analysis.Race.t option;
  c_shed : Telemetry.Metrics.counter;
  c_rewinds : Telemetry.Metrics.counter;
  h_rewind_cycles : Telemetry.Metrics.histogram;
  mutable rewind_lat : float list;  (** newest first *)
}

val create :
  Vmem.Space.t ->
  variant ->
  sd:Sdrad.Api.t option ->
  sup:Resilience.Supervisor.t option ->
  faults:Resilience.Fault_inject.t option ->
  metrics:Telemetry.Metrics.t ->
  journal:Resilience.Journal.t ->
  heap:string ->
  site:string ->
  region:(int -> int) ->
  conn_buf_size:int ->
  shed_queue_limit:int ->
  gate_batch_limit:int ->
  race_detector:bool ->
  shed:Telemetry.Metrics.counter ->
  rewinds:Telemetry.Metrics.counter ->
  rewind_cycles:Telemetry.Metrics.histogram ->
  t
(** Build the buffer allocator — the glibc cost model for {!Baseline},
    otherwise a TLSF heap named [heap] that grows from [region] and
    whose allocation failures [faults] may inject at [site] — then, when
    [sd] is given, attach the race detector (if [race_detector]) and
    register [journal] as the monitor's journal probe. Call after the
    server's data domains exist, so the detector tracks them. *)

(** {1 Connections} *)

val open_conn : t -> Netsim.conn -> unit
(** Allocate the connection's [conn_buf_size] buffer. *)

val stage : t -> Netsim.conn -> string -> int * int
(** Copy a request into its connection buffer, truncated to fit;
    returns the buffer address and the staged length. *)

val release : t -> Netsim.conn -> unit
(** Close the connection and free its buffer. *)

val drop : t -> Netsim.Waitset.ws -> Netsim.conn -> unit
(** {!release} after taking the connection out of its waitset. *)

(** {1 Request chain} *)

val should_shed : t -> Netsim.Waitset.ws -> bool
(** Overload admission control: the worker's backlog exceeds
    [shed_queue_limit] (0 disables it). Checked before any parsing or
    domain switch is spent on the request. *)

val shed :
  t -> Netsim.conn -> trace:int64 -> udi:(unit -> int) -> busy:string -> unit
(** Answer a shed request with [busy], counting it and recording a
    [Shed] flight event for [udi ()] under the request's [trace]. *)

val worker :
  t ->
  Netsim.Waitset.ws ->
  serve:(Netsim.conn -> string -> unit) ->
  drop:(Netsim.conn -> unit) ->
  after:(unit -> unit) ->
  unit
(** The worker event loop: wait for a ready connection, receive, and
    [serve] the message ([drop] a connection whose peer closed); [after]
    runs once per wakeup. With [gate_batch_limit > 0] under {!Sdrad}, the
    first request opens a batched gate and already-deliverable requests
    are drained into it, up to the limit. Returns when the waitset
    closes. *)

val run :
  t ->
  udi:Sdrad.Types.udi ->
  on_rewind:(Sdrad.Types.fault -> ([> `Busy ] as 'a)) ->
  (unit -> 'a) ->
  'a
(** Run [body] in domain [udi] with a 64 KiB sub-heap: through the
    supervisor when there is one (a quarantined udi yields [`Busy]),
    plain {!Sdrad.Api.run} otherwise. *)

val replay_or : t -> string option -> (unit -> string) -> string
(** At-most-once bracket around a mutation keyed by an optional request
    id: a journaled id is answered from the journal (recording a
    [Replay] flight event), a fresh one computes and journals its
    reply. *)

val rewound : t -> Sdrad.Types.fault -> unit
(** Rewind bookkeeping: count it and record the cycles since the fault. *)
