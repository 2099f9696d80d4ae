(** Structured JSON-lines telemetry for the batch service.

    Every event is one JSON object per line with a fixed envelope
    ([ts], [event]) plus event-specific fields, written through a
    {!Noc_obs.Sink.t} — the transport the span tracer's [noc-trace/1]
    export uses too.  Sinks are internally serialized, so worker
    domains emit without any coordination.  Telemetry is
    observability, not results: nothing in it participates in result
    hashing. *)

(** Event constructors.  [index] is the job's position in its batch;
    [corr] is the wire-level correlation id (absent for in-process
    batch jobs), emitted as a ["corr"] field when present. *)

val batch_started : jobs:int -> domains:int -> cache_capacity:int -> Json.t

val job_submitted :
  ?corr:string -> index:int -> job:Job.t -> queue_depth:int -> unit -> Json.t

val job_started : ?corr:string -> index:int -> job:Job.t -> unit -> Json.t

val job_finished :
  ?corr:string ->
  index:int ->
  job:Job.t ->
  outcome:Outcome.t ->
  cache_hit:bool ->
  unit ->
  Json.t

val queue_depth : depth:int -> Json.t
(** Gauge event: instantaneous pool queue depth at submission time. *)

val cache_evicted : entries:int -> capacity:int -> Json.t
(** The result cache evicted its LRU entry while at [capacity];
    [entries] is the entry count after the eviction. *)

val batch_finished :
  wall_ms:float ->
  succeeded:int ->
  failed:int ->
  cancelled:int ->
  cache_stats:Result_cache.stats ->
  Json.t

(** Server lifecycle events ([noc_tool serve]); they share the sinks
    and envelope with the batch events above. *)

val server_started : socket:string -> domains:int -> store_entries:int -> Json.t
val client_connected : peer:string -> Json.t
val client_disconnected : peer:string -> Json.t

val drain_started : inflight:int -> Json.t
(** SIGTERM received: the server stopped accepting and is waiting for
    [inflight] jobs to finish. *)

val server_stopped : jobs:int -> wall_ms:float -> Json.t
