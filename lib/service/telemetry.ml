(* Structured JSON-lines telemetry.  Events are plain Json objects with
   a fixed envelope (ts, event), pushed through a Noc_obs.Sink; sinks
   serialize concurrent emits internally, so workers on any domain can
   log without coordination.  Telemetry is observability, not results:
   timestamps and durations in here are free to vary between runs while
   result hashes stay fixed. *)

(* ------------------------------------------------------------------ *)
(* Event constructors                                                  *)
(* ------------------------------------------------------------------ *)

let now () = Unix.gettimeofday ()

let event name fields =
  Json.Obj (("ts", Json.Num (now ())) :: ("event", Json.Str name) :: fields)

(* [corr] is the wire-level correlation id (Wire.Submit), absent for
   in-process batch jobs and pre-PR-8 clients; when present it ties a
   telemetry line to one wire request end to end. *)
let job_fields ?corr ~index ~job extra =
  ("index", Json.Num (float_of_int index))
  :: ("job", Json.Str (Job.short_hash job))
  :: ("label", Json.Str (Job.label job))
  ::
  (match corr with
  | None -> extra
  | Some c -> ("corr", Json.Str c) :: extra)

let batch_started ~jobs ~domains ~cache_capacity =
  event "batch_started"
    [
      ("jobs", Json.Num (float_of_int jobs));
      ("domains", Json.Num (float_of_int domains));
      ("cache_capacity", Json.Num (float_of_int cache_capacity));
    ]

let job_submitted ?corr ~index ~job ~queue_depth () =
  event "job_submitted"
    (job_fields ?corr ~index ~job
       [ ("queue_depth", Json.Num (float_of_int queue_depth)) ])

let job_started ?corr ~index ~job () =
  event "job_started"
    (job_fields ?corr ~index ~job
       [ ("domain", Json.Num (float_of_int (Domain.self () :> int))) ])

let job_finished ?corr ~index ~job ~(outcome : Outcome.t) ~cache_hit () =
  let status =
    match outcome.Outcome.status with
    | Outcome.Done -> "done"
    | Outcome.Failed _ -> "failed"
    | Outcome.Timed_out -> "timed-out"
    | Outcome.Cancelled -> "cancelled"
  in
  event "job_finished"
    (job_fields ?corr ~index ~job
       ([
          ("status", Json.Str status);
          ("wall_ms", Json.Num outcome.Outcome.wall_ms);
          ("cache_hit", Json.Bool cache_hit);
        ]
       @ List.map
           (fun (k, v) -> (k, Json.Num v))
           outcome.Outcome.metrics))

let queue_depth ~depth =
  event "queue_depth" [ ("depth", Json.Num (float_of_int depth)) ]

let cache_evicted ~entries ~capacity =
  event "cache_evicted"
    [
      ("entries", Json.Num (float_of_int entries));
      ("capacity", Json.Num (float_of_int capacity));
    ]

(* Server lifecycle events: same envelope, same sinks, so a daemon's
   telemetry file interleaves job events with connection and drain
   milestones. *)

let server_started ~socket ~domains ~store_entries =
  event "server_started"
    [
      ("socket", Json.Str socket);
      ("domains", Json.Num (float_of_int domains));
      ("store_entries", Json.Num (float_of_int store_entries));
    ]

let client_connected ~peer = event "client_connected" [ ("peer", Json.Str peer) ]

let client_disconnected ~peer =
  event "client_disconnected" [ ("peer", Json.Str peer) ]

let drain_started ~inflight =
  event "drain_started" [ ("inflight", Json.Num (float_of_int inflight)) ]

let server_stopped ~jobs ~wall_ms =
  event "server_stopped"
    [
      ("jobs", Json.Num (float_of_int jobs)); ("wall_ms", Json.Num wall_ms);
    ]

let batch_finished ~wall_ms ~succeeded ~failed ~cancelled ~cache_stats =
  event "batch_finished"
    [
      ("wall_ms", Json.Num wall_ms);
      ("succeeded", Json.Num (float_of_int succeeded));
      ("failed", Json.Num (float_of_int failed));
      ("cancelled", Json.Num (float_of_int cancelled));
      ("cache_hits", Json.Num (float_of_int cache_stats.Result_cache.hits));
      ("cache_misses", Json.Num (float_of_int cache_stats.Result_cache.misses));
      ("cache_hit_rate", Json.Num (Result_cache.hit_rate cache_stats));
    ]
