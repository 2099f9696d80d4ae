(* Machine-readable batch-service reports (BENCH_service.json) and the
   baseline comparison behind the CI service gate.

   Same philosophy as Bench_report for the removal sweep: nothing
   machine-dependent is ever compared across machines.  Result hashes
   are deterministic and checked exactly; wall times are only compared
   as same-host ratios (parallel speedup, warm-replay fraction); and
   the speedup floors are skipped entirely on hosts with fewer cores
   than the arm being judged, with [host_cores] recorded so the report
   says which floors were actually in force. *)

type job_entry = { label : string; job_hash : string; result_hash : string }
type timing = { domains : int; wall_ms : float; jobs_per_s : float }

type t = {
  host_cores : int;
  jobs : job_entry list;
  timings : timing list;
  replay_wall_ms : float;
  replay_hit_rate : float;
  collector_off_wall_ms : float option;
  collector_on_wall_ms : float option;
}

let schema = "bench-service/1"

let collector_overhead report =
  match (report.collector_off_wall_ms, report.collector_on_wall_ms) with
  | Some off, Some on_ when off > 0. -> Some ((on_ -. off) /. off)
  | _ -> None

let wall_at report ~domains =
  List.find_opt (fun tm -> tm.domains = domains) report.timings
  |> Option.map (fun tm -> tm.wall_ms)

let speedup report ~domains =
  match (wall_at report ~domains:1, wall_at report ~domains) with
  | Some base, Some arm when arm > 0. -> Some (base /. arm)
  | _ -> None

(* ------------------------------------------------------------------ *)
(* JSON                                                                *)
(* ------------------------------------------------------------------ *)

let to_json report =
  let job_entry e =
    Json.Obj
      [
        ("label", Json.Str e.label);
        ("job", Json.Str e.job_hash);
        ("result_hash", Json.Str e.result_hash);
      ]
  in
  let timing tm =
    Json.Obj
      [
        ("domains", Json.Num (float_of_int tm.domains));
        ("wall_ms", Json.Num tm.wall_ms);
        ("jobs_per_s", Json.Num tm.jobs_per_s);
      ]
  in
  let collector_fields =
    (* Absent on pre-collector baselines; emitted only when measured so
       old reports keep their exact byte shape. *)
    match (report.collector_off_wall_ms, report.collector_on_wall_ms) with
    | Some off, Some on_ ->
        [
          ("collector_off_wall_ms", Json.Num off);
          ("collector_on_wall_ms", Json.Num on_);
        ]
    | _ -> []
  in
  Json.to_string_pretty
    (Json.Obj
       ([
          ("schema", Json.Str schema);
          ("host_cores", Json.Num (float_of_int report.host_cores));
          ("jobs", Json.Arr (List.map job_entry report.jobs));
          ("timings", Json.Arr (List.map timing report.timings));
          ("replay_wall_ms", Json.Num report.replay_wall_ms);
          ("replay_hit_rate", Json.Num report.replay_hit_rate);
        ]
       @ collector_fields))
  ^ "\n"

let of_json text =
  match Json.of_string text with
  | Error msg -> Error msg
  | Ok root -> (
      try
        let s = Json.to_str (Json.field "schema" root) in
        if s <> schema then
          Error (Printf.sprintf "unsupported schema %S (want %S)" s schema)
        else
          Ok
            {
              host_cores = Json.to_int (Json.field "host_cores" root);
              jobs =
                List.map
                  (fun item ->
                    {
                      label = Json.to_str (Json.field "label" item);
                      job_hash = Json.to_str (Json.field "job" item);
                      result_hash = Json.to_str (Json.field "result_hash" item);
                    })
                  (Json.to_list (Json.field "jobs" root));
              timings =
                List.map
                  (fun item ->
                    {
                      domains = Json.to_int (Json.field "domains" item);
                      wall_ms = Json.to_num (Json.field "wall_ms" item);
                      jobs_per_s = Json.to_num (Json.field "jobs_per_s" item);
                    })
                  (Json.to_list (Json.field "timings" root));
              replay_wall_ms = Json.to_num (Json.field "replay_wall_ms" root);
              replay_hit_rate = Json.to_num (Json.field "replay_hit_rate" root);
              collector_off_wall_ms =
                Option.map Json.to_num
                  (Json.member "collector_off_wall_ms" root);
              collector_on_wall_ms =
                Option.map Json.to_num (Json.member "collector_on_wall_ms" root);
            }
      with Json.Parse_error msg -> Error msg)

(* ------------------------------------------------------------------ *)
(* Baseline comparison (the CI gate)                                   *)
(* ------------------------------------------------------------------ *)

(* (domains, minimum speedup over the 1-domain arm). *)
let speedup_floors = [ (2, 1.6); (4, 2.5) ]

(* Warm replay may cost at most this share of the cold 1-domain run. *)
let max_replay_fraction = 0.5

(* The series collector may cost at most this share of batch wall
   time, unless the absolute cost stays within [collector_slack_ms]. *)
let max_collector_overhead = 0.03
let collector_slack_ms = 5.

let compare_to_baseline ~baseline current =
  let errors = ref [] in
  let err fmt = Printf.ksprintf (fun m -> errors := m :: !errors) fmt in
  (* Result hashes are deterministic outputs: any drift from the
     committed baseline is a real behaviour change. *)
  List.iter
    (fun b ->
      match List.find_opt (fun c -> c.job_hash = b.job_hash) current.jobs with
      | None -> err "%s: job missing from current report" b.label
      | Some c ->
          if c.result_hash <> b.result_hash then
            err "%s: result hash changed %s -> %s (output drift)" b.label
              b.result_hash c.result_hash)
    baseline.jobs;
  (* Warm replay must be all cache hits and markedly cheaper than the
     cold sequential arm (a same-host ratio). *)
  if current.replay_hit_rate < 1.0 then
    err "warm replay hit rate %.3f below 1.0 — cache keys are unstable"
      current.replay_hit_rate;
  (match wall_at current ~domains:1 with
  | Some cold when cold > 0. ->
      if current.replay_wall_ms > cold *. max_replay_fraction then
        err
          "warm replay took %.1f ms, over %.0f%% of the %.1f ms cold \
           sequential run"
          current.replay_wall_ms
          (100. *. max_replay_fraction)
          cold
  | _ -> err "current report has no 1-domain timing");
  (* The series collector must be close to free: a same-host ratio of
     the same batch with and without the sampling domain, with a small
     absolute slack so short runs do not fail on scheduler noise.
     Like the speedup floors, only judged on hosts with a core to run
     the collector domain on — on one core any second domain steals
     real time by construction. *)
  (match (collector_overhead current, current.collector_off_wall_ms,
          current.collector_on_wall_ms) with
  | Some overhead, Some off, Some on_ when current.host_cores >= 2 ->
      if overhead > max_collector_overhead && on_ -. off > collector_slack_ms
      then
        err
          "series collector costs %.1f%% of batch throughput (%.1f ms on vs \
           %.1f ms off, limit %.0f%%)"
          (100. *. overhead) on_ off
          (100. *. max_collector_overhead)
  | _ -> ());
  (* Parallel speedup floors — only judged on hosts that actually have
     the cores for the arm in question. *)
  List.iter
    (fun (domains, floor) ->
      if current.host_cores >= domains then
        match speedup current ~domains with
        | None -> err "current report has no %d-domain timing" domains
        | Some s ->
            if s < floor then
              err "%d-domain speedup %.2fx below the %.1fx floor (host has %d \
                   cores)"
                domains s floor current.host_cores)
    speedup_floors;
  List.rev !errors

let pp ppf report =
  Format.fprintf ppf "@[<v>host cores: %d@,%d deterministic job hashes"
    report.host_cores (List.length report.jobs);
  List.iter
    (fun tm ->
      Format.fprintf ppf "@,%d domain%s: %8.1f ms  (%.1f jobs/s%s)" tm.domains
        (if tm.domains = 1 then " " else "s")
        tm.wall_ms tm.jobs_per_s
        (match speedup report ~domains:tm.domains with
        | Some s when tm.domains > 1 -> Printf.sprintf ", %.2fx" s
        | _ -> ""))
    report.timings;
  Format.fprintf ppf "@,warm replay: %8.1f ms  (hit rate %.2f)"
    report.replay_wall_ms report.replay_hit_rate;
  (match (collector_overhead report, report.collector_off_wall_ms,
          report.collector_on_wall_ms) with
  | Some overhead, Some off, Some on_ ->
      Format.fprintf ppf
        "@,collector:   %8.1f ms on / %.1f ms off  (%+.1f%% overhead)" on_ off
        (100. *. overhead)
  | _ -> ());
  Format.fprintf ppf "@]"
