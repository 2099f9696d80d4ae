(* Machine-readable simulation-campaign reports (BENCH_sim.json) and
   the baseline comparison behind the CI sim gate.

   The sim differs from the other bench schemas in what is hard and
   what is soft: deadlock-freedom is an invariant — a protected or
   acyclic design that deadlocks fails the gate outright, baseline or
   no baseline — while latency and throughput get tolerance bands so a
   deliberate workload tweak does not need a lockstep baseline edit.
   Cycle-level counts are deterministic, so drift inside the band still
   means a behaviour change; the band just sizes how much change is
   acceptable without re-pinning. *)

module Json = Noc_json.Json

type entry = {
  label : string;
  job_hash : string;
  result_hash : string;
  benchmark : string;
  n_switches : int;
  workload : string;  (* kind, e.g. "uniform" *)
  prepare : string;  (* "as-is" | "removal" | "ordering" *)
  cdg_cyclic : bool;
  deadlocked : bool;
  certified : bool;
  cycles : float;
  packets : float;
  delivered : float;
  avg_latency : float;
  p95_latency : float;
  throughput : float;
  vcs_added : float;
}

type t = { entries : entry list; slo : Noc_obs.Slo.verdict list }

let schema = "bench-sim/1"

let of_cells ?(slo = []) cells =
  let entry (cell : Campaign.cell) =
    if not (Noc_service.Outcome.is_done cell.Campaign.outcome) then None
    else
      let benchmark, n_switches =
        match cell.Campaign.job.Noc_service.Job.design with
        | Noc_service.Job.Benchmark { name; n_switches; _ } ->
            (name, n_switches)
        | Noc_service.Job.Inline _ -> ("inline", 0)
      in
      let workload, prepare =
        match cell.Campaign.job.Noc_service.Job.method_ with
        | Noc_service.Job.Simulate { workload; prepare; _ } ->
            ( Noc_benchmarks.Workloads.kind workload,
              Noc_service.Job.prepare_name prepare )
        | _ -> ("-", "-")
      in
      let m = Campaign.metric cell in
      Some
        {
          label = Noc_service.Job.label cell.Campaign.job;
          job_hash = Noc_service.Job.hash cell.Campaign.job;
          result_hash = Noc_service.Outcome.result_hash cell.Campaign.outcome;
          benchmark;
          n_switches;
          workload;
          prepare;
          cdg_cyclic = Campaign.cdg_cyclic cell;
          deadlocked = Campaign.deadlocked cell;
          certified = Campaign.certified cell;
          cycles = m "cycles";
          packets = m "packets";
          delivered = m "delivered";
          avg_latency = m "avg_latency";
          p95_latency = m "p95_latency";
          throughput = m "throughput";
          vcs_added = m "vcs_added";
        }
  in
  { entries = List.filter_map entry cells; slo }

(* ------------------------------------------------------------------ *)
(* JSON                                                                *)
(* ------------------------------------------------------------------ *)

let to_json report =
  let entry e =
    Json.Obj
      [
        ("label", Json.Str e.label);
        ("job", Json.Str e.job_hash);
        ("result_hash", Json.Str e.result_hash);
        ("benchmark", Json.Str e.benchmark);
        ("switches", Json.Num (float_of_int e.n_switches));
        ("workload", Json.Str e.workload);
        ("prepare", Json.Str e.prepare);
        ("cdg_cyclic", Json.Num (if e.cdg_cyclic then 1. else 0.));
        ("deadlocked", Json.Num (if e.deadlocked then 1. else 0.));
        ("certified", Json.Num (if e.certified then 1. else 0.));
        ("cycles", Json.Num e.cycles);
        ("packets", Json.Num e.packets);
        ("delivered", Json.Num e.delivered);
        ("avg_latency", Json.Num e.avg_latency);
        ("p95_latency", Json.Num e.p95_latency);
        ("throughput", Json.Num e.throughput);
        ("vcs_added", Json.Num e.vcs_added);
      ]
  in
  (* [slo] is emitted only when present, so reports from campaigns
     that never evaluated objectives — and every pre-existing pinned
     baseline — keep their exact byte shape. *)
  Json.to_string_pretty
    (Json.Obj
       ([
          ("schema", Json.Str schema);
          ("cells", Json.Arr (List.map entry report.entries));
        ]
       @
       match report.slo with
       | [] -> []
       | slo -> [ ("slo", Noc_obs.Slo.to_json slo) ]))
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
              entries =
                List.map
                  (fun item ->
                    let flag name = Json.to_num (Json.field name item) > 0.5 in
                    {
                      label = Json.to_str (Json.field "label" item);
                      job_hash = Json.to_str (Json.field "job" item);
                      result_hash = Json.to_str (Json.field "result_hash" item);
                      benchmark = Json.to_str (Json.field "benchmark" item);
                      n_switches = Json.to_int (Json.field "switches" item);
                      workload = Json.to_str (Json.field "workload" item);
                      prepare = Json.to_str (Json.field "prepare" item);
                      cdg_cyclic = flag "cdg_cyclic";
                      deadlocked = flag "deadlocked";
                      certified = flag "certified";
                      cycles = Json.to_num (Json.field "cycles" item);
                      packets = Json.to_num (Json.field "packets" item);
                      delivered = Json.to_num (Json.field "delivered" item);
                      avg_latency = Json.to_num (Json.field "avg_latency" item);
                      p95_latency = Json.to_num (Json.field "p95_latency" item);
                      throughput = Json.to_num (Json.field "throughput" item);
                      vcs_added = Json.to_num (Json.field "vcs_added" item);
                    })
                  (Json.to_list (Json.field "cells" root));
              slo =
                (match Json.member "slo" root with
                | None -> []
                | Some v -> (
                    match Noc_obs.Slo.verdicts_of_json v with
                    | Ok slo -> slo
                    | Error msg -> raise (Json.Parse_error msg)));
            }
      with Json.Parse_error msg -> Error msg)

(* ------------------------------------------------------------------ *)
(* Baseline comparison (the CI gate)                                   *)
(* ------------------------------------------------------------------ *)

let protected e = e.prepare <> "as-is"

(* Checked on the current report alone: the invariants hold whatever
   the baseline says. *)
let invariant_errors report =
  let errors = ref [] in
  let err fmt = Printf.ksprintf (fun m -> errors := m :: !errors) fmt in
  List.iter
    (fun e ->
      if e.deadlocked && protected e then
        err "%s: deadlock on a %s-protected design" e.label e.prepare;
      if e.deadlocked && not e.cdg_cyclic then
        err "%s: deadlock despite an acyclic CDG" e.label;
      if e.deadlocked && not e.certified then
        err "%s: deadlock without a waits-for cycle certificate" e.label)
    report.entries;
  (* A burned SLO recorded in the report fails the gate like any other
     invariant: the campaign declared the objective, then missed it. *)
  List.iter
    (fun (v : Noc_obs.Slo.verdict) ->
      if not v.Noc_obs.Slo.ok then
        err "SLO %s burned: %s" v.Noc_obs.Slo.slo v.Noc_obs.Slo.detail)
    report.slo;
  List.rev !errors

(* Relative drift allowed on [avg_latency] and [throughput]. *)
let latency_tolerance = 0.25
let throughput_tolerance = 0.25

let compare_to_baseline ~baseline current =
  let errors = ref (invariant_errors current) in
  let err fmt = Printf.ksprintf (fun m -> errors := !errors @ [ m ]) fmt in
  let within tol base now =
    if base = 0. then Float.abs now <= tol
    else Float.abs (now -. base) /. Float.abs base <= tol
  in
  List.iter
    (fun b ->
      match
        List.find_opt (fun c -> c.job_hash = b.job_hash) current.entries
      with
      | None -> err "%s: cell missing from current report" b.label
      | Some c when c.result_hash = b.result_hash -> ()
      | Some c ->
          (* Deadlock flags are the hard part of the contract; the
             performance metrics may drift inside their bands. *)
          if c.deadlocked <> b.deadlocked then
            err "%s: deadlocked changed %b -> %b" b.label b.deadlocked
              c.deadlocked;
          if c.certified <> b.certified then
            err "%s: certificate presence changed %b -> %b" b.label b.certified
              c.certified;
          if c.delivered <> b.delivered then
            err "%s: delivered packets changed %.0f -> %.0f (sim is \
                 deterministic; update the baseline deliberately)"
              b.label b.delivered c.delivered;
          if not (within latency_tolerance b.avg_latency c.avg_latency) then
            err "%s: avg latency %.1f drifted more than %.0f%% from %.1f"
              b.label c.avg_latency
              (100. *. latency_tolerance)
              b.avg_latency;
          if not (within throughput_tolerance b.throughput c.throughput) then
            err "%s: throughput %.3f drifted more than %.0f%% from %.3f"
              b.label c.throughput
              (100. *. throughput_tolerance)
              b.throughput;
          if c.vcs_added <> b.vcs_added then
            err "%s: vcs_added changed %.0f -> %.0f" b.label b.vcs_added
              c.vcs_added)
    baseline.entries;
  !errors

let pp ppf report =
  let deadlocks = List.filter (fun e -> e.deadlocked) report.entries in
  Format.fprintf ppf "@[<v>%d cells, %d deadlocks (%d certified)"
    (List.length report.entries)
    (List.length deadlocks)
    (List.length (List.filter (fun e -> e.certified) deadlocks));
  List.iter
    (fun e ->
      Format.fprintf ppf "@,%-34s %-10s %s" e.label
        (if e.deadlocked then "DEADLOCK" else "ok")
        (if e.deadlocked then
           Printf.sprintf "at cycle %.0f" e.cycles
         else
           Printf.sprintf "avg %.1f p95 %.0f thr %.2f" e.avg_latency
             e.p95_latency e.throughput))
    report.entries;
  Format.fprintf ppf "@]"
