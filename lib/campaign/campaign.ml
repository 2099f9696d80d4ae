(* A campaign is a grid of Simulate jobs plus the machinery to run it
   at fleet scale: jobs flow through the ordinary batch engine (so the
   lint gate, the result store, telemetry and obs spans all apply),
   with the persistent store as its cache when there is one, and the
   finished cells are checked against the paper's behavioural claim —
   an acyclic CDG never deadlocks; an unprotected cyclic one does, with
   a certificate. *)

open Noc_service

type point = { benchmark : string; n_switches : int }

let default_prepares = [ Job.As_is; Job.Removal_first; Job.Ordering_first ]

let grid ?(max_degree = Job.default_max_degree)
    ?(prepares = default_prepares) ?(rates = []) ~points ~workloads () =
  let workload_variants w =
    match rates with
    | [] -> [ w ]
    | rates -> (
        match List.filter_map (Noc_benchmarks.Workloads.at_rate w) rates with
        | [] -> [ w ] (* kind has no rate parameter: one variant *)
        | variants -> variants)
  in
  List.concat_map
    (fun { benchmark; n_switches } ->
      List.concat_map
        (fun w ->
          List.concat_map
            (fun workload ->
              List.map
                (fun prepare ->
                  {
                    Job.design =
                      Job.Benchmark { name = benchmark; n_switches; max_degree };
                    method_ = Job.simulate ~prepare workload;
                  })
                prepares)
            (workload_variants w))
        workloads)
    points

(* ------------------------------------------------------------------ *)
(* Running                                                             *)
(* ------------------------------------------------------------------ *)

type cell = { job : Job.t; outcome : Outcome.t; cached : bool }

type config = { domains : int; store : Store.t option; lint : bool }

let default_config = { domains = 1; store = None; lint = true }

(* SLO surface: per-cell wall time feeds the campaign_cell_p99_ms
   objective.  Warm cells observe their stored wall time — the SLO is
   about what a cell costs, however it was obtained. *)
let cell_ms =
  lazy
    (Noc_obs.Metrics.histogram "noc_campaign_cell_ms"
       ~buckets:[| 1.; 5.; 25.; 100.; 500.; 2_500.; 10_000.; 60_000. |])

let observe_cell cell =
  Noc_obs.Metrics.observe (Lazy.force cell_ms) cell.outcome.Outcome.wall_ms

let run ?(on_cell = fun (_ : cell) -> ()) config jobs =
  let cell (r : Batch.job_result) =
    { job = r.Batch.job; outcome = r.Batch.outcome; cached = r.Batch.cache_hit }
  in
  (* The store, or a throwaway one sized to the grid, is the batch's
     cache: hits skip simulation (the resume path), fresh deterministic
     results are written back. *)
  let cache =
    match config.store with
    | Some store -> store
    | None -> Store.memory ~capacity:(max 1 (List.length jobs))
  in
  let results, _summary =
    Batch.run
      ~on_result:(fun r ->
        let c = cell r in
        observe_cell c;
        on_cell c)
      {
        Batch.default_config with
        domains = config.domains;
        cache = Some cache;
        lint = config.lint;
      }
      jobs
  in
  (* Hits refresh recency without writing the index. *)
  Store.flush cache;
  List.map cell results

(* ------------------------------------------------------------------ *)
(* Cell accessors                                                      *)
(* ------------------------------------------------------------------ *)

let metric cell name =
  match Outcome.metric cell.outcome name with Some v -> v | None -> 0.

let flag cell name = metric cell name > 0.5
let deadlocked cell = flag cell "deadlocked"
let certified cell = flag cell "certified"
let cdg_cyclic cell = flag cell "cdg_cyclic"

let prepare_of cell =
  match cell.job.Job.method_ with
  | Job.Simulate { prepare; _ } -> Some prepare
  | Job.Removal _ | Job.Resource_ordering _ | Job.Sweep -> None

let workload_of cell =
  match cell.job.Job.method_ with
  | Job.Simulate { workload; _ } -> Some workload
  | Job.Removal _ | Job.Resource_ordering _ | Job.Sweep -> None

let design_label cell =
  match cell.job.Job.design with
  | Job.Benchmark { name; n_switches; _ } ->
      Printf.sprintf "%s@%d" name n_switches
  | Job.Inline _ -> "inline"

(* ------------------------------------------------------------------ *)
(* Invariant verification                                              *)
(* ------------------------------------------------------------------ *)

(* The paper's claim, cell by cell: only an unprotected cyclic CDG may
   deadlock, and a real deadlock always has a waits-for cycle
   certificate. *)
type deadlock_invariants = {
  on_protected : string option;  (* the protection a deadlock defeated *)
  on_acyclic : bool;
  uncertified : bool;
}

let deadlock_invariants cell =
  let deadlock = deadlocked cell in
  {
    on_protected =
      (if not deadlock then None
       else
         match prepare_of cell with
         | Some Job.Removal_first -> Some "removal-protected"
         | Some Job.Ordering_first -> Some "resource-ordered"
         | Some Job.As_is | None -> None);
    on_acyclic = deadlock && not (cdg_cyclic cell);
    uncertified = deadlock && not (certified cell);
  }

type verdict = {
  cells : int;
  warm : int;
  failed : int;
  deadlocks : int;
  cyclic_cells : int;
  cyclic_deadlocks : int;
  violations : string list;
}

let verify ?(expect_cyclic_deadlock = true) cells =
  let violations = ref [] in
  let violate fmt = Printf.ksprintf (fun m -> violations := m :: !violations) fmt in
  let failed = ref 0 and deadlocks = ref 0 in
  let cyclic = ref 0 and cyclic_deadlocks = ref 0 in
  let warm = List.length (List.filter (fun c -> c.cached) cells) in
  List.iter
    (fun cell ->
      let label = Job.label cell.job in
      if not (Outcome.is_done cell.outcome) then begin
        incr failed;
        violate "%s: did not finish (%s)" label
          (match cell.outcome.Outcome.status with
          | Outcome.Failed msg -> msg
          | Outcome.Timed_out -> "timed out"
          | Outcome.Cancelled -> "cancelled"
          | Outcome.Done -> assert false)
      end
      else begin
        if cdg_cyclic cell then incr cyclic;
        if deadlocked cell then begin
          incr deadlocks;
          if cdg_cyclic cell then incr cyclic_deadlocks;
          let inv = deadlock_invariants cell in
          Option.iter
            (violate "%s: deadlock on a %s design" label)
            inv.on_protected;
          if inv.on_acyclic then
            violate "%s: deadlock despite an acyclic CDG" label;
          if inv.uncertified then
            violate "%s: deadlock without a waits-for cycle certificate" label
        end
      end)
    cells;
  if expect_cyclic_deadlock && !cyclic > 0 && !cyclic_deadlocks = 0 then
    violate
      "no deadlock observed on any of the %d unprotected cyclic-CDG cells \
       (workloads too gentle to witness the hazard?)"
      !cyclic;
  {
    cells = List.length cells;
    warm;
    failed = !failed;
    deadlocks = !deadlocks;
    cyclic_cells = !cyclic;
    cyclic_deadlocks = !cyclic_deadlocks;
    violations = List.rev !violations;
  }

let verdict_ok v = v.violations = []

let pp_verdict ppf v =
  Format.fprintf ppf
    "@[<v>%d cells (%d warm), %d deadlocks (%d on cyclic designs), %d failed"
    v.cells v.warm v.deadlocks v.cyclic_deadlocks v.failed;
  (match v.violations with
  | [] -> Format.fprintf ppf "@,invariants hold"
  | vs ->
      Format.fprintf ppf "@,%d violation%s:" (List.length vs)
        (if List.length vs = 1 then "" else "s");
      List.iter (fun m -> Format.fprintf ppf "@,  %s" m) vs);
  Format.fprintf ppf "@]"

(* ------------------------------------------------------------------ *)
(* Bench ledger rows                                                   *)
(* ------------------------------------------------------------------ *)

(* The sim gate.  Deadlock flags, deliveries and added VCs are exact
   (the simulator is deterministic); latency and throughput may drift
   25 % either way, so a deliberate workload tweak does not need a
   lockstep baseline edit.  The result hash is reported but not gated:
   it moves with any in-band drift.  The invariant rows and SLO
   verdicts are ceilings and floors, so they hold whatever the baseline
   says. *)
let ledger_gates =
  Noc_obs.Ledger.
    [
      ("job_hash", Exact);
      ("deadlocked", Exact);
      ("certified", Exact);
      ("delivered", Exact);
      ("vcs_added", Exact);
      ("avg_latency", Band 0.25);
      ("throughput", Band 0.25);
      ("deadlock_on_protected", Max 0.);
      ("deadlock_on_acyclic", Max 0.);
      ("deadlock_uncertified", Max 0.);
      ("ok", Min 1.);
    ]

let ledger ?(slo = []) cells =
  let open Noc_obs.Ledger in
  let bit b = Num (if b then 1. else 0.) in
  let cell_rows cell =
    (* The label names no injection rate, so rated cells add theirs to
       stay distinct. *)
    let case =
      match
        Option.bind (workload_of cell) Noc_benchmarks.Workloads.injection_rate
      with
      | Some rate -> Printf.sprintf "%s r=%g" (Job.label cell.job) rate
      | None -> Job.label cell.job
    in
    let row (metric, value) = { layer = "sim"; case; metric; value } in
    List.map row
      ([
         ("job_hash", Str (Job.hash cell.job));
         ("result_hash", Str (Outcome.result_hash cell.outcome));
         ("cdg_cyclic", bit (cdg_cyclic cell));
         ("deadlocked", bit (deadlocked cell));
         ("certified", bit (certified cell));
       ]
      @ List.map
          (fun m -> (m, Num (metric cell m)))
          [ "cycles"; "packets"; "delivered"; "avg_latency"; "p95_latency";
            "throughput"; "vcs_added" ]
      @
      if deadlocked cell then
        let inv = deadlock_invariants cell in
        [
          ("deadlock_on_protected", bit (inv.on_protected <> None));
          ("deadlock_on_acyclic", bit inv.on_acyclic);
          ("deadlock_uncertified", bit inv.uncertified);
        ]
      else [])
  in
  let slo_rows (v : Noc_obs.Slo.verdict) =
    List.map
      (fun (metric, value) ->
        { layer = "slo"; case = v.Noc_obs.Slo.slo; metric; value })
      ([ ("ok", bit v.Noc_obs.Slo.ok) ]
      @ Option.fold ~none:[]
          ~some:(fun x -> [ ("value", Num x) ])
          v.Noc_obs.Slo.value
      @ [ ("detail", Str v.Noc_obs.Slo.detail) ])
  in
  {
    gates = ledger_gates;
    rows =
      List.concat_map cell_rows
        (List.filter (fun c -> Outcome.is_done c.outcome) cells)
      @ List.concat_map slo_rows slo;
  }

(* ------------------------------------------------------------------ *)
(* Markdown report                                                     *)
(* ------------------------------------------------------------------ *)

let outcome_word cell =
  if not (Outcome.is_done cell.outcome) then
    match cell.outcome.Outcome.status with
    | Outcome.Failed _ -> "failed"
    | Outcome.Timed_out -> "timed out"
    | Outcome.Cancelled -> "cancelled"
    | Outcome.Done -> assert false
  else if deadlocked cell then
    if certified cell then "DEADLOCK (certified)" else "DEADLOCK"
  else if flag cell "timed_out" then "timed out (sim)"
  else "completed"

let markdown_report cells verdict =
  let b = Buffer.create 4096 in
  let line fmt = Printf.ksprintf (fun s -> Buffer.add_string b (s ^ "\n")) fmt in
  line "# Simulation campaign";
  line "";
  line "- cells: %d (%d served warm from the store)" verdict.cells verdict.warm;
  line "- deadlocks: %d, all expected on unprotected cyclic-CDG designs: %s"
    verdict.deadlocks
    (if verdict_ok verdict then "yes" else "NO");
  line "- cyclic-CDG cells: %d (%d deadlocked)" verdict.cyclic_cells
    verdict.cyclic_deadlocks;
  (match verdict.violations with
  | [] -> line "- invariants: hold"
  | vs ->
      line "- violations:";
      List.iter (fun v -> line "  - %s" v) vs);
  line "";
  line "| design | workload | prepare | CDG | outcome | cycles | delivered | avg lat | p95 lat | thr (flits/cyc) | VCs added |";
  line "|---|---|---|---|---|---:|---:|---:|---:|---:|---:|";
  List.iter
    (fun cell ->
      let workload =
        match workload_of cell with
        | Some w -> Noc_benchmarks.Workloads.describe w
        | None -> "-"
      in
      let prepare =
        match prepare_of cell with
        | Some p -> Job.prepare_name p
        | None -> "-"
      in
      line "| %s | %s | %s | %s | %s | %.0f | %.0f/%.0f | %.1f | %.0f | %.2f | %.0f |"
        (design_label cell) workload prepare
        (if cdg_cyclic cell then "cyclic" else "acyclic")
        (outcome_word cell) (metric cell "cycles") (metric cell "delivered")
        (metric cell "packets") (metric cell "avg_latency")
        (metric cell "p95_latency") (metric cell "throughput")
        (metric cell "vcs_added"))
    cells;
  (* Load–latency curves: rate-parameterized cells grouped per design
     and preparation, in rate order. *)
  let rated =
    List.filter_map
      (fun cell ->
        match workload_of cell with
        | Some w -> (
            match Noc_benchmarks.Workloads.injection_rate w with
            | Some rate when Outcome.is_done cell.outcome ->
                Some (cell, Noc_benchmarks.Workloads.kind w, rate)
            | Some _ | None -> None)
        | None -> None)
      cells
  in
  if rated <> [] then begin
    line "";
    line "## Load–latency";
    line "";
    line "| design | workload | prepare | rate | outcome | avg lat | p95 lat | thr (flits/cyc) |";
    line "|---|---|---|---:|---|---:|---:|---:|";
    let sorted =
      List.sort
        (fun (a, ka, ra) (b, kb, rb) ->
          match compare (design_label a) (design_label b) with
          | 0 -> (
              match compare ka kb with
              | 0 -> (
                  match compare (prepare_of a) (prepare_of b) with
                  | 0 -> compare ra rb
                  | c -> c)
              | c -> c)
          | c -> c)
        rated
    in
    List.iter
      (fun (cell, kind, rate) ->
        let prepare =
          match prepare_of cell with
          | Some p -> Job.prepare_name p
          | None -> "-"
        in
        line "| %s | %s | %s | %.3f | %s | %.1f | %.0f | %.2f |"
          (design_label cell) kind prepare rate (outcome_word cell)
          (metric cell "avg_latency") (metric cell "p95_latency")
          (metric cell "throughput"))
      sorted
  end;
  Buffer.contents b
