(* The campaign subsystem: grid construction, the store-backed resume
   path, the deadlock-freedom verdict, the Markdown report, and the
   bench-sim/1 report with its baseline gate. *)

open Noc_service
open Noc_campaign

let check = Alcotest.check
let bool_c = Alcotest.bool
let int_c = Alcotest.int

let contains = Fixtures.contains

let rec rm_rf path =
  if Sys.is_directory path then begin
    Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
    Unix.rmdir path
  end
  else Sys.remove path

let with_temp_dir f =
  let dir = Filename.temp_file "noc_campaign_test" "" in
  Sys.remove dir;
  Unix.mkdir dir 0o755;
  Fun.protect ~finally:(fun () -> rm_rf dir) (fun () -> f dir)

let two_designs = [ { Campaign.benchmark = "D26_media"; n_switches = 14 };
                    { Campaign.benchmark = "D36_8"; n_switches = 14 } ]

let small_grid () =
  Campaign.grid ~points:two_designs
    ~workloads:
      Noc_benchmarks.Workloads.[ default_burst; default_transpose ]
    ()

(* ------------------------------------------------------------------ *)
(* Grid                                                                *)
(* ------------------------------------------------------------------ *)

let test_grid_factorial_size () =
  let jobs = small_grid () in
  (* 2 designs x 2 workloads x 3 preparations. *)
  check int_c "full factorial" 12 (List.length jobs);
  let hashes = List.map Job.hash jobs in
  check int_c "all cells distinct" 12
    (List.length (List.sort_uniq compare hashes));
  check bool_c "grid is deterministic" true (small_grid () = jobs)

let test_grid_rate_expansion () =
  let jobs =
    Campaign.grid ~prepares:[ Job.As_is ]
      ~rates:[ 0.05; 0.1; 0.2 ]
      ~points:[ List.hd two_designs ]
      ~workloads:
        Noc_benchmarks.Workloads.[ default_uniform; default_burst ]
      ()
  in
  (* uniform expands once per rate; burst (no rate knob) appears once. *)
  check int_c "3 rated + 1 unrated" 4 (List.length jobs);
  let rates =
    List.filter_map
      (fun (job : Job.t) ->
        match job.Job.method_ with
        | Job.Simulate { workload; _ } ->
            Noc_benchmarks.Workloads.injection_rate workload
        | _ -> None)
      jobs
  in
  check (Alcotest.list (Alcotest.float 1e-9)) "rates applied" [ 0.05; 0.1; 0.2 ]
    (List.sort compare rates)

(* ------------------------------------------------------------------ *)
(* Run + verify + resume                                               *)
(* ------------------------------------------------------------------ *)

let test_run_verify_and_resume () =
  with_temp_dir (fun dir ->
      let store = Store.create ~root:(Filename.concat dir "store") ~capacity:64 in
      let config = { Campaign.default_config with Campaign.store = Some store } in
      let jobs = small_grid () in
      let cells = Campaign.run config jobs in
      check int_c "every job produced a cell" 12 (List.length cells);
      check bool_c "grid order preserved" true
        (List.map Job.hash jobs
        = List.map (fun (c : Campaign.cell) -> Job.hash c.Campaign.job) cells);
      let verdict = Campaign.verify cells in
      check bool_c "invariants hold" true (Campaign.verdict_ok verdict);
      check int_c "nothing warm on the first run" 0 verdict.Campaign.warm;
      check bool_c "cyclic design deadlocked" true
        (verdict.Campaign.cyclic_deadlocks > 0);
      check int_c "no failures" 0 verdict.Campaign.failed;
      (* Deadlocks only on unprotected cells, and always certified. *)
      List.iter
        (fun (c : Campaign.cell) ->
          if Campaign.deadlocked c then begin
            check bool_c "deadlock on as-is only" true
              (Campaign.prepare_of c = Some Job.As_is);
            check bool_c "certified" true (Campaign.certified c);
            check bool_c "on a cyclic CDG" true (Campaign.cdg_cyclic c)
          end)
        cells;
      (* Second run resumes entirely from the store, bit-identically. *)
      let cells' = Campaign.run config jobs in
      let verdict' = Campaign.verify cells' in
      check int_c "all cells warm" 12 verdict'.Campaign.warm;
      check bool_c "warm results identical" true
        (List.map (fun (c : Campaign.cell) -> Outcome.result_hash c.Campaign.outcome) cells
        = List.map (fun (c : Campaign.cell) -> Outcome.result_hash c.Campaign.outcome) cells'))

let test_verify_flags_missing_cyclic_deadlock () =
  (* An acyclic-only campaign observes no deadlock; with the witness
     expectation on, that is a violation, with it off, a pass. *)
  let jobs =
    Campaign.grid
      ~points:[ { Campaign.benchmark = "D26_media"; n_switches = 14 } ]
      ~workloads:[ Noc_benchmarks.Workloads.default_burst ]
      ()
  in
  let cells = Campaign.run Campaign.default_config jobs in
  let strict = Campaign.verify cells in
  check bool_c "no cyclic cells at all, so nothing to witness" true
    (Campaign.verdict_ok strict);
  check int_c "no cyclic cells" 0 strict.Campaign.cyclic_cells

let test_markdown_report_shape () =
  let jobs = small_grid () in
  let cells = Campaign.run Campaign.default_config jobs in
  let verdict = Campaign.verify cells in
  let md = Campaign.markdown_report cells verdict in
  check bool_c "has the summary" true (contains ~needle:"# Simulation campaign" md);
  check bool_c "has the cell table" true (contains ~needle:"| design |" md);
  check bool_c "names the deadlock" true (contains ~needle:"DEADLOCK (certified)" md);
  check bool_c "no load-latency section without rates" false
    (contains ~needle:"## Load" md);
  (* With rates, the load-latency section appears. *)
  let rated =
    Campaign.grid ~prepares:[ Job.Removal_first ] ~rates:[ 0.05; 0.15 ]
      ~points:[ { Campaign.benchmark = "D36_8"; n_switches = 14 } ]
      ~workloads:[ Noc_benchmarks.Workloads.default_uniform ]
      ()
  in
  let rated_cells = Campaign.run Campaign.default_config rated in
  let rated_md =
    Campaign.markdown_report rated_cells
      (Campaign.verify ~expect_cyclic_deadlock:false rated_cells)
  in
  check bool_c "load-latency curves present" true
    (contains ~needle:"## Load" rated_md)

(* ------------------------------------------------------------------ *)
(* Sim_report: JSON round-trip and the regression gate                 *)
(* ------------------------------------------------------------------ *)

let report_of_small_grid () =
  let cells = Campaign.run Campaign.default_config (small_grid ()) in
  Sim_report.of_cells cells

let test_sim_report_roundtrip () =
  let report = report_of_small_grid () in
  check int_c "every finished cell reported" 12
    (List.length report.Sim_report.entries);
  match Sim_report.of_json (Sim_report.to_json report) with
  | Error e -> Alcotest.failf "round-trip failed: %s" e
  | Ok decoded -> check bool_c "round-trips exactly" true (decoded = report)

let test_sim_report_gate_passes_on_self () =
  let report = report_of_small_grid () in
  check
    Alcotest.(list string)
    "self-comparison is clean" []
    (Sim_report.compare_to_baseline ~baseline:report report)

let with_entry f report =
  {
    report with
    Sim_report.entries =
      List.map
        (fun (e : Sim_report.entry) ->
          if e.Sim_report.prepare = "removal" && e.Sim_report.workload = "burst"
             && e.Sim_report.benchmark = "D36_8"
          then f e
          else e)
        report.Sim_report.entries;
  }

let test_sim_report_gate_catches_regressions () =
  let baseline = report_of_small_grid () in
  (* A protected cell that starts deadlocking is caught by the hard
     invariant even before the baseline diff. *)
  let broken =
    with_entry
      (fun e ->
        { e with Sim_report.deadlocked = true; certified = true;
                 cdg_cyclic = true; result_hash = "tampered" })
      baseline
  in
  let errors = Sim_report.compare_to_baseline ~baseline broken in
  check bool_c "deadlock flip caught" true (errors <> []);
  check bool_c "named as a protected-design deadlock" true
    (List.exists (contains ~needle:"removal-protected") errors);
  check bool_c "invariant check needs no baseline" true
    (Sim_report.invariant_errors broken <> []);
  (* Latency drift beyond the band fails; inside the band passes. *)
  let slow =
    with_entry
      (fun e ->
        { e with Sim_report.avg_latency = e.Sim_report.avg_latency *. 2.;
                 result_hash = "drifted" })
      baseline
  in
  check bool_c "2x latency caught" true
    (List.exists (contains ~needle:"avg latency")
       (Sim_report.compare_to_baseline ~baseline slow));
  let slight =
    with_entry
      (fun e ->
        { e with Sim_report.avg_latency = e.Sim_report.avg_latency *. 1.1;
                 result_hash = "drifted" })
      baseline
  in
  check
    Alcotest.(list string)
    "10% drift inside the band" []
    (Sim_report.compare_to_baseline ~baseline slight);
  (* A missing cell is a gate failure. *)
  let missing =
    {
      baseline with
      Sim_report.entries =
        List.filter
          (fun (e : Sim_report.entry) -> e.Sim_report.prepare <> "removal")
          baseline.Sim_report.entries;
    }
  in
  check bool_c "missing cell caught" true
    (List.exists (contains ~needle:"missing")
       (Sim_report.compare_to_baseline ~baseline missing));
  (* Delivery counts are exact: the sim is deterministic. *)
  let short =
    with_entry
      (fun e ->
        { e with Sim_report.delivered = e.Sim_report.delivered -. 1.;
                 result_hash = "drifted" })
      baseline
  in
  check bool_c "delivery change caught" true
    (List.exists (contains ~needle:"delivered")
       (Sim_report.compare_to_baseline ~baseline short))

let () =
  let tc name f = Alcotest.test_case name `Quick f in
  Alcotest.run "noc_campaign"
    [
      ( "grid",
        [
          tc "factorial size" test_grid_factorial_size;
          tc "rate expansion" test_grid_rate_expansion;
        ] );
      ( "run",
        [
          tc "verify and resume" test_run_verify_and_resume;
          tc "acyclic-only campaign" test_verify_flags_missing_cyclic_deadlock;
          tc "markdown report" test_markdown_report_shape;
        ] );
      ( "sim_report",
        [
          tc "round-trip" test_sim_report_roundtrip;
          tc "gate passes on self" test_sim_report_gate_passes_on_self;
          tc "gate catches regressions" test_sim_report_gate_catches_regressions;
        ] );
    ]
