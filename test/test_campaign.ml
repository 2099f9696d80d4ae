(* The campaign subsystem: grid construction, the store-backed resume
   path, the deadlock-freedom verdict, the Markdown report, and the
   bench/2 rows with the sim gate. *)

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
(* Campaign.ledger and the sim gate                                    *)
(* ------------------------------------------------------------------ *)

module Ledger = Noc_obs.Ledger

let test_sim_report_roundtrip () =
  let cells = Campaign.run Campaign.default_config (small_grid ()) in
  let ledger = Campaign.ledger cells in
  let cases layer =
    List.sort_uniq compare
      (List.filter_map
         (fun (r : Ledger.row) -> if r.layer = layer then Some r.case else None)
         ledger.Ledger.rows)
  in
  check int_c "every finished cell reported" 12 (List.length (cases "sim"));
  check int_c "no slo rows without verdicts" 0 (List.length (cases "slo"));
  match Ledger.of_json (Ledger.to_json ledger) with
  | Error e -> Alcotest.failf "round-trip failed: %s" e
  | Ok decoded -> check bool_c "round-trips exactly" true (decoded = ledger)

(* Every gate case mutates the committed BENCH_sim.json. *)
let sim_gate = Fixtures.ledger_gate Baselines.sim

let test_sim_report_gate_passes_on_self () =
  check Alcotest.(list string) "self-comparison is clean" [] (sim_gate Fun.id)

let protected_cell = "sim burst/removal D36_8@14"
let acyclic_cell = "sim burst/as-is D26_media@14"
let deadlocked_cell = "sim burst/as-is D36_8@14"

let test_sim_report_gate_catches_regressions () =
  let one needle mutate = Fixtures.one_violation ~needle (sim_gate mutate) in
  let flag case metric =
    Fixtures.add_row ~layer:"sim" ~case ~metric (Ledger.Num 1.)
  in
  (* The deadlock invariants hold whatever the baseline says. *)
  one "burst/removal D36_8@14: deadlock_on_protected 1 above the maximum 0"
    (flag protected_cell "deadlock_on_protected");
  one "burst/as-is D26_media@14: deadlock_on_acyclic 1 above the maximum 0"
    (flag acyclic_cell "deadlock_on_acyclic");
  one "burst/as-is D36_8@14: deadlock_uncertified 1 above the maximum 0"
    (Fixtures.set_row ~case:deadlocked_cell ~metric:"deadlock_uncertified"
       (Ledger.Num 1.));
  (* So does every SLO verdict the campaign recorded. *)
  one "slo/campaign_cell_p99_ms: ok 0 below the minimum 1"
    (Fixtures.add_row ~layer:"slo" ~case:"campaign_cell_p99_ms" ~metric:"ok"
       (Ledger.Num 0.));
  (* Deadlock flags, deliveries and added VCs are exact. *)
  one "burst/removal D36_8@14: deadlocked changed 0 -> 1"
    (Fixtures.set_row ~case:protected_cell ~metric:"deadlocked" (Ledger.Num 1.));
  one "burst/as-is D36_8@14: certified changed 1 -> 0"
    (Fixtures.set_row ~case:deadlocked_cell ~metric:"certified" (Ledger.Num 0.));
  one "burst/removal D36_8@14: delivered changed"
    (Fixtures.update_row ~case:protected_cell ~metric:"delivered"
       (function Ledger.Num x -> Ledger.Num (x -. 1.) | v -> v));
  one "burst/removal D36_8@14: vcs_added changed 3 -> 4"
    (Fixtures.set_row ~case:protected_cell ~metric:"vcs_added" (Ledger.Num 4.));
  (* Latency and throughput drift beyond the band fails; inside it
     passes. *)
  one "burst/removal D36_8@14: avg_latency"
    (Fixtures.update_row ~case:protected_cell ~metric:"avg_latency"
       (Fixtures.scale 2.));
  one "burst/removal D36_8@14: throughput"
    (Fixtures.update_row ~case:protected_cell ~metric:"throughput"
       (Fixtures.scale 0.5));
  check
    Alcotest.(list string)
    "10% drift inside the band" []
    (sim_gate (fun rows ->
         Fixtures.update_row ~case:protected_cell ~metric:"avg_latency"
           (Fixtures.scale 1.1)
           (Fixtures.update_row ~case:protected_cell ~metric:"throughput"
              (Fixtures.scale 0.9) rows)));
  (* The result hash is reported, not gated: it moves with any drift. *)
  check
    Alcotest.(list string)
    "result hash not gated" []
    (sim_gate
       (Fixtures.set_row ~case:protected_cell ~metric:"result_hash"
          (Ledger.Str "drifted")));
  (* A missing cell is one violation, and so is a missing exact row. *)
  one "sim/sim burst/removal D36_8@14: case missing"
    (Fixtures.drop_rows (fun (r : Ledger.row) -> r.case = protected_cell));
  one "burst/removal D36_8@14: delivered missing from current report"
    (Fixtures.drop_rows (fun (r : Ledger.row) ->
         r.case = protected_cell && r.metric = "delivered"))

(* A removal-protected cell whose outcome says it deadlocked without a
   certificate: Campaign.ledger derives the invariant rows from the
   same predicates Campaign.verify checks, and each trips the gate. *)
let test_sim_ledger_invariant_rows () =
  let cells = Campaign.run Campaign.default_config (small_grid ()) in
  let cell =
    List.find (fun (c : Campaign.cell) -> Job.label c.job = protected_cell) cells
  in
  let set name v metrics = (name, v) :: List.remove_assoc name metrics in
  let tampered =
    {
      cell with
      outcome =
        {
          cell.outcome with
          metrics =
            set "deadlocked" 1. (set "certified" 0. cell.outcome.Outcome.metrics);
        };
    }
  in
  let rows = (Campaign.ledger [ tampered ]).Ledger.rows in
  let flag metric =
    match List.find_opt (fun (r : Ledger.row) -> r.metric = metric) rows with
    | Some { value = Ledger.Num x; _ } -> x
    | Some _ | None -> Alcotest.failf "no %s row" metric
  in
  check (Alcotest.float 0.) "deadlock_on_protected" 1. (flag "deadlock_on_protected");
  check (Alcotest.float 0.) "deadlock_on_acyclic" 1. (flag "deadlock_on_acyclic");
  check (Alcotest.float 0.) "deadlock_uncertified" 1. (flag "deadlock_uncertified");
  check int_c "verify names the same three" 3
    (List.length (Campaign.verify [ tampered ]).Campaign.violations);
  let errors =
    sim_gate (fun baseline ->
        Fixtures.drop_rows (fun (r : Ledger.row) -> r.case = protected_cell) baseline
        @ rows)
  in
  (* The exact deadlocked flag, plus one violation per invariant. *)
  check int_c "four violations" 4 (List.length errors);
  List.iter
    (fun needle ->
      check int_c needle 1
        (List.length (List.filter (contains ~needle) errors)))
    [
      "deadlocked changed 0 -> 1";
      "deadlock_on_protected 1 above the maximum 0";
      "deadlock_on_acyclic 1 above the maximum 0";
      "deadlock_uncertified 1 above the maximum 0";
    ]

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
          tc "ledger invariant rows" test_sim_ledger_invariant_rows;
        ] );
    ]
