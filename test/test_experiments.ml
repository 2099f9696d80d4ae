open Noc_experiments

let check = Alcotest.check
let bool_c = Alcotest.bool
let int_c = Alcotest.int

(* ------------------------------------------------------------------ *)
(* Series                                                              *)
(* ------------------------------------------------------------------ *)

let test_series_render () =
  let t = Series.create ~header:[ "a"; "bb" ] in
  Series.add_row t [ "1"; "2" ];
  Series.add_row t [ "10"; "200" ];
  let s = Format.asprintf "%a" Series.pp t in
  check bool_c "header present" true (String.length s > 0);
  check int_c "three lines"
    3
    (List.length (String.split_on_char '\n' s))

let test_series_arity () =
  let t = Series.create ~header:[ "a"; "b" ] in
  Alcotest.check_raises "arity" (Invalid_argument "Series.add_row: arity mismatch")
    (fun () -> Series.add_row t [ "only one" ])

(* ------------------------------------------------------------------ *)
(* Ring example                                                        *)
(* ------------------------------------------------------------------ *)

let test_ring_example_structure () =
  let t = Ring_example.build () in
  let cdg = Noc_model.Cdg.build t.Ring_example.net in
  check bool_c "cyclic as designed" false (Noc_model.Cdg.is_deadlock_free cdg);
  check int_c "4 links" 4 (Array.length t.Ring_example.links);
  check int_c "cycle of 4" 4 (List.length (Ring_example.cycle t))

let contains ~needle haystack =
  let n = String.length needle and h = String.length haystack in
  let rec scan i = i + n <= h && (String.sub haystack i n = needle || scan (i + 1)) in
  n = 0 || scan 0

let test_ring_example_narration_mentions_table1 () =
  let s = Format.asprintf "%t" Ring_example.narrate in
  check bool_c "narrates Table 1" true (contains ~needle:"Table 1" s);
  check bool_c "shows the break" true (contains ~needle:"break forward" s);
  check bool_c "reaches the acyclic CDG" true (contains ~needle:"acyclic=true" s)

(* ------------------------------------------------------------------ *)
(* Sweep                                                               *)
(* ------------------------------------------------------------------ *)

let spec name =
  match Noc_benchmarks.Registry.find name with
  | Some s -> s
  | None -> Alcotest.failf "missing %s" name

let test_sweep_point_consistency () =
  let p = Sweep.evaluate (spec "D36_8") ~n_switches:14 in
  check bool_c "baseline has no added VCs" true (p.Sweep.baseline.Sweep.vcs_added = 0);
  check bool_c "removal total = baseline + added" true
    (p.Sweep.removal.Sweep.total_vcs
    = p.Sweep.baseline.Sweep.total_vcs + p.Sweep.removal.Sweep.vcs_added);
  check bool_c "ordering total consistent" true
    (p.Sweep.ordering.Sweep.total_vcs
    = p.Sweep.baseline.Sweep.total_vcs + p.Sweep.ordering.Sweep.vcs_added);
  check bool_c "initially cyclic here" false p.Sweep.initially_deadlock_free;
  check bool_c "removal did work" true (p.Sweep.removal_iterations > 0)

let test_sweep_removal_beats_ordering () =
  let p = Sweep.evaluate (spec "D36_8") ~n_switches:14 in
  check bool_c "fewer VCs than greedy ordering" true
    (p.Sweep.removal.Sweep.vcs_added <= p.Sweep.ordering.Sweep.vcs_added);
  check bool_c "far fewer than hop-index" true
    (p.Sweep.removal.Sweep.vcs_added < p.Sweep.ordering_hop.Sweep.vcs_added);
  check bool_c "cheaper power than hop-index" true
    (p.Sweep.removal.Sweep.power_mw < p.Sweep.ordering_hop.Sweep.power_mw);
  check bool_c "smaller area than hop-index" true
    (p.Sweep.removal.Sweep.area_mm2 < p.Sweep.ordering_hop.Sweep.area_mm2)

let test_sweep_deterministic () =
  let a = Sweep.evaluate (spec "D26_media") ~n_switches:11 in
  let b = Sweep.evaluate (spec "D26_media") ~n_switches:11 in
  check bool_c "identical points" true (a = b)

(* ------------------------------------------------------------------ *)
(* Figures (the reproduction's acceptance tests)                       *)
(* ------------------------------------------------------------------ *)

let test_fig8_shape () =
  (* Figure 8's qualitative content: removal needs (near) zero VCs on
     D26_media at every switch count; resource ordering pays more and
     grows with the switch count. *)
  let rows = Figures.fig8 () in
  check int_c "eight sweep points" 8 (List.length rows);
  List.iter
    (fun r ->
      check bool_c
        (Printf.sprintf "removal <= ordering at %d" r.Figures.n_switches)
        true
        (r.Figures.removal_vcs <= r.Figures.ordering_vcs))
    rows;
  let zero_points =
    List.length (List.filter (fun r -> r.Figures.removal_vcs = 0) rows)
  in
  check bool_c "removal is zero for most switch counts" true (zero_points >= 6);
  let first = List.hd rows and last = List.nth rows (List.length rows - 1) in
  check bool_c "ordering grows with switch count" true
    (last.Figures.ordering_vcs > first.Figures.ordering_vcs)

let test_fig9_shape () =
  (* Figure 9: on the dense D36_8, removal needs some VCs but far fewer
     than resource ordering at every point. *)
  let rows = Figures.fig9 () in
  check int_c "seven sweep points" 7 (List.length rows);
  List.iter
    (fun r ->
      check bool_c
        (Printf.sprintf "removal strictly cheaper at %d" r.Figures.n_switches)
        true
        (r.Figures.removal_vcs < r.Figures.ordering_vcs))
    rows;
  let total_removal = List.fold_left (fun a r -> a + r.Figures.removal_vcs) 0 rows in
  let total_ordering = List.fold_left (fun a r -> a + r.Figures.ordering_vcs) 0 rows in
  check bool_c "at least 5x cheaper overall" true
    (total_ordering >= 5 * max 1 total_removal)

let test_fig10_shape () =
  (* Figure 10: ordering consumes more power than removal on every
     benchmark; removal's own overhead stays below the paper's 5 %. *)
  let rows = Figures.fig10 () in
  check int_c "six benchmarks" 6 (List.length rows);
  List.iter
    (fun r ->
      check bool_c (r.Figures.benchmark ^ ": ordering >= 1.0") true
        (r.Figures.ordering_power_norm >= 1.0);
      check bool_c (r.Figures.benchmark ^ ": overhead < 5%") true
        (r.Figures.removal_overhead_vs_none < 0.05);
      check bool_c (r.Figures.benchmark ^ ": area saving >= 0") true
        (r.Figures.area_saving >= 0.))
    rows;
  (* At least half the benchmarks show a clearly visible (>5 %) gap. *)
  let visible =
    List.length (List.filter (fun r -> r.Figures.ordering_power_norm > 1.05) rows)
  in
  check bool_c "gap visible on most benchmarks" true (visible >= 3)

let test_ablation_rows () =
  let rows = Figures.ablation () in
  check int_c "ten configurations" 10 (List.length rows);
  (* The reroute-first pre-pass must never leave removal worse off. *)
  let vcs prefix =
    (List.find
       (fun r ->
         String.length r.Figures.configuration >= String.length prefix
         && String.sub r.Figures.configuration 0 (String.length prefix) = prefix)
       rows)
      .Figures.vcs_added
  in
  check bool_c "reroute-first never worse" true
    (vcs "reroute-first" <= vcs "removal: smallest cycle, fwd+bwd");
  let find prefix =
    List.find
      (fun r ->
        String.length r.Figures.configuration >= String.length prefix
        && String.sub r.Figures.configuration 0 (String.length prefix) = prefix)
      rows
  in
  let removal = find "removal: smallest cycle, fwd+bwd" in
  let hop = find "resource ordering: hop-index" in
  check bool_c "removal cheaper than the paper baseline" true
    (removal.Figures.vcs_added < hop.Figures.vcs_added);
  (* The paper's argument against turn prohibition, quantified: on the
     design as synthesized, up*/down* is infeasible. *)
  let updown_raw = find "up*/down* routing (as synthesized)" in
  check bool_c "up*/down* infeasible on custom topology" true
    (updown_raw.Figures.note = "INFEASIBLE (unidirectional links)");
  let updown_bidir = find "up*/down* routing (bidirectionalized)" in
  check bool_c "bidirectionalizing costs links" true
    (contains ~needle:"links" updown_bidir.Figures.note)

(* Golden values: the whole pipeline is deterministic, so the exact
   figure series are pinned.  A change here is a change to the
   reproduction's results and must be deliberate (update EXPERIMENTS.md
   alongside). *)
let test_fig8_golden () =
  let rows =
    List.map
      (fun r -> (r.Figures.n_switches, r.Figures.removal_vcs, r.Figures.ordering_vcs))
      (Figures.fig8 ())
  in
  check
    Alcotest.(list (triple int int int))
    "figure 8 exact series"
    [
      (5, 0, 0); (8, 0, 1); (11, 0, 2); (14, 0, 5); (17, 0, 14); (20, 0, 19);
      (23, 0, 20); (25, 2, 38);
    ]
    rows

let test_fig9_golden () =
  let rows =
    List.map
      (fun r -> (r.Figures.n_switches, r.Figures.removal_vcs, r.Figures.ordering_vcs))
      (Figures.fig9 ())
  in
  check
    Alcotest.(list (triple int int int))
    "figure 9 exact series"
    [
      (10, 1, 25); (14, 3, 54); (18, 9, 86); (22, 6, 105); (26, 17, 152);
      (30, 5, 162); (35, 19, 215);
    ]
    rows

(* ------------------------------------------------------------------ *)
(* Design space                                                        *)
(* ------------------------------------------------------------------ *)

let test_design_space_explore () =
  let points =
    Design_space.explore ~switch_counts:[ 8; 11 ] ~degrees:[ 3; 4 ]
      (spec "D26_media")
  in
  check int_c "2 x 2 x 2 points" 8 (List.length points);
  let front = Design_space.pareto_front points in
  check bool_c "front non-empty" true (front <> []);
  check bool_c "front subset" true
    (List.for_all (fun p -> p.Design_space.pareto) front);
  (* Nothing on the front may be dominated by any point. *)
  List.iter
    (fun p ->
      List.iter
        (fun q ->
          let dominates =
            q.Design_space.power_mw < p.Design_space.power_mw
            && q.Design_space.area_mm2 < p.Design_space.area_mm2
            && q.Design_space.avg_hops < p.Design_space.avg_hops
          in
          check bool_c "front undominated" false dominates)
        points)
    front

let test_pareto_front_logic () =
  let mk power area hops =
    {
      Design_space.n_switches = 0;
      max_degree = 0;
      mapper = "x";
      vcs_added = 0;
      power_mw = power;
      area_mm2 = area;
      avg_hops = hops;
      pareto = false;
    }
  in
  let a = mk 1. 1. 1. and b = mk 2. 2. 2. and c = mk 1. 2. 0.5 in
  let front = Design_space.pareto_front [ a; b; c ] in
  check int_c "b dominated" 2 (List.length front)

let test_every_benchmark_every_scale () =
  (* Safety net across the whole matrix: every benchmark, several
     switch counts — synthesis must produce a valid design and removal
     must reach deadlock freedom while preserving physical routes. *)
  List.iter
    (fun s ->
      List.iter
        (fun n ->
          if n <= s.Noc_benchmarks.Spec.n_cores then begin
            let traffic = s.Noc_benchmarks.Spec.build () in
            let net = Noc_synth.Custom.synthesize_exn traffic ~n_switches:n in
            let before = Noc_model.Network.copy net in
            let r = Noc_deadlock.Removal.run net in
            let label = Printf.sprintf "%s@%d" s.Noc_benchmarks.Spec.name n in
            check bool_c (label ^ " free") true r.Noc_deadlock.Removal.deadlock_free;
            check bool_c (label ^ " valid") true (Noc_model.Validate.is_valid net);
            check bool_c (label ^ " routes preserved") true
              (Noc_model.Validate.routes_equivalent ~before ~after:net)
          end)
        [ 4; 6; 10; 14; 19; 24; 30; 36 ])
    Noc_benchmarks.Registry.all

(* ------------------------------------------------------------------ *)
(* Resilience                                                          *)
(* ------------------------------------------------------------------ *)

let test_resilience_ring_fragile () =
  (* Every link of the unidirectional ring is fatal. *)
  let t = Ring_example.build () in
  let r = Resilience.sweep t.Ring_example.net in
  check int_c "all 4 links" 4 r.Resilience.total_links;
  check int_c "nothing survivable" 0 r.Resilience.survivable_failures;
  List.iter
    (fun o -> check bool_c "unroutable" false o.Resilience.routable)
    r.Resilience.outcomes

let test_resilience_hardening_helps () =
  let t = Ring_example.build () in
  let net = t.Ring_example.net in
  ignore (Noc_synth.Harden.run net);
  let r = Resilience.sweep net in
  check int_c "all failures survivable" r.Resilience.total_links
    r.Resilience.survivable_failures;
  (* And the original design was not mutated by the sweep itself. *)
  check int_c "links intact" 8
    (Noc_model.Topology.n_links (Noc_model.Network.topology net))

let test_resilience_drop_link () =
  let t = Ring_example.build () in
  let degraded = Resilience.drop_link t.Ring_example.net (Fixtures.lk 0) in
  check int_c "one fewer link" 3
    (Noc_model.Topology.n_links (Noc_model.Network.topology degraded));
  (* VC counts of survivors are preserved. *)
  ignore
    (Noc_model.Topology.add_vc (Noc_model.Network.topology t.Ring_example.net)
       (Fixtures.lk 2));
  let degraded' = Resilience.drop_link t.Ring_example.net (Fixtures.lk 0) in
  let has_two_vcs =
    List.exists
      (fun (l : Noc_model.Topology.link) ->
        Noc_model.Topology.vc_count
          (Noc_model.Network.topology degraded')
          l.Noc_model.Topology.id
        = 2)
      (Noc_model.Topology.links (Noc_model.Network.topology degraded'))
  in
  check bool_c "vc counts carried over" true has_two_vcs

(* ------------------------------------------------------------------ *)
(* Load-latency                                                        *)
(* ------------------------------------------------------------------ *)

let test_load_latency_rejects_cyclic () =
  let t = Ring_example.build () in
  Alcotest.check_raises "cyclic rejected"
    (Invalid_argument "Load_latency.sweep: design still has CDG cycles")
    (fun () -> ignore (Load_latency.sweep t.Ring_example.net))

let test_load_latency_monotone_load () =
  let t = Ring_example.build () in
  ignore (Noc_deadlock.Removal.run t.Ring_example.net);
  let rows =
    Load_latency.sweep ~packets_per_flow:4 ~intervals:[ 64; 16; 4 ]
      t.Ring_example.net
  in
  check int_c "three points" 3 (List.length rows);
  (* Rows come back lowest load first; offered load strictly rises. *)
  let rec rising = function
    | a :: (b :: _ as rest) ->
        a.Load_latency.offered_load < b.Load_latency.offered_load && rising rest
    | [ _ ] | [] -> true
  in
  check bool_c "load rising" true (rising rows);
  List.iter
    (fun r ->
      check bool_c "all packets delivered" true r.Load_latency.completed;
      check bool_c "latency positive" true (r.Load_latency.avg_latency > 0.))
    rows

let test_load_latency_low_load_is_light () =
  (* At very light load the average latency approaches the no-contention
     path latency: small, bounded. *)
  let t = Ring_example.build () in
  ignore (Noc_deadlock.Removal.run t.Ring_example.net);
  match Load_latency.sweep ~packets_per_flow:2 ~intervals:[ 256 ] t.Ring_example.net with
  | [ r ] -> check bool_c "light load, light latency" true (r.Load_latency.avg_latency < 30.)
  | rows -> Alcotest.failf "expected one row, got %d" (List.length rows)

(* ------------------------------------------------------------------ *)
(* Sim check                                                           *)
(* ------------------------------------------------------------------ *)

let test_sim_check_ring_demo () =
  let before, after = Sim_check.ring_demo () in
  check bool_c "before cyclic" true before.Sim_check.cdg_cyclic;
  check bool_c "after acyclic" false after.Sim_check.cdg_cyclic;
  (match before.Sim_check.outcome with
  | Noc_sim.Engine.Deadlocked _ -> ()
  | Noc_sim.Engine.Completed _ | Noc_sim.Engine.Timed_out _ ->
      Alcotest.fail "ring must deadlock before removal");
  match after.Sim_check.outcome with
  | Noc_sim.Engine.Completed _ -> ()
  | Noc_sim.Engine.Deadlocked _ | Noc_sim.Engine.Timed_out _ ->
      Alcotest.fail "ring must complete after removal"

(* ------------------------------------------------------------------ *)
(* The removal gate: bench/2 rows of the committed baseline            *)
(* ------------------------------------------------------------------ *)

module Ledger = Noc_obs.Ledger

let removal_gate = Fixtures.ledger_gate Baselines.removal
let no_violations = check (Alcotest.list Alcotest.string) "no violations" []

let test_removal_json_roundtrip () =
  match Ledger.of_json Baselines.removal with
  | Error msg -> Alcotest.fail msg
  | Ok baseline ->
      let cases =
        List.sort_uniq compare
          (List.map (fun (r : Ledger.row) -> r.case) baseline.rows)
      in
      (* 11 sweep points plus the D36_8 aggregate. *)
      check int_c "committed cases" 12 (List.length cases);
      check Alcotest.string "to_json re-renders the committed file"
        Baselines.removal (Ledger.to_json baseline)

let test_removal_gate_passes_on_baseline () = no_violations (removal_gate Fun.id)

let test_removal_gate_missing_entry () =
  Fixtures.one_violation ~needle:"removal/D26_media@26: case missing"
    (removal_gate (Fixtures.drop_rows (fun (r : Ledger.row) -> r.case = "D26_media@26")))

let test_removal_gate_iterations_drift () =
  Fixtures.one_violation ~needle:"D36_8@14: iterations changed 3 -> 4"
    (removal_gate
       (Fixtures.set_row ~case:"D36_8@14" ~metric:"iterations" (Ledger.Num 4.)))

let test_removal_gate_vcs_drift () =
  Fixtures.one_violation ~needle:"D36_8@14: vcs_added changed 3 -> 4"
    (removal_gate
       (Fixtures.set_row ~case:"D36_8@14" ~metric:"vcs_added" (Ledger.Num 4.)))

(* A case with its baseline [metric] row gone is one violation when
   the metric gates exactly. *)
let test_removal_gate_missing_row () =
  Fixtures.one_violation
    ~needle:"removal/D36_8@14: iterations missing from current report"
    (removal_gate
       (Fixtures.drop_rows (fun (r : Ledger.row) ->
            r.case = "D36_8@14" && r.metric = "iterations")))

(* An entry's timing rows as the producer emits them. *)
let timed ~case ~incremental_ms ~rebuild_ms =
  Fixtures.replace_rows ~layer:"removal" ~case
    ~metrics:[ "incremental_ms"; "rebuild_ms"; "speedup" ]
    (Bench_gates.removal_timing ~incremental_ms ~rebuild_ms)

let test_removal_gate_speedup_regression () =
  let base metric = Fixtures.baseline_num Baselines.removal ~case:"D36_8@35" ~metric in
  (* @35 times stably (rebuild >= 2 ms): 6.1x -> 4.1x is a 33% drop. *)
  Fixtures.one_violation ~needle:"D36_8@35: speedup dropped 6.10424 -> 4.0695"
    (removal_gate
       (timed ~case:"D36_8@35"
          ~incremental_ms:(1.5 *. base "incremental_ms")
          ~rebuild_ms:(base "rebuild_ms")));
  (* A 20% drop is inside the 25% tolerance. *)
  no_violations
    (removal_gate
       (Fixtures.update_row ~case:"D36_8@35" ~metric:"speedup"
          (Fixtures.scale 0.8)));
  (* A degenerate speedup is a drop, not a pass. *)
  Fixtures.one_violation ~needle:"D36_8@35: speedup dropped 6.10424 -> nan"
    (removal_gate
       (Fixtures.set_row ~case:"D36_8@35" ~metric:"speedup" (Ledger.Num nan)));
  (* The same collapse on a rebuild arm under 2 ms emits no speedup
     row, so it is not judged; at 2 ms it is. *)
  let incremental_ms = Fixtures.baseline_num Baselines.removal ~case:"D36_8@26" ~metric:"incremental_ms" in
  no_violations (removal_gate (timed ~case:"D36_8@26" ~incremental_ms ~rebuild_ms:1.9));
  Fixtures.one_violation ~needle:"D36_8@26: speedup dropped"
    (removal_gate (timed ~case:"D36_8@26" ~incremental_ms ~rebuild_ms:2.0));
  (* A baseline without a speedup row compares nothing against one. *)
  no_violations
    (removal_gate
       (Fixtures.add_row ~layer:"removal" ~case:"D36_8@18" ~metric:"speedup"
          (Ledger.Num 1.)))

(* The D36_8 aggregate row as the producer emits it from the sweep's
   arm times, with @18's incremental arm scaled by [slow_18]. *)
let aggregate ~slow_18 =
  let sum metric =
    List.fold_left
      (fun acc n ->
        let case = Printf.sprintf "D36_8@%d" n in
        let ms = Fixtures.baseline_num Baselines.removal ~case ~metric in
        acc +. if n = 18 && metric = "incremental_ms" then slow_18 *. ms else ms)
      0. [ 10; 14; 18; 22; 26; 30; 35 ]
  in
  (sum "incremental_ms", sum "rebuild_ms")

let test_removal_gate_aggregate_floor () =
  let emit (incremental_ms, rebuild_ms) =
    removal_gate
      (Fixtures.replace_rows ~layer:"removal" ~case:"D36_8"
         ~metrics:[ "aggregate_speedup" ]
         (Bench_gates.removal_aggregate ~incremental_ms ~rebuild_ms))
  in
  no_violations (emit (aggregate ~slow_18:1.));
  (* @18's rebuild arm is too small for a per-entry row, so only the
     aggregate floor catches a 10x slowdown there. *)
  Fixtures.one_violation
    ~needle:"removal/D36_8: aggregate_speedup 2.82782 below the minimum 4"
    (emit (aggregate ~slow_18:10.));
  (* No incremental time, no ratio: the aggregate case goes missing. *)
  Fixtures.one_violation ~needle:"removal/D36_8: case missing"
    (emit (0., snd (aggregate ~slow_18:1.)))

let () =
  let tc name f = Alcotest.test_case name `Quick f in
  let slow name f = Alcotest.test_case name `Slow f in
  Alcotest.run "noc_experiments"
    [
      ( "series",
        [ tc "render" test_series_render; tc "arity" test_series_arity ] );
      ( "ring_example",
        [
          tc "structure" test_ring_example_structure;
          tc "narration" test_ring_example_narration_mentions_table1;
        ] );
      ( "sweep",
        [
          tc "consistency" test_sweep_point_consistency;
          tc "removal beats ordering" test_sweep_removal_beats_ordering;
          tc "deterministic" test_sweep_deterministic;
        ] );
      ( "figures",
        [
          slow "figure 8 shape" test_fig8_shape;
          slow "figure 9 shape" test_fig9_shape;
          slow "figure 8 golden values" test_fig8_golden;
          slow "figure 9 golden values" test_fig9_golden;
          slow "figure 10 shape" test_fig10_shape;
          tc "ablation" test_ablation_rows;
        ] );
      ( "design_space",
        [
          tc "explore" test_design_space_explore;
          tc "pareto logic" test_pareto_front_logic;
        ] );
      ( "full_matrix",
        [ slow "every benchmark at every scale" test_every_benchmark_every_scale ] );
      ( "resilience",
        [
          tc "ring is fragile" test_resilience_ring_fragile;
          tc "hardening helps" test_resilience_hardening_helps;
          tc "drop_link" test_resilience_drop_link;
        ] );
      ( "load_latency",
        [
          tc "rejects cyclic designs" test_load_latency_rejects_cyclic;
          tc "monotone load" test_load_latency_monotone_load;
          tc "light load light latency" test_load_latency_low_load_is_light;
        ] );
      ("sim_check", [ tc "ring demo" test_sim_check_ring_demo ]);
      ( "bench_report",
        [
          tc "json round-trip" test_removal_json_roundtrip;
          tc "gate passes on baseline" test_removal_gate_passes_on_baseline;
          tc "gate: missing entry" test_removal_gate_missing_entry;
          tc "gate: iterations drift" test_removal_gate_iterations_drift;
          tc "gate: vcs_added drift" test_removal_gate_vcs_drift;
          tc "gate: missing row" test_removal_gate_missing_row;
          tc "gate: speedup regression" test_removal_gate_speedup_regression;
          tc "gate: aggregate floor" test_removal_gate_aggregate_floor;
        ] );
    ]
