(* flow-scale: the designer's tool flow, one design at a time on one
   domain, on seeded uniform traffic at 512 cores / 128 switches.
   Synthesis link construction and removal's cycle search do most of
   the work; the simulator, the service layer and the pool never run. *)

open Noc_model
open Measure
module Dlf = Noc_analysis.Deadlock_freedom

let n_cores = 512
let n_switches = 128
let flows_per_core = 3

(* [vcs_added] sums over the first designs, which every run completes,
   so it is a deterministic function of the seed. *)
let checked_designs = 8

(* A traced run times this many designs untraced, then traced. *)
let traced_designs = 2

(* Too few designs per run for a tail: [op_tail_ms] is the median. *)
let tail_q = 0.5

let traffic seed i =
  Noc_benchmarks.Synthetic.uniform ~n_cores ~flows_per_core ~seed:(derive seed 1 i)

type design = {
  vcs : int;
  lower_bound : int;
  iterations : int;
  removal_words : float;
  problem : string option;
}

(* Traffic to a certified design: synthesis, the as-built verdict and
   VC lower bound, removal, certification with a second independent
   verdict, then the power report. *)
let flow traffic =
  let net = synthesize ~probe:false traffic ~n_switches in
  let before = span "prove" (fun () -> Dlf.analyze net) in
  let bound = span "vc_bound" (fun () -> Dlf.vc_lower_bound net) in
  let w0 = Gc.minor_words () in
  let report = Noc_deadlock.Removal.run net in
  let removal_words = Gc.minor_words () -. w0 in
  let cert = span "certify" (fun () -> Noc_deadlock.Verify.certify net) in
  let after = span "prove" (fun () -> Dlf.analyze net) in
  let power = span "power" (fun () -> Noc_power.Report.of_network net) in
  let open Noc_deadlock in
  let problem =
    if not report.Removal.deadlock_free then Some "removal hit its iteration cap"
    else if not (cert.Verify.acyclic && cert.Verify.structural_issues = []) then
      Some "certify rejects the removed design"
    else if not after.Dlf.deadlock_free then Some "prover disagrees with certify"
    else if before.Dlf.deadlock_free <> (report.Removal.iterations = 0) then
      Some "as-built prover verdict disagrees with removal"
    else if report.Removal.vcs_added < bound.Dlf.lower_bound then
      Some "fewer VCs added than the static lower bound"
    else if not (power.Noc_power.Report.total_power_mw > 0.) then Some "empty power report"
    else None
  in
  {
    vcs = report.Removal.vcs_added;
    lower_bound = bound.Dlf.lower_bound;
    iterations = report.Removal.iterations;
    removal_words;
    problem;
  }

let note i d cpu =
  Printf.sprintf "design %d: %.3f s CPU, %d VCs added (lower bound %d), %d iterations%s" i cpu
    d.vcs d.lower_bound d.iterations
    (match d.problem with None -> "" | Some p -> ", FAILED: " ^ p)

let failures ds = List.length (List.filter (fun d -> d.problem <> None) ds)

let run cfg =
  let traffics, setup_s = setup_median 7 (fun () -> List.init checked_designs (traffic cfg.seed)) in
  if not cfg.trace then begin
    let t0 = now_s () in
    let rec loop i acc =
      if i >= checked_designs && now_s () -. t0 >= cfg.seconds then List.rev acc
      else
        let tr = if i < checked_designs then List.nth traffics i else traffic cfg.seed i in
        let d, cpu = cpu_timed (fun () -> flow tr) in
        loop (i + 1) ((d, cpu) :: acc)
    in
    let runs = loop 0 [] in
    let times_ms = List.map (fun (_, w) -> w *. 1000.) runs in
    let checked = List.filteri (fun i _ -> i < checked_designs) runs in
    {
      attempted = List.length runs;
      failed = failures (List.map fst runs);
      metrics =
        [
          ("op_p50_ms", median times_ms);
          ("op_tail_ms", tail tail_q times_ms);
          ("ops_per_s", float_of_int (List.length runs) /. (List.fold_left ( +. ) 0. times_ms /. 1000.));
          ("vcs_added", float_of_int (List.fold_left (fun a (d, _) -> a + d.vcs) 0 checked));
          ("peak_rss_mb", peak_rss_mb None);
          ("setup_s", setup_s);
        ];
      notes =
        List.mapi (fun i (d, w) -> note i d w) runs
        @ [ Printf.sprintf "op = one design flow; tail = p%g of %d designs" (tail_q *. 100.) (List.length runs) ];
    }
  end
  else begin
    let slice = Array.of_list (List.filteri (fun i _ -> i < traced_designs) traffics) in
    let c = Trace.create () in
    let ds, ts, overhead = alternate c traced_designs (fun i -> flow slice.(i)) in
    let lt = layer_times c in
    (* Steps that run inside synthesis or removal, called apart on the
       same inputs, outside the overhead comparison above. *)
    let probe = Trace.create () in
    let edges =
      traced probe (fun () ->
          Array.fold_left
            (fun acc tr ->
              let net = synthesize ~probe:true tr ~n_switches in
              let cdg = Cdg.build net in
              ignore (span "smallest_cycle" (fun () -> Cdg.smallest_cycle cdg));
              acc + Noc_graph.Digraph.n_edges (Cdg.graph cdg))
            0 slice)
    in
    let probe = layer_times probe in
    let sum f = float_of_int (List.fold_left (fun a d -> a + f d) 0 ds) in
    {
      attempted = List.length ds + List.length ts;
      failed = failures ds + failures ts;
      metrics =
        synth_metrics probe
        @ [
            ("noc.cdg_build_ms", total lt "cdg.build");
            ("noc.cdg_edges", float_of_int edges);
            ("noc.smallest_cycle_ms", total probe "bench.smallest_cycle");
            ("deadlock.removal_ms", total lt "removal.run");
            ("deadlock.removal_iterations", sum (fun d -> d.iterations));
            ("deadlock.removal_minor_words", List.fold_left (fun a d -> a +. d.removal_words) 0. ds);
            ("deadlock.find_cycle_ms", total lt "removal.find_cycle");
            ("deadlock.cdg_update_ms", total lt "removal.cdg_update");
            ("deadlock.cost_tables_ms", total lt "removal.cost_tables");
            ("deadlock.break_ms", total lt "removal.break");
            ("deadlock.certify_ms", total lt "bench.certify");
            ("analysis.prove_ms", total lt "bench.prove");
            ("analysis.vc_bound_ms", total lt "bench.vc_bound");
            ("analysis.vc_gap", sum (fun d -> d.vcs - d.lower_bound));
            ("power.report_ms", total lt "bench.power");
            ("obs.trace_overhead_ratio", overhead);
          ];
      notes =
        [ Printf.sprintf "traced slice: %d designs, each untraced then traced" traced_designs ];
    }
  end
