open Noc_model

type report = {
  iterations : int;
  vcs_added : int;
  changes : Break_cycle.change list;
  deadlock_free : bool;
}

type heuristic = Smallest_cycle_first | Any_cycle_first

let find_cycle ?(reference = false) heuristic cdg =
  match heuristic with
  | Smallest_cycle_first ->
      if reference then
        Option.map
          (List.map (Cdg.channel_of_vertex cdg))
          (Noc_graph.Cycles.shortest_reference (Cdg.graph cdg))
      else Cdg.smallest_cycle cdg
  | Any_cycle_first ->
      Option.map
        (List.map (Cdg.channel_of_vertex cdg))
        (Noc_graph.Cycles.find_any (Cdg.graph cdg))

let pick_table ?(reference = false) ?candidates net directions cycle =
  match (reference, directions) with
  | false, [ Cost_table.Forward; Cost_table.Backward ] ->
      (* The default direction list: price both tables in one shared
         pass.  Strict [<] keeps the forward-wins-ties rule below. *)
      let fwd, bwd = Cost_table.both ?candidates net cycle in
      if bwd.Cost_table.best_cost < fwd.Cost_table.best_cost then bwd else fwd
  | _ ->
      let compute d =
        match (reference, d) with
        | false, Cost_table.Forward -> Cost_table.forward ?candidates net cycle
        | false, Cost_table.Backward -> Cost_table.backward ?candidates net cycle
        | true, Cost_table.Forward -> Cost_table.forward_reference net cycle
        | true, Cost_table.Backward -> Cost_table.backward_reference net cycle
      in
      (match List.map compute directions with
      | [] -> invalid_arg "Removal.run: empty direction list"
      | first :: rest ->
          (* Algorithm 1 step 7: forward wins ties, and [directions]
             lists Forward first by default, so [<] (strict) implements
             "f_cost <= b_cost chooses forward". *)
          List.fold_left
            (fun best t ->
              if t.Cost_table.best_cost < best.Cost_table.best_cost then t
              else best)
            first rest)

module Trace = Noc_obs.Trace

(* Incremental CDG maintenance versus full rebuilds is the perf story
   of this module; the counters expose the split in every trace. *)
let cdg_incremental = Noc_obs.Metrics.counter "noc_removal_cdg_incremental_total"
let cdg_rebuild = Noc_obs.Metrics.counter "noc_removal_cdg_rebuild_total"
let cycles_broken = Noc_obs.Metrics.counter "noc_removal_cycles_broken_total"

let direction_label = function
  | Cost_table.Forward -> "forward"
  | Cost_table.Backward -> "backward"

let run ?(max_iterations = 10_000) ?(heuristic = Smallest_cycle_first)
    ?(directions = [ Cost_table.Forward; Cost_table.Backward ])
    ?(resource = Break_cycle.Virtual_channel) ?(incremental = true)
    ?(validate = false) net =
  Trace.with_span "removal.run" @@ fun run_sp ->
  let before = Topology.total_vcs (Network.topology net) in
  let reference = not incremental in
  let finish_run report =
    Trace.add_attr run_sp "iterations" (Trace.Int report.iterations);
    Trace.add_attr run_sp "vcs_added" (Trace.Int report.vcs_added);
    Trace.add_attr run_sp "deadlock_free" (Trace.Bool report.deadlock_free);
    report
  in
  (* One span per removal iteration, carrying the decision the paper's
     Algorithm 1 makes there: cycle length, candidate edges priced,
     chosen direction, its cost, and the VCs the break added.  The
     recursion happens outside the span so iterations are siblings
     under [removal.run], not a nest [max_iterations] deep. *)
  let iteration iter cdg cycle =
    Trace.with_span "removal.iteration"
      ~attrs:
        [
          ("iter", Trace.Int (iter + 1));
          ("cycle_len", Trace.Int (List.length cycle));
        ]
    @@ fun it_sp ->
    let table =
      Trace.with_span "removal.cost_tables" (fun _ ->
          (* The CDG knows which flows touch the cycle, so the tables
             need not scan every flow. *)
          let candidates = if reference then None else Some (Cdg.flows_through cdg cycle) in
          pick_table ~reference ?candidates net directions cycle)
    in
    let change =
      Trace.with_span "removal.break" (fun _ ->
          Break_cycle.apply ~resource net table)
    in
    Noc_obs.Metrics.incr cycles_broken;
    Trace.add_attr it_sp "candidate_edges"
      (Trace.Int (Array.length table.Cost_table.max_costs));
    Trace.add_attr it_sp "direction"
      (Trace.Str (direction_label change.Break_cycle.direction));
    Trace.add_attr it_sp "cost" (Trace.Int table.Cost_table.best_cost);
    Trace.add_attr it_sp "vcs_added"
      (Trace.Int (List.length change.Break_cycle.added_channels));
    Logs.debug (fun m ->
        m "removal: iteration %d, cycle length %d, %a" (iter + 1)
          (List.length cycle) Break_cycle.pp_change change);
    let cdg =
      Trace.with_span "removal.cdg_update" (fun _ ->
          if incremental then begin
            Noc_obs.Metrics.incr cdg_incremental;
            Cdg.apply_change cdg (Break_cycle.cdg_change change);
            if validate && not (Cdg.equal cdg (Cdg.build net)) then
              failwith "Removal.run: incremental CDG diverged from fresh build";
            cdg
          end
          else begin
            Noc_obs.Metrics.incr cdg_rebuild;
            Cdg.build net
          end)
    in
    (change, cdg)
  in
  let rec loop iter changes cdg =
    match
      Trace.with_span "removal.find_cycle" (fun _ ->
          find_cycle ~reference heuristic cdg)
    with
    | None ->
        finish_run
          {
            iterations = iter;
            vcs_added = Topology.total_vcs (Network.topology net) - before;
            changes = List.rev changes;
            deadlock_free = true;
          }
    | Some cycle ->
        if iter >= max_iterations then
          finish_run
            {
              iterations = iter;
              vcs_added = Topology.total_vcs (Network.topology net) - before;
              changes = List.rev changes;
              deadlock_free = false;
            }
        else begin
          let change, cdg = iteration iter cdg cycle in
          loop (iter + 1) (change :: changes) cdg
        end
  in
  loop 0 [] (Cdg.build net)

let is_deadlock_free net = Cdg.is_deadlock_free (Cdg.build net)

let pp_report ppf r =
  Format.fprintf ppf
    "@[<v>deadlock removal: %d cycle(s) broken, %d VC(s) added, %s"
    r.iterations r.vcs_added
    (if r.deadlock_free then "deadlock-free" else "ITERATION CAP HIT");
  List.iter (fun c -> Format.fprintf ppf "@,  %a" Break_cycle.pp_change c) r.changes;
  Format.fprintf ppf "@]"
