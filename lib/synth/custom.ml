open Noc_model
module Trace = Noc_obs.Trace

type mapper = Greedy_affinity | Min_cut

type options = {
  max_out_degree : int;
  max_in_degree : int;
  load_aware_routing : bool;
  force_bidirectional : bool;
  mapper : mapper;
}

let default_options =
  {
    max_out_degree = 4;
    max_in_degree = 4;
    load_aware_routing = true;
    force_bidirectional = false;
    mapper = Greedy_affinity;
  }

(* Inter-switch demand matrix induced by the mapping. *)
let demands traffic mapping n_switches =
  let d = Array.make_matrix n_switches n_switches 0. in
  List.iter
    (fun (f : Traffic.flow) ->
      let s = Ids.Switch.to_int mapping.(Ids.Core.to_int f.Traffic.src) in
      let t = Ids.Switch.to_int mapping.(Ids.Core.to_int f.Traffic.dst) in
      if s <> t then d.(s).(t) <- d.(s).(t) +. f.Traffic.bandwidth)
    (Traffic.flows traffic);
  d

(* Transitive closure of the switch graph: [reach.(s).(t)] when a
   directed path leads from [s] to [t]; every switch reaches itself. *)
let reachability topo =
  let g = Topology.switch_graph topo in
  Array.init (Topology.n_switches topo) (fun s -> Noc_graph.Traversal.reachable g s)

(* Keep [reach] closed after a link [a -> b]: whatever reaches [a] now
   also reaches everything [b] reaches.  A row that reaches [a] before
   the update still does after it, and [b]'s row changes only when [b]
   reaches [a], by OR-ing in itself. *)
let close_over_link reach a b =
  let rb = reach.(b) in
  Array.iter
    (fun row ->
      if row.(a) then
        for t = 0 to Array.length rb - 1 do
          if rb.(t) then row.(t) <- true
        done)
    reach

(* The links for the demand [mapping] induces, in three passes. *)
let links options traffic mapping ~n_switches =
  let topo = Topology.create ~n_switches in
  let demand = demands traffic mapping n_switches in
  let out_deg = Array.make n_switches 0 and in_deg = Array.make n_switches 0 in
  let add_link a b =
    ignore
      (Topology.add_link topo ~src:(Ids.Switch.of_int a) ~dst:(Ids.Switch.of_int b));
    out_deg.(a) <- out_deg.(a) + 1;
    in_deg.(b) <- in_deg.(b) + 1
  in
  (* Pass 1: direct links for the heaviest demands while the degree
     budget lasts.  Sorting is (demand desc, then pair asc) so the
     result is deterministic. *)
  let pairs = ref [] in
  for a = 0 to n_switches - 1 do
    for b = 0 to n_switches - 1 do
      if a <> b && demand.(a).(b) > 0. then pairs := (demand.(a).(b), a, b) :: !pairs
    done
  done;
  let sorted =
    List.sort
      (fun (w1, a1, b1) (w2, a2, b2) ->
        match compare w2 w1 with 0 -> compare (a1, b1) (a2, b2) | c -> c)
      !pairs
  in
  List.iter
    (fun (_, a, b) ->
      if out_deg.(a) < options.max_out_degree && in_deg.(b) < options.max_in_degree
      then add_link a b)
    sorted;
  (* Pass 2: routability.  Every demanded pair, in the same order, must
     have a directed path; when it does not, a direct link is added as
     last resort (technology constraints bend before unroutable designs
     do, as in the paper's discussion of [18]/[21]).  The reachability
     matrix is built once and kept closed link by link. *)
  let reach = reachability topo in
  List.iter
    (fun (_, a, b) ->
      if not reach.(a).(b) then begin
        add_link a b;
        close_over_link reach a b
      end)
    sorted;
  if options.force_bidirectional then begin
    (* Open the reverse direction wherever it is missing, ignoring the
       degree budget: this is the "make connections bidirectional"
       escape hatch the paper describes as not always available. *)
    let missing =
      List.filter_map
        (fun (l : Topology.link) ->
          match
            Topology.find_links topo ~src:l.Topology.dst ~dst:l.Topology.src
          with
          | [] -> Some (Ids.Switch.to_int l.Topology.dst, Ids.Switch.to_int l.Topology.src)
          | _ :: _ -> None)
        (Topology.links topo)
    in
    List.iter (fun (a, b) -> add_link a b) (List.sort_uniq compare missing)
  end;
  topo

let build options traffic ~n_switches =
  let mapping =
    Trace.with_span "synth.mapping" @@ fun _ ->
    match options.mapper with
    | Greedy_affinity -> Mapping.cluster traffic ~n_switches
    | Min_cut -> Fm_partition.cluster traffic ~n_switches
  in
  let topo =
    Trace.with_span "synth.links" @@ fun sp ->
    let topo = links options traffic mapping ~n_switches in
    Trace.add_attr sp "links" (Trace.Int (Topology.n_links topo));
    topo
  in
  let net =
    Network.make ~topology:topo ~traffic ~mapping:(fun c ->
        mapping.(Ids.Core.to_int c))
  in
  Trace.with_span "synth.routing" @@ fun _ ->
  let routed =
    if options.load_aware_routing then Routing.route_all_load_aware net
    else Routing.route_all net
  in
  Result.map (fun () -> net) routed

(* The clustering steps raise on a switch count outside [1, n_cores];
   checking first keeps the result-only contract. *)
let synthesize ?(options = default_options) traffic ~n_switches =
  let n_cores = Traffic.n_cores traffic in
  if n_switches <= 0 || n_switches > n_cores then
    Error
      (Printf.sprintf "n_switches must be between 1 and the core count %d (got %d)"
         n_cores n_switches)
  else build options traffic ~n_switches

let synthesize_exn ?options traffic ~n_switches =
  match synthesize ?options traffic ~n_switches with
  | Ok net -> net
  | Error e -> failwith ("Custom.synthesize: " ^ e)
