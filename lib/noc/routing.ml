module Digraph = Noc_graph.Digraph
module Paths = Noc_graph.Paths

(* What routing reads of a topology, built once per pass: the switch
   graph and every switch's outgoing links in id order.  Routing never
   changes the topology, so both stay valid for every flow of a pass. *)
type pass = { graph : Digraph.t; out_links : Topology.link list array }

let prepare topo =
  {
    graph = Topology.switch_graph topo;
    out_links =
      Array.init (Topology.n_switches topo) (fun s ->
          Topology.out_links topo (Ids.Switch.of_int s));
  }

(* Best link from switch [u] to switch [v] under the weight function:
   smallest weight, then smallest link id for determinism.
   [(infinity, None)] when no link of finite weight exists. *)
let best_link p ~weight u v =
  let rec scan w best = function
    | [] -> (w, best)
    | (l : Topology.link) :: rest ->
        if Ids.Switch.to_int l.Topology.dst = v then
          let w' = weight l in
          if w' < w then scan w' (Some l) rest else scan w best rest
        else scan w best rest
  in
  scan infinity None p.out_links.(u)

let route_in p ~weight net flow =
  let src, dst = Network.endpoints net flow in
  if Ids.Switch.equal src dst then Ok []
  else
    match
      Paths.shortest_path p.graph
        ~weight:(fun u v -> fst (best_link p ~weight u v))
        (Ids.Switch.to_int src) (Ids.Switch.to_int dst)
    with
    | None ->
        Error
          (Format.asprintf "no path from %a to %a" Ids.Switch.pp src Ids.Switch.pp
             dst)
    | Some vertices ->
        let rec channels = function
          | u :: (v :: _ as rest) ->
              let l = Option.get (snd (best_link p ~weight u v)) in
              Channel.make l.Topology.id 0 :: channels rest
          | [ _ ] | [] -> []
        in
        Ok (channels vertices)

let hop (_ : Topology.link) = 1.

let route_flow ?(weight = hop) net flow =
  route_in (prepare (Network.topology net)) ~weight net flow

let route_all ?(weight = hop) net =
  let p = prepare (Network.topology net) in
  let rec go = function
    | [] -> Ok ()
    | (f : Traffic.flow) :: rest -> (
        match route_in p ~weight net f.Traffic.id with
        | Ok r ->
            Network.set_route net f.Traffic.id r;
            go rest
        | Error e ->
            Error (Format.asprintf "flow %a: %s" Ids.Flow.pp f.Traffic.id e))
  in
  go (Traffic.flows (Network.traffic net))

let route_all_load_aware net =
  let traffic = Network.traffic net in
  let total = max 1e-9 (Traffic.total_bandwidth traffic) in
  let by_bw =
    List.sort
      (fun (a : Traffic.flow) b ->
        match compare b.Traffic.bandwidth a.Traffic.bandwidth with
        | 0 -> Ids.Flow.compare a.Traffic.id b.Traffic.id
        | c -> c)
      (Traffic.flows traffic)
  in
  let load = Hashtbl.create 64 in
  let link_load (l : Topology.link) =
    Option.value ~default:0. (Hashtbl.find_opt load (Ids.Link.to_int l.Topology.id))
  in
  let p = prepare (Network.topology net) in
  let rec go = function
    | [] -> Ok ()
    | (f : Traffic.flow) :: rest -> (
        let weight l = 1. +. (link_load l /. total) in
        match route_in p ~weight net f.Traffic.id with
        | Ok r ->
            Network.set_route net f.Traffic.id r;
            List.iter
              (fun c ->
                let k = Ids.Link.to_int (Channel.link c) in
                Hashtbl.replace load k
                  (Option.value ~default:0. (Hashtbl.find_opt load k)
                  +. f.Traffic.bandwidth))
              r;
            go rest
        | Error e ->
            Error (Format.asprintf "flow %a: %s" Ids.Flow.pp f.Traffic.id e))
  in
  go by_bw
