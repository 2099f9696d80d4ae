module Digraph = Noc_graph.Digraph

(* The CDG is maintained incrementally across removal iterations, so
   its state is the *index* [dep_flows] — which flow creates which
   dependency at which position of its route — and the digraph is kept
   equal to its projection.  Keeping [dep_flows] keyed by channel
   pairs (not vertex ids) is what makes vertex renumbering after a VC
   addition cheap and exact.

   Exactness matters: the removal loop breaks ties by vertex id and by
   adjacency-list order, so an incrementally maintained CDG must be
   *structurally identical* to [build net] — same vertex numbering,
   same succ/pred order — or the algorithm's trajectory (and the
   pinned figure series in the tests) silently changes.  The
   projection fixes both:

   - vertices are the topology's channels sorted by [Channel.compare],
     which is exactly the order [Topology.channels] yields;
   - edges are inserted in ascending order of their first-encounter
     key — the minimum [(flow, route position)] over the flows that
     create the dependency — which is the order a fresh scan of the
     route list encounters them, because that scan walks flows in
     ascending id order and each route left to right.  Insertion
     prepends, so every succ and pred list is in descending key order.

   A contributor [(flow, i)] names the dependency at position [i] of
   [flow]'s route, so distinct dependencies never share a
   first-encounter key, and an edge's place in its two adjacency lists
   is a function of its key alone: [apply_change] moves only the edges
   whose key changed.

   [bounds] caches, per vertex, a lower bound on the length of the
   shortest cycle through it (see {!Noc_graph.Cycles.shortest}); it is
   not part of the CDG's identity. *)

type contributor = Ids.Flow.t * int (* flow, pair index in its route *)

let compare_contributor (f1, i1) (f2, i2) =
  let c = Ids.Flow.compare f1 f2 in
  if c <> 0 then c else Int.compare i1 i2

type t = {
  graph : Digraph.t;
  mutable channel_of_vertex : Channel.t array;
  dep_flows : (Channel.t * Channel.t, contributor list) Hashtbl.t;
  bounds : Noc_graph.Cycles.bounds;
}

type change = {
  new_channels : Channel.t list;
  reroutes : (Ids.Flow.t * Route.t * Route.t) list;
}

let min_contributor = function
  | [] -> None
  | first :: rest ->
      Some
        (List.fold_left
           (fun k c -> if compare_contributor c k < 0 then c else k)
           first rest)

(* The first-encounter key of a dependency, [None] when absent. *)
let key t pair =
  min_contributor (Option.value ~default:[] (Hashtbl.find_opt t.dep_flows pair))

let add_route_deps dep_flows flow route =
  List.iteri
    (fun i pair ->
      let old = Option.value ~default:[] (Hashtbl.find_opt dep_flows pair) in
      Hashtbl.replace dep_flows pair ((flow, i) :: old))
    (Route.consecutive_pairs route)

let remove_route_deps dep_flows flow route =
  List.iter
    (fun pair ->
      match Hashtbl.find_opt dep_flows pair with
      | None -> ()
      | Some contribs -> (
          match
            List.filter (fun (f, _) -> not (Ids.Flow.equal f flow)) contribs
          with
          | [] -> Hashtbl.remove dep_flows pair
          | rest -> Hashtbl.replace dep_flows pair rest))
    (Route.consecutive_pairs route)

(* The number of channels of [a] below [c], by binary search. *)
let rank a c =
  let rec go lo hi =
    if lo >= hi then lo
    else
      let mid = (lo + hi) / 2 in
      if Channel.compare a.(mid) c < 0 then go (mid + 1) hi else go lo mid
  in
  go 0 (Array.length a)

(* The vertex of a channel: its rank in the sorted vertex array, so no
   table has to follow the renumbering. *)
let find_vertex t c =
  let a = t.channel_of_vertex in
  let i = rank a c in
  if i < Array.length a && Channel.equal a.(i) c then i else raise Not_found

(* [a] with each [(position, x)] of [ins] (ascending positions in the
   result) spliced in.  [Array.append] rather than [Array.make]: a
   large array made with a young initial value forces a minor
   collection. *)
let splice a ins =
  let out = Array.append a (Array.of_list (List.map snd ins)) in
  let rec go src dst = function
    | [] -> Array.blit a src out dst (Array.length a - src)
    | (p, x) :: rest ->
        Array.blit a src out dst (p - dst);
        out.(p) <- x;
        go (src + p - dst) (p + 1) rest
  in
  go 0 0 ins;
  out

(* Add new channels at their sorted places; the digraph and the bounds
   follow, new vertices with an unknown bound. *)
let insert_channels t channels =
  let ins =
    List.mapi
      (fun i c -> (rank t.channel_of_vertex c + i, c))
      (List.sort Channel.compare channels)
  in
  let ids = List.map fst ins in
  t.channel_of_vertex <- splice t.channel_of_vertex ins;
  Digraph.insert_vertices t.graph ids;
  Noc_graph.Cycles.insert_unknown t.bounds ids

(* Rebuild-vs-incremental is the central perf trade of the incremental
   CDG work; the counters make the split visible in every trace. *)
let builds_total = Noc_obs.Metrics.counter "noc_cdg_builds_total"
let applies_total = Noc_obs.Metrics.counter "noc_cdg_apply_changes_total"

let build net =
  Noc_obs.Trace.with_span "cdg.build" @@ fun sp ->
  Noc_obs.Metrics.incr builds_total;
  let topo = Network.topology net in
  let channels = Array.of_list (Topology.channels topo) in
  (* [Topology.channels] already yields [Channel.compare] order; the
     sort is a cheap one-time guarantee, not a per-iteration cost. *)
  Array.sort Channel.compare channels;
  let n = Array.length channels in
  let dep_flows = Hashtbl.create (4 * n) in
  List.iter
    (fun (flow, route) -> add_route_deps dep_flows flow route)
    (Network.routes net);
  let keyed =
    Hashtbl.fold
      (fun pair contribs acc ->
        match min_contributor contribs with
        | None -> acc
        | Some k -> (k, pair) :: acc)
      dep_flows []
  in
  let graph = Digraph.create ~initial_capacity:(max 1 n) () in
  if n > 0 then Digraph.ensure_vertex graph (n - 1);
  let t = { graph; channel_of_vertex = channels; dep_flows; bounds = Noc_graph.Cycles.bounds n } in
  (* Keys are distinct, so the sort is total; each pair is listed once,
     so the unchecked insert applies. *)
  List.iter
    (fun (_, (a, b)) -> Digraph.unsafe_add_edge graph (find_vertex t a) (find_vertex t b))
    (List.sort (fun (k1, _) (k2, _) -> compare_contributor k1 k2) keyed);
  Noc_obs.Trace.add_attr sp "channels" (Noc_obs.Trace.Int n);
  t

let apply_change t { new_channels; reroutes } =
  Noc_obs.Trace.with_span "cdg.apply_change"
    ~attrs:
      [
        ("new_channels", Noc_obs.Trace.Int (List.length new_channels));
        ("reroutes", Noc_obs.Trace.Int (List.length reroutes));
      ]
  @@ fun _sp ->
  Noc_obs.Metrics.incr applies_total;
  (* Collect the dependencies whose contributor lists may change, and
     their keys as of now, before touching anything. *)
  let affected = Hashtbl.create 16 in
  let note pair =
    if not (Hashtbl.mem affected pair) then Hashtbl.replace affected pair (key t pair)
  in
  List.iter
    (fun (_, old_route, new_route) ->
      List.iter note (Route.consecutive_pairs old_route);
      List.iter note (Route.consecutive_pairs new_route))
    reroutes;
  List.iter
    (fun (flow, old_route, new_route) ->
      remove_route_deps t.dep_flows flow old_route;
      add_route_deps t.dep_flows flow new_route)
    reroutes;
  let rekeyed =
    Hashtbl.fold
      (fun pair old_key acc ->
        let new_key = key t pair in
        if old_key = new_key then acc else (pair, old_key, new_key) :: acc)
      affected []
  in
  if new_channels <> [] then insert_channels t new_channels;
  let vertex = find_vertex t in
  (* Two phases: unlink every edge whose key changed or vanished, then
     link every edge whose key changed or appeared at its new key's
     place.  Between the phases every listed edge has its current key,
     so each list stays in descending key order throughout. *)
  List.iter
    (fun ((a, b), old_key, _) ->
      if old_key <> None then Digraph.remove_edge t.graph (vertex a) (vertex b))
    rekeyed;
  let added = ref [] in
  List.iter
    (fun ((a, b), old_key, new_key) ->
      match new_key with
      | None -> ()
      | Some k ->
          let u = vertex a and v = vertex b in
          let later pair = compare_contributor (Option.get (key t pair)) k > 0 in
          Digraph.insert_edge t.graph u v
            ~ahead_in_succ:(fun w -> later (a, t.channel_of_vertex.(w)))
            ~ahead_in_pred:(fun w -> later (t.channel_of_vertex.(w), b));
          if old_key = None then added := (u, v) :: !added)
    rekeyed;
  (* Deleting an edge never shortens a cycle, and every cycle the
     change created runs through a new edge. *)
  Noc_graph.Cycles.relax_bounds t.bounds t.graph ~added:!added

let graph t = t.graph
let n_channels t = Array.length t.channel_of_vertex

let channel_of_vertex t v =
  if v < 0 || v >= Array.length t.channel_of_vertex then
    invalid_arg (Printf.sprintf "Cdg.channel_of_vertex: vertex %d out of range" v);
  t.channel_of_vertex.(v)

let vertex_of_channel = find_vertex

let flows_on_dependency t ~src ~dst =
  List.sort_uniq Ids.Flow.compare
    (List.map fst
       (Option.value ~default:[] (Hashtbl.find_opt t.dep_flows (src, dst))))

let flows_through t channels =
  let found = ref [] in
  let add pair =
    match Hashtbl.find_opt t.dep_flows pair with
    | Some contribs -> List.iter (fun (f, _) -> found := f :: !found) contribs
    | None -> ()
  in
  List.iter
    (fun c ->
      match find_vertex t c with
      | exception Not_found -> ()
      | v ->
          Digraph.iter_succ (fun w -> add (c, t.channel_of_vertex.(w))) t.graph v;
          Digraph.iter_pred (fun u -> add (t.channel_of_vertex.(u), c)) t.graph v)
    channels;
  List.sort_uniq Ids.Flow.compare !found

let equal a b =
  Array.length a.channel_of_vertex = Array.length b.channel_of_vertex
  && Array.for_all2 Channel.equal a.channel_of_vertex b.channel_of_vertex
  && Digraph.equal a.graph b.graph
  &&
  let sorted_bindings t =
    Hashtbl.fold
      (fun pair contribs acc ->
        (pair, List.sort compare_contributor contribs) :: acc)
      t.dep_flows []
    |> List.sort compare
  in
  sorted_bindings a = sorted_bindings b

let is_deadlock_free t = not (Noc_graph.Cycles.has_cycle t.graph)

let smallest_cycle t =
  Option.map
    (List.map (channel_of_vertex t))
    (Noc_graph.Cycles.shortest ~bounds:t.bounds t.graph)

let cycles ?max_cycles t =
  List.map
    (List.map (channel_of_vertex t))
    (Noc_graph.Cycles.enumerate ?max_cycles t.graph)

let pp ppf t =
  Format.fprintf ppf "@[<v>CDG: %d channels, %d dependencies"
    (n_channels t) (Digraph.n_edges t.graph);
  Digraph.iter_edges
    (fun u v ->
      Format.fprintf ppf "@,%a -> %a" Channel.pp (channel_of_vertex t u) Channel.pp
        (channel_of_vertex t v))
    t.graph;
  Format.fprintf ppf "@]"
