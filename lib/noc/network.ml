type t = {
  topology : Topology.t;
  traffic : Traffic.t;
  mapping : Ids.Switch.t array;
  routes : Route.t array;
}

let make ~topology ~traffic ~mapping =
  let n_cores = Traffic.n_cores traffic in
  let sample i =
    let s = mapping (Ids.Core.of_int i) in
    if Ids.Switch.to_int s >= Topology.n_switches topology then
      invalid_arg
        (Printf.sprintf "Network.make: core %d mapped to unknown switch %d" i
           (Ids.Switch.to_int s));
    s
  in
  {
    topology;
    traffic;
    mapping = Array.init n_cores sample;
    routes = Array.make (Traffic.n_flows traffic) [];
  }

let topology t = t.topology
let traffic t = t.traffic
let switch_of_core t c = t.mapping.(Ids.Core.to_int c)
let set_route t f r = t.routes.(Ids.Flow.to_int f) <- r
let route t f = t.routes.(Ids.Flow.to_int f)

let routes t =
  List.map (fun f -> (f.Traffic.id, route t f.Traffic.id)) (Traffic.flows t.traffic)

let endpoints t f =
  let fl = Traffic.flow t.traffic f in
  (switch_of_core t fl.Traffic.src, switch_of_core t fl.Traffic.dst)

let copy t =
  {
    topology = Topology.copy t.topology;
    traffic = t.traffic;
    mapping = Array.copy t.mapping;
    routes = Array.copy t.routes;
  }

let channel_load t c =
  let add acc f =
    if Route.uses_channel (route t f.Traffic.id) c then acc +. f.Traffic.bandwidth
    else acc
  in
  List.fold_left add 0. (Traffic.flows t.traffic)

let link_load t l =
  let add acc f =
    let uses =
      List.exists (fun c -> Ids.Link.equal (Channel.link c) l) (route t f.Traffic.id)
    in
    if uses then acc +. f.Traffic.bandwidth else acc
  in
  List.fold_left add 0. (Traffic.flows t.traffic)

(* One pass over the flows in id order: each link's sum is built in
   the same order as [link_load]'s fold, so the floats are identical.
   [last] counts a link once per flow that uses it. *)
let link_loads t =
  let n = Topology.n_links t.topology in
  let loads = Array.make n 0. in
  let last = Array.make n (-1) in
  List.iter
    (fun (f : Traffic.flow) ->
      let id = Ids.Flow.to_int f.Traffic.id in
      List.iter
        (fun c ->
          let l = Ids.Link.to_int (Channel.link c) in
          if last.(l) <> id then begin
            last.(l) <- id;
            loads.(l) <- loads.(l) +. f.Traffic.bandwidth
          end)
        (route t f.Traffic.id))
    (Traffic.flows t.traffic);
  loads

let pp ppf t =
  Format.fprintf ppf "@[<v>%a@,%a@,routes:" Topology.pp t.topology Traffic.pp
    t.traffic;
  List.iter
    (fun (f, r) -> Format.fprintf ppf "@,%a: %a" Ids.Flow.pp f Route.pp r)
    (routes t);
  Format.fprintf ppf "@]"
