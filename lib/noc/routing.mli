(** Static route computation.  Routes are computed on the switch graph
    and realized on VC 0 of each link; the deadlock-removal pass is
    what later moves flows onto higher VCs. *)

val route_flow :
  ?weight:(Topology.link -> float) -> Network.t -> Ids.Flow.t ->
  (Route.t, string) result
(** Minimum-weight route for one flow (default weight: 1 per hop).
    When parallel links exist between two switches the smallest link
    id is used.  Returns [Error] when the destination switch is
    unreachable. *)

val route_all :
  ?weight:(Topology.link -> float) -> Network.t -> (unit, string) result
(** Routes every flow as {!route_flow} does and installs the results.
    The switch graph is built once for the whole pass.  Stops at the
    first unroutable flow. *)

val route_all_load_aware : Network.t -> (unit, string) result
(** Routes flows in decreasing bandwidth order; each flow's weight is
    [1 + load(link)/total_bandwidth], which spreads heavy flows over
    distinct links.  Deterministic; the switch graph is built once for
    the whole pass. *)
