(** The Channel Dependency Graph (Definition 4): one vertex per channel
    of the topology, one edge [ci -> cj] when at least one flow's route
    uses [ci] and then immediately [cj].  A cycle in this graph is the
    necessary condition for a wormhole routing deadlock (Dally &
    Towles), and its absence is sufficient for deadlock freedom under
    static routing. *)

type t

val build : Network.t -> t
(** Builds the CDG of the network's current topology and routes. *)

type change = {
  new_channels : Channel.t list;
      (** Channels (fresh VCs or links) added to the topology. *)
  reroutes : (Ids.Flow.t * Route.t * Route.t) list;
      (** Per rerouted flow: its route before and after the edit. *)
}
(** A delta against the network state the CDG currently reflects —
    the CDG-relevant part of a {e break-cycle} step. *)

val apply_change : t -> change -> unit
(** [apply_change t c] updates [t] in place so that it equals (in the
    sense of {!equal}, i.e. bit-for-bit including vertex numbering and
    adjacency order) a fresh {!build} of the edited network.  This is
    the removal loop's fast path and never reads the network: the
    flow→dependency index is patched with only the rerouted flows' old
    and new pairs; new channels take their sorted places and every
    vertex id moves through one old→new shift; and only the
    dependencies whose first-encounter key changed are unlinked and
    relinked, each at the place its key gives it in the adjacency
    lists.  The per-vertex cycle bounds that {!smallest_cycle} keeps
    follow the renumbering, and each drops to
    [dist v u + 1 + dist w v] over the dependencies [u -> w] the change
    added (see {!Noc_graph.Cycles.relax_bounds}): removing a dependency
    never shortens a cycle, and every new cycle uses a new
    dependency. *)

val equal : t -> t -> bool
(** Structural identity: same channels in the same vertex order, same
    digraph including adjacency-list order, same dependency→flows
    index.  The cycle bounds kept for {!smallest_cycle} are a cache
    and not compared.  Two equal CDGs drive the removal algorithm
    through the same trajectory; used by the [validate] mode of
    [Removal.run] to assert incremental maintenance against a fresh
    rebuild. *)

val graph : t -> Noc_graph.Digraph.t
(** The underlying digraph; vertex ids are dense channel indices. *)

val n_channels : t -> int

val channel_of_vertex : t -> int -> Channel.t
(** @raise Invalid_argument on an out-of-range vertex. *)

val vertex_of_channel : t -> Channel.t -> int
(** @raise Not_found when the channel does not exist in the topology
    snapshot this CDG was built from. *)

val flows_on_dependency : t -> src:Channel.t -> dst:Channel.t -> Ids.Flow.t list
(** The flows whose routes create the dependency edge, in flow-id
    order; empty when the edge is absent. *)

val flows_through : t -> Channel.t list -> Ids.Flow.t list
(** The flows that create a dependency into or out of one of the
    channels, in flow-id order: every flow whose route uses one of them
    and has more than one channel.  Channels unknown to this CDG are
    ignored. *)

val is_deadlock_free : t -> bool
(** [true] iff the CDG is acyclic. *)

val smallest_cycle : t -> Channel.t list option
(** The paper's [GetSmallestCycle]: a minimum-length cycle as a channel
    list in dependency order, or [None] when acyclic.  The CDG keeps a
    lower bound on the shortest cycle through each channel across calls
    and {!apply_change}s ({!Noc_graph.Cycles.shortest}), so after a
    break only channels whose bound fell below the current minimum are
    searched again.  The bounds change the cost, never the cycle: the
    result equals {!Noc_graph.Cycles.shortest_reference} on {!graph}.
    The search updates the bounds in place, so two domains must not
    search one CDG at the same time. *)

val cycles : ?max_cycles:int -> t -> Channel.t list list
(** All elementary cycles (bounded enumeration), for diagnostics. *)

val pp : Format.formatter -> t -> unit
