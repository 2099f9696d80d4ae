(** Independent deadlock-freedom prover.

    This module re-decides deadlock freedom of a design's routing
    relation from first principles, sharing {e no} algorithmic code
    with [Noc_deadlock.Verify] or [Noc_model.Cdg]: it builds its own
    waits-for relation directly from the routes, interns channels into
    its own dense arena, and decides the condition with an
    escape-elimination fixpoint instead of a DFS topological sort.
    Agreement between the two implementations is the cross-check the
    [deadlock-freedom] lint pass (NOC-DLF codes) and [noc_tool prove]
    enforce.

    {2 The condition}

    Mendlovic & Matias (arXiv 2503.04583) characterize the existence
    of deadlock-free routing on an arbitrary directed network through
    the escape structure of its resource-waiting relation; Verbeek &
    Schmaltz (arXiv 1110.4677) formalize the matching
    necessary-and-sufficient deadlock criterion for wormhole networks.
    Specialized to static single-path routing, the criterion is:

    A packet occupying channel [a] at a non-final position of its
    route waits for exactly one channel [b] (the route's next hop).
    Call a channel {e escaping} when every wait out of it leads to a
    channel already known to escape (channels with no outgoing wait
    escape vacuously — a flit on them can always drain).  The routing
    relation is deadlock-free {b iff} every channel escapes.  The
    elimination order is a constructive witness (an {e escape
    ordering}: along every route, each channel's successor escapes
    strictly earlier).  When the fixpoint is non-empty, the residue is
    a {e knot}: a non-empty channel set in which every member waits
    only on other members — exactly a configuration from which no flit
    can ever advance, i.e. a reachable deadlock for some filling of
    the buffers.

    Necessity and sufficiency are elementary for single-path wormhole
    routing (the knot is the deadlocked configuration; conversely an
    escape ordering is a Dally–Towles numbering read backwards), which
    is what makes the implementation safe to trust as an {e
    independent} oracle: the theorem is re-derivable in a paragraph,
    and the witness is replayable in linear time
    ({!check_escape_order}). *)

open Noc_model

type verdict = {
  deadlock_free : bool;
  n_channels : int;  (** Channels of the topology (the arena size). *)
  n_waits : int;  (** Distinct waits-for pairs induced by the routes. *)
  escape_order : Channel.t list option;
      (** Elimination order (waited-on channels first); [Some] iff
          deadlock-free.  Reversed, it is a valid resource numbering. *)
  knot : Channel.t list option;
      (** The non-escaping residue in channel order; [Some] iff the
          relation can deadlock. *)
  knot_cycle : Channel.t list option;
      (** A waits-for cycle inside the knot, as a compact
          counterexample; [Some] iff the relation can deadlock. *)
}

val analyze : Network.t -> verdict
(** Decides the condition for the network's current routes.  Channels
    are the topology's (link, vc) pairs; waits are the routes'
    consecutive channel pairs, deduplicated. *)

val check_escape_order : Network.t -> Channel.t list -> bool
(** Independent linear-time replay of an {!verdict.escape_order}
    witness: [true] iff the order has no duplicates and, for every
    consecutive channel pair [(a, b)] of every route, [b] appears
    strictly before [a].  Channels missing from the order fail. *)

type bound = {
  lower_bound : int;
      (** Any preparation that (like the paper's Algorithm 1) only
          duplicates channels and re-distributes their flows must add
          at least this many duplicates: every waits-for cycle of the
          baseline survives unless one of its channels is duplicated,
          and vertex-disjoint cycles need distinct duplications. *)
  disjoint_cycles : Channel.t list list;
      (** The vertex-disjoint cycle packing witnessing the bound,
          shortest-first greedy. *)
}

val vc_lower_bound : Network.t -> bound
(** Static lower bound on the VCs a duplication-based removal must add
    to this design; [{ lower_bound = 0; disjoint_cycles = [] }] when
    the relation is already deadlock-free.  Each round packs the
    shortest live cycle, ties to the smallest vertex.  Packing only
    deletes vertices, so a vertex's last measured cycle length stays a
    lower bound: a round re-measures vertices in ascending order of
    that bound and packs the first whose length still equals it. *)

val pp_verdict : Format.formatter -> verdict -> unit
