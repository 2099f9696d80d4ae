(** Cycle detection and search.

    A cycle is represented as the list of its vertices in traversal
    order, [[c1; c2; ...; ck]], meaning the edges
    [c1->c2, ..., c(k-1)->ck, ck->c1] are all present.  A self-loop is
    the singleton [[v]]. *)

val has_cycle : Digraph.t -> bool
(** [true] iff the graph contains a directed cycle (including
    self-loops). *)

val find_any : Digraph.t -> int list option
(** Some cycle if one exists; not necessarily the smallest.  Found by
    DFS back-edge detection, so it costs one traversal. *)

val shortest_through : ?bound:int -> Digraph.t -> int -> int list option
(** [shortest_through g v] is a minimum-length cycle containing [v]
    (BFS from each successor of [v] back to [v]), or [None].

    [bound] is an exclusive cap: only cycles {e strictly} shorter than
    [bound] are returned, and the underlying BFSs stop exploring at
    the matching depth.  When the true minimum is below the cap, the
    result is identical to the unbounded call. *)

(** {1 Smallest cycle} *)

type bounds
(** Per-vertex lower bounds on the length of the shortest cycle
    through each vertex, kept across searches of a graph that changes
    between them, plus the searches' reusable scratch.  A bound stays
    sound under edge deletion (removing an edge never shortens a
    cycle); after edge additions {!relax_bounds} restores it, and after
    {!Digraph.insert_vertices} {!insert_unknown} does.  The bounds
    affect only the cost of {!shortest}, never its result, as long as
    every change to the graph is reported. *)

val bounds : int -> bounds
(** Bounds for a graph of [n] vertices, all unknown. *)

val insert_unknown : bounds -> int list -> unit
(** Follows {!Digraph.insert_vertices} with the same ids: old entries
    move with their vertices, the new vertices' bounds are unknown. *)

val relax_bounds : bounds -> Digraph.t -> added:(int * int) list -> unit
(** [relax_bounds b g ~added] accounts for the edges [added] to [g]
    since the last search.  Every cycle that is new runs through some
    added edge [u -> w], so through a vertex [v] it is at least
    [dist v u + 1 + dist w v] long; each bound drops to the minimum of
    that over the added sources [u] and targets [w] (one BFS backward
    from the sources and one forward from the targets). *)

val shortest : ?bounds:bounds -> Digraph.t -> int list option
(** A globally minimum-length cycle, or [None] when the graph is
    acyclic.  This is the paper's [GetSmallestCycle]: every vertex is
    a candidate root and the shortest returning path wins; ties break
    towards the smallest root id, making the result deterministic.

    The search visits vertices in ascending order of their bound and
    stops at the first whose bound shows it cannot beat the best cycle
    found; each probe is cut off at the length it has to beat.  Probes
    tighten [bounds] for the next search, so a removal loop that keeps
    one {!bounds} across breaks re-probes mostly the vertices near the
    last change.  Without [bounds] the search starts from unknown
    bounds and returns the same cycle.
    @raise Invalid_argument when [bounds] covers a different vertex
    count. *)

val shortest_reference : Digraph.t -> int list option
(** The straightforward implementation of {!shortest} (a full BFS from
    every successor of every candidate vertex, no bounds, no SCC
    confinement), kept as an executable specification: [shortest]
    returns exactly the same cycle.  It is the differential-testing
    oracle and the benchmark's "before" arm; prefer {!shortest}
    everywhere else. *)

val enumerate : ?max_cycles:int -> Digraph.t -> int list list
(** All elementary cycles, by Johnson's algorithm, each rotated so its
    smallest vertex comes first; enumeration stops after [max_cycles]
    (default [10_000]) as a safety valve on pathological graphs. *)

val girth : Digraph.t -> int option
(** Length of a shortest cycle, if any. *)
