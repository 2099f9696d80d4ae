(** Mutable directed graphs over dense integer vertices.

    Vertices are integers [0 .. n_vertices g - 1].  New vertices are
    allocated densely by {!add_vertex}; edges are unlabelled and simple
    (at most one edge per ordered pair).  The structure keeps both
    successor and predecessor adjacency, so forward and backward
    traversals are equally cheap.

    This module is the workhorse under the channel-dependency graph and
    the topology graph of the deadlock-removal flow: both need cheap
    edge insertion/removal and repeated cycle searches. *)

type t
(** A mutable directed graph. *)

val create : ?initial_capacity:int -> unit -> t
(** [create ()] is an empty graph. [initial_capacity] pre-sizes the
    internal tables (default [16]); it never limits growth. *)

val copy : t -> t
(** [copy g] is an independent deep copy of [g]. *)

val add_vertex : t -> int
(** [add_vertex g] allocates and returns the next fresh vertex id. *)

val ensure_vertex : t -> int -> unit
(** [ensure_vertex g v] allocates vertices until [v] is a valid id.
    @raise Invalid_argument if [v < 0]. *)

val n_vertices : t -> int
(** Number of allocated vertices. *)

val n_edges : t -> int
(** Number of edges currently present. *)

val mem_edge : t -> int -> int -> bool
(** [mem_edge g u v] is [true] iff the edge [u -> v] is present. *)

val add_edge : t -> int -> int -> unit
(** [add_edge g u v] inserts the edge [u -> v], allocating the
    endpoints with {!ensure_vertex} if needed.  Inserting an existing
    edge is a no-op (graphs are simple). *)

val unsafe_add_edge : t -> int -> int -> unit
(** [add_edge] without the duplicate check or vertex allocation, for
    bulk loads: the caller must guarantee that both endpoints are
    already valid vertices and that the edge is absent, or the graph
    is corrupted (wrong edge count, duplicated adjacency entries).
    Prepends to both adjacency lists exactly like {!add_edge}. *)

val insert_edge :
  t -> int -> int -> ahead_in_succ:(int -> bool) -> ahead_in_pred:(int -> bool) -> unit
(** [insert_edge g u v ~ahead_in_succ ~ahead_in_pred] inserts the edge
    [u -> v] into [succ g u] right after the longest prefix whose
    vertices satisfy [ahead_in_succ], and into [pred g v] likewise.
    It keeps adjacency lists sorted by a key the caller owns.  Like
    {!unsafe_add_edge}, both endpoints must exist and the edge must be
    absent. *)

val remove_edge : t -> int -> int -> unit
(** [remove_edge g u v] deletes the edge [u -> v] if present. *)

val succ : t -> int -> int list
(** Successors of a vertex, in unspecified but deterministic order. *)

val pred : t -> int -> int list
(** Predecessors of a vertex. *)

val out_degree : t -> int -> int
val in_degree : t -> int -> int

val iter_succ : (int -> unit) -> t -> int -> unit
val iter_pred : (int -> unit) -> t -> int -> unit

val iter_vertices : (int -> unit) -> t -> unit
val fold_vertices : ('a -> int -> 'a) -> 'a -> t -> 'a

val iter_edges : (int -> int -> unit) -> t -> unit
val fold_edges : ('a -> int -> int -> 'a) -> 'a -> t -> 'a

val edges : t -> (int * int) list
(** All edges as [(src, dst)] pairs, ordered by source then insertion. *)

val of_edges : ?n:int -> (int * int) list -> t
(** [of_edges es] builds a graph containing every edge of [es];
    [n] forces at least [n] vertices to exist. *)

val transpose : t -> t
(** [transpose g] is a fresh graph with every edge reversed. *)

val insert_vertices : t -> int list -> unit
(** [insert_vertices g ids] adds [List.length ids] isolated vertices
    that take the ids [ids] (strictly ascending, in the new numbering);
    every old vertex moves up past the insertions below it, and every
    edge follows its endpoints with adjacency order kept.  Rows that
    reference no moved vertex are shared, not copied.
    @raise Invalid_argument unless [ids] ascend strictly within
    [0 .. n_vertices g + List.length ids - 1]. *)

val equal : t -> t -> bool
(** Structural equality: same vertex count, same edges, {e and} the
    same adjacency-list order.  The order sensitivity is deliberate:
    the deadlock-removal pipeline breaks ties by adjacency order, so
    two graphs are interchangeable for it only when this holds. *)

val pp : Format.formatter -> t -> unit
(** Debug printer: one [u -> v] line per edge. *)
