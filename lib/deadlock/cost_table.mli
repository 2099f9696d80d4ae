(** Cost tables of Algorithm 2 ([FindDepToBreakForward]) and its
    backward twin.

    Given a cycle [c1 ... ck] of the CDG, the table has one row per
    flow involved in the cycle and one column per dependency (cycle
    edge) [Di = (ci, c(i+1 mod k))].  Entry [(f, Di)] is the number of
    CDG vertices that must be duplicated to break [Di] as far as flow
    [f] alone is concerned — [0] when [f] does not create [Di].  The
    per-column maximum is the real price of breaking there (duplicated
    channels are shared between flows), and the cheapest column is
    where the cycle gets broken. *)

open Noc_model

type direction = Forward | Backward

type t = {
  direction : direction;
  cycle : Channel.t array;  (** [c1 ... ck] in dependency order. *)
  flows : Ids.Flow.t array;
      (** Row labels: flows with more than one route channel inside the
          cycle, in flow-id order. *)
  routes : Route.t array;
      (** Snapshot of each involved flow's route at analysis time,
          parallel to [flows]. *)
  costs : int array array;  (** [costs.(row).(col)]; [0] = no dependency. *)
  max_costs : int array;  (** Column maxima — the MAX row of Table 1. *)
  best_cost : int;  (** Minimum over columns of [max_costs]. *)
  best_pos : int;  (** First column achieving [best_cost]. *)
}

val forward : ?candidates:Ids.Flow.t list -> Network.t -> Channel.t list -> t
(** Algorithm 2 verbatim: costs counted from where each flow enters
    the cycle, walking routes source-to-destination.  [candidates],
    when given, are the only flows examined for rows: they must be in
    flow-id order and include every flow with more than one route
    channel on the cycle ({!Noc_model.Cdg.flows_through} of the cycle
    does).  The table is the same; only the scan of every flow is
    saved.
    @raise Invalid_argument on an empty cycle. *)

val backward : ?candidates:Ids.Flow.t list -> Network.t -> Channel.t list -> t
(** Same analysis walking routes destination-to-source: the cost of a
    column counts the cycle channels from the dependency's head to
    where the flow leaves the cycle. *)

val both : ?candidates:Ids.Flow.t list -> Network.t -> Channel.t list -> t * t
(** [(forward, backward)] tables of the same cycle, sharing the
    direction-blind work (involved-flow filter, per-route dependency
    location, prefix sums) — what the removal driver wants every
    iteration.  Equal to [(forward net c, backward net c)].
    @raise Invalid_argument on an empty cycle. *)

val forward_reference : Network.t -> Channel.t list -> t
val backward_reference : Network.t -> Channel.t list -> t
(** The pre-optimization implementations, kept verbatim: one
    route rescan per table cell.  They produce identical tables to
    {!forward}/{!backward} — property-tested — and exist as the
    executable specification and as the benchmark baseline arm used by
    [Removal.run ~incremental:false]. *)

val dependency : t -> int -> Channel.t * Channel.t
(** [dependency t i] is the edge labelled [D(i+1)] in the paper:
    [(ci, c(i+1 mod k))]. *)

val channels_to_duplicate : t -> Ids.Flow.t -> int -> Channel.t list
(** The cycle channels flow [f] would need duplicated to break column
    [i], in route order; empty when [f] does not create that
    dependency.  Forward: from the flow's entry up to the tail of the
    edge.  Backward: from the head of the edge to the flow's exit. *)

val pp : Format.formatter -> t -> unit
(** Renders the table in the layout of Table 1 of the paper. *)
