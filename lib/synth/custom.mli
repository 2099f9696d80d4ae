(** Application-specific topology synthesis — the substitute for the
    paper's ref. [9] flow.

    Given the application traffic and a target switch count, synthesis
    (1) clusters cores onto switches ({!Mapping.cluster}),
    (2) creates directed links between switch pairs in decreasing order
    of inter-switch demand subject to a per-switch degree budget,
    (3) guarantees that every flow is routable by adding fallback
    links greedily: demanded pairs are visited in decreasing demand
    order and each one still without a directed path gets a direct
    link (a greedy set, not a minimum one), and
    (4) computes deterministic min-hop, load-aware routes.

    Step (3) builds the switch reachability matrix once, O(n (n + m))
    for [n] switches and [m] links, and after each fallback link
    [a -> b] ORs [b]'s row into every row that reaches [a], O(n^2)
    per added link.  Routing builds the switch graph once per pass
    and runs one early-stopping Dijkstra per flow.

    Resulting designs are irregular and application-specific, exactly
    the inputs the paper's deadlock-removal pass is aimed at; depending
    on the demand structure their CDG may or may not be cyclic, which
    mirrors the paper's observation that many synthesized topologies
    are deadlock-free as-built (Figure 8) while denser ones are not
    (Figure 9). *)

open Noc_model

type mapper = Greedy_affinity  (** {!Mapping.cluster} (default). *)
            | Min_cut  (** {!Fm_partition.cluster}. *)

type options = {
  max_out_degree : int;  (** Per-switch outgoing link budget (default 4). *)
  max_in_degree : int;  (** Per-switch incoming link budget (default 4). *)
  load_aware_routing : bool;  (** Default [true]. *)
  force_bidirectional : bool;
      (** Add a reverse link wherever only one direction exists
          (default [false]).  Costs links but makes turn-prohibition
          methods such as {!Noc_deadlock.Updown} applicable — the
          trade-off the paper discusses around its refs [18]/[21]. *)
  mapper : mapper;  (** Core-to-switch clustering algorithm. *)
}

val default_options : options

val synthesize :
  ?options:options -> Traffic.t -> n_switches:int -> (Network.t, string) result
(** Builds the full design (topology, mapping and routes).  Returns
    [Error] when [n_switches] is not between 1 and the core count, or
    when the traffic cannot be routed (never observed: fallback links
    guarantee routability).  Never raises.

    Emits the spans [synth.mapping], [synth.links] (attribute [links])
    and [synth.routing], in that order, when a trace collector is
    installed. *)

val synthesize_exn : ?options:options -> Traffic.t -> n_switches:int -> Network.t
(** @raise Failure on the error cases of {!synthesize}. *)
