(** Cycle-driven wormhole network simulator.

    Model: each channel (link x VC) owns one flit FIFO of
    [buffer_depth] at its downstream switch.  A packet acquires a
    channel when its head flit enters it and releases it only when its
    tail flit leaves — the wormhole property that makes cyclic channel
    dependencies deadly.  One flit crosses each channel per cycle; one
    flit per flow is injected per cycle; arbitration is deterministic
    (channel id, then flow id), so runs are exactly reproducible.

    Two routing modes share one arbitration loop.  {!run} takes
    packets with fixed routes; {!run_adaptive} lets each head consult
    a {!Noc_model.Routing_function.t} at every switch and take the
    first candidate channel that is free and has space (the function's
    own channel order); the body follows the path the head carved.

    The simulator never tries to work around a deadlock: if packets
    stop moving while flits remain in flight, it reports the deadlock
    together with a waits-for cycle certificate.  That is the
    behavioural ground truth the paper's static analysis predicts. *)

open Noc_model

type config = {
  buffer_depth : int;  (** Flits per channel FIFO (default 4). *)
  max_cycles : int;  (** Hard wall clock (default 200_000). *)
  stall_threshold : int;
      (** Consecutive motionless cycles that count as a deadlock
          (default 64; any value > network diameter is safe because a
          live network moves at least one flit per cycle). *)
  rotate_priority : bool;
      (** When [true], the channel service order rotates by one
          position per cycle (round-robin fairness); when [false]
          (default) lower channel ids always win contention.  Both are
          deterministic. *)
  router_latency : int;
      (** Pipeline depth of a hop: a flit that entered a buffer at
          cycle [t] becomes eligible to leave at [t + router_latency].
          Default [1] (single-cycle routers); real designs are 2–4. *)
}

val default_config : config

type deadlock_info = {
  cycle : int;  (** Cycle at which the stall was declared. *)
  in_network_flits : int;
  blocked_packets : int list;  (** Every packet waiting on a channel. *)
  waits_for_cycle : int list option;
      (** A cyclic chain of packet ids, when one exists: the formal
          deadlock certificate.  A blocked flit waits on the owner of
          every channel it could take next.  Under {!run_adaptive} a
          head waits on {e all} its candidates at once and proceeds
          when any frees up (OR-waiting), so a waits-for cycle is no
          longer a sufficient deadlock witness: the stall watchdog (no
          flit moved for [stall_threshold] cycles) is the ground truth
          and this cycle is diagnostic, not a proof. *)
}

type outcome =
  | Completed of Stats.t
  | Deadlocked of deadlock_info
  | Timed_out of Stats.t  (** [max_cycles] elapsed without stall. *)

val run :
  ?config:config -> ?on_event:(Trace.event -> unit) -> Network.t ->
  Packet.t list -> outcome
(** Simulates the packet workload on the network's current topology
    and VC structure.  Packet routes must use existing channels.
    [on_event] (default: none) receives every observable action, in
    order — see {!Trace}.

    When a {!Noc_obs.Trace} collector is installed, the run records a
    ["sim.run"] span (packet/flit counts, outcome, cycles) containing
    one ["sim.cycles"] span per 1024-cycle batch, and bumps the
    [sim.flits_injected] / [sim.flits_delivered] / [sim.deadlocks]
    metrics.
    @raise Invalid_argument when a packet references an unknown
    channel. *)

(** {1 Adaptive routing} *)

type workload = {
  id : int;
  flow : Ids.Flow.t;
  src : Ids.Switch.t;
  dst : Ids.Switch.t;
  length : int;  (** Flits. *)
  inject_at : int;
}

val workload_of_flows :
  Network.t -> packet_length:int -> packets_per_flow:int -> workload list
(** Burst workload straight from the network's flow endpoints (no
    static routes needed); same-switch flows are skipped. *)

val run_adaptive :
  ?config:config ->
  ?on_event:(Trace.event -> unit) ->
  Network.t ->
  Routing_function.t ->
  workload list ->
  outcome
(** Simulates the workload under the routing function, with the same
    loop, spans, metrics and event stream as {!run}.  This is the
    runtime companion of {!Noc_deadlock.Duato}: a function that passes
    Duato's check (e.g. fully adaptive VC 1 with an XY escape lane on
    VC 0) completes any workload here, while an unprotected adaptive
    function on a cyclic topology can be driven into a standing stall,
    reported as [Deadlocked] (see [waits_for_cycle] for why its cycle
    is only diagnostic).  {!Trace.check_route_order} does not apply
    (paths are carved at runtime), but ownership and balance
    invariants do.
    @raise Invalid_argument when the function offers a channel that
    does not exist. *)

val pp_outcome : Format.formatter -> outcome -> unit
