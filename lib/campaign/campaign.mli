(** Simulation campaigns: sweep (benchmark x switch count x workload x
    injection rate x preparation) through the wormhole simulator and
    check the paper's behavioural claim on every cell.

    A campaign is just a grid of {!Noc_service.Job.Simulate} jobs, so
    it inherits the whole service stack: the lint admission gate, the
    multicore batch engine, and the content-addressed result store —
    on disk when one is supplied, so an interrupted campaign resumes
    warm.

    The invariants {!verify} checks, cell by cell:
    - a design prepared by removal or resource ordering never reports
      [Deadlocked];
    - a cell with an acyclic CDG never reports [Deadlocked];
    - every reported deadlock carries a waits-for cycle certificate;
    - (optionally) at least one unprotected cyclic-CDG cell actually
      deadlocks, so the hazard was witnessed, not merely asserted. *)

open Noc_service

type point = { benchmark : string; n_switches : int }

val default_prepares : Job.prepare list
(** As-is, removal, resource ordering — the paper's comparison. *)

val grid :
  ?max_degree:int ->
  ?prepares:Job.prepare list ->
  ?rates:float list ->
  points:point list ->
  workloads:Noc_benchmarks.Workloads.spec list ->
  unit ->
  Job.t list
(** The full factorial grid, in deterministic order.  Each
    rate-parameterized workload ([uniform], [hotspot]) appears once per
    entry of [rates] (via {!Noc_benchmarks.Workloads.at_rate}); other
    kinds appear once regardless of [rates]. *)

type cell = {
  job : Job.t;
  outcome : Outcome.t;
  cached : bool;
      (** A store hit ({!Batch.job_result}'s [cache_hit]): the resume
          path, or a job repeated in the grid whose twin finished
          first. *)
}

type config = {
  domains : int;  (** Worker domains for the batch engine. *)
  store : Store.t option;
      (** Persistent result store: hits skip simulation entirely,
          fresh deterministic results are written back. *)
  lint : bool;  (** Vet every job before it reaches a worker. *)
}

val default_config : config
(** 1 domain, no store, lint on. *)

val run : ?on_cell:(cell -> unit) -> config -> Job.t list -> cell list
(** Run the grid as one {!Batch.run} with [config.store] as its cache,
    or an in-memory store sized to the grid when there is none.  Every
    cell, warm or cold, passes the lint gate.  A warm cell (flagged
    [cached]) carries the stored outcome unchanged, including the
    original run's [wall_ms].  [on_cell] streams cells in grid order as
    each finishes; the returned list is in grid order too, so a
    partial resume interleaves warm and fresh cells.
    @raise Invalid_argument when [config.domains < 1]. *)

(** {1 Cell accessors} *)

val metric : cell -> string -> float
(** A named outcome metric, [0.] when absent. *)

val deadlocked : cell -> bool
val certified : cell -> bool
val cdg_cyclic : cell -> bool
val prepare_of : cell -> Job.prepare option
val workload_of : cell -> Noc_benchmarks.Workloads.spec option

val design_label : cell -> string
(** ["D36_8@14"], or ["inline"]. *)

(** {1 Verification} *)

type verdict = {
  cells : int;
  warm : int;
  failed : int;  (** Cells whose job did not finish. *)
  deadlocks : int;
  cyclic_cells : int;  (** Finished cells simulated on a cyclic CDG. *)
  cyclic_deadlocks : int;
  violations : string list;  (** Empty iff the invariants hold. *)
}

val verify : ?expect_cyclic_deadlock:bool -> cell list -> verdict
(** Check every cell against the deadlock-freedom invariants.  With
    [expect_cyclic_deadlock] (default [true]), a campaign that has
    unprotected cyclic cells but observed no deadlock on any of them is
    a violation too — the hazard must be witnessed. *)

val verdict_ok : verdict -> bool
val pp_verdict : Format.formatter -> verdict -> unit

(** {1 Bench ledger} *)

val ledger : ?slo:Noc_obs.Slo.verdict list -> cell list -> Noc_obs.Ledger.t
(** The campaign as [bench/2] rows ([BENCH_sim.json]) with the sim gate
    table.  Layer ["sim"]: one case per finished cell (unfinished cells
    are {!verify}'s problem), named by its job label plus [r=RATE] for
    rate-parameterized workloads, with the job and result hashes, the
    [cdg_cyclic]/[deadlocked]/[certified] flags (0 or 1) and the
    outcome metrics.  A deadlocked cell also carries the invariant
    rows [deadlock_on_protected], [deadlock_on_acyclic] and
    [deadlock_uncertified], each gated at most 0.  Layer ["slo"]: one
    case per verdict of [slo] (default none), its [ok] row gated at
    least 1.  The deadlock flags, deliveries, added VCs and job hash
    gate exactly; [avg_latency] and [throughput] within 25 %. *)

val markdown_report : cell list -> verdict -> string
(** The campaign as a Markdown document: summary bullets, the per-cell
    table, and load–latency curves for rate-parameterized workloads. *)
