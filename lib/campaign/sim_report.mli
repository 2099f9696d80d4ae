(** Machine-readable simulation-campaign reports ([BENCH_sim.json],
    schema ["bench-sim/1"]) and the baseline comparison behind the CI
    sim gate.

    Unlike the removal and service bench schemas, the sim gate splits
    its contract in two: deadlock behaviour is {e hard} — a deadlock on
    a protected or acyclic-CDG design, or one without a certificate,
    fails the gate regardless of any baseline — while latency and
    throughput are compared to the baseline within tolerance bands.
    Simulations are fully deterministic, so packet delivery counts are
    still exact. *)

type entry = {
  label : string;  (** Human label, e.g. ["sim uniform/removal D36_8@14"]. *)
  job_hash : string;  (** Content hash; the baseline matching key. *)
  result_hash : string;  (** Hash of the metrics (wall time excluded). *)
  benchmark : string;
  n_switches : int;
  workload : string;  (** Workload kind, e.g. ["uniform"]. *)
  prepare : string;  (** ["as-is"], ["removal"], or ["ordering"]. *)
  cdg_cyclic : bool;
  deadlocked : bool;
  certified : bool;  (** Deadlock carried a waits-for cycle. *)
  cycles : float;
  packets : float;
  delivered : float;
  avg_latency : float;
  p95_latency : float;
  throughput : float;
  vcs_added : float;
}

type t = {
  entries : entry list;
  slo : Noc_obs.Slo.verdict list;
      (** Campaign-time SLO verdicts; empty (and absent from the JSON)
          when the campaign did not evaluate objectives, so
          pre-existing baselines parse and re-serialize unchanged. *)
}

val schema : string
(** ["bench-sim/1"]. *)

val of_cells : ?slo:Noc_obs.Slo.verdict list -> Campaign.cell list -> t
(** One entry per finished cell; unfinished cells are dropped (they are
    {!Campaign.verify}'s problem, not the report's).  [slo] (default
    empty) records the campaign's objective verdicts. *)

val to_json : t -> string
val of_json : string -> (t, string) result

val invariant_errors : t -> string list
(** The baseline-independent deadlock-freedom checks, one message per
    violated cell.  Also included in {!compare_to_baseline}. *)

val compare_to_baseline : baseline:t -> t -> string list
(** Empty when the gate passes.  Baseline entries are matched by
    [job_hash]; an identical [result_hash] short-circuits the cell.
    Deadlock flags, delivery counts and added-VC counts must match
    exactly; [avg_latency] and [throughput] may drift by up to 25 %
    each, relative to the baseline.  A baseline cell missing
    from the current report is an error; new cells are allowed. *)

val pp : Format.formatter -> t -> unit
