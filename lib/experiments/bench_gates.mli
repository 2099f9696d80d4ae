(** The gate tables of the [removal] and [service] bench sections and
    the rules that decide which of their host-dependent rows a run
    emits.  The sim section's table is {!Noc_campaign.Campaign.ledger}'s.

    A derived or host-dependent row is emitted only where it was
    measured, and a floor or ceiling ({!Noc_obs.Ledger.Min},
    {!Noc_obs.Ledger.Max}) then holds it on any baseline; a row left
    out is not gated.  So each rule below is also a noise rule: what it
    leaves out is what the gate may not judge on this run. *)

(** {1 Removal} *)

val removal_gates : (string * Noc_obs.Ledger.gate) list
(** [iterations] and [vcs_added] exact, the per-entry [speedup] may
    drop at most 25 %, the D36_8 [aggregate_speedup] at least 4.0x. *)

val removal_timing :
  incremental_ms:float -> rebuild_ms:float -> (string * float) list
(** One entry's [incremental_ms] and [rebuild_ms] rows, and its
    [speedup] (rebuild / incremental) only when the rebuild arm took at
    least 2 ms (shorter arms time with ±30 % ratio noise even as a min
    over repetitions) and the incremental arm a positive time. *)

val removal_aggregate :
  incremental_ms:float -> rebuild_ms:float -> (string * float) list
(** The sweep's [aggregate_speedup] from the summed arm times; no row
    when the incremental total is not positive. *)

(** {1 Service} *)

val service_gates : (string * Noc_obs.Ledger.gate) list
(** Job and result hashes exact; warm replay at least a 1.0 hit rate
    and at most 0.5 of the cold 1-domain wall time; 2- and 4-domain
    speedups at least 1.6x and 2.5x; collector overhead at most 3 %. *)

val domain_arms : host_cores:int -> int list
(** The batch arms a host times: 1 domain always, 2 and 4 only with
    that many cores. *)

val domain_arm :
  domains:int -> jobs:int -> cold_ms:float -> wall_ms:float ->
  (string * float) list
(** One arm's [wall_ms] and [jobs_per_s] rows, and for more than one
    domain its [speedup_N_domains] over the cold 1-domain arm (no row
    for a zero wall time). *)

val collector :
  host_cores:int -> off_ms:float -> on_ms:float -> (string * float) list
(** The collector arms' [off_wall_ms] and [on_wall_ms] rows, and the
    relative [overhead] only on two or more cores (on one, the
    collector domain steals time by construction) and only when
    [on_ms - off_ms] exceeds 5 ms (less is scheduler noise on a short
    batch). *)
