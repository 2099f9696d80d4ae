(* Which bench rows gate how, and which host-dependent rows a run may
   emit at all.  Kept apart from the timing code in bench/main.ml so
   the noise rules are plain functions the gate tests can call. *)

module Ledger = Noc_obs.Ledger

(* Iterations and added VCs are the algorithm's deterministic
   trajectory: any drift is a behaviour change.  Wall times never
   compare across machines, only the same-host rebuild/incremental
   ratio: per entry it may drop at most 25 %, and over the D36_8 sweep
   it must stay at least 4.0x (slack under the ~5.3x measured on noisy
   CI hosts). *)
let removal_gates =
  Ledger.
    [
      ("iterations", Exact);
      ("vcs_added", Exact);
      ("speedup", Drop 0.25);
      ("aggregate_speedup", Min 4.0);
    ]

let min_stable_ms = 2.0

(* A sub-2 ms entry reports no speedup row; the D36_8 aggregate still
   covers it. *)
let removal_timing ~incremental_ms ~rebuild_ms =
  [ ("incremental_ms", incremental_ms); ("rebuild_ms", rebuild_ms) ]
  @
  if rebuild_ms >= min_stable_ms && incremental_ms > 0. then
    [ ("speedup", rebuild_ms /. incremental_ms) ]
  else []

let removal_aggregate ~incremental_ms ~rebuild_ms =
  if incremental_ms > 0. then
    [ ("aggregate_speedup", rebuild_ms /. incremental_ms) ]
  else []

(* Result hashes are deterministic outputs: any drift is a behaviour
   change.  Wall times compare only as same-host ratios: warm replay
   must hit the cache every time and cost at most half of the cold
   1-domain batch; the 2- and 4-domain arms must reach 1.6x and 2.5x
   over it; and the series collector may cost at most 3 % of the
   batch. *)
let service_gates =
  Ledger.
    [
      ("job_hash", Exact);
      ("result_hash", Exact);
      ("hit_rate", Min 1.0);
      ("fraction_of_cold", Max 0.5);
      ("speedup_2_domains", Min 1.6);
      ("speedup_4_domains", Min 2.5);
      ("overhead", Max 0.03);
    ]

let domain_arms ~host_cores =
  List.filter (fun d -> d = 1 || d <= host_cores) [ 1; 2; 4 ]

let domain_arm ~domains ~jobs ~cold_ms ~wall_ms =
  [
    ("wall_ms", wall_ms);
    ( "jobs_per_s",
      if wall_ms > 0. then 1000. *. float_of_int jobs /. wall_ms else 0. );
  ]
  @
  if domains > 1 && wall_ms > 0. then
    [ (Printf.sprintf "speedup_%d_domains" domains, cold_ms /. wall_ms) ]
  else []

let collector_slack_ms = 5.

let collector ~host_cores ~off_ms ~on_ms =
  [ ("off_wall_ms", off_ms); ("on_wall_ms", on_ms) ]
  @
  if host_cores >= 2 && on_ms -. off_ms > collector_slack_ms then
    [ ("overhead", (on_ms -. off_ms) /. off_ms) ]
  else []
