(** The bench ledger: one report schema ([bench/2]) and one regression
    gate for every bench section.

    A report is a flat list of rows [(layer, case, metric, value)] —
    e.g. [("removal", "D36_8@14", "iterations", Num 3.)] — plus the
    gate table: one {!gate} per metric name.  Only the baseline's
    table is consulted; a metric without an entry is reported but not
    gated.  {!compare} applies three rules:
    + a [(layer, case)] of the baseline with no row in the current
      report is one violation, and so is each [Exact] or [Band] row of
      the baseline missing from a case that is present;
    + [Exact], [Band] and [Drop] compare each current row with the
      baseline row of the same layer, case and metric (no baseline
      row, no check);
    + [Min] and [Max] apply to every current row of their metric,
      whether or not the baseline has it.

    Rule 3 is how host-dependent and derived rows gate: a producer
    emits such a row (a parallel speedup, a collector overhead, a
    deadlock-invariant flag) only when it was measured, and the row is
    then held to its floor or ceiling on any baseline. *)

type value = Num of float | Str of string  (** A hash or label. *)

type row = { layer : string; case : string; metric : string; value : value }

type gate =
  | Exact  (** Equal to the baseline row. *)
  | Band of float
      (** Within relative distance [t] of the baseline row (absolute
          distance [t] when the baseline is [0]). *)
  | Drop of float  (** At most a relative drop [t] below the baseline row. *)
  | Min of float  (** At least [x]. *)
  | Max of float  (** At most [x]. *)

type t = { gates : (string * gate) list; rows : row list }

val schema : string
(** ["bench/2"]. *)

val to_json : t -> string
(** Pretty JSON: the gate table as ["exact"], ["band 0.25"],
    ["drop 0.25"], ["min 4"] or ["max 0.03"] strings, and the rows
    nested as layer → case → metric → value.  Rows print grouped by
    layer, then case, in order of first appearance, so {!of_json}
    inverts this exactly for a ledger whose rows are already grouped
    that way (every producer emits case by case). *)

val of_json : string -> (t, string) result
(** Rejects any schema tag other than {!schema}. *)

val compare : baseline:t -> t -> string list
(** [compare ~baseline current] is one message per violation, each
    naming the layer, the case and (except for a missing case) the
    metric; empty when the gate passes. *)

val pp : Format.formatter -> t -> unit
(** One line per case: [layer/case: metric=value ...]. *)
