(** Metrics exposition: Prometheus text format v0.0.4 and a JSON
    snapshot of the registry.

    {!text} renders a {!Metrics.snapshot} as the Prometheus text
    format — one [# TYPE] line per metric family, cumulative
    [_bucket] / [_sum] / [_count] series for histograms, label values
    escaped per the format (backslash, quote, newline).  {!json}
    wraps the same snapshot as a [noc-metrics/1] JSON document for the
    typed wire path.

    {!check_text} is a strict parser for the emitted subset, shared by
    the qcheck exposition property and the [make top-smoke] gate: a scrape
    that fails it is a format bug, not a transport hiccup. *)

val schema : string
(** ["noc-metrics/1"]. *)

val text : Metrics.metric list -> string
(** Prometheus text exposition (v0.0.4) of the metrics, grouped by
    family in name order. *)

val json : Metrics.metric list -> Noc_json.Json.t
(** [{"schema":"noc-metrics/1","metrics":[...]}] using
    {!Metrics.to_json} per metric. *)

val metrics_of_json :
  Noc_json.Json.t -> (Metrics.metric list, string) result
(** Decode a {!json} document back into typed metric values (plain
    data, not registered instruments) — the client side of the wire
    [Metrics] reply, so [noc_tool top] can reuse {!Metrics.quantile}
    against a remote snapshot. *)

val check_text : string -> (unit, string) result
(** Validate an exposition document: every sample line parses (name,
    escaped labels, float value), references a declared [# TYPE]
    (declared once), and histogram series are cumulative with a
    [+Inf] bucket equal to their [_count]. *)
