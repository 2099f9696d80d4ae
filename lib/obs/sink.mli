(** Pluggable, internally serialized JSONL sinks.

    A sink consumes one JSON value per event and writes it as one line.
    Sinks serialize concurrent emits with an internal mutex, so code on
    any domain can emit without coordination.  This is the shared
    transport of the observability layer: the service's telemetry
    stream and the tracer's [noc-trace/1] export both speak it. *)

module Json = Noc_json.Json

type t = { emit : Json.t -> unit; close : unit -> unit }

val null : t
(** Swallows everything. *)

val to_channel : out_channel -> t
(** Mutex-serialized writer; [close] flushes but does not close the
    channel (the caller owns it). *)

val to_file : string -> t
(** Atomic file writer: events accumulate in a temporary file next to
    [path] and [close] renames it into place, so a killed run never
    leaves a truncated half-line at [path] — either the complete
    stream is there or the file is absent (a [*.tmp] leftover may
    remain and can be deleted).
    @raise Sys_error when the temporary file cannot be created. *)

val memory : unit -> t * (unit -> Json.t list)
(** In-memory sink and an accessor returning events oldest-first. *)

val tee : t -> t -> t
(** Duplicates every emit (and close) to both sinks. *)

val line : Json.t -> string
(** The JSONL rendering of one event (no trailing newline). *)
