(** Content-addressed result store: {!Job.hash} → {!Outcome.t},
    LRU-bounded, safe to share across worker domains.  Removal,
    ordering and simulation are deterministic, so a result depends
    only on its job hash and repeated jobs become hits instead of
    solver runs.

    {!memory} keeps outcomes in the process (a batch's cache, a
    campaign without a directory).  {!create} keeps them on disk, so
    warm hits survive [noc serve] restarts and interrupted campaigns
    resume.  Both share one table, one recency list, one set of
    counters and one eviction path; only where an outcome lives
    differs.

    On-disk layout under [root]:
    {v
    objects/ab/cdef0123….json   one object per job hash (sharded)
    index.json                  LRU order, most recent first
    v}

    All writes are write-to-temp + rename, so a crash leaves whole
    files or nothing.  The index is a rebuildable cache: when missing
    or corrupt, the objects directory is rescanned.  An object that
    fails its integrity check at read time (hash mismatch, unparsable
    payload) is deleted and reported as a miss. *)

type t

val memory : capacity:int -> t
(** An empty store that keeps its outcomes in memory.
    @raise Invalid_argument when [capacity < 1]. *)

val create : root:string -> capacity:int -> t
(** Open (creating directories as needed) the store at [root] and load
    its index, dropping entries whose object file is gone.  Entries
    beyond [capacity] are evicted oldest first, their objects deleted
    and the index rewritten.
    @raise Invalid_argument when [capacity < 1]. *)

val capacity : t -> int

val find : t -> string -> Outcome.t option
(** Lookup by job hash; counts a hit or a miss, refreshes recency.  On
    disk, verifies the stored object's schema and hash first. *)

val store : t -> string -> Outcome.t -> bool
(** Insert (or refresh) an outcome, on disk atomically; evicts the
    least recently used entry beyond capacity and returns [true] when
    that happened (the caller may want to emit a [cache_evicted]
    telemetry event).  Store only deterministic outcomes — the store
    does not distinguish a [Failed] produced by the job from one
    produced by the environment.
    @raise Invalid_argument when the key is not a hex hash of at least
    3 digits. *)

val flush : t -> unit
(** Persist the LRU index now (it is also flushed on every store); a
    no-op in memory. *)

type stats = { hits : int; misses : int; evictions : int; entries : int }

val stats : t -> stats
val hit_rate : stats -> float
(** Hits over lookups; [0.] before any lookup. *)

val reset_counters : t -> unit
(** Zero the hit/miss/eviction counters, keep the entries — used
    between the cold and warm arms of the service bench. *)
