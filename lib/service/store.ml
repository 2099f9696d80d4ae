(* Content-addressed result store: job hash -> outcome, LRU-bounded,
   shared across worker domains (hence the mutex: the table and the
   recency list must move together).  One store serves every caller;
   an entry's slot says where its outcome lives.  In memory the slot
   holds the outcome.  On disk it holds the object file's path, so
   warm hits survive daemon restarts.

   Layout under the root directory:

     objects/ab/cdef0123....json   one object per job hash, sharded on
                                   the first two hex digits
     index.json                    LRU order, most recent first

   Every write is write-to-temp + rename in the destination directory,
   so a crash at any instant leaves either the old file or the new one
   — never a torn object, never a torn index.  The index is a cache of
   the directory listing, not the source of truth: when it is missing
   or stale the objects directory is rescanned, and entries whose
   object file disappeared are dropped at load.  Object payloads are
   self-describing ({schema, job_hash, outcome}); a read that fails the
   integrity check (hash mismatch, unparsable outcome) deletes the
   object and reports a miss, so one corrupted file costs one recompute
   rather than poisoning results. *)

let object_schema = "noc-store/1"
let index_schema = "noc-store-index/1"

type slot = In_memory of Outcome.t | On_disk of string  (* object path *)

type t = {
  root : string option;  (* [None]: the outcomes live in [table] *)
  capacity : int;
  table : (string, slot) Hashtbl.t;
  (* Most recent first.  A plain list is fine: capacities are a few
     thousand at most, and every operation already takes the mutex. *)
  mutable recency : string list;
  mutable hits : int;
  mutable misses : int;
  mutable evictions : int;
  mutex : Mutex.t;
  (* Registered by the constructor, in the creating domain: workers
     only bump them, so their first lookups cannot race on creation. *)
  lookups_total : Noc_obs.Metrics.counter;
  hits_total : Noc_obs.Metrics.counter;
  evictions_total : Noc_obs.Metrics.counter;
}

type stats = { hits : int; misses : int; evictions : int; entries : int }

let locked t f =
  Mutex.lock t.mutex;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.mutex) f

(* ------------------------------------------------------------------ *)
(* Paths and atomic writes                                             *)
(* ------------------------------------------------------------------ *)

let is_hex s = String.for_all (function '0' .. '9' | 'a' .. 'f' -> true | _ -> false) s

let valid_key key = String.length key >= 3 && is_hex key

let objects_dir root = Filename.concat root "objects"
let index_path root = Filename.concat root "index.json"

let object_path root key =
  Filename.concat
    (Filename.concat (objects_dir root) (String.sub key 0 2))
    (String.sub key 2 (String.length key - 2) ^ ".json")

let ensure_dir path =
  if not (Sys.file_exists path) then
    try Unix.mkdir path 0o755
    with Unix.Unix_error (Unix.EEXIST, _, _) -> ()

let write_atomic ~dir ~path content =
  let tmp = Filename.temp_file ~temp_dir:dir (Filename.basename path) ".tmp" in
  let oc = open_out_bin tmp in
  Fun.protect
    ~finally:(fun () -> close_out_noerr oc)
    (fun () -> output_string oc content);
  Sys.rename tmp path

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

(* ------------------------------------------------------------------ *)
(* Index                                                               *)
(* ------------------------------------------------------------------ *)

let index_json t =
  Json.Obj
    [
      ("schema", Json.Str index_schema);
      ("entries", Json.Arr (List.map (fun k -> Json.Str k) t.recency));
    ]

(* Called under the mutex.  Failures (full disk, root removed from
   under us) are swallowed: the index is reconstructible by a rescan,
   so losing a flush must never take a job down with it. *)
let flush_index t =
  match t.root with
  | None -> ()
  | Some root -> (
      try
        write_atomic ~dir:root ~path:(index_path root)
          (Json.to_string (index_json t) ^ "\n")
      with Sys_error _ -> ())

let load_index path =
  match read_file path with
  | exception Sys_error _ -> None
  | text -> (
      match Json.of_string text with
      | Error _ -> None
      | Ok root -> (
          match (Json.member "schema" root, Json.member "entries" root) with
          | Some (Json.Str s), Some (Json.Arr items) when s = index_schema ->
              let keys =
                List.filter_map
                  (function Json.Str k when valid_key k -> Some k | _ -> None)
                  items
              in
              Some keys
          | _ -> None))

(* Recover keys from the objects directory when the index is missing
   or unreadable; recency order is lost, but no result is. *)
let scan_objects dir =
  match Sys.readdir dir with
  | exception Sys_error _ -> []
  | shards ->
      Array.to_list shards
      |> List.concat_map (fun shard ->
             if String.length shard <> 2 || not (is_hex shard) then []
             else
               match Sys.readdir (Filename.concat dir shard) with
               | exception Sys_error _ -> []
               | files ->
                   Array.to_list files
                   |> List.filter_map (fun f ->
                          if Filename.check_suffix f ".json" then
                            Some (shard ^ Filename.chop_suffix f ".json")
                          else None))

(* ------------------------------------------------------------------ *)
(* Lifecycle                                                           *)
(* ------------------------------------------------------------------ *)

let make ~root ~capacity =
  if capacity < 1 then invalid_arg "Store: capacity < 1";
  {
    root;
    capacity;
    table = Hashtbl.create (min capacity 64);
    recency = [];
    hits = 0;
    misses = 0;
    evictions = 0;
    mutex = Mutex.create ();
    lookups_total = Noc_obs.Metrics.counter "noc_store_lookups_total";
    hits_total = Noc_obs.Metrics.counter "noc_store_hits_total";
    evictions_total = Noc_obs.Metrics.counter "noc_store_evictions_total";
  }

let memory ~capacity = make ~root:None ~capacity

(* Under the mutex.  Drops the entry and, on disk, its file. *)
let drop t key =
  (match Hashtbl.find_opt t.table key with
  | Some (On_disk path) -> ( try Sys.remove path with Sys_error _ -> ())
  | Some (In_memory _) | None -> ());
  Hashtbl.remove t.table key

let evict t key =
  drop t key;
  t.evictions <- t.evictions + 1;
  Noc_obs.Metrics.incr t.evictions_total

let create ~root ~capacity =
  let t = make ~root:(Some root) ~capacity in
  ensure_dir root;
  ensure_dir (objects_dir root);
  let indexed =
    match load_index (index_path root) with
    | Some keys -> keys
    | None -> scan_objects (objects_dir root)
  in
  (* Integrity check on load: keep only entries whose object file is
     actually present (newest first, dedup'd); deep validation of the
     payload happens lazily at [find]. *)
  let keys =
    List.filter
      (fun key ->
        let path = object_path root key in
        (not (Hashtbl.mem t.table key)) && Sys.file_exists path
        && (Hashtbl.replace t.table key (On_disk path);
            true))
      indexed
  in
  (* A store reopened with a smaller capacity sheds its oldest
     entries now, not one per later insert. *)
  t.recency <- List.filteri (fun i _ -> i < capacity) keys;
  let beyond = List.filteri (fun i _ -> i >= capacity) keys in
  List.iter (evict t) beyond;
  if beyond <> [] then flush_index t;
  t

let capacity t = t.capacity

(* ------------------------------------------------------------------ *)
(* Lookup and insert                                                   *)
(* ------------------------------------------------------------------ *)

let touch t key = t.recency <- key :: List.filter (fun k -> k <> key) t.recency

let forget t key =
  drop t key;
  t.recency <- List.filter (fun k -> k <> key) t.recency

let decode_object ~key text =
  match Json.of_string text with
  | Error e -> Error e
  | Ok root -> (
      match (Json.member "schema" root, Json.member "job_hash" root) with
      | Some (Json.Str s), _ when s <> object_schema ->
          Error (Printf.sprintf "schema %S (want %S)" s object_schema)
      | _, Some (Json.Str h) when h <> key -> Error "job hash mismatch"
      | Some (Json.Str _), Some (Json.Str _) -> (
          match Json.member "outcome" root with
          | Some o -> Outcome.of_json o
          | None -> Error "missing outcome")
      | _ -> Error "missing schema or job_hash")

let find t key =
  Noc_obs.Metrics.incr t.lookups_total;
  locked t (fun () ->
      let found =
        match Hashtbl.find_opt t.table key with
        | None -> None
        | Some (In_memory outcome) -> Some outcome
        | Some (On_disk path) -> (
            match decode_object ~key (read_file path) with
            | Ok outcome -> Some outcome
            | Error _ | (exception Sys_error _) ->
                (* Missing or corrupt object: forget it so the next run
                   recomputes and rewrites, instead of failing forever. *)
                forget t key;
                flush_index t;
                None)
      in
      (match found with
      | Some _ ->
          t.hits <- t.hits + 1;
          Noc_obs.Metrics.incr t.hits_total;
          touch t key
      | None -> t.misses <- t.misses + 1);
      found)

let object_json ~key outcome =
  Json.Obj
    [
      ("schema", Json.Str object_schema);
      ("job_hash", Json.Str key);
      ("outcome", Outcome.to_json outcome);
    ]

let store t key outcome =
  if not (valid_key key) then invalid_arg "Store.store: not a hex job hash";
  locked t (fun () ->
      let slot =
        match t.root with
        | None -> In_memory outcome
        | Some root ->
            let path = object_path root key in
            let dir = Filename.dirname path in
            ensure_dir dir;
            write_atomic ~dir ~path
              (Json.to_string (object_json ~key outcome) ^ "\n");
            On_disk path
      in
      Hashtbl.replace t.table key slot;
      touch t key;
      let evicted = Hashtbl.length t.table > t.capacity in
      if evicted then begin
        match List.rev t.recency with
        | [] -> assert false
        | oldest :: newer ->
            evict t oldest;
            t.recency <- List.rev newer
      end;
      flush_index t;
      evicted)

(* ------------------------------------------------------------------ *)
(* Stats                                                               *)
(* ------------------------------------------------------------------ *)

let stats t =
  locked t (fun () ->
      {
        hits = t.hits;
        misses = t.misses;
        evictions = t.evictions;
        entries = Hashtbl.length t.table;
      })

let hit_rate s =
  let total = s.hits + s.misses in
  if total = 0 then 0. else float_of_int s.hits /. float_of_int total

let reset_counters t =
  locked t (fun () ->
      t.hits <- 0;
      t.misses <- 0;
      t.evictions <- 0)

let flush t = locked t (fun () -> flush_index t)
