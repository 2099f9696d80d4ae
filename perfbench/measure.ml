(* Shared measurement plumbing: clocks, order statistics, the result
   line, host facts, and per-layer aggregation of trace spans. *)

module Json = Noc_json.Json
module Trace = Noc_obs.Trace

let now_s () = Int64.to_float (Noc_obs.Clock.now_ns ()) /. 1e9

let timed f =
  let t0 = now_s () in
  let r = f () in
  (r, now_s () -. t0)

(* Processor time of this process.  The in-process workloads run one
   domain of pure computation, so this is their host time; unlike wall
   time it leaves out time a shared virtual host steals from the
   process. *)
let cpu_timed f =
  let t0 = Sys.time () in
  let r = f () in
  (r, Sys.time () -. t0)

(* Processor time, in seconds, that every live thread of process [pid]
   has run so far: the sum of the scheduler's per-thread run time,
   which has nanosecond resolution (the process-wide tick counters of
   /proc/PID/stat have 10 ms). *)
let process_cpu_s pid =
  let dir = Printf.sprintf "/proc/%d/task" pid in
  Array.fold_left
    (fun acc tid ->
      match
        In_channel.with_open_text (Filename.concat (Filename.concat dir tid) "schedstat")
          In_channel.input_line
      with
      | Some line -> acc +. (float_of_int (Scanf.sscanf line "%d" Fun.id) /. 1e9)
      | None | (exception Sys_error _) -> acc)
    0. (Sys.readdir dir)

(* Own spans carry a [bench.] prefix so they never collide with the
   spans the libraries emit themselves. *)
let span name f = Trace.with_span ("bench." ^ name) (fun _ -> f ())

let sorted xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  a

let median xs =
  let a = sorted xs in
  let n = Array.length a in
  if n = 0 then nan
  else if n mod 2 = 1 then a.(n / 2)
  else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

(* Nearest-rank percentile: always an observed sample. *)
let percentile a q =
  let n = Array.length a in
  let i = int_of_float (ceil (q *. float_of_int n)) - 1 in
  a.(max 0 (min (n - 1) i))

(* The tail of the op times: percentile [q], fixed per workload, or
   the median when [q = 0.5] (too few ops for a tail).  Each workload
   runs at least [min_ops q] ops, so that at least ten lie beyond the
   percentile whatever the host's speed, and the percentile does not
   move with the number of ops a run completes. *)
let tail q xs = if q = 0.5 then median xs else percentile (sorted xs) q

let min_ops q = if q = 0.5 then 1 else int_of_float (Float.round (10. /. (1. -. q)))

(* VmHWM of a process, in MiB. *)
let peak_rss_mb pid =
  let path =
    match pid with None -> "/proc/self/status" | Some p -> Printf.sprintf "/proc/%d/status" p
  in
  In_channel.with_open_text path In_channel.input_all
  |> String.split_on_char '\n'
  |> List.find_map (fun line ->
         match String.split_on_char ':' line with
         | [ "VmHWM"; v ] ->
             Scanf.sscanf (String.trim v) "%d kB" (fun kb -> Some (float_of_int kb /. 1024.))
         | _ -> None)
  |> Option.value ~default:nan

(* Usable parallelism: the same CPU-bound spin on one domain, then on
   [nproc] domains at once.  [nproc] domains that really run in
   parallel give [nproc]; a host that time-slices them gives ~1. *)
let spin n =
  let r = ref 0 in
  for i = 1 to n do
    r := Sys.opaque_identity (!r lxor (i * 2654435761))
  done;
  !r

let parallelism ~nproc =
  let n = ref 1_000_000 in
  while snd (timed (fun () -> spin !n)) < 0.04 do
    n := !n * 2
  done;
  let probe () =
    let _, t1 = timed (fun () -> spin !n) in
    let _, tn =
      timed (fun () ->
          List.init nproc (fun _ -> Domain.spawn (fun () -> spin !n))
          |> List.iter (fun d -> ignore (Domain.join d)))
    in
    float_of_int nproc *. t1 /. tn
  in
  median (List.init 7 (fun _ -> probe ()))

(* Set-up time: [f] runs [n] times and the median processor time is
   kept, with the first result.  Later results are dropped at once and
   every repetition starts after a full major collection, so that each
   one starts from a comparable heap. *)
let setup_median n f =
  let once () =
    Gc.full_major ();
    cpu_timed f
  in
  let first, t = once () in
  (first, median (t :: List.init (n - 1) (fun _ -> snd (once ()))))

(* ---- result line ---------------------------------------------------- *)

type metric = { name : string; value : float; unit_ : string }

let result_line ~correct ~attempted ~failed metrics =
  Json.to_string
    (Json.Obj
       [
         ("correct", Json.Bool correct);
         ("attempted", Json.Num (float_of_int attempted));
         ("failed", Json.Num (float_of_int failed));
         ( "metrics",
           Json.Obj
             (List.map
                (fun { name; value; unit_ } ->
                  (name, Json.Obj [ ("value", Json.Num value); ("unit", Json.Str unit_) ]))
                metrics) );
       ])

(* ---- per-layer aggregation of a trace -------------------------------- *)

type layer_times = { total_ms : (string, float) Hashtbl.t; self_ms : (string, float) Hashtbl.t }

(* Inclusive and self time per span name.  Self time is a span's
   duration minus that of its direct children (spans of the same
   domain, one level deeper, nested inside it). *)
let layer_times collector =
  let total_ms = Hashtbl.create 32 and self_ms = Hashtbl.create 32 in
  let add tbl k v = Hashtbl.replace tbl k (v +. Option.value ~default:0. (Hashtbl.find_opt tbl k)) in
  let dur (s : Trace.completed) =
    Noc_obs.Clock.ms_between ~start_ns:s.Trace.start_ns ~stop_ns:s.Trace.stop_ns
  in
  let spans =
    List.sort
      (fun (a : Trace.completed) (b : Trace.completed) ->
        compare (a.Trace.domain, a.Trace.start_ns, a.Trace.depth)
          (b.Trace.domain, b.Trace.start_ns, b.Trace.depth))
      (Trace.completed_spans collector)
  in
  List.iter
    (fun (s : Trace.completed) ->
      add total_ms s.Trace.name (dur s);
      add self_ms s.Trace.name (dur s))
    spans;
  (* In (domain, start) order, a stack of open ancestors finds each
     span's parent. *)
  let stack = ref [] in
  List.iter
    (fun (s : Trace.completed) ->
      let rec pop = function
        | (p : Trace.completed) :: rest
          when p.Trace.domain <> s.Trace.domain || p.Trace.stop_ns < s.Trace.stop_ns
               || p.Trace.depth >= s.Trace.depth ->
            pop rest
        | st -> st
      in
      stack := pop !stack;
      (match !stack with
      | p :: _ when p.Trace.depth = s.Trace.depth - 1 -> add self_ms p.Trace.name (-.dur s)
      | _ -> ());
      stack := s :: !stack)
    spans;
  { total_ms; self_ms }

let total t name = Option.value ~default:0. (Hashtbl.find_opt t.total_ms name)
let self t name = Option.value ~default:0. (Hashtbl.find_opt t.self_ms name)

let traced collector f =
  Trace.install collector;
  Fun.protect ~finally:Trace.uninstall f

(* [rounds] rounds of [f i], each once untraced and then once traced
   into [collector]; alternating keeps heap growth and other drift out
   of the comparison.  Returns the untraced results, the traced ones,
   and traced wall time over untraced wall time. *)
let alternate collector rounds f =
  let pairs =
    List.init rounds (fun i ->
        let u = timed (fun () -> f i) in
        (u, traced collector (fun () -> timed (fun () -> f i))))
  in
  let wall xs = List.fold_left (fun a (_, w) -> a +. w) 0. xs in
  let us = List.map fst pairs and ts = List.map snd pairs in
  (List.map fst us, List.map fst ts, wall ts /. wall us)

(* ---- shared by the workloads ---------------------------------------- *)

type config = {
  seed : int;
  seconds : float;
  trace : bool;
  noc_tool : string;  (** The [noc_tool] binary, for the daemon. *)
  tmp : string;  (** Scratch directory inside the checkout. *)
}

type outcome = {
  attempted : int;
  failed : int;
  metrics : (string * float) list;
      (** End-to-end metrics, or per-layer ones on a traced run. *)
  notes : string list;  (** Human-readable lines printed before the result. *)
}

(* Links of the designs synthesized with [probe]. *)
let probed_links = ref 0

(* [Custom.synthesize] under its own span.  With [probe], the mapping
   and routing steps it runs inside are also timed apart (mapping
   before, routing on a copy after), so that link construction can be
   read off as the remainder. *)
let synthesize ~probe traffic ~n_switches =
  let open Noc_model in
  if probe then ignore (span "mapping" (fun () -> Noc_synth.Mapping.cluster traffic ~n_switches));
  let net = span "synthesize" (fun () -> Noc_synth.Custom.synthesize_exn traffic ~n_switches) in
  if probe then begin
    probed_links := !probed_links + Topology.n_links (Network.topology net);
    let copy = Network.copy net in
    match span "routing" (fun () -> Routing.route_all_load_aware copy) with
    | Ok () -> ()
    | Error e -> failwith ("routing probe: " ^ e)
  end;
  net

(* The synth.* and noc.routing_ms metrics of a traced run whose
   synthesis calls were all probed. *)
let synth_metrics lt =
  let mapping = total lt "bench.mapping" and synth = total lt "bench.synthesize"
  and routing = total lt "bench.routing" in
  [
    ("synth.mapping_ms", mapping);
    ("synth.synthesize_ms", synth);
    ("synth.links_ms", synth -. mapping -. routing);
    ("synth.links", float_of_int !probed_links);
    ("noc.routing_ms", routing);
  ]

(* Seeds of derived inputs: distinct per (seed, stream, index). *)
let derive seed stream i = (seed * 1_000_003) + (stream * 10_007) + i
