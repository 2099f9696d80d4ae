(* serve-mixed: a closed loop against a [noc_tool serve] child process.
   One connection keeps one request outstanding and each reply
   releases the next submit.  The seeded job mix is about one
   third each of removal jobs on inline synthetic designs (large
   frames, heavy lint and removal, no synthesis in the daemon),
   registry jobs of every method, and repeats of earlier jobs (warm
   store hits).  Every pass starts a daemon on a fresh store, so every
   pass sees the same mix of misses and hits. *)

open Noc_model
open Noc_service
open Measure
module Rng = Noc_benchmarks.Rng

(* One pass is [3 * inline_designs * 2] jobs: each inline design under
   two removal variants, as many registry jobs (a quarter per method),
   and as many repeats. *)
let inline_designs = 24

let tail_q = 0.99

(* A traced run replays one pass in process this many times, untraced
   and traced alternately. *)
let replay_rounds = 2

let draw rng bound =
  let v, r = Rng.int !rng bound in
  rng := r;
  v

let shuffle rng a =
  for k = Array.length a - 1 downto 1 do
    let j = draw rng (k + 1) in
    let t = a.(k) in
    a.(k) <- a.(j);
    a.(j) <- t
  done;
  a

let forward = Noc_deadlock.Cost_table.Forward
let backward = Noc_deadlock.Cost_table.Backward

let removal directions =
  match Job.removal_defaults with
  | Job.Removal r -> Job.Removal { r with directions }
  | m -> m

(* Inline designs on an even ladder of 64 to 248 cores, four cores per
   switch, in the textual design format the daemon parses.  The seed
   picks each design's flows; the ladder keeps the work per pass
   comparable across seeds. *)
let inline_texts ~probe seed =
  List.init inline_designs (fun k ->
      let n_cores = 64 + (8 * k) in
      let traffic =
        Noc_benchmarks.Synthetic.uniform ~n_cores ~flows_per_core:3 ~seed:(derive seed 3 k)
      in
      Io.save (synthesize ~probe traffic ~n_switches:(n_cores / 4)))

(* Registry job [i] of a pass: the method cycles with [i], then the
   benchmark, then the method's variant, and the switch count runs
   over 8 to 20, so every seed gives the same mix; the seed picks the
   simulation workloads' own seeds. *)
let registry_job rng i =
  let specs = Array.of_list Noc_benchmarks.Registry.all in
  let spec = specs.(i / 4 mod Array.length specs) in
  let variant = i / (4 * Array.length specs) mod 2 = 0 in
  let design =
    Job.Benchmark
      {
        name = spec.Noc_benchmarks.Spec.name;
        n_switches = 8 + (i * 5 mod 13);
        max_degree = Job.default_max_degree;
      }
  in
  let seed = draw rng 1_000_000 in
  let method_ =
    match i mod 4 with
    | 0 -> removal (if variant then [ forward; backward ] else [ forward ])
    | 1 ->
        let strategy =
          Noc_deadlock.Resource_ordering.(if variant then Greedy_ordered else Hop_index)
        in
        Job.Resource_ordering { strategy }
    | 2 -> Job.Sweep
    | _ ->
        let workload =
          let open Noc_benchmarks.Workloads in
          match i / 4 mod 3 with
          | 0 -> Uniform_random { packet_length = 4; duration = 512; rate = 0.05; seed }
          | 1 -> Hotspot { packet_length = 4; duration = 512; rate = 0.05; factor = 4.; seed }
          | _ ->
              Bursty
                { request_length = 1; response_length = 8; duration = 512; exchanges = 2; idle = 64; seed }
        in
        Job.simulate ~prepare:(if variant then Job.Removal_first else Job.Ordering_first) workload
  in
  { Job.design; method_ }

type entry = { job : Job.t; original : int option  (** The earlier job this one repeats. *) }

(* The seeded job sequence of one pass.  Fresh jobs come in pairs:
   each inline design under two removal variants, and each (method,
   benchmark) of the registry under two variants.  One job of every
   pair is repeated later in the pass, so every pass has the same mix
   of fresh work and warm hits; the seed picks the order, which job of
   a pair repeats, and where the repeat falls after its original.
   Fresh jobs are pairwise distinct, so exactly the repeats hit the
   store. *)
let job_list seed texts =
  let rng = ref (Rng.make (derive seed 4 0)) in
  let seen = Hashtbl.create 256 in
  let rec registry i =
    let job = registry_job rng i in
    if Hashtbl.mem seen (Job.hash job) then registry i
    else begin
      Hashtbl.add seen (Job.hash job) ();
      job
    end
  in
  let inline_pairs =
    List.map
      (fun text ->
        let job dirs = { Job.design = Job.Inline text; method_ = removal dirs } in
        (job [ forward; backward ], job (if draw rng 2 = 0 then [ forward ] else [ backward ])))
      texts
  in
  let half = List.length inline_pairs in
  let registry_jobs = Array.init (2 * half) registry in
  let pairs = inline_pairs @ List.init half (fun i -> (registry_jobs.(i), registry_jobs.(i + half))) in
  let fresh = shuffle rng (Array.of_list (List.concat_map (fun (a, b) -> [ a; b ]) pairs)) in
  let n = Array.length fresh in
  let position = Hashtbl.create n in
  Array.iteri (fun k j -> Hashtbl.replace position (Job.hash j) k) fresh;
  (* Sort keys: fresh job [k] at [k], a repeat somewhere after its
     original. *)
  let repeats =
    List.map
      (fun (a, b) ->
        let p = Hashtbl.find position (Job.hash (if draw rng 2 = 0 then a else b)) in
        let r = float_of_int (draw rng 1_000_000) /. 1e6 in
        (float_of_int p +. 0.5 +. (r *. (float_of_int (n - p) -. 0.5)), Some p))
      pairs
  in
  let order =
    List.stable_sort compare (List.init n (fun k -> (float_of_int k, None)) @ repeats)
    |> Array.of_list
  in
  let final = Array.make n 0 in
  Array.iteri (fun i (_, o) -> if o = None then final.(int_of_float (fst order.(i))) <- i) order;
  Array.map
    (fun (key, o) ->
      match o with
      | None -> { job = fresh.(int_of_float key); original = None }
      | Some p -> { job = fresh.(p); original = Some final.(p) })
    order

(* ---- the daemon ------------------------------------------------------ *)

type daemon = { pid : int; client : Client.t }

let live = ref []

let () =
  at_exit (fun () ->
      List.iter
        (fun pid ->
          (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
          try ignore (Unix.waitpid [] pid) with Unix.Unix_error _ -> ())
        !live)

let start_daemon cfg ~dir ~domains =
  Unix.mkdir dir 0o755;
  let socket = Filename.concat dir "d.sock" in
  let log = Unix.openfile (Filename.concat dir "daemon.log") [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o644 in
  let null = Unix.openfile "/dev/null" [ Unix.O_RDONLY ] 0 in
  let pid =
    Unix.create_process cfg.noc_tool
      [|
        cfg.noc_tool; "serve"; "--socket"; socket; "--store"; Filename.concat dir "store";
        "-j"; string_of_int domains;
      |]
      null log log
  in
  Unix.close log;
  Unix.close null;
  live := pid :: !live;
  let deadline = now_s () +. 10. in
  let rec connect () =
    match Client.connect ~socket with
    | Ok client -> { pid; client }
    | Error e when now_s () > deadline -> failwith ("daemon did not come up: " ^ e)
    | Error _ ->
        Unix.sleepf 0.005;
        connect ()
  in
  connect ()

(* Longest wait, in seconds, for one reply and for a daemon's drain.
   A request or drain past its limit fails, so that a daemon that stops
   answering ends the run with a failure instead of hanging it. *)
let reply_limit_s = 30
let drain_limit_s = 10

(* The alarm only has to interrupt a blocking read or wait (EINTR). *)
let () = Sys.set_signal Sys.sigalrm (Sys.Signal_handle ignore)

let within limit f =
  ignore (Unix.alarm limit);
  Fun.protect ~finally:(fun () -> ignore (Unix.alarm 0)) f

(* Asks the daemon to drain and waits for it, killing it when it has
   not exited in time; returns its peak RSS and whether it drained. *)
let stop_daemon d =
  let rss = peak_rss_mb (Some d.pid) in
  Client.close d.client;
  Unix.kill d.pid Sys.sigterm;
  let drained =
    match within drain_limit_s (fun () -> Unix.waitpid [] d.pid) with
    | _ -> true
    | exception Unix.Unix_error (Unix.EINTR, _, _) ->
        Unix.kill d.pid Sys.sigkill;
        ignore (Unix.waitpid [] d.pid);
        false
  in
  live := List.filter (( <> ) d.pid) !live;
  (rss, drained)

let drain_problem drained =
  if drained then []
  else [ Printf.sprintf "daemon did not drain within %d s of SIGTERM" drain_limit_s ]

(* ---- the closed loop ------------------------------------------------- *)

type reply = {
  response : Wire.response;
  latency_s : float;  (** Wall time from send to reply; [nan] when it never came. *)
  cpu_s : float;  (** Processor time of the client and every daemon thread meanwhile. *)
}

let answered r = not (Float.is_nan r.latency_s)

(* One request outstanding at a time, so a repeat always follows its
   original's reply and is a warm hit, and all the processor time the
   daemon spends between a send and its reply belongs to that request.
   When a reply does not come, the pass stops and every request
   without a reply carries an [Error_msg] saying why.  Also returns
   the processor time of the whole pass. *)
let closed_loop d entries =
  let n = Array.length entries in
  let replies = Array.make n None in
  let stuck = ref None in
  (* The client's clock is read inside the daemon's, so that the
     client's time spent reading the daemon's stays out. *)
  let start () =
    let daemon = process_cpu_s d.pid in
    daemon +. Sys.time ()
  and stop () =
    let client = Sys.time () in
    client +. process_cpu_s d.pid
  in
  let pass0 = start () in
  let i = ref 0 in
  while !stuck = None && !i < n do
    let c0 = start () and t0 = now_s () in
    match Client.request d.client (Wire.Submit { id = !i; corr = None; job = entries.(!i).job }) with
    | Error e -> stuck := Some e
    | Ok () -> (
        match within reply_limit_s (fun () -> Client.next_response d.client) with
        | Ok ((Wire.Result { id; _ } | Wire.Rejected { id; _ } | Wire.Overloaded { id; _ }) as response)
          when id = !i ->
            let latency_s = now_s () -. t0 in
            replies.(id) <- Some { response; latency_s; cpu_s = stop () -. c0 };
            incr i
        | Ok _ -> stuck := Some "unexpected reply to a submit"
        | Error e -> stuck := Some e)
  done;
  let missing =
    Printf.sprintf "no reply within %d s (%s)" reply_limit_s (Option.value ~default:"" !stuck)
  in
  ( Array.map
      (function
        | Some r -> r | None -> { response = Wire.Error_msg missing; latency_s = nan; cpu_s = nan })
      replies,
    stop () -. pass0 )

let result_hash = function
  | Wire.Result { outcome; _ } -> Some (Outcome.result_hash outcome)
  | _ -> None

(* Why a reply fails its check, if it does. *)
let problem entries replies i =
  match replies.(i).response with
  | Wire.Result { outcome; _ } when not (Outcome.is_done outcome) -> Some "job did not finish"
  | Wire.Result { outcome; _ }
    when Outcome.metric outcome "deadlocked" = Some 1. || Outcome.metric outcome "timed_out" = Some 1. ->
      Some "prepared design deadlocked or timed out in simulation"
  | Wire.Result _ -> (
      match entries.(i).original with
      | Some j when result_hash replies.(j).response <> result_hash replies.(i).response ->
          Some "repeat differs from its original"
      | _ -> None)
  | Wire.Rejected { reason; _ } -> Some ("rejected: " ^ reason)
  | Wire.Overloaded _ -> Some "overloaded"
  | Wire.Error_msg e -> Some e
  | _ -> Some "unexpected reply"

let vcs_added entries replies =
  let sum = ref 0. in
  Array.iteri
    (fun i e ->
      match (e.job.Job.method_, e.original, replies.(i).response) with
      | Job.Removal _, None, Wire.Result { outcome; _ } ->
          sum := !sum +. Option.value ~default:0. (Outcome.metric outcome "vcs_added")
      | _ -> ())
    entries;
  !sum

(* ---- in-process replay for the traced run ----------------------------- *)

(* The daemon's request path without the daemon: decode, lint, store
   lookup, run and store on a miss, encode.  Returns each job's result
   hash and whether it was a store hit. *)
let replay ~dir entries =
  let store = Store.create ~root:dir ~capacity:4096 in
  Array.mapi
    (fun i e ->
      let frame = Wire.encode_request (Wire.Submit { id = i; corr = None; job = e.job }) in
      let job =
        span "decode" (fun () ->
            let d = Wire.decoder () in
            Wire.feed_string d frame;
            match Wire.next d with
            | Ok (Some json) -> (
                match Wire.request_of_json json with
                | Ok (Wire.Submit { job; _ }) -> job
                | _ -> failwith "replay: bad request")
            | _ -> failwith "replay: bad frame")
      in
      match span "lint" (fun () -> Lint.vet_job job) with
      | Error reason -> (Error reason, false)
      | Ok () ->
          let hash = Job.hash job in
          let outcome, cached =
            match span "store_read" (fun () -> Store.find store hash) with
            | Some o -> (o, true)
            | None ->
                let o = span "run" (fun () -> Runner.execute job) in
                ignore (span "store_write" (fun () -> Store.store store hash o));
                (o, false)
          in
          ignore
            (span "encode" (fun () ->
                 Wire.encode_response (Wire.Result { id = i; job_hash = hash; outcome; cached })));
          (Ok (Outcome.result_hash outcome), cached))
    entries

(* ---- the workload ---------------------------------------------------- *)

(* The median and p99 of the daemon's pool queue wait. *)
let queue_wait client =
  match within reply_limit_s (fun () -> Client.metrics client) with
  | Error e -> Error e
  | Ok report ->
      Result.map
        (fun ms ->
          let h =
            List.find_opt (fun m -> Noc_obs.Metrics.metric_base m = "noc_pool_queue_wait_ms") ms
          in
          let q p = Option.bind h (Noc_obs.Metrics.quantile ~q:p) |> Option.value ~default:0. in
          (q 0.5, q 0.99))
        (Noc_obs.Expo.metrics_of_json report.Wire.mr_metrics)

(* Request time per kind of job, summed over the passes. *)
let kind_notes entries passes =
  let kind e =
    match (e.original, e.job.Job.design, e.job.Job.method_) with
    | Some _, _, _ -> "repeat"
    | None, Job.Inline _, _ -> "inline removal"
    | None, _, Job.Removal _ -> "registry removal"
    | None, _, Job.Resource_ordering _ -> "registry ordering"
    | None, _, Job.Sweep -> "registry sweep"
    | None, _, Job.Simulate _ -> "registry simulate"
  in
  let tbl = Hashtbl.create 8 in
  List.iter
    (fun (replies, _, _, _) ->
      Array.iteri
        (fun i e ->
          if answered replies.(i) then begin
            let k = kind e in
            let n, t = Option.value ~default:(0, 0.) (Hashtbl.find_opt tbl k) in
            Hashtbl.replace tbl k (n + 1, t +. replies.(i).cpu_s)
          end)
        entries)
    passes;
  Hashtbl.fold
    (fun k (n, t) acc -> Printf.sprintf "%s: %d requests, %.1f ms mean processor time" k n (t *. 1000. /. float_of_int n) :: acc)
    tbl []
  |> List.sort compare

let deciles what ms =
  let a = sorted ms in
  Printf.sprintf "latency deciles, %s (ms): %s" what
    (String.concat " "
       (List.init 9 (fun k -> Printf.sprintf "%.1f" (percentile a (float_of_int (k + 1) /. 10.)))))

let run cfg =
  (* One worker domain, whatever the probe says: on a shared virtual
     host the usable parallelism the probe measures swings between 1
     and 2 from one minute to the next, and a daemon sized from it
     would make the runs of one commit bimodal.  The probe is still
     recorded with every run. *)
  let domains = 1 in
  let dir_n = ref 0 in
  let fresh_dir () =
    incr dir_n;
    Filename.concat cfg.tmp (Printf.sprintf "d%d" !dir_n)
  in
  let setup ~probe () =
    let entries = job_list cfg.seed (inline_texts ~probe cfg.seed) in
    let d = start_daemon cfg ~dir:(fresh_dir ()) ~domains in
    (match Client.ping d.client with Ok () -> () | Error e -> failwith e);
    (entries, d)
  in
  let check entries replies =
    List.filter_map
      (fun i -> Option.map (fun p -> Printf.sprintf "job %d (%s): %s" i (Job.label entries.(i).job) p)
          (problem entries replies i))
      (List.init (Array.length entries) Fun.id)
  in
  let host_note = Printf.sprintf "daemon -j %d, one request outstanding" domains in
  if not cfg.trace then begin
    (* As [setup_median], but each daemon is stopped outside the
       timing; its start-up is its processor time up to the first
       ping reply. *)
    let setups =
      List.init 3 (fun _ ->
          Gc.full_major ();
          let (entries, d), s = cpu_timed (fun () -> setup ~probe:false ()) in
          let s = s +. process_cpu_s d.pid in
          ignore (stop_daemon d);
          (entries, s))
    in
    let entries = fst (List.hd setups) in
    let t0 = now_s () in
    (* Passes end early after one in which the daemon stopped
       answering. *)
    let rec loop acc =
      if
        (List.length acc * Array.length entries >= min_ops tail_q && now_s () -. t0 >= cfg.seconds)
        || List.exists (fun (r, _, _, _) -> not (Array.for_all answered r)) acc
      then List.rev acc
      else begin
        let d = start_daemon cfg ~dir:(fresh_dir ()) ~domains in
        let replies, cpu = closed_loop d entries in
        let rss, drained = stop_daemon d in
        loop ((replies, cpu, rss, drained) :: acc)
      end
    in
    let passes = loop [] in
    let first, _, _, _ = List.hd passes in
    let problems =
      List.concat_map
        (fun (replies, _, _, drained) ->
          check entries replies @ drain_problem drained
          @ List.filter_map
              (fun i ->
                if
                  answered replies.(i) && answered first.(i)
                  && result_hash replies.(i).response <> result_hash first.(i).response
                then Some (Printf.sprintf "job %d differs from the first pass" i)
                else None)
              (List.init (Array.length entries) Fun.id))
        passes
    in
    let op_ms field =
      List.concat_map
        (fun (r, _, _, _) ->
          List.filter_map (fun x -> if answered x then Some (field x *. 1000.) else None) (Array.to_list r))
        passes
    in
    let lat_ms = op_ms (fun x -> x.cpu_s) and wall_ms = op_ms (fun x -> x.latency_s) in
    let n = List.length lat_ms in
    {
      attempted = List.length passes * Array.length entries;
      failed = List.length problems;
      metrics =
        [
          ("op_p50_ms", median lat_ms);
          ("op_tail_ms", tail tail_q lat_ms);
          ("ops_per_s", float_of_int n /. List.fold_left (fun a (_, w, _, _) -> a +. w) 0. passes);
          ("vcs_added", vcs_added entries first);
          ("peak_rss_mb", median (List.map (fun (_, _, r, _) -> r) passes));
          ("setup_s", median (List.map snd setups));
        ];
      notes =
        List.map (( ^ ) "FAILED ") problems
        @ (host_note :: kind_notes entries passes)
        @ [
            deciles "processor time" lat_ms;
            deciles "wall time" wall_ms;
            Printf.sprintf
              "op = one request, send to reply, in processor time of client and daemon; %d passes; \
               tail = p%g of %d requests"
              (List.length passes) (tail_q *. 100.) n;
          ];
    }
  end
  else begin
    let c0 = Trace.create () in
    let entries, d = traced c0 (fun () -> setup ~probe:true ()) in
    let setup_lt = layer_times c0 in
    let replies, _ = closed_loop d entries in
    let queue_wait = queue_wait d.client in
    let _, drained = stop_daemon d in
    let c = Trace.create () in
    let untraced, ts, overhead = alternate c replay_rounds (fun _ -> replay ~dir:(fresh_dir ()) entries) in
    let lt = layer_times c in
    let daemon_hashes = Array.map (fun r -> result_hash r.response) replies in
    let replay_problems =
      List.concat_map
        (fun hs ->
          List.filter_map
            (fun i ->
              match hs.(i) with
              | Ok h, _ when Some h = daemon_hashes.(i) || not (answered replies.(i)) -> None
              | Ok _, _ -> Some (Printf.sprintf "job %d: daemon result differs from Runner.execute" i)
              | Error e, _ -> Some (Printf.sprintf "job %d: rejected in process: %s" i e))
            (List.init (Array.length entries) Fun.id))
        (untraced @ ts)
    in
    let qw50, qw99, queue_problem =
      match queue_wait with
      | Ok (p50, p99) -> (p50, p99, [])
      | Error e -> (0., 0., [ "daemon metrics: " ^ e ])
    in
    let problems = check entries replies @ drain_problem drained @ queue_problem @ replay_problems in
    let hits = List.fold_left (fun a hs -> a + Array.fold_left (fun a (_, c) -> if c then a + 1 else a) 0 hs) 0 ts in
    let rejected =
      Array.fold_left
        (fun a r -> match r.response with Wire.Rejected _ | Wire.Overloaded _ -> a + 1 | _ -> a)
        0 replies
    in
    {
      attempted = Array.length entries * (1 + (2 * replay_rounds));
      failed = List.length problems;
      metrics =
        synth_metrics setup_lt
        @ [
            ("noc.cdg_build_ms", total lt "cdg.build");
            ("deadlock.removal_ms", total lt "removal.run");
            ("deadlock.find_cycle_ms", total lt "removal.find_cycle");
            ("deadlock.cdg_update_ms", total lt "removal.cdg_update");
            ("deadlock.cost_tables_ms", total lt "removal.cost_tables");
            ("deadlock.break_ms", total lt "removal.break");
            ("deadlock.ordering_ms", total lt "resource_ordering.apply");
            ("sim.engine_ms", total lt "sim.run");
            ("service.decode_ms", self lt "bench.decode");
            ("service.lint_ms", self lt "bench.lint");
            ("service.run_ms", self lt "bench.run");
            ("service.store_read_ms", self lt "bench.store_read");
            ("service.store_write_ms", self lt "bench.store_write");
            ("service.encode_ms", self lt "bench.encode");
            ("service.store_hit_ratio", float_of_int hits /. float_of_int (replay_rounds * Array.length entries));
            ("service.rejected", float_of_int rejected);
            ("pool.queue_wait_p50_ms", qw50);
            ("pool.queue_wait_p99_ms", qw99);
            ("obs.trace_overhead_ratio", overhead);
          ];
      notes =
        List.map (( ^ ) "FAILED ") problems
        @ [
            host_note;
            Printf.sprintf "traced slice: one daemon pass, then %d in-process replays of it, untraced and traced alternately"
              replay_rounds;
          ];
    }
  end
