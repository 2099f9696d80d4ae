(* sim-mixed: the wormhole simulator on prepared designs.  Designs,
   preparations and packet lists are all built during set-up, so the
   timed part is Noc_sim.Engine.run alone: removal-prepared designs
   (few VCs, long contention) and ordering-prepared ones (many VCs)
   load the engine differently. *)

open Noc_model
open Measure
module Engine = Noc_sim.Engine
module W = Noc_benchmarks.Workloads

let duration = 1024

(* Offered load per flow in flits/cycle: [low] is well below
   saturation for every design here, [high] is close to it for the
   removal-prepared ones. *)
let low = 0.03
let high = 0.05

let tail_q = 0.9

type cell = { label : string; net : Network.t; packets : Noc_sim.Packet.t list }

let registry name =
  match Noc_benchmarks.Registry.find name with
  | Some spec -> spec.Noc_benchmarks.Spec.build ()
  | None -> failwith ("unknown benchmark " ^ name)

let schedules seed =
  let s = derive seed 2 in
  [
    W.Uniform_random { packet_length = 4; duration; rate = low; seed = s 0 };
    W.Uniform_random { packet_length = 4; duration; rate = high; seed = s 1 };
    W.Hotspot { packet_length = 4; duration; rate = low; factor = 4.; seed = s 2 };
    W.Bursty
      { request_length = 1; response_length = 8; duration; exchanges = 2; idle = 256; seed = s 3 };
  ]

(* Returns the cells, the VCs the preparations added, and any design
   the static checks reject. *)
let setup ~probe seed =
  let designs =
    [
      ("D36_8@14", registry "D36_8", 14);
      ("D26_media@14", registry "D26_media", 14);
      ( "synthetic-128@32",
        Noc_benchmarks.Synthetic.uniform ~n_cores:128 ~flows_per_core:3 ~seed:(derive seed 2 99),
        32 );
    ]
  in
  let vcs = ref 0 and rejected = ref [] in
  let prepare label net how =
    let net = Network.copy net in
    (match how with
    | `Removal ->
        let r = Noc_deadlock.Removal.run net in
        vcs := !vcs + r.Noc_deadlock.Removal.vcs_added
    | `Ordering ->
        let r =
          Noc_deadlock.Resource_ordering.apply ~strategy:Noc_deadlock.Resource_ordering.Hop_index
            net
        in
        vcs := !vcs + r.Noc_deadlock.Resource_ordering.vcs_added);
    let cert = span "certify" (fun () -> Noc_deadlock.Verify.certify net) in
    let verdict = span "prove" (fun () -> Noc_analysis.Deadlock_freedom.analyze net) in
    if not (cert.Noc_deadlock.Verify.acyclic && verdict.Noc_analysis.Deadlock_freedom.deadlock_free)
    then rejected := label :: !rejected;
    net
  in
  let cells =
    List.concat_map
      (fun (name, traffic, n_switches) ->
        let net = synthesize ~probe traffic ~n_switches in
        List.concat_map
          (fun (how, how_name) ->
            let label = name ^ " " ^ how_name in
            let prepared = prepare label net how in
            List.map
              (fun spec ->
                let packets = span "workload_gen" (fun () -> W.generate prepared spec) in
                { label = label ^ " " ^ W.describe spec; net = prepared; packets })
              (schedules seed))
          [ (`Removal, "removal"); (`Ordering, "ordering") ])
      designs
  in
  (cells, !vcs, List.rev !rejected)

let digest (s : Noc_sim.Stats.t) = Digest.to_hex (Digest.string (Marshal.to_string s []))

(* The reference pass: per-packet latencies from Deliver events and
   the stats digest every timed run must reproduce. *)
let reference cell =
  let inject = Hashtbl.create 1024 in
  List.iter
    (fun (p : Noc_sim.Packet.t) -> Hashtbl.replace inject p.Noc_sim.Packet.id p.Noc_sim.Packet.inject_at)
    cell.packets;
  let lat = ref [] in
  let on_event = function
    | Noc_sim.Trace.Deliver { cycle; packet } -> lat := (cycle - Hashtbl.find inject packet) :: !lat
    | _ -> ()
  in
  match Engine.run ~on_event cell.net cell.packets with
  | Engine.Completed s -> Ok (digest s, !lat)
  | o -> Error (Format.asprintf "%a" Engine.pp_outcome o)

type run = {
  cpu : float;  (** Processor seconds. *)
  words : float;
  digest : string option;  (** [Some] iff the run completed. *)
  deadlocked : bool;
  cycles : int;
  flits : int;
}

let timed_run cell =
  let w0 = Gc.minor_words () in
  let o, cpu = cpu_timed (fun () -> Engine.run cell.net cell.packets) in
  let words = Gc.minor_words () -. w0 in
  match o with
  | Engine.Completed s ->
      let open Noc_sim.Stats in
      { cpu; words; digest = Some (digest s); deadlocked = false; cycles = s.cycles; flits = s.flits_moved }
  | Engine.Deadlocked _ -> { cpu; words; digest = None; deadlocked = true; cycles = 0; flits = 0 }
  | Engine.Timed_out _ -> { cpu; words; digest = None; deadlocked = false; cycles = 0; flits = 0 }

let run cfg =
  let (cells, vcs, rejected), setup_s, setup_lt =
    if cfg.trace then
      let c = Trace.create () in
      let r = traced c (fun () -> setup ~probe:true cfg.seed) in
      (r, nan, Some (layer_times c))
    else
      let r, setup_s = setup_median 5 (fun () -> setup ~probe:false cfg.seed) in
      (r, setup_s, None)
  in
  let refs = List.map reference cells in
  let notes =
    List.map (fun l -> "FAILED static check: " ^ l) rejected
    @ List.concat
        (List.map2
           (fun c r -> match r with Error e -> [ "FAILED reference run: " ^ c.label ^ ": " ^ e ] | Ok _ -> [])
           cells refs)
  in
  let static_failed = List.length notes in
  let pass () = List.map timed_run cells in
  (* A timed run fails when it deadlocks, times out, or its stats
     differ from the reference run of its cell. *)
  let failed passes =
    List.fold_left
      (fun acc runs ->
        List.fold_left2
          (fun acc r run ->
            match (r, run.digest) with Ok (d, _), Some d' when d = d' -> acc | _ -> acc + 1)
          acc refs runs)
      0 passes
  in
  if not cfg.trace then begin
    let t0 = now_s () in
    let rec loop n acc =
      if n >= min_ops tail_q && now_s () -. t0 >= cfg.seconds then acc else loop (n + 1) (pass () :: acc)
    in
    let passes = loop 0 [] in
    let times_ms = List.map (fun p -> List.fold_left (fun a r -> a +. r.cpu) 0. p *. 1000.) passes in
    let n = List.length times_ms in
    {
      attempted = (n * List.length cells) + List.length cells;
      failed = failed passes + static_failed;
      metrics =
        [
          ("op_p50_ms", median times_ms);
          ("op_tail_ms", tail tail_q times_ms);
          ("ops_per_s", float_of_int n /. (List.fold_left ( +. ) 0. times_ms /. 1000.));
          ("vcs_added", float_of_int vcs);
          ("peak_rss_mb", peak_rss_mb None);
          ("setup_s", setup_s);
        ];
      notes =
        notes
        @ List.mapi
            (fun i c ->
              Printf.sprintf "%s: median %.2f ms CPU" c.label
                (median (List.map (fun p -> (List.nth p i).cpu *. 1000.) passes)))
            cells
        @ [
            Printf.sprintf "op = one pass of engine runs over the %d cells; tail = p%g of %d passes"
              (List.length cells) (tail_q *. 100.) n;
          ];
    }
  end
  else begin
    let passes = 3 in
    let c = Trace.create () in
    let untraced, ts, overhead = alternate c passes (fun _ -> pass ()) in
    let lt = layer_times c in
    let setup_lt = Option.get setup_lt in
    let sum f = List.fold_left (fun a r -> a +. f r) 0. (List.concat untraced) in
    let flits = sum (fun r -> float_of_int r.flits) in
    let lat =
      sorted (List.concat_map (function Ok (_, l) -> List.map float_of_int l | Error _ -> []) refs)
    in
    {
      attempted = (2 * passes * List.length cells) + List.length cells;
      failed = failed untraced + failed ts + static_failed;
      metrics =
        synth_metrics setup_lt
        @ [
            ("noc.cdg_build_ms", total setup_lt "cdg.build");
            ("deadlock.removal_ms", total setup_lt "removal.run");
            ("deadlock.find_cycle_ms", total setup_lt "removal.find_cycle");
            ("deadlock.cdg_update_ms", total setup_lt "removal.cdg_update");
            ("deadlock.cost_tables_ms", total setup_lt "removal.cost_tables");
            ("deadlock.break_ms", total setup_lt "removal.break");
            ("deadlock.certify_ms", total setup_lt "bench.certify");
            ("deadlock.ordering_ms", total setup_lt "resource_ordering.apply");
            ("analysis.prove_ms", total setup_lt "bench.prove");
            ("benchmarks.workload_gen_ms", total setup_lt "bench.workload_gen");
            ("sim.engine_ms", total lt "sim.run");
            ("sim.cycles", sum (fun r -> float_of_int r.cycles));
            ("sim.flits_moved", flits);
            ("sim.host_ns_per_flit_hop", sum (fun r -> r.cpu) *. 1e9 /. flits);
            ("sim.minor_words", sum (fun r -> r.words));
            ( "sim.deadlocks",
              float_of_int (List.length (List.filter (fun r -> r.deadlocked) (List.concat (untraced @ ts)))) );
            ("sim.latency_p50_cycles", percentile lat 0.5);
            ("sim.latency_p99_cycles", percentile lat 0.99);
            ("obs.trace_overhead_ratio", overhead);
          ];
      notes =
        notes
        @ List.concat
            (List.map2
               (fun c r ->
                 match r with
                 | Ok (_, l) ->
                     let a = sorted l in
                     [ Printf.sprintf "%s: %d packets, latency p50 %d p99 %d cycles" c.label
                         (Array.length a) (percentile a 0.5) (percentile a 0.99) ]
                 | Error _ -> [])
               cells refs)
        @ [ Printf.sprintf "traced slice: %d passes of %d cells" passes (List.length cells) ];
    }
  end
