open Noc_model

type config = {
  buffer_depth : int;
  max_cycles : int;
  stall_threshold : int;
  rotate_priority : bool;
  router_latency : int;
}

let default_config =
  {
    buffer_depth = 4;
    max_cycles = 200_000;
    stall_threshold = 64;
    rotate_priority = false;
    router_latency = 1;
  }

type deadlock_info = {
  cycle : int;
  in_network_flits : int;
  blocked_packets : int list;
  waits_for_cycle : int list option;
}

type outcome =
  | Completed of Stats.t
  | Deadlocked of deadlock_info
  | Timed_out of Stats.t

type workload = {
  id : int;
  flow : Ids.Flow.t;
  src : Ids.Switch.t;
  dst : Ids.Switch.t;
  length : int;
  inject_at : int;
}

let workload_of_flows net ~packet_length ~packets_per_flow =
  let next = ref 0 in
  List.concat_map
    (fun (f : Traffic.flow) ->
      let src, dst = Network.endpoints net f.Traffic.id in
      if Ids.Switch.equal src dst then []
      else
        List.init packets_per_flow (fun _ ->
            let id = !next in
            incr next;
            { id; flow = f.Traffic.id; src; dst; length = packet_length; inject_at = 0 }))
    (Traffic.flows (Network.traffic net))

(* Observability: one span around the whole run, one span per batch of
   [span_cycle_batch] cycles (per-cycle spans would swamp the trace),
   and process totals for injected/delivered flits.  The counters are
   registered (get-or-create, mutex-guarded) when a run concludes, so
   merely linking the simulator never adds sim rows to unrelated metric
   snapshots and concurrent runs on several domains are safe. *)
let span_cycle_batch = 1024

type chan_state = {
  channel : Channel.t;
  head_switch : Ids.Switch.t;  (* downstream endpoint of the link *)
  capacity : int;
  queue : buffered Queue.t;
  mutable owner : int option;  (* packet id holding the channel *)
  mutable accepted : bool;  (* a flit already entered this cycle *)
  mutable arrivals : int;  (* total flits accepted, for utilization *)
}

(* A packet in flight.  [path.(0 .. hops - 1)] are the channels its
   head has carved; the path is [complete] once it reaches [w.dst].  A
   static packet starts with its whole route carved and complete, so
   only adaptive heads ever consult the routing function. *)
and pkt = {
  w : workload;
  mutable path : chan_state array;
  mutable hops : int;
  mutable complete : bool;
  mutable sent : int;  (* flits injected so far *)
}

(* A flit sitting in a channel FIFO at position [hop] of its packet's
   path; [arrived] forbids moving twice in one cycle. *)
and buffered = { pkt : pkt; index : int; hop : int; arrived : int }

let channel_states config net ~unknown =
  let topo = Network.topology net in
  let states = Channel.Table.create 256 in
  List.iter
    (fun c ->
      Channel.Table.replace states c
        {
          channel = c;
          head_switch = (Topology.link topo (Channel.link c)).Topology.dst;
          capacity = config.buffer_depth;
          queue = Queue.create ();
          owner = None;
          accepted = false;
          arrivals = 0;
        })
    (Topology.channels topo);
  let state c =
    match Channel.Table.find_opt states c with
    | Some s -> s
    | None -> invalid_arg (Format.asprintf "%s %a" unknown Channel.pp c)
  in
  (state, List.map state (List.sort Channel.compare (Topology.channels topo)))

let append p cs =
  if p.hops = Array.length p.path then begin
    let grown = Array.make (max 8 (2 * p.hops)) cs in
    Array.blit p.path 0 grown 0 p.hops;
    p.path <- grown
  end;
  p.path.(p.hops) <- cs;
  p.hops <- p.hops + 1;
  if Ids.Switch.equal cs.head_switch p.w.dst then p.complete <- true

let on_path p cs =
  let rec go i = i < p.hops && (p.path.(i) == cs || go (i + 1)) in
  go 0

(* The one arbitration loop.  [options ~at ~dst] are the candidate
   channels of an adaptive head at the end of an incomplete path. *)
let simulate config on_event ~state ~channel_order ~options pkts =
  let total_flits = List.fold_left (fun acc p -> acc + p.w.length) 0 pkts in
  Noc_obs.Trace.with_span "sim.run"
    ~attrs:
      [
        ("packets", Noc_obs.Trace.Int (List.length pkts));
        ("flits", Noc_obs.Trace.Int total_flits);
      ]
  @@ fun run_span ->
  (* Sources keyed by flow id, packets in (inject_at, id) order. *)
  let by_flow = Hashtbl.create 64 in
  List.iter
    (fun p ->
      let k = Ids.Flow.to_int p.w.flow in
      Hashtbl.replace by_flow k
        (p :: Option.value ~default:[] (Hashtbl.find_opt by_flow k)))
    pkts;
  let sources =
    Hashtbl.fold
      (fun k ps acc ->
        let sorted =
          List.sort
            (fun a b ->
              match compare a.w.inject_at b.w.inject_at with
              | 0 -> compare a.w.id b.w.id
              | c -> c)
            ps
        in
        (k, ref sorted) :: acc)
      by_flow []
    |> List.sort (fun (a, _) (b, _) -> compare a b)
    |> List.map snd
  in
  let n_packets = List.length pkts in
  let flits_moved = ref 0 in
  let injected_flits = ref 0 in
  let ejected_flits = ref 0 in
  let acc = Stats.Accumulator.create () in
  let delivered () = Stats.Accumulator.delivered acc in
  let network_flits () =
    List.fold_left (fun n cs -> n + Queue.length cs.queue) 0 channel_order
  in
  let stats cycle =
    let channel_moves =
      List.filter_map
        (fun cs -> if cs.arrivals > 0 then Some (cs.channel, cs.arrivals) else None)
        channel_order
    in
    {
      Stats.cycles = cycle;
      delivered = delivered ();
      flits_moved = !flits_moved;
      per_flow = Stats.Accumulator.flow_stats acc;
      channel_moves;
    }
  in
  let n_channels = List.length channel_order in
  (* Service order of the channels this cycle: fixed priority, or
     rotated by one position per cycle for round-robin fairness. *)
  let service_order cycle =
    if (not config.rotate_priority) || n_channels = 0 then channel_order
    else begin
      let k = cycle mod n_channels in
      let rec split i acc rest =
        if i = k then rest @ List.rev acc
        else
          match rest with
          | x :: tl -> split (i + 1) (x :: acc) tl
          | [] -> List.rev acc
      in
      split 0 [] channel_order
    end
  in
  let may_enter p ~index cs =
    (match cs.owner with Some o -> o = p.w.id | None -> index = 0)
    && (not cs.accepted)
    && Queue.length cs.queue < cs.capacity
  in
  (* The channel flit [index], now at position [hop] of its path
     ([-1] at the source), may enter this cycle.  A carved path is
     followed; a head at the end of an incomplete one takes the first
     candidate that is free, has space, and is not already on its
     path. *)
  let next_channel p ~hop ~index ~at =
    if hop + 1 < p.hops then
      let cs = p.path.(hop + 1) in
      if may_enter p ~index cs then Some cs else None
    else if index = 0 then
      List.find_map
        (fun c ->
          let cs = state c in
          if may_enter p ~index cs && not (on_path p cs) then Some cs else None)
        (options ~at ~dst:p.w.dst)
    else None
  in
  (* Flit [index] enters [cs] at path position [hop]. *)
  let enter p ~index ~hop cs cycle =
    if cs.owner = None then begin
      cs.owner <- Some p.w.id;
      on_event (Trace.Acquire { cycle; packet = p.w.id; channel = cs.channel })
    end;
    if hop = p.hops then append p cs;
    cs.accepted <- true;
    cs.arrivals <- cs.arrivals + 1;
    Queue.push { pkt = p; index; hop; arrived = cycle } cs.queue;
    on_event (Trace.Hop { cycle; packet = p.w.id; flit = index; channel = cs.channel });
    incr flits_moved
  in
  let release p cs cycle =
    cs.owner <- None;
    on_event (Trace.Release { cycle; packet = p.w.id; channel = cs.channel })
  in
  (* One simulation cycle; returns true when anything moved. *)
  let step cycle =
    let moved = ref false in
    List.iter (fun cs -> cs.accepted <- false) channel_order;
    (* Forwarding and ejection. *)
    let forward cs =
      match Queue.peek_opt cs.queue with
      | None -> ()
      | Some b when b.arrived + config.router_latency > cycle -> ()
      | Some { pkt = p; index; hop; _ } ->
          let is_tail = index = p.w.length - 1 in
          if hop = p.hops - 1 && p.complete then begin
            (* Ejection into the destination NI: always drains. *)
            ignore (Queue.pop cs.queue);
            incr flits_moved;
            incr ejected_flits;
            moved := true;
            if is_tail then begin
              release p cs cycle;
              Stats.Accumulator.record acc ~flow:p.w.flow
                ~latency:(cycle - p.w.inject_at);
              on_event (Trace.Deliver { cycle; packet = p.w.id })
            end
          end
          else
            match next_channel p ~hop ~index ~at:cs.head_switch with
            | None -> ()
            | Some cs' ->
                ignore (Queue.pop cs.queue);
                enter p ~index ~hop:(hop + 1) cs' cycle;
                if is_tail then release p cs cycle;
                moved := true
    in
    List.iter forward (service_order cycle);
    (* Injection, one flit per flow per cycle. *)
    let inject src =
      match !src with
      | p :: rest when p.w.inject_at <= cycle -> (
          let index = p.sent in
          match next_channel p ~hop:(-1) ~index ~at:p.w.src with
          | None -> ()
          | Some cs' ->
              if index = 0 then on_event (Trace.Inject { cycle; packet = p.w.id });
              enter p ~index ~hop:0 cs' cycle;
              p.sent <- index + 1;
              incr injected_flits;
              moved := true;
              if p.sent = p.w.length then src := rest)
      | _ :: _ | [] -> ()
    in
    List.iter inject sources;
    !moved
  in
  (* Waits-for edges at stall time, for the deadlock certificate: a
     blocked flit waits on the owner of every channel it could take
     next — one for a carved path, each candidate for an adaptive
     head. *)
  let waits_for cycle =
    let edges = ref [] in
    let blocked = ref [] in
    let consider p ~hop ~index ~at =
      let pid = p.w.id in
      blocked := pid :: !blocked;
      let wanted =
        if hop + 1 < p.hops then [ p.path.(hop + 1) ]
        else if index = 0 then List.map state (options ~at ~dst:p.w.dst)
        else []
      in
      List.iter
        (fun cs ->
          match cs.owner with
          | Some q when q <> pid ->
              edges := { Deadlock_detect.waiter = pid; holder = q } :: !edges
          | Some _ | None -> ())
        wanted
    in
    List.iter
      (fun cs ->
        match Queue.peek_opt cs.queue with
        | Some { pkt = p; index; hop; _ } when not (hop = p.hops - 1 && p.complete)
          ->
            consider p ~hop ~index ~at:cs.head_switch
        | Some _ | None -> ())
      channel_order;
    List.iter
      (fun src ->
        match !src with
        | p :: _ when p.w.inject_at <= cycle ->
            consider p ~hop:(-1) ~index:p.sent ~at:p.w.src
        | _ :: _ | [] -> ())
      sources;
    (List.rev !edges, List.sort_uniq compare !blocked)
  in
  (* Span batching: one "sim.cycles" span per [span_cycle_batch] cycles
     keeps the trace readable at any simulation length.  Spans nest
     strictly inside "sim.run" (LIFO per domain), which the balanced-
     span lint pass checks. *)
  let batch_span = ref Noc_obs.Trace.null_span in
  let rotate_batch cycle =
    Noc_obs.Trace.finish !batch_span;
    batch_span :=
      Noc_obs.Trace.start
        ~attrs:[ ("cycle", Noc_obs.Trace.Int cycle) ]
        "sim.cycles"
  in
  let conclude outcome =
    Noc_obs.Trace.finish !batch_span;
    Noc_obs.Metrics.add
      (Noc_obs.Metrics.counter "noc_sim_flits_injected_total")
      !injected_flits;
    Noc_obs.Metrics.add
      (Noc_obs.Metrics.counter "noc_sim_flits_delivered_total")
      !ejected_flits;
    let name, cycles =
      match outcome with
      | Completed s -> ("completed", s.Stats.cycles)
      | Timed_out s -> ("timed-out", s.Stats.cycles)
      | Deadlocked d ->
          Noc_obs.Metrics.incr (Noc_obs.Metrics.counter "noc_sim_deadlocks_total");
          ("deadlocked", d.cycle)
    in
    Noc_obs.Trace.add_attr run_span "outcome" (Noc_obs.Trace.Str name);
    Noc_obs.Trace.add_attr run_span "cycles" (Noc_obs.Trace.Int cycles);
    Noc_obs.Trace.add_attr run_span "delivered"
      (Noc_obs.Trace.Int (delivered ()));
    outcome
  in
  let rec loop cycle stall =
    if delivered () = n_packets then conclude (Completed (stats cycle))
    else if cycle >= config.max_cycles then conclude (Timed_out (stats cycle))
    else begin
      if cycle mod span_cycle_batch = 0 then rotate_batch cycle;
      let moved = step cycle in
      let in_net = network_flits () in
      let eligible_source =
        List.exists
          (fun src ->
            match !src with p :: _ -> p.w.inject_at <= cycle | [] -> false)
          sources
      in
      let alive = in_net > 0 || eligible_source in
      let stall = if moved || not alive then 0 else stall + 1 in
      (* Deep pipelines legitimately idle for [router_latency] cycles;
         the watchdog must not mistake that for a deadlock. *)
      let threshold = max config.stall_threshold (4 * config.router_latency) in
      if stall >= threshold then begin
        let edges, blocked = waits_for cycle in
        conclude
          (Deadlocked
             {
               cycle;
               in_network_flits = in_net;
               blocked_packets = blocked;
               waits_for_cycle = Deadlock_detect.find_cycle edges;
             })
      end
      else loop (cycle + 1) stall
    end
  in
  loop 0 0

let no_event (_ : Trace.event) = ()

let run ?(config = default_config) ?(on_event = no_event) net packets =
  let state, channel_order =
    channel_states config net ~unknown:"Engine.run: packet uses unknown channel"
  in
  let topo = Network.topology net in
  let pkts =
    List.map
      (fun (p : Packet.t) ->
        let path = Array.map state p.Packet.route in
        let src = (Topology.link topo (Channel.link p.Packet.route.(0))).Topology.src in
        let w =
          {
            id = p.Packet.id;
            flow = p.Packet.flow;
            src;
            dst = path.(Array.length path - 1).head_switch;
            length = p.Packet.length;
            inject_at = p.Packet.inject_at;
          }
        in
        { w; path; hops = Array.length path; complete = true; sent = 0 })
      packets
  in
  (* Static paths arrive complete: no head ever asks for options. *)
  simulate config on_event ~state ~channel_order
    ~options:(fun ~at:_ ~dst:_ -> [])
    pkts

let run_adaptive ?(config = default_config) ?(on_event = no_event) net rf
    workloads =
  let state, channel_order =
    channel_states config net
      ~unknown:"Engine.run_adaptive: routing function offered unknown channel"
  in
  simulate config on_event ~state ~channel_order
    ~options:(Routing_function.options rf)
    (List.map
       (fun w -> { w; path = [||]; hops = 0; complete = false; sent = 0 })
       workloads)

let pp_outcome ppf = function
  | Completed s -> Format.fprintf ppf "completed: %a" Stats.pp s
  | Timed_out s -> Format.fprintf ppf "TIMED OUT: %a" Stats.pp s
  | Deadlocked d ->
      Format.fprintf ppf
        "DEADLOCK at cycle %d: %d flits stuck, %d blocked packets%a" d.cycle
        d.in_network_flits
        (List.length d.blocked_packets)
        (fun ppf -> function
          | Some cycle_ids ->
              Format.fprintf ppf ", waits-for cycle: %a"
                (Format.pp_print_list
                   ~pp_sep:(fun ppf () -> Format.fprintf ppf " -> ")
                   Format.pp_print_int)
                cycle_ids
          | None -> Format.fprintf ppf ", no waits-for cycle (starvation)")
        d.waits_for_cycle
