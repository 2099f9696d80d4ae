(* Duato's condition in action (the paper's ref. [12]): fully adaptive
   minimal routing on a mesh is deadlock-prone on its own, but adding
   an XY escape lane (VC 0) makes it provably deadlock-free — and the
   adaptive wormhole simulator confirms the proof behaviourally.

   Run with: dune exec examples/adaptive_duato.exe *)

open Noc_model

let columns = 3
let rows = 3
let n = columns * rows

let build_network () =
  let topo = Noc_synth.Regular.mesh ~columns ~rows in
  (* Second VC on every link: VC 0 will be the escape lane, VC 1 the
     adaptive lane. *)
  List.iter
    (fun (l : Topology.link) -> ignore (Topology.add_vc topo l.Topology.id))
    (Topology.links topo);
  let traffic = Traffic.create ~n_cores:n in
  for s = 0 to n - 1 do
    for d = 0 to n - 1 do
      if s <> d then
        ignore
          (Traffic.add_flow traffic ~src:(Ids.Core.of_int s)
             ~dst:(Ids.Core.of_int d) ~bandwidth:10.)
    done
  done;
  Network.make ~topology:topo ~traffic ~mapping:(fun c ->
      Ids.Switch.of_int (Ids.Core.to_int c))

let () =
  let net = build_network () in
  Format.printf
    "3x3 mesh, 2 VCs per link, all-to-all traffic, fully adaptive minimal \
     routing.@.@.";
  (* Without an escape structure: treat every channel as escape, i.e.
     require the whole adaptive CDG to be acyclic.  It is not. *)
  let fully_adaptive = Routing_function.minimal_adaptive net in
  let naive =
    Noc_deadlock.Duato.check net fully_adaptive
      ~escape:Noc_deadlock.Duato.escape_everything
  in
  Format.printf "1) All channels as escape (plain CDG acyclicity):@.%a@.@."
    Noc_deadlock.Duato.pp_verdict naive;
  (* With the XY escape lane on VC 0. *)
  let rf = Noc_synth.Mesh_routing.adaptive_with_xy_escape ~columns ~rows net in
  let verdict =
    Noc_deadlock.Duato.check net rf ~escape:(fun c -> Channel.vc c = 0)
  in
  Format.printf "2) VC 0 as XY escape lane:@.%a@.@." Noc_deadlock.Duato.pp_verdict
    verdict;
  (* And a broken escape set, to show the connectivity side trips. *)
  let broken =
    Noc_deadlock.Duato.check net rf ~escape:(fun c ->
        Channel.vc c = 0 && Ids.Link.to_int (Channel.link c) mod 5 <> 0)
  in
  Format.printf "3) Escape set with holes (every 5th link removed):@.%a@.@."
    Noc_deadlock.Duato.pp_verdict broken;
  (* Behavioural confirmation: the adaptive simulator completes a
     stress burst under the protected function. *)
  let workload =
    Noc_sim.Engine.workload_of_flows net ~packet_length:8
      ~packets_per_flow:2
  in
  Format.printf "4) Adaptive simulation under the escape-protected function:@.";
  (match Noc_sim.Engine.run_adaptive net rf workload with
  | Noc_sim.Engine.Completed s ->
      Format.printf
        "   completed: %d packets in %d cycles, avg latency %.1f@.@."
        s.Noc_sim.Stats.delivered s.Noc_sim.Stats.cycles
        (Noc_sim.Stats.avg_latency s)
  | outcome ->
      Format.printf "   %a@.@." Noc_sim.Engine.pp_outcome outcome);
  (* And the same workload on an UNPROTECTED single-lane ring stalls. *)
  let ring = Noc_experiments.Ring_example.build () in
  let ring_net = ring.Noc_experiments.Ring_example.net in
  let ring_rf = Routing_function.minimal_adaptive ring_net in
  let ring_load =
    Noc_sim.Engine.workload_of_flows ring_net ~packet_length:8
      ~packets_per_flow:2
  in
  Format.printf "5) Same experiment, adaptive routing on the unprotected ring:@.";
  match Noc_sim.Engine.run_adaptive ring_net ring_rf ring_load with
  | Noc_sim.Engine.Deadlocked d ->
      Format.printf "   STALLED at cycle %d with %d flits stuck — the deadlock \
                     the paper's algorithm exists to prevent.@."
        d.Noc_sim.Engine.cycle d.Noc_sim.Engine.in_network_flits
  | outcome -> Format.printf "   %a@." Noc_sim.Engine.pp_outcome outcome
