(* One fresh process, three first-time concurrent uses of process-wide
   state: a two-domain Pool.run, two Engine.runs started together on
   two domains, and two domains making a fresh store's first lookups.  Exits 1 on any exception; a pool whose worker died
   hangs instead, which the caller's timeout turns into a failure.

   Run with: make race-smoke (300 processes, 0 failures required). *)

let pool_round () =
  let xs = List.init 16 Fun.id in
  let ys = Noc_pool.Pool.run ~domains:2 (fun x -> x * x) xs in
  if ys <> List.map (fun x -> x * x) xs then failwith "Pool.run: wrong results"

(* Both domains spin until the other is ready, so their runs conclude
   (and register the sim counters) at nearly the same moment. *)
let engine_round () =
  let ready = Atomic.make 0 in
  let runner () =
    (* Each domain gets its own network, built here on the main one. *)
    let net = (Noc_experiments.Ring_example.build ()).Noc_experiments.Ring_example.net in
    let packets = Noc_sim.Traffic_gen.burst net ~packet_length:8 ~packets_per_flow:2 in
    fun () ->
      Atomic.incr ready;
      while Atomic.get ready < 2 do
        Domain.cpu_relax ()
      done;
      match Noc_sim.Engine.run net packets with
      | Noc_sim.Engine.Deadlocked _ -> ()
      | Noc_sim.Engine.Completed _ | Noc_sim.Engine.Timed_out _ ->
          failwith "Engine.run: the paper's ring must deadlock"
  in
  let run_a = runner () and run_b = runner () in
  let a = Domain.spawn run_a and b = Domain.spawn run_b in
  Domain.join a;
  Domain.join b

(* The store's counters must exist before any worker's first lookup. *)
let store_round () =
  let open Noc_service in
  let store = Store.memory ~capacity:4 in
  let ready = Atomic.make 0 in
  let worker key () =
    Atomic.incr ready;
    while Atomic.get ready < 2 do
      Domain.cpu_relax ()
    done;
    ignore (Store.find store key);
    ignore (Store.store store key (Outcome.done_ [ ("k", 1.) ]));
    if Store.find store key = None then failwith "Store: lost an entry"
  in
  let a = Domain.spawn (worker "aaa") and b = Domain.spawn (worker "bbb") in
  Domain.join a;
  Domain.join b;
  let s = Store.stats store in
  if s.Store.hits <> 2 || s.Store.misses <> 2 then
    failwith "Store: wrong hit/miss counts"

let () =
  match
    pool_round ();
    engine_round ();
    store_round ()
  with
  | () -> ()
  | exception e ->
      prerr_endline ("race_smoke: " ^ Printexc.to_string e);
      exit 1
