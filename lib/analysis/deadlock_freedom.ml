(* Independent deadlock-freedom prover.

   Everything here is deliberately self-contained: the waits-for
   relation is rebuilt from the routes with a private interning table,
   and the condition is decided by an escape-elimination fixpoint
   (reverse Kahn over waits, processed in deterministic rounds) rather
   than the DFS toposort Verify uses.  The value of the module is the
   disagreement surface: if this code and Noc_deadlock.Verify ever
   return different verdicts on the same network, one of them has a
   bug, and the NOC-DLF-001/002 lint codes make that loud. *)

open Noc_model

type verdict = {
  deadlock_free : bool;
  n_channels : int;
  n_waits : int;
  escape_order : Channel.t list option;
  knot : Channel.t list option;
  knot_cycle : Channel.t list option;
}

type bound = { lower_bound : int; disjoint_cycles : Channel.t list list }

(* Private arena: channels of the topology interned into dense indices
   (Topology.channels is ordered by link then VC, so indices are
   stable), waits deduplicated.  [succs] are the channels a flit on the
   key waits for; [preds] the reverse, used to propagate escapes. *)
type arena = {
  channels : Channel.t array;
  succs : int list array;
  preds : int list array;
  n_waits : int;
}

let build_arena net =
  let channels = Array.of_list (Topology.channels (Network.topology net)) in
  let n = Array.length channels in
  let index = Channel.Table.create (2 * max 1 n) in
  Array.iteri (fun i c -> Channel.Table.replace index c i) channels;
  let succs = Array.make n [] and preds = Array.make n [] in
  let seen = Hashtbl.create 256 in
  let n_waits = ref 0 in
  List.iter
    (fun (_flow, route) ->
      List.iter
        (fun (a, b) ->
          match
            (Channel.Table.find_opt index a, Channel.Table.find_opt index b)
          with
          | Some u, Some v when not (Hashtbl.mem seen (u, v)) ->
              Hashtbl.replace seen (u, v) ();
              succs.(u) <- v :: succs.(u);
              preds.(v) <- u :: preds.(v);
              incr n_waits
          | _ -> ())
        (Route.consecutive_pairs route))
    (Network.routes net);
  { channels; succs; preds; n_waits = !n_waits }

(* The fixpoint.  A channel escapes once all channels it waits for have
   escaped; wait-free channels escape vacuously.  Rounds (all channels
   eligible at the start of a round escape together, ascending index)
   make the elimination order a pure function of the network. *)
let eliminate arena =
  let n = Array.length arena.channels in
  let pending = Array.map List.length arena.succs in
  let escaped = Array.make n false in
  let order = ref [] (* reversed escape order *) in
  let wave = ref [] in
  for v = n - 1 downto 0 do
    if pending.(v) = 0 then wave := v :: !wave
  done;
  while !wave <> [] do
    let current = !wave in
    wave := [];
    List.iter
      (fun v ->
        escaped.(v) <- true;
        order := v :: !order)
      current;
    let next = ref [] in
    List.iter
      (fun v ->
        List.iter
          (fun u ->
            if not escaped.(u) then begin
              pending.(u) <- pending.(u) - 1;
              if pending.(u) = 0 then next := u :: !next
            end)
          arena.preds.(v))
      current;
    wave := List.sort_uniq compare !next
  done;
  (escaped, List.rev !order)

(* A concrete waits-for cycle inside the knot: follow the smallest
   non-escaped successor from the smallest knot member until a vertex
   repeats.  Total because every knot member waits on a knot member. *)
let cycle_in_knot arena escaped start =
  let position = Hashtbl.create 16 in
  let path = ref [] in
  let rec walk v len =
    match Hashtbl.find_opt position v with
    | Some at ->
        let tail = List.rev !path in
        List.filteri (fun i _ -> i >= at) tail
    | None ->
        Hashtbl.replace position v len;
        path := v :: !path;
        let next =
          List.fold_left
            (fun best u ->
              if escaped.(u) then best
              else match best with Some b when b <= u -> best | _ -> Some u)
            None arena.succs.(v)
        in
        walk (Option.get next) (len + 1)
  in
  walk start 0

let analyze net =
  let arena = build_arena net in
  let n = Array.length arena.channels in
  let escaped, order = eliminate arena in
  if List.length order = n then
    {
      deadlock_free = true;
      n_channels = n;
      n_waits = arena.n_waits;
      escape_order = Some (List.map (fun v -> arena.channels.(v)) order);
      knot = None;
      knot_cycle = None;
    }
  else begin
    let knot = ref [] in
    for v = n - 1 downto 0 do
      if not escaped.(v) then knot := v :: !knot
    done;
    let cycle = cycle_in_knot arena escaped (List.hd !knot) in
    {
      deadlock_free = false;
      n_channels = n;
      n_waits = arena.n_waits;
      escape_order = None;
      knot = Some (List.map (fun v -> arena.channels.(v)) !knot);
      knot_cycle = Some (List.map (fun v -> arena.channels.(v)) cycle);
    }
  end

(* Witness replay, on purpose not reusing [eliminate]: a valid escape
   ordering lists every channel exactly once and, for each wait (a, b),
   ranks b (the waited-for channel) strictly earlier than a. *)
let check_escape_order net order =
  let rank = Channel.Table.create 64 in
  let duplicate = ref false in
  List.iteri
    (fun i c ->
      if Channel.Table.mem rank c then duplicate := true
      else Channel.Table.replace rank c i)
    order;
  (not !duplicate)
  && List.for_all
       (fun (_flow, route) ->
         List.for_all
           (fun (a, b) ->
             match
               (Channel.Table.find_opt rank a, Channel.Table.find_opt rank b)
             with
             | Some ra, Some rb -> rb < ra
             | _ -> false)
           (Route.consecutive_pairs route))
       (Network.routes net)

(* VC lower bound: greedy vertex-disjoint cycle packing over the
   waits-for relation.  Each packed cycle must lose at least one of its
   own channels to duplication before the relation can become acyclic,
   and disjoint cycles need distinct duplications, so the packing size
   bounds vcs_added from below.  Shortest-cycle-first keeps the packing
   large and the witness readable.

   The BFS scratch is shared by every search of one packing: [seen]
   holds the search's [gen] for discovered vertices, so nothing is
   cleared between searches. *)
type scratch = {
  seen : int array;
  dist : int array;
  parent : int array;
  queue : int array;
  mutable gen : int;
}

(* The shortest live cycle through [start]: BFS from [start] along
   waits, closed through the first predecessor of [start] (in [preds]
   order) at the least distance.  The BFS stops once that distance is
   settled: every vertex at that distance is discovered before any is
   dequeued. *)
let shortest_cycle_through arena alive sc start =
  sc.gen <- sc.gen + 1;
  let gn = sc.gen in
  let found v = sc.seen.(v) = gn in
  let is_pred = List.filter (fun p -> alive.(p)) arena.preds.(start) in
  sc.seen.(start) <- gn;
  sc.dist.(start) <- 0;
  sc.queue.(0) <- start;
  let head = ref 0 and tail = ref 1 in
  let closing = ref max_int in
  while !head < !tail && sc.dist.(sc.queue.(!head)) < !closing do
    let v = sc.queue.(!head) in
    incr head;
    List.iter
      (fun u ->
        if alive.(u) && not (found u) then begin
          sc.seen.(u) <- gn;
          sc.dist.(u) <- sc.dist.(v) + 1;
          sc.parent.(u) <- v;
          sc.queue.(!tail) <- u;
          incr tail;
          if List.mem u is_pred then closing := Int.min !closing sc.dist.(u)
        end)
      arena.succs.(v)
  done;
  (* Close the cycle through the best reachable predecessor of start. *)
  let closer =
    List.fold_left
      (fun best p ->
        if not (found p) then best
        else
          match best with
          | Some b when sc.dist.(b) <= sc.dist.(p) -> best
          | _ -> Some p)
      None is_pred
  in
  match closer with
  | None -> None
  | Some p ->
      let rec unwind v acc =
        if v = start then start :: acc else unwind sc.parent.(v) (v :: acc)
      in
      Some (unwind p [])

module Pending = Set.Make (struct
  type t = int * int

  let compare (l1, v1) (l2, v2) =
    let c = Int.compare l1 l2 in
    if c <> 0 then c else Int.compare v1 v2
end)

(* Lazy packing.  [pending] holds [(b, v)] with [b] at most the length
   of the shortest live cycle through [v]; packing only deletes
   vertices, so a bound, once true, stays true.  The least pair is
   re-measured: if its length still equals [b], every other live
   vertex has a cycle at least as long, and a longer one or an equal
   one at a larger vertex, so it is the eager scan's pick (shortest,
   then smallest vertex); otherwise it goes back with its new
   length. *)
let vc_lower_bound net =
  let arena = build_arena net in
  let n = Array.length arena.channels in
  let alive = Array.make n true in
  let sc =
    {
      seen = Array.make n 0;
      dist = Array.make n 0;
      parent = Array.make n (-1);
      queue = Array.make n 0;
      gen = 0;
    }
  in
  let rec pack pending cycles =
    match Pending.min_elt_opt pending with
    | None -> List.rev cycles
    | Some ((b, v) as least) -> (
        let pending = Pending.remove least pending in
        if not alive.(v) then pack pending cycles
        else
          match shortest_cycle_through arena alive sc v with
          | None -> pack pending cycles
          | Some cycle ->
              let len = List.length cycle in
              if len = b then begin
                List.iter (fun u -> alive.(u) <- false) cycle;
                pack pending (cycle :: cycles)
              end
              else pack (Pending.add (len, v) pending) cycles)
  in
  let cycles = pack (Pending.of_list (List.init n (fun v -> (1, v)))) [] in
  let disjoint_cycles = List.map (List.map (fun v -> arena.channels.(v))) cycles in
  { lower_bound = List.length disjoint_cycles; disjoint_cycles }

let pp_channels ppf cs =
  Format.pp_print_list
    ~pp_sep:(fun ppf () -> Format.fprintf ppf " -> ")
    Channel.pp ppf cs

let pp_verdict ppf v =
  if v.deadlock_free then
    Format.fprintf ppf
      "deadlock-free (%d channels, %d waits, escape ordering of %d channels)"
      v.n_channels v.n_waits
      (match v.escape_order with Some o -> List.length o | None -> 0)
  else
    Format.fprintf ppf
      "can deadlock (%d channels, %d waits, knot of %d channels; cycle: %a)"
      v.n_channels v.n_waits
      (match v.knot with Some k -> List.length k | None -> 0)
      pp_channels
      (match v.knot_cycle with Some c -> c | None -> [])
