let has_cycle g =
  let non_trivial = Scc.non_trivial g in
  non_trivial <> []

(* DFS with colors; on meeting a grey vertex we unwind the explicit
   path stack to extract the cycle. *)
let find_any g =
  let n = Digraph.n_vertices g in
  let color = Array.make n 0 in
  (* 0 white, 1 grey, 2 black *)
  let cycle = ref None in
  let rec walk path u =
    color.(u) <- 1;
    let path = u :: path in
    let check v =
      if !cycle = None then
        if color.(v) = 1 then begin
          (* [path] is [u; ...; v; ...]; the cycle is v ... u. *)
          let rec take acc = function
            | [] -> acc
            | w :: ws -> if w = v then w :: acc else take (w :: acc) ws
          in
          cycle := Some (take [] path)
        end
        else if color.(v) = 0 then walk path v
    in
    Digraph.iter_succ check g u;
    color.(u) <- 2
  in
  let try_root v = if color.(v) = 0 && !cycle = None then walk [] v in
  Digraph.iter_vertices try_root g;
  !cycle

(* Shortest cycle through v = 1 + shortest path from some successor of
   v back to v.  A single BFS from v over the whole graph would not
   find the path *ending* at v, so we search from each successor and
   read the parent chain when v is re-entered.

   [bound] is an exclusive upper limit on the cycle length: only
   strictly shorter cycles are returned, and each per-successor BFS is
   cut off at the matching edge budget (a path of [e] edges closes a
   cycle of length [e + 1]).  [allowed] restricts the BFS to a vertex
   subset; the caller must guarantee that every shortest returning
   path lies inside it (true for v's own SCC), so restricting never
   changes the answer — it only skips provably dead frontier. *)
let shortest_through_in ?(bound = max_int) ?allowed g v =
  if bound <= 1 then None
  else if Digraph.mem_edge g v v then Some [ v ]
  else begin
    let best = ref None in
    let best_len = ref bound in
    let consider s =
      if !best_len > 2 then
        match Traversal.shortest_path ~max_edges:(!best_len - 2) ?allowed g s v with
        | None -> ()
        | Some path ->
            let len = List.length path in
            if len < !best_len then begin
              best := Some path;
              best_len := len
            end
    in
    List.iter consider (List.sort compare (Digraph.succ g v));
    match !best with
    | None -> None
    | Some path -> Some (v :: List.filter (fun w -> w <> v) path)
  end

let shortest_through ?bound g v = shortest_through_in ?bound g v

let cycle_length = List.length

(* Per-vertex cycle bounds and the scratch arrays of the searches
   that read them.  Invariant: [lb.(v)] is at most the length of the
   shortest cycle through [v], and [max_int] only when [v] is on no
   cycle.  [marked] records that an SCC pass has set the [max_int]
   entries; until then every entry is a plain lower bound. *)
type bounds = {
  mutable lb : int array;
  mutable marked : bool;
  mutable gen : int;
  mutable stamp : int array;
  mutable dist : int array;
  mutable back_stamp : int array;
  mutable back : int array;
  mutable queue : int array;
  mutable order : int array;
}

let bounds n =
  {
    lb = Array.make n 0;
    marked = false;
    gen = 0;
    stamp = [||];
    dist = [||];
    back_stamp = [||];
    back = [||];
    queue = [||];
    order = [||];
  }

let insert_unknown b ids =
  let k = List.length ids in
  if k > 0 then begin
    let old = b.lb in
    let lb = Array.make (Array.length old + k) 0 in
    let rec go src dst = function
      | [] -> Array.blit old src lb dst (Array.length old - src)
      | p :: rest ->
          Array.blit old src lb dst (p - dst);
          go (src + p - dst) (p + 1) rest
    in
    go 0 0 ids;
    b.lb <- lb
  end

(* Scratch for [n] vertices.  Stamps compare against [gen], which only
   grows, so fresh zeroed arrays never read as marked. *)
let scratch b n =
  if Array.length b.stamp < n then begin
    let cap = max n (2 * Array.length b.stamp) in
    b.stamp <- Array.make cap 0;
    b.dist <- Array.make cap 0;
    b.back_stamp <- Array.make cap 0;
    b.back <- Array.make cap 0;
    b.queue <- Array.make cap 0;
    b.order <- Array.make cap 0
  end

let next_gen b =
  b.gen <- b.gen + 1;
  b.gen

(* Hop distances from the [sources] set into [d] (stamped [gn] in
   [st]), forward along [adj] = succ or backward along [adj] = pred. *)
let distances b g adj st d gn sources =
  let q = b.queue in
  let tail = ref 0 in
  List.iter
    (fun t ->
      if st.(t) <> gn then begin
        st.(t) <- gn;
        d.(t) <- 0;
        q.(!tail) <- t;
        incr tail
      end)
    sources;
  let head = ref 0 in
  while !head < !tail do
    let u = q.(!head) in
    incr head;
    let rest = ref (adj g u) in
    while !rest <> [] do
      let w = List.hd !rest in
      rest := List.tl !rest;
      if st.(w) <> gn then begin
        st.(w) <- gn;
        d.(w) <- d.(u) + 1;
        q.(!tail) <- w;
        incr tail
      end
    done
  done

let relax_bounds b g ~added =
  if added <> [] then begin
    let n = Digraph.n_vertices g in
    scratch b n;
    let gf = next_gen b in
    distances b g Digraph.succ b.stamp b.dist gf (List.map snd added);
    let gb = next_gen b in
    distances b g Digraph.pred b.back_stamp b.back gb (List.map fst added);
    (* A cycle through [v] that was not there before uses some new
       edge [u -> w]: [v ~> u -> w ~> v], at least
       [dist v u + 1 + dist w v] long. *)
    for v = 0 to n - 1 do
      if b.stamp.(v) = gf && b.back_stamp.(v) = gb then
        b.lb.(v) <- Int.min b.lb.(v) (b.back.(v) + 1 + b.dist.(v))
    done
  end

(* Every cycle lives inside one SCC: a vertex of a trivial SCC without
   a self-loop is on none. *)
let mark_acyclic b g =
  let scc = Scc.compute g in
  let comp = scc.Scc.component in
  let size = Array.make scc.Scc.count 0 in
  Array.iter (fun c -> size.(c) <- size.(c) + 1) comp;
  Array.iteri
    (fun v c -> if size.(c) < 2 && not (Digraph.mem_edge g v v) then b.lb.(v) <- max_int)
    comp;
  b.marked <- true

let shortest ?bounds:cache g =
  (* The answer is the minimum of [(length of the shortest cycle
     through v, v)] over all vertices — the globally shortest cycle,
     ties to the smallest root — and that root's cycle.  The search
     visits vertices in ascending [(lb v, v)] order, where [lb v] is
     at most the first component, and stops at the first vertex whose
     [(lb v, v)] is past the best pair found: no later vertex can beat
     it.  Each probe is cut off at the length it must beat, and each
     BFS is confined to vertices whose bound is below that length;
     both prunings are lossless.  A self-loop prescan removes length-1
     cycles first. *)
  let n = Digraph.n_vertices g in
  let b =
    match cache with
    | None -> bounds n
    | Some b ->
        if Array.length b.lb <> n then
          invalid_arg "Cycles.shortest: bounds cover a different vertex count";
        b
  in
  if not b.marked then mark_acyclic b g;
  let lb = b.lb in
  (* A vertex with a self-loop has bound at most 1. *)
  let selfloop = ref None in
  (try
     for v = 0 to n - 1 do
       if lb.(v) <= 1 && Digraph.mem_edge g v v then begin
         selfloop := Some v;
         raise Exit
       end
     done
   with Exit -> ());
  match !selfloop with
  | Some v -> Some [ v ]
  | None ->
      (* No self-loops: no cycle is shorter than 2. *)
      Array.iteri (fun v l -> if l < 2 then lb.(v) <- 2) lb;
      (* A vertex on a cycle through [v] shorter than [cap] has a
         bound below [cap]; confining a search for such cycles to
         those vertices changes neither the lengths it finds nor the
         BFS parent chains along them. *)
      let within cap w = lb.(w) < cap in
      scratch b n;
      (* Scratch state shared by every bounded BFS of the search —
         [stamp]/[gen] make clearing O(1) — so the inner loop never
         allocates.  Discovery order is identical to a fresh BFS, so
         the parent chains (hence the returned cycles) are too.  Each
         vertex is enqueued at most once per BFS, so a flat array of
         size [n] is queue enough. *)
      let dist = b.dist and stamp = b.stamp and queue = b.queue in
      let parent = b.back and tstamp = b.back_stamp in
      (* Vertices dequeued by the probes of this search. *)
      let work = ref 0 in
      (* BFS from [s] towards [v] over successor edges, at most
         [max_edges] deep and within [cap], leaving the parent chain in
         [parent]. *)
      let bfs ~cap s v max_edges =
        let gn = next_gen b in
        stamp.(s) <- gn;
        dist.(s) <- 0;
        parent.(s) <- -1;
        queue.(0) <- s;
        let head = ref 0 and tail = ref 1 in
        let found = ref false in
        while (not !found) && !head < !tail do
          let u = queue.(!head) in
          incr head;
          let du = dist.(u) in
          if du < max_edges then begin
            let rest = ref (Digraph.succ g u) in
            while (not !found) && !rest <> [] do
              let w = List.hd !rest in
              rest := List.tl !rest;
              if stamp.(w) <> gn && within cap w then begin
                stamp.(w) <- gn;
                dist.(w) <- du + 1;
                parent.(w) <- u;
                if w = v then found := true
                else begin
                  queue.(!tail) <- w;
                  incr tail
                end
              end
            done
          end
        done;
        !found
      in
      (* Length of the shortest cycle through [v] if it is strictly
         below [bound], else 0 — a single backward BFS instead of one
         forward BFS per successor.  The shortest cycle through [v] is
         [1 + min over successors s of dist(s -> v)], and a backward
         BFS from [v] over predecessor edges discovers vertices in
         nondecreasing dist-to-[v] order, so the first successor it
         reaches realizes that minimum.  Self-loops are prescanned
         away, so [v] itself is never a target. *)
      let probe ~bound v =
        let max_edges = bound - 2 in
        if max_edges < 1 || Digraph.succ g v = [] then 0
        else begin
          let gn = next_gen b in
          List.iter (fun s -> tstamp.(s) <- gn) (Digraph.succ g v);
          stamp.(v) <- gn;
          dist.(v) <- 0;
          queue.(0) <- v;
          let head = ref 0 and tail = ref 1 in
          let res = ref 0 in
          while !res = 0 && !head < !tail do
            let u = queue.(!head) in
            incr head;
            let du = dist.(u) in
            if du < max_edges then begin
              let rest = ref (Digraph.pred g u) in
              while !res = 0 && !rest <> [] do
                let w = List.hd !rest in
                rest := List.tl !rest;
                if stamp.(w) <> gn && within bound w then begin
                  stamp.(w) <- gn;
                  dist.(w) <- du + 1;
                  (* v -> w -> ... -> v: dist(w) edges back to v plus
                     the closing edge = dist(w) + 1 vertices. *)
                  if tstamp.(w) = gn then res := du + 2
                  else begin
                    queue.(!tail) <- w;
                    incr tail
                  end
                end
              done
            end
          done;
          work := !work + !head;
          !res
        end
      in
      (* The cycle through [v] of length below [bound] built from the
         first successor in sorted order that achieves the minimum,
         with BFS-parent tie-breaks — the seed's per-successor
         search. *)
      let through ~bound v =
        let best = ref None in
        let best_len = ref bound in
        List.iter
          (fun s ->
            (* Once the bound hits 2 nothing can improve. *)
            if !best_len > 2 && within bound s && bfs ~cap:bound s v (!best_len - 2)
            then begin
              let rec build w acc =
                if w = s then w :: acc else build parent.(w) (w :: acc)
              in
              let path = build v [] in
              (* Found within [best_len - 2] edges, so this cycle is
                 strictly shorter than [best_len] by construction. *)
              best := Some path;
              best_len := List.length path
            end)
          (List.sort compare (Digraph.succ g v));
        match !best with
        | None -> None
        | Some path -> Some (v :: List.filter (fun w -> w <> v) path)
      in
      (* Counting sort of the live vertices by [(lb v, v)]. *)
      let top = Array.fold_left (fun m l -> if l < max_int then Int.max m l else m) 0 lb in
      let start = Array.make (top + 2) 0 in
      Array.iter (fun l -> if l < max_int then start.(l + 1) <- start.(l + 1) + 1) lb;
      for d = 1 to top + 1 do
        start.(d) <- start.(d) + start.(d - 1)
      done;
      let live = start.(top + 1) in
      let order = b.order in
      Array.iteri
        (fun v l ->
          if l < max_int then begin
            order.(start.(l)) <- v;
            start.(l) <- start.(l) + 1
          end)
        lb;
      let best_len = ref max_int and best_root = ref (-1) in
      let budget = n + Digraph.n_edges g in
      let remarked = ref false in
      (try
         for i = 0 to live - 1 do
           let v = order.(i) in
           let d = lb.(v) in
           if d < max_int then begin
             if d > !best_len || (d = !best_len && v > !best_root) then raise Exit;
             (* The length [v] must reach to beat the best pair. *)
             let beat =
               if !best_len = max_int then max_int
               else if v < !best_root then !best_len + 1
               else !best_len
             in
             let l = probe ~bound:beat v in
             if l > 0 then begin
               lb.(v) <- l;
               best_len := l;
               best_root := v
             end
             else begin
               (* Nothing through [v] below [beat]; with no cap, nothing
                  at all. *)
               lb.(v) <- Int.max d beat;
               (* Unbounded probes that find no cycle can each walk the
                  live graph; past one SCC pass's worth of work, one
                  pass marks every acyclic vertex at once. *)
               if beat = max_int && (not !remarked) && !work > budget then begin
                 mark_acyclic b g;
                 remarked := true
               end
             end
           end
         done
       with Exit -> ());
      if !best_root < 0 then None
      else
        match through ~bound:(!best_len + 1) !best_root with
        | Some c -> Some c
        | None ->
            (* Unreachable: the probe and [through] compute the same
               confined shortest distances. *)
            assert false

(* The pre-optimization implementation, kept verbatim as an executable
   specification: no per-vertex bounds, no SCC-confined BFS, no
   self-loop prescan.  [shortest] must agree with it exactly (same
   cycle, not just same length) — the property tests check this, and
   the bench suite uses it as the "before" arm. *)
let shortest_reference g =
  let through v =
    if Digraph.mem_edge g v v then Some [ v ]
    else begin
      let best = ref None in
      let consider s =
        match Traversal.shortest_path g s v with
        | None -> ()
        | Some path ->
            let len = List.length path in
            let better =
              match !best with None -> true | Some b -> len < List.length b
            in
            if better then best := Some path
      in
      List.iter consider (List.sort compare (Digraph.succ g v));
      match !best with
      | None -> None
      | Some path -> Some (v :: List.filter (fun w -> w <> v) path)
    end
  in
  let candidates = List.sort compare (List.concat (Scc.non_trivial g)) in
  let pick best v =
    match through v with
    | None -> best
    | Some c -> (
        match best with
        | None -> Some c
        | Some b -> if cycle_length c < cycle_length b then Some c else best)
  in
  List.fold_left pick None candidates

let girth g = Option.map cycle_length (shortest g)

(* Johnson's elementary-cycle enumeration, bounded. *)
let enumerate ?(max_cycles = 10_000) g =
  let n = Digraph.n_vertices g in
  let results = ref [] in
  let count = ref 0 in
  let blocked = Array.make n false in
  let b_sets = Array.make n [] in
  let stack = ref [] in
  let exception Done in
  let rec unblock v =
    if blocked.(v) then begin
      blocked.(v) <- false;
      let deps = b_sets.(v) in
      b_sets.(v) <- [];
      List.iter unblock deps
    end
  in
  let normalize cycle =
    (* Rotate so the smallest vertex leads: canonical form for
       deduplication and stable test expectations. *)
    let arr = Array.of_list cycle in
    let k = Array.length arr in
    let min_pos = ref 0 in
    for i = 1 to k - 1 do
      if arr.(i) < arr.(!min_pos) then min_pos := i
    done;
    List.init k (fun i -> arr.((i + !min_pos) mod k))
  in
  let emit cycle =
    results := normalize cycle :: !results;
    incr count;
    if !count >= max_cycles then raise Done
  in
  let rec circuit s allowed v =
    let found = ref false in
    blocked.(v) <- true;
    stack := v :: !stack;
    let explore w =
      if w >= s && allowed w then
        if w = s then begin
          emit (List.rev !stack);
          found := true
        end
        else if not blocked.(w) then
          if circuit s allowed w then found := true
    in
    Digraph.iter_succ explore g v;
    if !found then unblock v
    else
      Digraph.iter_succ
        (fun w ->
          if w >= s && allowed w && not (List.mem v b_sets.(w)) then
            b_sets.(w) <- v :: b_sets.(w))
        g v;
    (match !stack with
    | w :: rest when w = v -> stack := rest
    | _ -> assert false);
    !found
  in
  (try
     for s = 0 to n - 1 do
       (* Only consider the SCC of s in the subgraph induced by
          vertices >= s; the [w >= s] guards in [circuit] realize the
          induced-subgraph restriction, and the SCC pre-check below
          keeps the allowed set tight. *)
       Array.fill blocked 0 n false;
       Array.fill b_sets 0 n [];
       stack := [];
       let allowed w = w >= s in
       if List.exists (fun w -> w >= s) (Digraph.succ g s) || Digraph.mem_edge g s s
       then ignore (circuit s allowed s)
     done
   with Done -> ());
  List.rev !results
