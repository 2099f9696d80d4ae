(* Shared test fixtures.  The central one is the paper's running
   example (Figures 1-2): a 4-switch ring with four flows whose CDG has
   exactly one cycle L1 -> L2 -> L3 -> L4 -> L1. *)

open Noc_model

let sw = Ids.Switch.of_int
let core = Ids.Core.of_int
let lk = Ids.Link.of_int
let fl = Ids.Flow.of_int
let ch ?(vc = 0) l = Channel.make (lk l) vc

let contains ~needle haystack =
  let n = String.length needle and h = String.length haystack in
  let rec go i = i + n <= h && (String.sub haystack i n = needle || go (i + 1)) in
  n = 0 || go 0

(* A bench-gate case: [errors] must be exactly one violation that
   names [needle]. *)
let one_violation ~needle errors =
  match errors with
  | [ msg ] when contains ~needle msg -> ()
  | _ ->
      Alcotest.failf "want one violation naming %S, got [%s]" needle
        (String.concat "; " errors)

(* Bench-gate cases mutate the rows of a committed bench/2 baseline
   and compare the result against the baseline itself. *)
module Ledger = Noc_obs.Ledger

let ledger_gate baseline_text mutate =
  match Ledger.of_json baseline_text with
  | Error msg -> Alcotest.fail msg
  | Ok baseline ->
      Ledger.compare ~baseline { baseline with rows = mutate baseline.rows }

(* Rewrite the value of the [metric] row of [case]; a row that does not
   exist is a test bug, not a vacuous pass. *)
let update_row ~case ~metric f rows =
  let hit (r : Ledger.row) = r.case = case && r.metric = metric in
  if not (List.exists hit rows) then Alcotest.failf "no %s row in %s" metric case;
  List.map (fun (r : Ledger.row) -> if hit r then { r with value = f r.value } else r) rows

let set_row ~case ~metric value = update_row ~case ~metric (fun _ -> value)

let scale k = function Ledger.Num x -> Ledger.Num (k *. x) | v -> v

let add_row ~layer ~case ~metric value rows =
  rows @ [ { Ledger.layer; case; metric; value } ]

let drop_rows drop (rows : Ledger.row list) = List.filter (fun r -> not (drop r)) rows

(* What a producer rule emitted for [case], in place of that case's
   [metrics] rows: a row the rule leaves out is then absent. *)
let replace_rows ~layer ~case ~metrics produced rows =
  drop_rows (fun r -> r.case = case && List.mem r.metric metrics) rows
  @ List.map
      (fun (metric, v) -> { Ledger.layer; case; metric; value = Ledger.Num v })
      produced

(* A numeric row of a committed baseline. *)
let baseline_num baseline_text ~case ~metric =
  match Ledger.of_json baseline_text with
  | Error msg -> Alcotest.fail msg
  | Ok baseline -> (
      match
        List.find_opt
          (fun (r : Ledger.row) -> r.case = case && r.metric = metric)
          baseline.rows
      with
      | Some { value = Ledger.Num x; _ } -> x
      | Some _ | None -> Alcotest.failf "no numeric %s row in %s" metric case)

(* One domain's raw span events obey stack discipline: every end
   closes the innermost open span, and none stays open. *)
let spans_balanced entries =
  let rec go stack = function
    | [] -> stack = []
    | Noc_obs.Trace.Begin { name; _ } :: rest -> go (name :: stack) rest
    | Noc_obs.Trace.End { name; _ } :: rest -> (
        match stack with top :: stack' -> top = name && go stack' rest | [] -> false)
  in
  go [] entries

(* The paper numbers switches/links/flows from 1; we use 0-based ids,
   so the paper's L1 is our L0, F1 our F0, and so on. *)
type ring = { net : Network.t; links : Ids.Link.t array; flows : Ids.Flow.t array }

let paper_ring () =
  let topo = Topology.create ~n_switches:4 in
  let l1 = Topology.add_link topo ~src:(sw 0) ~dst:(sw 1) in
  let l2 = Topology.add_link topo ~src:(sw 1) ~dst:(sw 2) in
  let l3 = Topology.add_link topo ~src:(sw 2) ~dst:(sw 3) in
  let l4 = Topology.add_link topo ~src:(sw 3) ~dst:(sw 0) in
  let traffic = Traffic.create ~n_cores:4 in
  (* Flow endpoints are chosen so that min-hop routes on the ring are
     exactly the paper's R1..R4. *)
  let f1 = Traffic.add_flow traffic ~src:(core 0) ~dst:(core 3) ~bandwidth:100. in
  let f2 = Traffic.add_flow traffic ~src:(core 2) ~dst:(core 0) ~bandwidth:100. in
  let f3 = Traffic.add_flow traffic ~src:(core 3) ~dst:(core 1) ~bandwidth:100. in
  let f4 = Traffic.add_flow traffic ~src:(core 0) ~dst:(core 2) ~bandwidth:100. in
  let net =
    Network.make ~topology:topo ~traffic ~mapping:(fun c ->
        sw (Ids.Core.to_int c))
  in
  Network.set_route net f1 [ ch 0; ch 1; ch 2 ];
  Network.set_route net f2 [ ch 2; ch 3 ];
  Network.set_route net f3 [ ch 3; ch 0 ];
  Network.set_route net f4 [ ch 0; ch 1 ];
  { net; links = [| l1; l2; l3; l4 |]; flows = [| f1; f2; f3; f4 |] }

(* A 2x2 mesh with XY-routed all-to-all traffic: deadlock-free by
   construction (XY routing forbids the turns that close cycles). *)
let xy_mesh_2x2 () =
  let topo = Topology.create ~n_switches:4 in
  (* Switch layout: 0 1 / 2 3.  Bidirectional neighbour links. *)
  let pairs = [ (0, 1); (1, 0); (2, 3); (3, 2); (0, 2); (2, 0); (1, 3); (3, 1) ] in
  List.iter
    (fun (a, b) -> ignore (Topology.add_link topo ~src:(sw a) ~dst:(sw b)))
    pairs;
  let traffic = Traffic.create ~n_cores:4 in
  for s = 0 to 3 do
    for d = 0 to 3 do
      if s <> d then
        ignore (Traffic.add_flow traffic ~src:(core s) ~dst:(core d) ~bandwidth:10.)
    done
  done;
  let net =
    Network.make ~topology:topo ~traffic ~mapping:(fun c ->
        sw (Ids.Core.to_int c))
  in
  let find a b =
    match Topology.find_links topo ~src:(sw a) ~dst:(sw b) with
    | l :: _ -> Channel.make l.Topology.id 0
    | [] -> failwith "xy_mesh_2x2: missing link"
  in
  (* XY: move horizontally (within the row) first, then vertically. *)
  let route s d =
    let col n = n mod 2 and row n = n / 2 in
    let x_hops = if col s = col d then [] else [ find s (row s * 2 + col d) ] in
    let after_x = (row s * 2) + col d in
    let y_hops = if row s = row d then [] else [ find after_x d ] in
    x_hops @ y_hops
  in
  List.iter
    (fun (f : Traffic.flow) ->
      let s = Ids.Core.to_int f.Traffic.src and d = Ids.Core.to_int f.Traffic.dst in
      Network.set_route net f.Traffic.id (route s d))
    (Traffic.flows traffic);
  net

let check_valid name net =
  match Validate.check net with
  | [] -> ()
  | issues ->
      Alcotest.failf "%s: invalid network: %a" name
        (Format.pp_print_list Validate.pp_issue)
        issues
