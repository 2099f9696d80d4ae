(* CI gate: diff a freshly measured bench report against the committed
   baseline.  Handles all three report kinds, dispatching on the baseline's
   schema tag: bench-removal/1 (incremental-removal sweep),
   bench-service/1 (batch-service throughput/determinism) and
   bench-sim/1 (simulation campaign: deadlock-freedom invariants are
   hard; latency/throughput get tolerance bands).

   Usage: check_regression.exe BASELINE.json CURRENT.json

   Exit 0 when the current report matches the baseline's deterministic
   outputs and keeps the machine-independent ratios within tolerance;
   exit 1 with one line per violation otherwise; exit 2 on bad input. *)

open Noc_experiments

let read_file path =
  try Ok (In_channel.with_open_text path In_channel.input_all)
  with Sys_error msg -> Error msg

let read_or_die label path =
  match read_file path with
  | Error msg ->
      Printf.eprintf "error: cannot read %s report %s: %s\n" label path msg;
      exit 2
  | Ok text -> text

let parse_or_die parse label path text =
  match parse text with
  | Error msg ->
      Printf.eprintf "error: cannot parse %s report %s: %s\n" label path msg;
      exit 2
  | Ok v -> v

let gate = function
  | [] ->
      print_endline "bench regression gate: PASS";
      exit 0
  | violations ->
      List.iter (Printf.printf "VIOLATION: %s\n") violations;
      print_endline "bench regression gate: FAIL";
      exit 1

(* Every schema runs the same gate: parse both reports, print the
   current one, then list its violations against the baseline. *)
let check ?(summary = fun ~baseline:_ _ -> ()) of_json pp compare_to_baseline
    (baseline_path, baseline_text) (current_path, current_text) =
  let baseline = parse_or_die of_json "baseline" baseline_path baseline_text in
  let current = parse_or_die of_json "current" current_path current_text in
  Format.printf "current report:@.%a@.@." pp current;
  summary ~baseline current;
  gate (compare_to_baseline ~baseline current)

let d36_aggregate ~baseline current =
  let d36 = List.filter (fun e -> e.Bench_report.benchmark = "D36_8") in
  if d36 current <> [] then
    Format.printf "aggregate D36_8 speedup: %.2fx (baseline %.2fx)@.@."
      (Bench_report.aggregate_speedup (d36 current))
      (Bench_report.aggregate_speedup (d36 baseline))

let gates =
  let open Noc_service in
  let open Noc_campaign in
  [
    ( Bench_report.schema,
      check ~summary:d36_aggregate Bench_report.of_json Bench_report.pp
        Bench_report.compare_to_baseline );
    ( Service_report.schema,
      check Service_report.of_json Service_report.pp
        Service_report.compare_to_baseline );
    ( Sim_report.schema,
      check Sim_report.of_json Sim_report.pp Sim_report.compare_to_baseline );
  ]

(* The baseline names the gate: a report pair must be of one kind. *)
let schema_of text =
  match Noc_json.Json.of_string text with
  | Ok root -> (
      match Noc_json.Json.member "schema" root with
      | Some (Noc_json.Json.Str s) -> Some s
      | _ -> None)
  | Error _ -> None

let () =
  match Sys.argv with
  | [| _; baseline_path; current_path |] -> (
      let baseline_text = read_or_die "baseline" baseline_path in
      let current_text = read_or_die "current" current_path in
      match schema_of baseline_text with
      | None ->
          Printf.eprintf "error: %s: cannot determine report schema\n"
            baseline_path;
          exit 2
      | Some s -> (
          match List.assoc_opt s gates with
          | Some check ->
              check (baseline_path, baseline_text) (current_path, current_text)
          | None ->
              Printf.eprintf "error: %s: unsupported schema %S\n" baseline_path
                s;
              exit 2))
  | _ ->
      Printf.eprintf "usage: %s BASELINE.json CURRENT.json\n" Sys.argv.(0);
      exit 2
