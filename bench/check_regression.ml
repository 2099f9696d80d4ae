(* CI gate: diff a freshly measured bench/2 report against the committed
   baseline with the baseline's gate table (Noc_obs.Ledger.compare).

   Usage: check_regression.exe BASELINE.json CURRENT.json

   Exit 0 when every gated row holds; exit 1 with one line per
   violation otherwise; exit 2 on an unreadable or unparseable report
   (including one in a schema other than bench/2). *)

module Ledger = Noc_obs.Ledger

let load label path =
  let fail verb msg =
    Printf.eprintf "error: cannot %s %s report %s: %s\n" verb label path msg;
    exit 2
  in
  match In_channel.with_open_text path In_channel.input_all with
  | exception Sys_error msg -> fail "read" msg
  | text -> (
      match Ledger.of_json text with
      | Ok ledger -> ledger
      | Error msg -> fail "parse" msg)

let () =
  match Sys.argv with
  | [| _; baseline_path; current_path |] -> (
      let baseline = load "baseline" baseline_path in
      let current = load "current" current_path in
      Format.printf "current report:@.%a@.@." Ledger.pp current;
      match Ledger.compare ~baseline current with
      | [] -> print_endline "bench regression gate: PASS"
      | violations ->
          List.iter (Printf.printf "VIOLATION: %s\n") violations;
          print_endline "bench regression gate: FAIL";
          exit 1)
  | _ ->
      Printf.eprintf "usage: %s BASELINE.json CURRENT.json\n" Sys.argv.(0);
      exit 2
