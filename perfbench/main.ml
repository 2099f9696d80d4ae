(* Entry point of the repository benchmark; perfbench/run.py builds
   this program and runs it.  See perfbench/README.md. *)

let usage =
  "main.exe --workload NAME --seed N --seconds S --trace 0|1 --nproc N --noc-tool PATH \
   --tmp DIR [--commit ID]"

(* The (name, unit) pairs of one metric list of BENCHMARK.json, which
   lies in the working directory, the root of the checkout. *)
let declared key =
  let module Json = Noc_json.Json in
  match Json.of_string (In_channel.with_open_text "BENCHMARK.json" In_channel.input_all) with
  | Error e -> failwith ("BENCHMARK.json: " ^ e)
  | Ok json ->
      List.map
        (fun m -> (Json.to_str (Json.field "name" m), Json.to_str (Json.field "unit" m)))
        (Json.to_list (Json.field key json))

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10. and trace = ref 0
  and nproc = ref 1 and noc_tool = ref "" and tmp = ref "" and commit = ref "unknown" in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "flow-scale | sim-mixed | serve-mixed");
      ("--seed", Arg.Set_int seed, "input seed");
      ("--seconds", Arg.Set_float seconds, "measurement time");
      ("--trace", Arg.Set_int trace, "1: traced run printing per-layer metrics");
      ("--nproc", Arg.Set_int nproc, "processors available to this process");
      ("--noc-tool", Arg.Set_string noc_tool, "noc_tool binary (serve-mixed)");
      ("--tmp", Arg.Set_string tmp, "scratch directory");
      ("--commit", Arg.Set_string commit, "source revision, for the record");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    usage;
  let run =
    match !workload with
    | "flow-scale" -> Flow_scale.run
    | "sim-mixed" -> Sim_mixed.run
    | "serve-mixed" -> Serve_mixed.run
    | w ->
        prerr_endline ("unknown workload " ^ w ^ "\n" ^ usage);
        exit 2
  in
  if !tmp = "" || !nproc < 1 || !seconds <= 0. || (!trace <> 0 && !trace <> 1) then begin
    prerr_endline usage;
    exit 2
  end;
  let parallelism = Measure.parallelism ~nproc:!nproc in
  Printf.printf "host: nproc %d, measured parallelism %.2f, OCaml %s, commit %s\n%!" !nproc
    parallelism Sys.ocaml_version !commit;
  let cfg =
    {
      Measure.seed = !seed;
      seconds = !seconds;
      trace = !trace = 1;
      noc_tool = !noc_tool;
      tmp = !tmp;
    }
  in
  let o = run cfg in
  List.iter print_endline o.Measure.notes;
  let values =
    o.Measure.metrics
    @ [
        ("failed_ratio", float_of_int o.Measure.failed /. float_of_int (max 1 o.Measure.attempted));
        ("host.parallelism", parallelism);
      ]
  in
  let end_to_end = declared "end_to_end" and per_layer = declared "per_layer" in
  List.iter
    (fun (name, _) ->
      if not (List.mem_assoc name per_layer || List.mem_assoc name end_to_end) then
        failwith ("metric not declared in BENCHMARK.json: " ^ name))
    values;
  let metrics =
    List.map
      (fun (name, unit_) ->
        match List.assoc_opt name values with
        | Some value -> { Measure.name; value; unit_ }
        (* A layer the workload bypasses. *)
        | None when cfg.Measure.trace -> { Measure.name; value = 0.; unit_ }
        | None -> failwith ("end-to-end metric not measured: " ^ name))
      (if cfg.Measure.trace then per_layer else end_to_end)
  in
  (* A metric without samples (a run whose first requests all failed)
     prints as 0 in an incorrect result. *)
  let measured = List.for_all (fun m -> Float.is_finite m.Measure.value) metrics in
  let metrics =
    List.map (fun m -> if Float.is_finite m.Measure.value then m else { m with value = 0. }) metrics
  in
  print_endline
    (Measure.result_line ~correct:(o.Measure.failed = 0 && measured) ~attempted:o.Measure.attempted
       ~failed:o.Measure.failed metrics)
