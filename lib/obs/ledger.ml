(* One bench schema and one gate.  Every bench section reports rows
   (layer, case, metric, value); the baseline's gate table says how
   each metric is judged.  Deterministic outputs (iterations, VCs,
   hashes, deadlock flags) gate exactly; same-host ratios gate as a
   band or a bounded drop against the baseline; floors and ceilings
   gate every current row on its own, which lets a producer emit a
   host-dependent row only where it was measured. *)

module Json = Noc_json.Json

type value = Num of float | Str of string
type row = { layer : string; case : string; metric : string; value : value }

type gate =
  | Exact
  | Band of float
  | Drop of float
  | Min of float
  | Max of float

type t = { gates : (string * gate) list; rows : row list }

let schema = "bench/2"

(* ------------------------------------------------------------------ *)
(* JSON                                                                *)
(* ------------------------------------------------------------------ *)

(* The shortest of %.15g / %.17g that reads back as [x]: gate strings
   stay readable ("min 1.6") and still round-trip every float. *)
let number x =
  let s = Printf.sprintf "%.15g" x in
  if float_of_string s = x then s else Printf.sprintf "%.17g" x

let gate_to_string = function
  | Exact -> "exact"
  | Band t -> "band " ^ number t
  | Drop t -> "drop " ^ number t
  | Min x -> "min " ^ number x
  | Max x -> "max " ^ number x

let gate_of_string s =
  match String.split_on_char ' ' s with
  | [ "exact" ] -> Exact
  | [ kind; x ] -> (
      match (kind, float_of_string_opt x) with
      | "band", Some t -> Band t
      | "drop", Some t -> Drop t
      | "min", Some x -> Min x
      | "max", Some x -> Max x
      | _ -> raise (Json.Parse_error (Printf.sprintf "bad gate %S" s)))
  | _ -> raise (Json.Parse_error (Printf.sprintf "bad gate %S" s))

(* [(key, items with that key)] in order of first appearance. *)
let group key items =
  List.fold_left
    (fun keys x -> if List.mem (key x) keys then keys else key x :: keys)
    [] items
  |> List.rev_map (fun k -> (k, List.filter (fun x -> key x = k) items))

let to_json t =
  let value = function Num x -> Json.Num x | Str s -> Json.Str s in
  let cases rows =
    Json.Obj
      (List.map
         (fun (case, rows) ->
           (case, Json.Obj (List.map (fun r -> (r.metric, value r.value)) rows)))
         (group (fun r -> r.case) rows))
  in
  Json.to_string_pretty
    (Json.Obj
       [
         ("schema", Json.Str schema);
         ( "gates",
           Json.Obj
             (List.map (fun (m, g) -> (m, Json.Str (gate_to_string g))) t.gates)
         );
         ( "rows",
           Json.Obj
             (List.map
                (fun (layer, rows) -> (layer, cases rows))
                (group (fun r -> r.layer) t.rows)) );
       ])
  ^ "\n"

let of_json text =
  let fields what = function
    | Json.Obj fs -> fs
    | _ -> raise (Json.Parse_error (what ^ " is not an object"))
  in
  let value = function
    | Json.Num x -> Num x
    | Json.Str s -> Str s
    | _ -> raise (Json.Parse_error "a row value is neither a number nor a string")
  in
  match Json.of_string text with
  | Error msg -> Error msg
  | Ok root -> (
      try
        let s = Json.to_str (Json.field "schema" root) in
        if s <> schema then
          Error (Printf.sprintf "unsupported schema %S (want %S)" s schema)
        else
          let gates =
            List.map
              (fun (m, g) -> (m, gate_of_string (Json.to_str g)))
              (fields "gates" (Json.field "gates" root))
          in
          let rows =
            List.concat_map
              (fun (layer, cases) ->
                List.concat_map
                  (fun (case, metrics) ->
                    List.map
                      (fun (metric, v) -> { layer; case; metric; value = value v })
                      (fields case metrics))
                  (fields layer cases))
              (fields "rows" (Json.field "rows" root))
          in
          Ok { gates; rows }
      with Json.Parse_error msg -> Error msg)

(* ------------------------------------------------------------------ *)
(* The gate                                                            *)
(* ------------------------------------------------------------------ *)

let show = function Num x -> Printf.sprintf "%g" x | Str s -> s
let percent t = Printf.sprintf "%g%%" (100. *. t)

let compare ~baseline current =
  let errors = ref [] in
  let err r fmt =
    Printf.ksprintf
      (fun m -> errors := Printf.sprintf "%s/%s: %s" r.layer r.case m :: !errors)
      fmt
  in
  let case r = (r.layer, r.case) in
  let same_row a b = case a = case b && a.metric = b.metric in
  List.iter
    (fun (key, rows) ->
      if not (List.exists (fun c -> case c = key) current.rows) then
        err (List.hd rows) "case missing from current report"
      else
        (* A present case keeps every row that gates against the
           baseline, except [Drop] rows: a producer leaves those out
           where the measurement is too noisy to judge. *)
        List.iter
          (fun b ->
            match List.assoc_opt b.metric baseline.gates with
            | Some (Exact | Band _) ->
                if not (List.exists (same_row b) current.rows) then
                  err b "%s missing from current report" b.metric
            | Some (Drop _ | Min _ | Max _) | None -> ())
          rows)
    (group case baseline.rows);
  let baseline_row r = List.find_opt (same_row r) baseline.rows in
  List.iter
    (fun r ->
      match (List.assoc_opt r.metric baseline.gates, r.value) with
      | None, _ -> ()
      | Some (Min _ | Max _ | Band _ | Drop _), Str s ->
          err r "%s is %S, not a number" r.metric s
      | Some (Min x), Num v ->
          if not (v >= x) then err r "%s %g below the minimum %g" r.metric v x
      | Some (Max x), Num v ->
          if not (v <= x) then err r "%s %g above the maximum %g" r.metric v x
      | Some gate, now -> (
          match (baseline_row r, gate, now) with
          | None, _, _ -> ()
          | Some b, Exact, _ ->
              if b.value <> now then
                err r "%s changed %s -> %s" r.metric (show b.value) (show now)
          | Some { value = Num base; _ }, Band t, Num v ->
              let drift =
                if base = 0. then Float.abs v
                else Float.abs (v -. base) /. Float.abs base
              in
              if not (drift <= t) then
                err r "%s %g drifted more than %s from %g" r.metric v
                  (percent t) base
          | Some { value = Num base; _ }, Drop t, Num v ->
              if not (v >= base *. (1. -. t)) then
                err r "%s dropped %g -> %g (more than %s)" r.metric base v
                  (percent t)
          | Some b, _, _ ->
              err r "baseline %s is %s, not a number" r.metric (show b.value)))
    current.rows;
  List.rev !errors

let pp ppf t =
  Format.fprintf ppf "@[<v>";
  List.iteri
    (fun i ((layer, case), rows) ->
      if i > 0 then Format.fprintf ppf "@,";
      Format.fprintf ppf "%s/%s:" layer case;
      List.iter (fun r -> Format.fprintf ppf " %s=%s" r.metric (show r.value)) rows)
    (group (fun r -> (r.layer, r.case)) t.rows);
  Format.fprintf ppf "@]"
