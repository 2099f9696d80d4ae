(* Pool instruments, in a process of their own: the metrics registry is
   process-wide, so only a fresh process shows what a pool registers
   and when. *)

let pool_gauges () =
  List.filter_map
    (function
      | Noc_obs.Metrics.Gauge { name; value; _ }
        when String.starts_with ~prefix:"noc_pool_" name ->
          Some (name, value)
      | _ -> None)
    (Noc_obs.Metrics.snapshot ())

let gauges_c = Alcotest.(list (pair string (float 0.)))

(* Both gauges must exist before any worker runs a task: a worker that
   had to register one itself could race another doing the same. *)
let test_gauges_registered_at_create () =
  let pool = Noc_pool.Pool.create ~domains:2 () in
  let at_create = pool_gauges () in
  Noc_pool.Pool.shutdown pool;
  Alcotest.check gauges_c "at create"
    [ ("noc_pool_busy_workers", 0.); ("noc_pool_workers", 2.) ]
    at_create;
  Alcotest.check gauges_c "after shutdown"
    [ ("noc_pool_busy_workers", 0.); ("noc_pool_workers", 0.) ]
    (pool_gauges ())

let () =
  Alcotest.run "noc_pool"
    [
      ( "metrics",
        [
          Alcotest.test_case "gauges registered at create" `Quick
            test_gauges_registered_at_create;
        ] );
    ]
