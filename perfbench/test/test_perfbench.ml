open Perfbench
module Json = Dssoc_json.Json
module Sweep = Dssoc_explore.Sweep
module Grid = Dssoc_explore.Grid
module Presets = Dssoc_explore.Presets
module Server = Dssoc_serve.Server
module Config = Dssoc_soc.Config

let get = function Ok x -> x | Error msg -> failwith msg

(* --- reference unit ------------------------------------------------ *)

let test_refunit_leaves_nothing_live () =
  ignore (Refunit.run ());
  Gc.full_major ();
  let before = (Gc.stat ()).Gc.live_words in
  ignore (Sys.opaque_identity (Refunit.run ()));
  Gc.full_major ();
  let after = (Gc.stat ()).Gc.live_words in
  Alcotest.(check int) "live words unchanged by a reference unit" before after

let test_refunit_deterministic () =
  Alcotest.(check int) "same result every run" (Refunit.run ()) (Refunit.run ())

(* --- statistics ---------------------------------------------------- *)

let test_pair_ratio_cancels_drift () =
  (* A sample costing 3 reference units, under a host whose speed
     drifts by 2x over the series: every pair sees the same factor. *)
  let pairs =
    Array.init 101 (fun i ->
        let slow = 1.0 +. (float_of_int (i mod 37) /. 36.0) in
        (8.0 *. slow, 24.0 *. slow))
  in
  Alcotest.(check (float 1e-12)) "ratio is drift-free" 3.0 (Stat.pair_ratio_median pairs);
  (* A few pairs hit by a one-off stall do not move the median. *)
  pairs.(0) <- (8.0, 500.0);
  pairs.(1) <- (400.0, 24.0);
  pairs.(2) <- (8.0, 90.0);
  Alcotest.(check (float 1e-12)) "outlier pairs ignored" 3.0 (Stat.pair_ratio_median pairs);
  (* The raw sample times would not survive the drift. *)
  let raw = Array.map snd pairs in
  Alcotest.(check bool) "raw median drifts" true (Stat.median raw <> 24.0)

let test_order_statistics () =
  Alcotest.(check (float 0.0)) "odd median" 2.0 (Stat.median [| 3.0; 1.0; 2.0 |]);
  Alcotest.(check (float 0.0)) "even median" 2.5 (Stat.median [| 4.0; 1.0; 2.0; 3.0 |]);
  let a = Array.init 100 (fun i -> float_of_int (i + 1)) in
  Alcotest.(check (float 0.0)) "p90 nearest rank" 90.0 (Stat.nearest_rank 0.9 a);
  Alcotest.(check (float 0.0)) "p95 nearest rank" 95.0 (Stat.nearest_rank 0.95 a);
  Alcotest.(check bool) "empty median is nan" true (Float.is_nan (Stat.median [||]))

(* --- result line versus BENCHMARK.json ----------------------------- *)

let benchmark_json () =
  get (Result.map_error Json.error_to_string (Json.of_file "../../BENCHMARK.json"))

let names_units key =
  let doc = benchmark_json () in
  List.map
    (fun m ->
      ( get (Json.to_str (get (Json.member "name" m))),
        get (Json.to_str (get (Json.member "unit" m))) ))
    (get (Json.to_list (get (Json.member key doc))))

let fake_samples =
  let d =
    {
      Probe.t_ns = 30_000_000;
      minor_words = 1e6;
      promoted_words = 1e4;
      majors = 0;
      k_ns = 1_000_000;
      k_calls = 10;
      p_ns = 500_000;
      p_calls = 5;
      p_ops = 50;
    }
  in
  Array.make 4 { Harness.ref_ns = 10_000_000; d }

let fake_sim =
  { Scenario.makespan_ms = 1.0; p90_ms = 2.0; goodput_per_ms = 3.0; sim_layers = [] }

let metric_names line =
  let doc = get (Result.map_error Json.error_to_string (Json.parse line)) in
  Alcotest.(check (list string)) "result keys" [ "correct"; "attempted"; "failed"; "metrics" ]
    (Json.keys doc);
  Json.keys (get (Json.member "metrics" doc))

let test_names_match_benchmark_json () =
  Alcotest.(check (list (pair string string)))
    "end-to-end spec" (names_units "end_to_end") Metric_spec.end_to_end;
  Alcotest.(check (list (pair string string)))
    "per-layer spec" (names_units "per_layer") Metric_spec.per_layer;
  let doc = benchmark_json () in
  Alcotest.(check (list string))
    "workloads"
    (List.map
       (fun w -> get (Json.to_str (get (Json.member "name" w))))
       (get (Json.to_list (get (Json.member "workloads" doc)))))
    (List.map (fun w -> w.Scenario.name) Workloads.all);
  let check = Check.create () in
  let e2e =
    Harness.end_to_end ~setup_s:1.0 ~samples:fake_samples ~alloc_mb:1.0 ~peak_heap_mb:1.0
      ~sim:fake_sim
  in
  Alcotest.(check (list string))
    "trace 0 result names" (List.map fst (names_units "end_to_end"))
    (metric_names (Harness.result_line ~check ~metrics:e2e));
  let layers =
    Harness.per_layer ~untraced:fake_samples ~traced:fake_samples ~peak_heap_mb:1.0 ~sim:fake_sim
      ~own:[]
  in
  Alcotest.(check (list string))
    "trace 1 result names" (List.map fst (names_units "per_layer"))
    (metric_names (Harness.result_line ~check ~metrics:layers));
  Alcotest.(check int) "no check failed" 0 check.Check.failed

(* --- corrupted outputs count as failed ----------------------------- *)

let one_point_grid () =
  let c = Config.zcu102_cores_ffts ~cores:3 ~ffts:2 in
  Grid.make ~label:"one" ~base_seed:1L ~jitter:0.03
    ~configs:[ (c.Config.label, c) ]
    ~policies:[ "FRFS" ] ~workloads:[ Presets.sdr_mix () ] ()

let test_corrupted_row_fails () =
  let grid = one_point_grid () in
  let p = (Grid.points grid).(0) in
  let row = List.hd (Sweep.run ~jobs:1 grid).Sweep.rows in
  Alcotest.(check bool) "real row is complete" true (Sweeps.row_complete p row);
  Alcotest.(check bool) "missing task" false
    (Sweeps.row_complete p { row with Sweep.task_count = row.Sweep.task_count - 1 });
  Alcotest.(check bool) "aborted" false
    (Sweeps.row_complete p
       { row with Sweep.verdict = Dssoc_runtime.Stats.Aborted "injected" })

let test_corrupted_round_fails () =
  let reference = "a,b\n1,2\n" in
  let fake out =
    {
      Scenario.units = 2;
      round =
        (fun _ ~boundary ->
          boundary ();
          boundary ();
          out);
      reference;
      sim = (fun _ -> fake_sim);
      layers = (fun _ ~traced_sample_ms:_ ~untraced_sample_ms:_ -> []);
    }
  in
  let check = Check.create () in
  Alcotest.(check int) "two samples" 2 (List.length (Harness.round (fake reference) check));
  Alcotest.(check int) "intact round passes" 0 check.Check.failed;
  ignore (Harness.round (fake "a,b\n1,3\n") check);
  Alcotest.(check int) "corrupted round fails once" 1 check.Check.failed;
  Alcotest.(check int) "every check attempted" 4 check.Check.attempted

let test_corrupted_report_fails () =
  let spec =
    {
      Server.sp_config = Config.zcu102_cores_ffts ~cores:3 ~ffts:1;
      sp_policy = Dssoc_runtime.Scheduler.frfs;
      sp_seed = 5L;
      sp_jitter = 0.03;
      sp_duration_ms = 4.0;
      sp_admission = get (Server.admission_of_spec Serve_wl.admission_spec);
      sp_tenants = get (Server.tenants_of_spec Serve_wl.tenants_spec);
    }
  in
  let o = get (Server.run spec) in
  Alcotest.(check bool) "real outcome accounts" true (Serve_wl.accounted o);
  let lose_one t = { t with Server.tr_shed = t.Server.tr_shed + 1 } in
  Alcotest.(check bool) "one arrival unaccounted" false
    (Serve_wl.accounted { o with Server.oc_tenants = List.map lose_one o.Server.oc_tenants })

let () =
  Alcotest.run "perfbench"
    [
      ( "refunit",
        [
          Alcotest.test_case "leaves no live words" `Quick test_refunit_leaves_nothing_live;
          Alcotest.test_case "deterministic" `Quick test_refunit_deterministic;
        ] );
      ( "stat",
        [
          Alcotest.test_case "pair ratio cancels drift" `Quick test_pair_ratio_cancels_drift;
          Alcotest.test_case "order statistics" `Quick test_order_statistics;
        ] );
      ( "result",
        [
          Alcotest.test_case "names match BENCHMARK.json" `Quick
            test_names_match_benchmark_json;
        ] );
      ( "checks",
        [
          Alcotest.test_case "corrupted row fails" `Quick test_corrupted_row_fails;
          Alcotest.test_case "corrupted round fails" `Quick test_corrupted_round_fails;
          Alcotest.test_case "corrupted serve report fails" `Quick test_corrupted_report_fails;
        ] );
    ]
