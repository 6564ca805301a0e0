(* perfbench: the repository benchmark.

     perfbench --workload NAME --seed N --seconds S --trace 0|1

   Runs one workload for S seconds of measurement and prints, as the
   last line of standard output, one JSON object with the correctness
   counts and the end-to-end metrics (--trace 0) or the per-layer
   metrics (--trace 1).  See NOTES.md for what each metric means. *)

open Perfbench

(* Fresh set-ups, each timed from a collected heap; returns the last
   one and every set-up time in seconds. *)
let timed_setups (w : Scenario.t) ~seed ~count check =
  let rec go k times =
    Gc.full_major ();
    let p, ns = Probe.time (fun () -> w.Scenario.setup ~seed check) in
    let times = Harness.ms ns /. 1e3 :: times in
    if k + 1 >= count then (p, List.rev times) else go (k + 1) times
  in
  go 0 []

let run (w : Scenario.t) ~seed ~seconds ~trace =
  let check = Check.create () in
  let p, setups = timed_setups w ~seed ~count:(if trace then 1 else w.Scenario.setups) check in
  let setup_s = Stat.median (Array.of_list setups) in
  Gc.full_major ();
  let untraced = Harness.measure p check ~seconds:(if trace then seconds /. 2.0 else seconds) in
  Printf.eprintf
    "perfbench: %s: set-ups %s s; %d samples, median sample %.3f ms, median reference unit \
     %.3f ms\n%!"
    w.Scenario.name
    (String.concat " " (List.map (Printf.sprintf "%.3f") setups))
    (Array.length untraced) (Harness.median_sample_ms untraced)
    (Stat.median (Array.map (fun s -> Harness.ms s.Harness.ref_ns) untraced));
  (* Read before the untimed checks and replays below, whose own
     allocation is not the workload's. *)
  let peak_heap_mb = Probe.peak_heap_mb () in
  let sim = p.Scenario.sim check in
  let metrics =
    if not trace then
      Harness.end_to_end ~setup_s ~samples:untraced ~alloc_mb:(Harness.alloc_round p check)
        ~peak_heap_mb ~sim
    else begin
      Probe.install ();
      let traced = Harness.measure p check ~seconds:(seconds /. 2.0) in
      let own =
        p.Scenario.layers check ~traced_sample_ms:(Harness.sample_ms traced)
          ~untraced_sample_ms:(Harness.median_sample_ms untraced)
      in
      Harness.per_layer ~untraced ~traced ~peak_heap_mb ~sim ~own
    end
  in
  Harness.result_line ~check ~metrics

let () =
  let workload = ref "" and seed = ref (-1) and seconds = ref 0.0 and trace = ref (-1) in
  let spec =
    [
      ("--workload", Arg.Set_string workload, "NAME workload to run");
      ("--seed", Arg.Set_int seed, "N input seed (>= 0)");
      ("--seconds", Arg.Set_float seconds, "S measurement time");
      ("--trace", Arg.Set_int trace, "0|1 end-to-end (0) or per-layer (1) metrics");
    ]
  in
  let usage = "perfbench --workload NAME --seed N --seconds S --trace 0|1" in
  Arg.parse spec (fun a -> raise (Arg.Bad ("unexpected argument " ^ a))) usage;
  let names = List.map (fun w -> w.Scenario.name) Workloads.all in
  match List.find_opt (fun w -> w.Scenario.name = !workload) Workloads.all with
  | None ->
    Printf.eprintf "perfbench: unknown workload %S (one of: %s)\n" !workload
      (String.concat ", " names);
    exit 2
  | Some _ when !seed < 0 || !seconds <= 0.0 || (!trace <> 0 && !trace <> 1) ->
    prerr_endline ("usage: " ^ usage);
    exit 2
  | Some w ->
    print_endline
      (run w ~seed:(Int64.of_int !seed) ~seconds:!seconds ~trace:(!trace = 1))
