(* The two design-space-exploration workloads: a virtual-engine sweep
   over the validation mix and a compiled-engine sweep over a
   performance-mode trace.  One sample is one sweep point, timed
   through [Sweep.run_stats]'s per-row callback with one worker. *)

module Sweep = Dssoc_explore.Sweep
module Grid = Dssoc_explore.Grid
module Presets = Dssoc_explore.Presets
module Config = Dssoc_soc.Config
module Fabric = Dssoc_soc.Fabric
module Workload = Dssoc_apps.Workload
module App_spec = Dssoc_apps.App_spec
module Emulator = Dssoc_runtime.Emulator
module Engine_core = Dssoc_runtime.Engine_core
module Stats = Dssoc_runtime.Stats
module Obs = Dssoc_obs.Obs
module Analyze = Dssoc_obs.Analyze

let bus100 () =
  match Fabric.of_spec "bus:bw=100MB/s,fifo=1" with
  | Ok f -> f
  | Error msg -> invalid_arg msg

let zcu ?bus (cores, ffts) =
  let c = Config.zcu102_cores_ffts ~cores ~ffts in
  match bus with
  | None -> (c.Config.label, c)
  | Some f -> (c.Config.label ^ "/bus100", Config.with_fabric f c)

(* 9 ZCU102 configurations + 2 contended-bus ones, x 3 policies. *)
let mix_grid seed =
  let bus = bus100 () in
  Grid.make ~label:"mix-sweep" ~base_seed:seed ~jitter:0.03
    ~configs:
      (List.map zcu Presets.zcu102_grid_configs @ List.map (zcu ~bus) [ (2, 2); (3, 2) ])
    ~policies:[ "FRFS"; "MET"; "EFT" ]
    ~workloads:[ Presets.sdr_mix () ]
    ()

(* The Table II rate-6.92 trace cut to a 10 ms window (69 jobs), on 3
   platforms x 2 policies x 4 jitter replicates. *)
let rate_grid seed =
  Grid.make ~label:"rate-sweep" ~replicates:4 ~base_seed:seed ~jitter:0.03
    ~configs:[ zcu (3, 2); zcu ~bus:(bus100 ()) (3, 2); zcu (2, 1) ]
    ~policies:[ "EFT"; "MET" ]
    ~workloads:
      [
        Grid.fixed_workload ~label:"rate6.92-10ms"
          (Workload.table2_workload ~window_ms:10.0 ~rate:6.92 ());
      ]
    ()

let task_total (w : Workload.t) =
  List.fold_left
    (fun acc (it : Workload.item) -> acc + List.length it.Workload.spec.App_spec.nodes)
    0 w.Workload.items

let is_bus (c : Config.t) = match c.Config.fabric with Fabric.Ideal -> false | Fabric.Bus _ -> true

let virtual_run ?obs grid (p : Grid.point) =
  Emulator.run_exn
    ~engine:
      (Emulator.virtual_seeded ~jitter:grid.Grid.jitter
         ~reservation_depth:grid.Grid.reservation_depth p.Grid.seed)
    ~policy:p.Grid.policy ?obs ~config:p.Grid.config ~workload:p.Grid.workload ()

(* Arrival-to-completion latency (ns) of every job of one run; a
   record's instance is the job's position in the workload. *)
let job_latencies (p : Grid.point) (r : Stats.report) =
  let arrival =
    Array.of_list
      (List.map (fun (it : Workload.item) -> it.Workload.arrival_ns) p.Grid.workload.Workload.items)
  in
  let finish = Array.make (Array.length arrival) min_int in
  List.iter
    (fun (t : Stats.task_record) ->
      finish.(t.Stats.instance) <- max finish.(t.Stats.instance) t.Stats.completed_ns)
    r.Stats.records;
  Array.to_list (Array.mapi (fun i c -> c - arrival.(i)) finish)
  |> List.filter (fun l -> l >= 0)

let nth_line text i = List.nth (String.split_on_char '\n' text) i

(* A sweep row is complete when its emulation ended [Completed] with
   every job and task of the point's workload. *)
let row_complete (p : Grid.point) (r : Sweep.row) =
  r.Sweep.verdict = Stats.Completed
  && r.Sweep.task_count = task_total p.Grid.workload
  && r.Sweep.job_count = Workload.job_count p.Grid.workload

let setup ~engine ~build ~seed check =
  let grid = build seed in
  let points = Grid.points grid in
  let check_row check (r : Sweep.row) =
    Check.expect check
      (Printf.sprintf "%s point %d completed with all its tasks" grid.Grid.label r.Sweep.index)
      (row_complete points.(r.Sweep.index) r)
  in
  let sweep ?on_row () = fst (Sweep.run_stats ~jobs:1 ~engine ?on_row grid) in
  let first = sweep ~on_row:(check_row check) () in
  let reference = Sweep.to_csv first in
  let round check ~boundary =
    Sweep.to_csv
      (sweep
         ~on_row:(fun r ->
           check_row check r;
           boundary ())
         ())
  in
  let sim check =
    if engine = `Compiled then
      Check.same_text check "compiled rows equal a virtual sweep of the same grid"
        ~expected:(Sweep.to_csv (fst (Sweep.run_stats ~jobs:1 ~engine:`Virtual grid)))
        reference;
    let rows = Array.of_list first.Sweep.rows in
    let lats = ref [] and makespan = ref 0 and jobs = ref 0 in
    let bus_points = ref 0 and streams = ref 0 and stall = ref 0 in
    Array.iter
      (fun (p : Grid.point) ->
        let r = virtual_run grid p in
        let l = job_latencies p r in
        Check.expect check
          (Printf.sprintf "%s point %d replays its sweep row" grid.Grid.label p.Grid.index)
          (r.Stats.verdict = Stats.Completed
          && r.Stats.makespan_ns = rows.(p.Grid.index).Sweep.makespan_ns
          && r.Stats.task_count = task_total p.Grid.workload
          && List.length l = Workload.job_count p.Grid.workload);
        lats := l @ !lats;
        makespan := !makespan + r.Stats.makespan_ns;
        jobs := !jobs + List.length l;
        if is_bus p.Grid.config then begin
          incr bus_points;
          streams := !streams + r.Stats.fabric.Stats.dma_streams;
          stall := !stall + r.Stats.fabric.Stats.fabric_stall_ns
        end)
      points;
    let n = float_of_int (Array.length points) and nb = float_of_int (max 1 !bus_points) in
    {
      Scenario.makespan_ms = float_of_int !makespan /. n /. 1e6;
      p90_ms = Stat.quantile_ms 0.9 !lats;
      goodput_per_ms = float_of_int !jobs /. (float_of_int !makespan /. 1e6);
      sim_layers =
        [
          ("soc.fabric_streams", float_of_int !streams /. nb);
          ("soc.fabric_stall_ms", float_of_int !stall /. nb /. 1e6);
        ];
    }
  in
  let layers check ~traced_sample_ms ~untraced_sample_ms:_ =
    (* Cold versus warm round on a freshly built copy of the grid: the
       difference is what plan compilation costs. *)
    let grid' = build seed in
    let (cold_t, cold), (warm_t, warm) =
      Probe.with_plain_policies (fun () ->
          let cold = Sweep.run_stats ~jobs:1 ~engine grid' in
          (cold, Sweep.run_stats ~jobs:1 ~engine grid'))
    in
    Check.same_text check "traced cold round equals the untraced rows" ~expected:reference
      (Sweep.to_csv cold_t);
    Check.same_text check "traced warm round equals the untraced rows" ~expected:reference
      (Sweep.to_csv warm_t);
    let compiles = cold.Sweep.plan_compiles in
    let points' = Grid.points grid' in
    let n = float_of_int (Array.length points') in
    (* The same points evaluated one by one: traced emulation plus
       analysis, without the sweep around them. *)
    let point_ns =
      Array.fold_left
        (fun acc (p : Grid.point) ->
          let row, ns = Probe.time (fun () -> Sweep.run_point ~engine_kind:engine grid' p) in
          Check.same_text check
            (Printf.sprintf "%s point %d evaluated alone equals its sweep row" grid.Grid.label
               p.Grid.index)
            ~expected:(nth_line reference (p.Grid.index + 1))
            (Sweep.csv_row row);
          acc + ns)
        0 points'
    in
    let instantiate_ms =
      if engine = `Virtual then
        Array.fold_left
          (fun acc (p : Grid.point) ->
            let _, ns =
              Probe.time (fun () ->
                  Engine_core.instantiate ~engine_name:"perfbench" ~config:p.Grid.config
                    ~workload:p.Grid.workload)
            in
            acc +. Harness.ms ns)
          0.0 points'
        /. n
      else 0.0
    in
    (* Observability on the first replicate of every cell: the same
       point with and without an Obs bundle, interleaved.  Event logs
       are engine-independent (the compiled engine replays the virtual
       one byte for byte), so they are recorded on the virtual engine;
       only a virtual-engine workload reports the traced overhead. *)
    let ratios = ref [] and events = ref 0 and analyze_ns = ref 0 and traced = ref 0 in
    Array.iter
      (fun (p : Grid.point) ->
        if p.Grid.replicate = 0 then begin
          let bundle () =
            Obs.make
              ~sink:(Obs.Sink.ring ~capacity:(max 65536 (32 * task_total p.Grid.workload)) ())
              ~metrics:(Obs.Metrics.create ()) ()
          in
          let plain () = Probe.time (fun () -> virtual_run grid' p) in
          let with_obs () =
            let obs = bundle () in
            let r, ns = Probe.time (fun () -> virtual_run ~obs grid' p) in
            ((r, obs), ns)
          in
          let (r0, un_ns), ((r1, obs), tr_ns) =
            if p.Grid.index mod 2 = 0 then
              let a = plain () in
              (a, with_obs ())
            else
              let b = with_obs () in
              (plain (), b)
          in
          let sink = Obs.sink obs in
          Check.expect check
            (Printf.sprintf "%s point %d traced run equals untraced run" grid.Grid.label
               p.Grid.index)
            (r0.Stats.makespan_ns = r1.Stats.makespan_ns && Obs.Sink.dropped sink = 0);
          let _, a_ns =
            Probe.time (fun () ->
                Analyze.critical_path (Analyze.of_events (Obs.recorded_events obs)))
          in
          ratios := (float_of_int tr_ns /. float_of_int un_ns) :: !ratios;
          events := !events + Obs.Sink.total sink;
          analyze_ns := !analyze_ns + a_ns;
          incr traced
        end)
      points';
    let nt = float_of_int (max 1 !traced) in
    [
      ("apps.instantiate_ms", instantiate_ms);
      ( "runtime.plan_compile_ms",
        if compiles = 0 then 0.0
        else Harness.ms (cold.Sweep.elapsed_ns - warm.Sweep.elapsed_ns) /. float_of_int compiles );
      ( "runtime.compiled_point_ms",
        if engine = `Compiled then
          Harness.ms warm.Sweep.elapsed_ns /. float_of_int warm.Sweep.points
        else 0.0 );
      ("obs.events_per_emu", float_of_int !events /. nt);
      ( "obs.overhead_pct",
        if engine = `Virtual then (Stat.median (Array.of_list !ratios) -. 1.0) *. 100.0 else 0.0 );
      ("obs.analyze_ms", Harness.ms !analyze_ns /. nt);
      ("explore.point_overhead_ms", traced_sample_ms -. (Harness.ms point_ns /. n));
    ]
  in
  {
    Scenario.units = Array.length points;
    round;
    reference;
    sim;
    layers;
  }

let mix_sweep =
  { Scenario.name = "mix-sweep"; setups = 5; setup = setup ~engine:`Virtual ~build:mix_grid }

let rate_sweep_compiled =
  {
    Scenario.name = "rate-sweep-compiled";
    setups = 3;
    setup = setup ~engine:`Compiled ~build:rate_grid;
  }
