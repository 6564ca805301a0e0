(* Differential tests between the two emulation engines.

   The virtual engine is a discrete-event simulation; the native
   engine runs tasks on real OCaml domains under wall-clock time.
   Their timings legitimately differ, but on small configurations
   where the scheduler has no real freedom the *decisions* must agree:
   same task set, same per-task DAG ordering, same PE assignments and
   same functional outputs.  Makespans only have to land in a very
   coarse tolerance band — the virtual clock models the target SoC,
   the native clock measures this host. *)

module Task = Dssoc_runtime.Task
module Emulator = Dssoc_runtime.Emulator
module Stats = Dssoc_runtime.Stats
module Config = Dssoc_soc.Config
module App_spec = Dssoc_apps.App_spec
module Store = Dssoc_apps.Store
module Reference_apps = Dssoc_apps.Reference_apps
module Workload = Dssoc_apps.Workload
module Obs = Dssoc_obs.Obs

let det_engine = Emulator.virtual_seeded ~jitter:0.0 1L

let run_both config spec instances =
  let wl () = Workload.validation [ (spec, instances) ] in
  let vr, vi =
    Result.get_ok (Emulator.run_detailed ~engine:det_engine ~config ~workload:(wl ()) ())
  in
  let nr, ni =
    Result.get_ok (Emulator.run_detailed ~engine:Emulator.native_default ~config ~workload:(wl ()) ())
  in
  ((vr, vi), (nr, ni))

(* Completion order can differ between engines when several tasks run
   concurrently; compare records keyed by (instance, node) instead. *)
let by_task (r : Stats.report) =
  List.sort compare (List.map (fun (t : Stats.task_record) -> ((t.Stats.instance, t.Stats.node), t.Stats.pe)) r.Stats.records)

let check_counts (vr : Stats.report) (nr : Stats.report) =
  Alcotest.(check int) "job count agrees" vr.Stats.job_count nr.Stats.job_count;
  Alcotest.(check int) "task count agrees" vr.Stats.task_count nr.Stats.task_count;
  Alcotest.(check int) "record count agrees" (List.length vr.Stats.records)
    (List.length nr.Stats.records)

let check_makespan_band (vr : Stats.report) (nr : Stats.report) =
  (* Deliberately coarse: the two clocks measure different machines.
     The band still catches a hung engine (hours) or a no-op engine
     (zero / negative makespan). *)
  let ratio = float_of_int nr.Stats.makespan_ns /. float_of_int (max 1 vr.Stats.makespan_ns) in
  Alcotest.(check bool) "native makespan positive" true (nr.Stats.makespan_ns > 0);
  Alcotest.(check bool)
    (Printf.sprintf "makespan ratio %.3f within [1e-3, 1e3]" ratio)
    true
    (ratio > 1e-3 && ratio < 1e3)

let test_chain_parity () =
  (* wifi_tx is a linear chain: only one task is ever ready, so FRFS
     must make identical decisions in both engines — every task on the
     first CPU, in chain order. *)
  let config = Config.zcu102_cores_ffts ~cores:2 ~ffts:0 in
  let (vr, vi), (nr, ni) = run_both config (Reference_apps.wifi_tx ()) 1 in
  check_counts vr nr;
  let order (r : Stats.report) = List.map (fun (t : Stats.task_record) -> t.Stats.node) r.Stats.records in
  Alcotest.(check (list string)) "same completion order" (order vr) (order nr);
  Alcotest.(check bool) "same per-task PE assignments" true (by_task vr = by_task nr);
  List.iter
    (fun (t : Stats.task_record) ->
      Alcotest.(check string) (t.Stats.node ^ " on first cpu") "cpu0" t.Stats.pe)
    nr.Stats.records;
  check_makespan_band vr nr;
  (* functional outputs agree bit-for-bit *)
  Alcotest.(check bool) "same transmitted time-domain signal" true
    (Store.get_cbuf vi.(0).Task.store "tx_time" = Store.get_cbuf ni.(0).Task.store "tx_time")

let test_dag_parity_single_pe () =
  (* range_detection is a diamond DAG; on a single CPU both engines
     serialise it, and every linear extension they pick must respect
     the DAG.  With one PE and FRFS the ready-list evolution is fully
     determined, so the orders must also be identical. *)
  let config = Config.zcu102_cores_ffts ~cores:1 ~ffts:0 in
  let spec = Reference_apps.range_detection () in
  let (vr, vi), (nr, ni) = run_both config spec 1 in
  check_counts vr nr;
  let order (r : Stats.report) = List.map (fun (t : Stats.task_record) -> t.Stats.node) r.Stats.records in
  Alcotest.(check (list string)) "same serialisation" (order vr) (order nr);
  Alcotest.(check bool) "all on the single PE" true
    (List.for_all (fun (t : Stats.task_record) -> t.Stats.pe = "cpu0") nr.Stats.records);
  (* both serialisations are topological orders of the app DAG *)
  let check_topological (r : Stats.report) name =
    let position = List.mapi (fun i (t : Stats.task_record) -> (t.Stats.node, i)) r.Stats.records in
    List.iter
      (fun (n : App_spec.node) ->
        List.iter
          (fun pred ->
            Alcotest.(check bool)
              (Printf.sprintf "%s: %s before %s" name pred n.App_spec.node_name)
              true
              (List.assoc pred position < List.assoc n.App_spec.node_name position))
          n.App_spec.predecessors)
      spec.App_spec.nodes
  in
  check_topological vr "virtual";
  check_topological nr "native";
  check_makespan_band vr nr;
  Alcotest.(check int) "same recovered lag" (Store.get_i32 vi.(0).Task.store "lag")
    (Store.get_i32 ni.(0).Task.store "lag")

let test_multi_instance_parity () =
  (* Two chain instances on one CPU: arrival order forces instance 0's
     chain to interleave deterministically ahead of instance 1 under
     FRFS in both engines. *)
  let config = Config.zcu102_cores_ffts ~cores:1 ~ffts:0 in
  let (vr, _), (nr, _) = run_both config (Reference_apps.wifi_tx ()) 2 in
  check_counts vr nr;
  Alcotest.(check bool) "same per-task PE assignments" true (by_task vr = by_task nr);
  let per_instance_order (r : Stats.report) inst =
    List.filter_map
      (fun (t : Stats.task_record) -> if t.Stats.instance = inst then Some t.Stats.node else None)
      r.Stats.records
  in
  let chain = [ "CRC"; "SCRAMBLE"; "ENCODE"; "INTERLEAVE"; "MODULATE"; "PILOT"; "IFFT" ] in
  List.iter
    (fun inst ->
      Alcotest.(check (list string))
        (Printf.sprintf "virtual instance %d follows the chain" inst)
        chain (per_instance_order vr inst);
      Alcotest.(check (list string))
        (Printf.sprintf "native instance %d follows the chain" inst)
        chain (per_instance_order nr inst))
    [ 0; 1 ]

(* ------------- functional-agreement matrix ------------- *)

(* Both engines run the same Engine_core protocol; what differs is
   timing (modelled vs measured).  Timing legitimately changes *which*
   PE a policy picks, so across the full matrix of reference apps x
   policies x reservation depths we do not compare assignments between
   engines — we assert what must hold regardless of timing: the same
   task population ran, every task completed on a PE that exists in
   the configuration and supports it, and the kernels computed
   identical output data (kernels are the same host closures on every
   PE, so outputs are assignment-independent). *)

let matrix_apps =
  [
    ("range_detection", Reference_apps.range_detection);
    ("wifi_tx", Reference_apps.wifi_tx);
    ("wifi_rx", Reference_apps.wifi_rx);
    ("pulse_doppler", Reference_apps.pulse_doppler);
  ]

let matrix_policies = [ "FRFS"; "MET"; "EFT"; "RANDOM"; "POWER" ]
let matrix_depths = [ 0; 2 ]

let check_stores_agree label (vi : Task.instance array) (ni : Task.instance array) =
  Alcotest.(check int) (label ^ ": same instance count") (Array.length vi) (Array.length ni);
  Array.iteri
    (fun i (v : Task.instance) ->
      let n = ni.(i) in
      List.iter
        (fun var ->
          Alcotest.(check bool)
            (Printf.sprintf "%s: instance %d var %s agrees" label i var)
            true
            (Store.get_raw v.Task.store var = Store.get_raw n.Task.store var))
        (Store.names v.Task.store))
    vi

let check_assignments_valid label config (instances : Task.instance array) =
  let pes = Config.pes config in
  Array.iter
    (fun (inst : Task.instance) ->
      Array.iter
        (fun (t : Task.t) ->
          Alcotest.(check bool)
            (Printf.sprintf "%s: %s/%s done" label t.Task.app_name t.Task.node.App_spec.node_name)
            true (t.Task.status = Task.Done);
          Alcotest.(check bool)
            (Printf.sprintf "%s: %s/%s ran on a supporting PE (%s)" label t.Task.app_name
               t.Task.node.App_spec.node_name t.Task.pe_label)
            true
            (List.exists
               (fun (pe : Dssoc_soc.Pe.t) ->
                 pe.Dssoc_soc.Pe.label = t.Task.pe_label && Task.supports t pe)
               pes))
        inst.Task.tasks)
    instances

let test_functional_agreement_matrix () =
  let config = Config.zcu102_cores_ffts ~cores:2 ~ffts:1 in
  List.iter
    (fun (app_name, spec_fn) ->
      List.iter
        (fun policy ->
          List.iter
            (fun depth ->
              let label = Printf.sprintf "%s/%s/depth%d" app_name policy depth in
              let wl () = Workload.validation [ (spec_fn (), 1) ] in
              let vr, vi =
                Result.get_ok
                  (Emulator.run_detailed
                     ~engine:(Emulator.virtual_seeded ~jitter:0.0 ~reservation_depth:depth 1L)
                     ~policy ~config ~workload:(wl ()) ())
              in
              let nr, ni =
                Result.get_ok
                  (Emulator.run_detailed
                     ~engine:(Emulator.native_seeded ~reservation_depth:depth 1L)
                     ~policy ~config ~workload:(wl ()) ())
              in
              check_counts vr nr;
              check_makespan_band vr nr;
              check_assignments_valid (label ^ "/virtual") config vi;
              check_assignments_valid (label ^ "/native") config ni;
              check_stores_agree label vi ni)
            matrix_depths)
        matrix_policies)
    matrix_apps

(* ---------------- reservation queues (depth > 0) ---------------- *)

(* With reservation_depth > 0 the shared workload manager takes the
   batched-completion branch (handler capacity > 1 defers do_schedule
   until the monitoring sweep finishes).  Parity pins down that
   batching changes *when* the scheduler runs, never *what* it decides
   on constrained configurations. *)

let run_virtual_depth config spec instances depth =
  let wl = Workload.validation [ (spec, instances) ] in
  Result.get_ok
    (Emulator.run_detailed
       ~engine:(Emulator.virtual_seeded ~jitter:0.0 ~reservation_depth:depth 1L)
       ~config ~workload:wl ())

let test_reservation_chain_parity () =
  (* Linear chain on two CPUs: one task ready at a time, so depth 1
     and 3 must produce the same assignments as the native engine. *)
  let config = Config.zcu102_cores_ffts ~cores:2 ~ffts:0 in
  let spec = Reference_apps.wifi_tx () in
  let (_, _), (nr, ni) = run_both config spec 1 in
  List.iter
    (fun depth ->
      let vr, vi = run_virtual_depth config spec 1 depth in
      check_counts vr nr;
      Alcotest.(check bool)
        (Printf.sprintf "depth %d: same per-task PE assignments" depth)
        true
        (by_task vr = by_task nr);
      Alcotest.(check bool)
        (Printf.sprintf "depth %d: batching exercised" depth)
        true
        (vr.Stats.sched_invocations > 0);
      check_makespan_band vr nr;
      Alcotest.(check bool)
        (Printf.sprintf "depth %d: same transmitted signal" depth)
        true
        (Store.get_cbuf vi.(0).Task.store "tx_time"
        = Store.get_cbuf ni.(0).Task.store "tx_time"))
    [ 1; 3 ]

let test_reservation_multi_instance_parity () =
  (* Two chain instances on one CPU: the reservation queue lets the WM
     pre-assign the next ready task behind the running one, but with a
     single PE the assignment target is forced, so per-task PEs and
     per-instance chain order must still agree with the native run. *)
  let config = Config.zcu102_cores_ffts ~cores:1 ~ffts:0 in
  let spec = Reference_apps.wifi_tx () in
  let (_, _), (nr, _) = run_both config spec 2 in
  let chain = [ "CRC"; "SCRAMBLE"; "ENCODE"; "INTERLEAVE"; "MODULATE"; "PILOT"; "IFFT" ] in
  List.iter
    (fun depth ->
      let vr, _ = run_virtual_depth config spec 2 depth in
      check_counts vr nr;
      Alcotest.(check bool)
        (Printf.sprintf "depth %d: same per-task PE assignments" depth)
        true
        (by_task vr = by_task nr);
      let per_instance_order inst =
        List.filter_map
          (fun (t : Stats.task_record) ->
            if t.Stats.instance = inst then Some t.Stats.node else None)
          vr.Stats.records
      in
      List.iter
        (fun inst ->
          Alcotest.(check (list string))
            (Printf.sprintf "depth %d: instance %d follows the chain" depth inst)
            chain (per_instance_order inst))
        [ 0; 1 ])
    [ 1; 3 ]

let test_reservation_fewer_invocations_same_decisions () =
  (* Depth 0 vs depth 2 on the same DAG and single PE: batched
     completions must reduce scheduler invocations without changing a
     single assignment. *)
  let config = Config.zcu102_cores_ffts ~cores:1 ~ffts:0 in
  let spec = Reference_apps.range_detection () in
  let vr0, vi0 = run_virtual_depth config spec 1 0 in
  let vr2, vi2 = run_virtual_depth config spec 1 2 in
  Alcotest.(check bool) "same per-task PE assignments" true (by_task vr0 = by_task vr2);
  Alcotest.(check bool) "depth 2 schedules no more often" true
    (vr2.Stats.sched_invocations <= vr0.Stats.sched_invocations);
  Alcotest.(check int) "same recovered lag" (Store.get_i32 vi0.(0).Task.store "lag")
    (Store.get_i32 vi2.(0).Task.store "lag")

let test_native_reservation_depth_differential () =
  (* The native engine now runs the same reservation queues as the
     virtual one.  Two chain instances on one CPU leave the scheduler
     no freedom, so depth 0 and depth 2 native runs must make the same
     decisions and compute the same signal — only dispatch batching
     may differ. *)
  let config = Config.zcu102_cores_ffts ~cores:1 ~ffts:0 in
  let spec = Reference_apps.wifi_tx () in
  let run depth =
    let wl = Workload.validation [ (spec, 2) ] in
    Result.get_ok
      (Emulator.run_detailed
         ~engine:(Emulator.native_seeded ~reservation_depth:depth 1L)
         ~config ~workload:wl ())
  in
  let nr0, ni0 = run 0 in
  let nr2, ni2 = run 2 in
  check_counts nr0 nr2;
  Alcotest.(check bool) "same per-task PE assignments" true (by_task nr0 = by_task nr2);
  let chain = [ "CRC"; "SCRAMBLE"; "ENCODE"; "INTERLEAVE"; "MODULATE"; "PILOT"; "IFFT" ] in
  let per_instance_order (r : Stats.report) inst =
    List.filter_map
      (fun (t : Stats.task_record) ->
        if t.Stats.instance = inst then Some t.Stats.node else None)
      r.Stats.records
  in
  List.iter
    (fun inst ->
      Alcotest.(check (list string))
        (Printf.sprintf "depth 0: instance %d follows the chain" inst)
        chain (per_instance_order nr0 inst);
      Alcotest.(check (list string))
        (Printf.sprintf "depth 2: instance %d follows the chain" inst)
        chain (per_instance_order nr2 inst))
    [ 0; 1 ];
  Alcotest.(check bool) "depth 2 schedules" true (nr2.Stats.sched_invocations > 0);
  List.iter
    (fun inst ->
      Alcotest.(check bool)
        (Printf.sprintf "instance %d: same transmitted signal" inst)
        true
        (Store.get_cbuf ni0.(inst).Task.store "tx_time"
        = Store.get_cbuf ni2.(inst).Task.store "tx_time"))
    [ 0; 1 ]

(* ---------------- fault differential ---------------- *)

module Fault = Dssoc_fault.Fault

(* Fault draws are keyed on (task, attempt) alone, and a die@0 rule
   fires proactively before anything is dispatched, so the fault
   schedule is engine-independent by construction: both engines must
   reach the same verdict with the same completed-task multiset and
   the same retry counts, for every policy.  (PE-targeted
   probabilistic rules would not give this — which attempts fail would
   still agree, but on which PE an attempt runs is timing.) *)

let fault_plan () =
  Result.get_ok (Fault.of_spec ~seed:5L "fft2:die@0,*:transient:p=0.1:recover=0.2ms")

let completed_multiset (r : Stats.report) =
  List.sort compare
    (List.map
       (fun (t : Stats.task_record) -> (t.Stats.app, t.Stats.instance, t.Stats.node))
       r.Stats.records)

let test_fault_parity_across_policies () =
  let config = Config.zcu102_cores_ffts ~cores:2 ~ffts:1 in
  let wl () =
    Workload.validation
      [ (Reference_apps.range_detection (), 1); (Reference_apps.wifi_tx (), 1) ]
  in
  List.iter
    (fun policy ->
      let label = "faults/" ^ policy in
      let vr, vi =
        Result.get_ok
          (Emulator.run_detailed ~engine:det_engine ~policy ~fault:(fault_plan ()) ~config
             ~workload:(wl ()) ())
      in
      let nr, ni =
        Result.get_ok
          (Emulator.run_detailed ~engine:Emulator.native_default ~policy
             ~fault:(fault_plan ()) ~config ~workload:(wl ()) ())
      in
      Alcotest.(check string)
        (label ^ ": virtual degraded")
        "degraded"
        (Stats.verdict_name vr.Stats.verdict);
      Alcotest.(check string)
        (label ^ ": same verdict")
        (Stats.verdict_name vr.Stats.verdict)
        (Stats.verdict_name nr.Stats.verdict);
      Alcotest.(check bool)
        (label ^ ": same completed-task multiset")
        true
        (completed_multiset vr = completed_multiset nr);
      Alcotest.(check int)
        (label ^ ": same retry count")
        vr.Stats.resilience.Stats.task_retries nr.Stats.resilience.Stats.task_retries;
      Alcotest.(check int)
        (label ^ ": same fault count")
        vr.Stats.resilience.Stats.faults_injected nr.Stats.resilience.Stats.faults_injected;
      Alcotest.(check int)
        (label ^ ": one death each")
        vr.Stats.resilience.Stats.pe_deaths nr.Stats.resilience.Stats.pe_deaths;
      check_assignments_valid (label ^ "/virtual") config vi;
      check_assignments_valid (label ^ "/native") config ni;
      List.iter
        (fun (r : Stats.report) ->
          List.iter
            (fun (t : Stats.task_record) ->
              Alcotest.(check bool) (label ^ ": dead PE executed nothing") true
                (t.Stats.pe <> "fft2"))
            r.Stats.records)
        [ vr; nr ];
      check_stores_agree label vi ni)
    matrix_policies

(* ---------------- event-stream parity ---------------- *)

(* Timings, PE choices and event interleavings legitimately differ
   between the engines, but both run the same workload-manager
   protocol, so the task-lifecycle *multiset* — which (app, node,
   instance) triples were injected, became ready, were dispatched and
   completed — must be identical. *)

let lifecycle_multiset obs =
  List.filter_map
    (fun (e : Obs.event) ->
      match e.Obs.body with
      | Obs.Instance_injected { instance; app } -> Some ("injected", app, "", instance)
      | Obs.Task_ready { instance; app; node; _ } -> Some ("ready", app, node, instance)
      | Obs.Task_dispatched { instance; app; node; _ } -> Some ("dispatched", app, node, instance)
      | Obs.Task_completed { instance; app; node; _ } -> Some ("completed", app, node, instance)
      | _ -> None)
    (Obs.recorded_events obs)
  |> List.sort compare

let test_event_multiset_parity () =
  let config = Config.zcu102_cores_ffts ~cores:2 ~ffts:1 in
  let wl () =
    Workload.validation
      [ (Reference_apps.wifi_tx (), 1); (Reference_apps.range_detection (), 2) ]
  in
  let observe engine =
    let obs = Obs.make ~sink:(Obs.Sink.ring ()) () in
    ignore
      (Result.get_ok (Emulator.run_detailed ~engine ~config ~workload:(wl ()) ~obs ()));
    Alcotest.(check int) "nothing dropped" 0 (Obs.Sink.dropped (Obs.sink obs));
    lifecycle_multiset obs
  in
  let vm = observe det_engine in
  let nm = observe (Emulator.native_seeded 1L) in
  Alcotest.(check bool) "non-trivial stream" true (List.length vm > 10);
  Alcotest.(check int) "same lifecycle event count" (List.length vm) (List.length nm);
  Alcotest.(check bool) "same task-event multiset" true (vm = nm);
  (* internal consistency: within each engine, every task that became
     ready was dispatched and completed exactly once *)
  let project kind m =
    List.filter_map (fun (k, app, node, inst) -> if k = kind then Some (app, node, inst) else None) m
  in
  List.iter
    (fun (name, m) ->
      Alcotest.(check bool) (name ^ ": ready = dispatched") true
        (project "ready" m = project "dispatched" m);
      Alcotest.(check bool) (name ^ ": ready = completed") true
        (project "ready" m = project "completed" m))
    [ ("virtual", vm); ("native", nm) ]

(* ---------------- compiled engine: exact replay ---------------- *)

(* The compiled engine's contract is stronger than the native one's:
   it must replay the virtual engine *byte for byte* — same
   records_csv, same report, same final stores — for every built-in
   policy, any reservation depth and any jitter.  The matrix below
   pins that contract on the reference mix, the fig9-style workload
   and a fig10 performance trace. *)

module Compiled = Dssoc_runtime.Compiled_engine
module Scheduler = Dssoc_runtime.Scheduler
module Engine_core = Dssoc_runtime.Engine_core
module Kernels = Dssoc_apps.Kernels
module Prng = Dssoc_util.Prng

let qtest = QCheck_alcotest.to_alcotest

let policy_of name = Result.get_ok (Scheduler.find name)

(* On divergence, show the first differing line rather than two
   multi-thousand-line blobs. *)
let check_lines_identical label what vtext ctext =
  if not (String.equal vtext ctext) then begin
    let vl = String.split_on_char '\n' vtext and cl = String.split_on_char '\n' ctext in
    let rec first i = function
      | a :: ta, b :: tb ->
        if String.equal a b then first (i + 1) (ta, tb)
        else Printf.sprintf "line %d: virtual %S vs compiled %S" i a b
      | a :: _, [] -> Printf.sprintf "line %d only in virtual: %S" i a
      | [], b :: _ -> Printf.sprintf "line %d only in compiled: %S" i b
      | [], [] -> "equal length, no differing line (?)"
    in
    Alcotest.failf "%s: %s diverges at %s" label what (first 0 (vl, cl))
  end

let check_csv_identical label vcsv ccsv = check_lines_identical label "records_csv" vcsv ccsv

let check_stores_identical label (vi : Task.instance array) (ci : Task.instance array) =
  Alcotest.(check int) (label ^ ": same instance count") (Array.length vi) (Array.length ci);
  Array.iteri
    (fun i (v : Task.instance) ->
      List.iter
        (fun var ->
          Alcotest.(check bool)
            (Printf.sprintf "%s: instance %d var %s byte-identical" label i var)
            true
            (Bytes.equal (Store.get_raw v.Task.store var) (Store.get_raw ci.(i).Task.store var)))
        (Store.names v.Task.store))
    vi

let compiled_scenarios =
  [
    ( "reference-mix",
      (fun () -> Config.zcu102_cores_ffts ~cores:2 ~ffts:1),
      fun () ->
        Workload.validation
          [ (Reference_apps.range_detection (), 2); (Reference_apps.wifi_tx (), 2);
            (Reference_apps.wifi_rx (), 1) ] );
    ( "fig9-mix",
      (fun () -> Config.zcu102_cores_ffts ~cores:3 ~ffts:2),
      fun () ->
        Workload.validation
          [ (Reference_apps.pulse_doppler (), 1); (Reference_apps.range_detection (), 2);
            (Reference_apps.wifi_tx (), 2); (Reference_apps.wifi_rx (), 2) ] );
    ( "fig10-rate1.71",
      (fun () -> Config.zcu102_cores_ffts ~cores:3 ~ffts:2),
      fun () -> Workload.table2_workload ~rate:1.71 () );
  ]

let matrix_jitters = [ 0.0; 0.03 ]

let test_compiled_exact_replay () =
  List.iter
    (fun (scen, config_fn, wl_fn) ->
      let config = config_fn () in
      List.iter
        (fun policy ->
          (* One plan per (scenario, policy): params are run inputs,
             not compile inputs, so depth/jitter reuse the plan — the
             test doubles as a plan-reuse check. *)
          let plan =
            Compiled.compile ~config ~workload:(wl_fn ()) ~policy:(policy_of policy) ()
          in
          List.iter
            (fun depth ->
              List.iter
                (fun jitter ->
                  let label =
                    Printf.sprintf "%s/%s/depth%d/jitter%.2f" scen policy depth jitter
                  in
                  let params =
                    { Engine_core.seed = 7L; jitter; reservation_depth = depth }
                  in
                  let vr, vi =
                    Result.get_ok
                      (Emulator.run_detailed
                         ~engine:(Emulator.Virtual params)
                         ~policy ~config ~workload:(wl_fn ()) ())
                  in
                  let cr, ci = Compiled.run_detailed plan params in
                  check_csv_identical label (Stats.records_csv vr) (Stats.records_csv cr);
                  Alcotest.(check int) (label ^ ": same makespan") vr.Stats.makespan_ns
                    cr.Stats.makespan_ns;
                  Alcotest.(check int) (label ^ ": same WM overhead") vr.Stats.wm_overhead_ns
                    cr.Stats.wm_overhead_ns;
                  Alcotest.(check (float 1e-9)) (label ^ ": same busy energy")
                    (Stats.total_busy_energy_mj vr) (Stats.total_busy_energy_mj cr);
                  Alcotest.(check (float 1e-9)) (label ^ ": same total energy")
                    (Stats.total_energy_mj vr) (Stats.total_energy_mj cr);
                  Alcotest.(check bool) (label ^ ": same report") true (vr = cr);
                  check_stores_identical label vi ci)
                matrix_jitters)
            matrix_depths)
        matrix_policies)
    compiled_scenarios

let test_compiled_plan_purity () =
  (* A plan is immutable apart from scratch buffers: compiling twice
     and interleaving runs (including runs under different params in
     between) must not change what any given (plan, params) pair
     produces. *)
  let config = Config.zcu102_cores_ffts ~cores:2 ~ffts:1 in
  let wl () =
    Workload.validation
      [ (Reference_apps.range_detection (), 2); (Reference_apps.wifi_tx (), 1) ]
  in
  let compile () = Compiled.compile ~config ~workload:(wl ()) ~policy:Scheduler.eft () in
  let p1 = compile () and p2 = compile () in
  let params = { Engine_core.seed = 3L; jitter = 0.03; reservation_depth = 1 } in
  let other = { Engine_core.seed = 9L; jitter = 0.01; reservation_depth = 0 } in
  let baseline = Stats.records_csv (Compiled.run p1 params) in
  Alcotest.(check string) "second plan replays the first" baseline
    (Stats.records_csv (Compiled.run p2 params));
  ignore (Compiled.run p1 other);
  ignore (Compiled.run p2 other);
  Alcotest.(check string) "plan 1 unchanged after interleaved runs" baseline
    (Stats.records_csv (Compiled.run p1 params));
  Alcotest.(check string) "plan 2 unchanged after interleaved runs" baseline
    (Stats.records_csv (Compiled.run p2 params))

(* Policies the compiled engine knows nothing about run through the
   same [Scheduler.context] as on the virtual engine.  LIFO_RANDOM
   takes the window newest first and sends each task to a seeded-random
   idle supporting PE: a replay must hand it the same window, PE states,
   estimates and PRNG stream on both engines. *)
let lifo_random =
  {
    Scheduler.name = "LIFO_RANDOM";
    schedule =
      (fun ctx ->
        let newest_first = ref [] in
        Scheduler.iter_window ctx (fun t -> newest_first := t :: !newest_first);
        let pes = ctx.Scheduler.pes in
        List.filter_map
          (fun task ->
            let cands =
              List.filter
                (fun i ->
                  ctx.Scheduler.ops <- ctx.Scheduler.ops + 1;
                  pes.(i).Scheduler.idle && ctx.Scheduler.estimate task i <> Scheduler.unsupported)
                (List.init (Array.length pes) Fun.id)
            in
            match cands with
            | [] -> None
            | _ ->
              let i = List.nth cands (Prng.int ctx.Scheduler.prng (List.length cands)) in
              pes.(i).Scheduler.idle <- false;
              Some { Scheduler.task; pe_index = i })
          !newest_first);
  }

(* A faulty policy: the oldest window task goes to every idle PE that
   supports it.  Dispatch must take the first assignment and drop the
   rest, on both engines. *)
let oldest_everywhere =
  {
    Scheduler.name = "OLDEST_EVERYWHERE";
    schedule =
      (fun ctx ->
        let out = ref [] in
        if ctx.Scheduler.nready > 0 then begin
          let task = ref None in
          Scheduler.iter_window ctx (fun t -> if !task = None then task := Some t);
          let task = Option.get !task in
          Array.iteri
            (fun i (st : Scheduler.pe_state) ->
              if st.Scheduler.idle && ctx.Scheduler.estimate task i <> Scheduler.unsupported then
                out := { Scheduler.task; pe_index = i } :: !out)
            ctx.Scheduler.pes
        end;
        List.rev !out);
  }

let custom_params =
  [
    { Engine_core.seed = 7L; jitter = 0.0; reservation_depth = 0 };
    { Engine_core.seed = 3L; jitter = 0.03; reservation_depth = 1 };
    { Engine_core.seed = 11L; jitter = 0.03; reservation_depth = 3 };
  ]

let check_custom_policy_replay (policy : Scheduler.policy) check_run =
  Scheduler.register policy;
  List.iter
    (fun (scen, config_fn, wl_fn) ->
      let config = config_fn () in
      let plan = Compiled.compile ~config ~workload:(wl_fn ()) ~policy () in
      List.iter
        (fun (params : Engine_core.params) ->
          let label =
            Printf.sprintf "%s/%s/seed%Ld/depth%d/jitter%.2f" scen policy.Scheduler.name
              params.Engine_core.seed params.Engine_core.reservation_depth params.Engine_core.jitter
          in
          let vr, vi =
            Result.get_ok
              (Emulator.run_detailed ~engine:(Emulator.Virtual params)
                 ~policy:policy.Scheduler.name ~config ~workload:(wl_fn ()) ())
          in
          let cr, ci = Compiled.run_detailed plan params in
          check_run label vr;
          check_csv_identical label (Stats.records_csv vr) (Stats.records_csv cr);
          Alcotest.(check bool) (label ^ ": same report") true (vr = cr);
          check_stores_identical label vi ci)
        custom_params)
    compiled_scenarios

let test_custom_policy_exact_replay () =
  check_custom_policy_replay lifo_random (fun label r ->
      Alcotest.(check string) (label ^ ": verdict") "completed" (Stats.verdict_name r.Stats.verdict))

let test_duplicate_assignments_dropped () =
  check_custom_policy_replay oldest_everywhere (fun label r ->
      let keys =
        List.map (fun (t : Stats.task_record) -> (t.Stats.instance, t.Stats.node)) r.Stats.records
      in
      Alcotest.(check int) (label ^ ": every task ran") r.Stats.task_count (List.length keys);
      Alcotest.(check int) (label ^ ": each task once") (List.length keys)
        (List.length (List.sort_uniq compare keys)))

let test_compiled_rejects_fault_plans () =
  let config = Config.zcu102_cores_ffts ~cores:2 ~ffts:1 in
  let workload = Workload.validation [ (Reference_apps.wifi_tx (), 1) ] in
  Alcotest.(check bool) "compile raises Unsupported" true
    (try
       ignore
         (Compiled.compile ~fault:(fault_plan ()) ~config ~workload ~policy:Scheduler.frfs ());
       false
     with Compiled.Unsupported _ -> true);
  match
    Emulator.run
      ~engine:(Emulator.compiled_seeded 1L)
      ~fault:(fault_plan ()) ~config ~workload ()
  with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "Emulator surfaced no error for fault + compiled"

(* ---------------- compiled engine: observability lowering ---------------- *)

module Analyze = Dssoc_obs.Analyze

(* Ring large enough that no scenario in the matrix drops events — a
   truncated stream would make the byte comparison vacuous. *)
let traced_obs () =
  Obs.make ~sink:(Obs.Sink.ring ~capacity:(1 lsl 18) ()) ~metrics:(Obs.Metrics.create ()) ()

let metrics_text obs =
  match Obs.metrics obs with
  | Some m -> Format.asprintf "%a" Obs.Metrics.pp m
  | None -> ""

(* The lowered hooks must make a traced compiled run indistinguishable
   from a traced virtual run: same event stream (byte-for-byte as
   JSONL), same metrics registry contents and registration order, on
   top of the untraced exact-replay contract. *)
let test_compiled_obs_parity () =
  List.iter
    (fun (scen, config_fn, wl_fn) ->
      let config = config_fn () in
      List.iter
        (fun policy ->
          let plan =
            Compiled.compile ~config ~workload:(wl_fn ()) ~policy:(policy_of policy) ()
          in
          List.iter
            (fun depth ->
              List.iter
                (fun jitter ->
                  let label =
                    Printf.sprintf "%s/%s/depth%d/jitter%.2f" scen policy depth jitter
                  in
                  let params =
                    { Engine_core.seed = 7L; jitter; reservation_depth = depth }
                  in
                  let vobs = traced_obs () and cobs = traced_obs () in
                  let vr =
                    Result.get_ok
                      (Emulator.run
                         ~engine:(Emulator.Virtual params)
                         ~policy ~obs:vobs ~config ~workload:(wl_fn ()) ())
                  in
                  let cr = Compiled.run ~obs:cobs plan params in
                  Alcotest.(check int) (label ^ ": no dropped events") 0
                    (Obs.Sink.dropped (Obs.sink vobs));
                  check_lines_identical label "event JSONL"
                    (Obs.to_jsonl (Obs.recorded_events vobs))
                    (Obs.to_jsonl (Obs.recorded_events cobs));
                  check_lines_identical label "metrics" (metrics_text vobs) (metrics_text cobs);
                  check_csv_identical label (Stats.records_csv vr) (Stats.records_csv cr);
                  (* and the shared analytics layer sees the same run *)
                  let cp =
                    Analyze.critical_path (Analyze.of_events (Obs.recorded_events cobs))
                  in
                  Alcotest.(check int) (label ^ ": crit path = makespan") cr.Stats.makespan_ns
                    cp.Analyze.cp_length_ns)
                matrix_jitters)
            matrix_depths)
        matrix_policies)
    compiled_scenarios

(* ---------------- compiled engine: random-DAG properties ---------------- *)

(* The reference apps exercise a handful of DAG shapes; the properties
   below throw randomly wired DAGs at the compiler so the CSR
   adjacency lowering, the ready bookkeeping and the policy loops are
   checked on shapes nobody hand-picked. *)

let () =
  Kernels.register_object "qdag.so"
    [
      ( "bump",
        fun store args ->
          (* One shared accumulator: every node execution adds its
             first argument's length-independent constant, so the
             final store is a function of *which* tasks ran, not of
             scheduling order. *)
          ignore args;
          Store.set_i32 store "acc" (Store.get_i32 store "acc" + 1) );
    ]

(* Deterministically derive a random DAG from [seed]: n nodes, each
   wired to a random subset of its predecessors (guaranteeing at least
   one edge from the previous node half the time), each supported on
   cpu and — with probability 1/2 — also on the FFT accelerator. *)
let random_dag seed =
  let prng = Prng.create ~seed:(Int64.of_int (0x5EED + seed)) in
  let n = 3 + Prng.int prng 8 in
  let nodes =
    List.init n (fun i ->
        let preds =
          List.filteri (fun j _ -> j < i && Prng.bool prng) (List.init n (fun j -> j))
          |> List.map (Printf.sprintf "n%d")
        in
        let preds =
          if i > 0 && preds = [] && Prng.bool prng then [ Printf.sprintf "n%d" (i - 1) ]
          else preds
        in
        let platforms =
          { App_spec.platform = "cpu"; runfunc = "bump"; shared_object = None; cost_us = None }
          ::
          (if Prng.bool prng then
             [ { App_spec.platform = "fft"; runfunc = "bump"; shared_object = None;
                 cost_us = None } ]
           else [])
        in
        {
          App_spec.node_name = Printf.sprintf "n%d" i;
          arguments = [ "acc" ];
          predecessors = preds;
          successors = [];
          platforms;
          kernel_class = "generic";
          size = 1 + Prng.int prng 64;
          bytes_in = 0;
          bytes_out = 0;
        })
  in
  App_spec.of_edges ~app_name:(Printf.sprintf "qdag%d" seed) ~shared_object:"qdag.so"
    ~variables:[ ("acc", { Store.bytes = 4; is_ptr = false; ptr_alloc_bytes = 0; init = [] }) ]
    ~nodes

let qcheck_compiled_respects_adjacency =
  QCheck.Test.make ~name:"compiled run respects random-DAG adjacency" ~count:30
    QCheck.(make Gen.(int_range 0 10_000))
    (fun seed ->
      let spec = random_dag seed in
      let config = Config.zcu102_cores_ffts ~cores:2 ~ffts:1 in
      let plan =
        Compiled.compile ~config
          ~workload:(Workload.validation [ (spec, 2) ])
          ~policy:Scheduler.frfs ()
      in
      let r, insts =
        Compiled.run_detailed plan { Engine_core.seed = 1L; jitter = 0.0; reservation_depth = 0 }
      in
      (* every task completed exactly once... *)
      let n = List.length spec.App_spec.nodes in
      if List.length r.Stats.records <> 2 * n then
        QCheck.Test.fail_reportf "expected %d records, got %d" (2 * n)
          (List.length r.Stats.records);
      (* ...the kernel ran once per task (adjacency lost no node)... *)
      Array.iter
        (fun (inst : Task.instance) ->
          if Store.get_i32 inst.Task.store "acc" <> n then
            QCheck.Test.fail_reportf "instance ran %d of %d kernels"
              (Store.get_i32 inst.Task.store "acc") n)
        insts;
      (* ...and no task was dispatched before all its predecessors
         completed: the CSR lowering round-trips the DAG. *)
      let completed = Hashtbl.create 16 in
      List.iter
        (fun (t : Stats.task_record) ->
          Hashtbl.replace completed (t.Stats.instance, t.Stats.node) t.Stats.completed_ns)
        r.Stats.records;
      List.for_all
        (fun (t : Stats.task_record) ->
          let node = App_spec.node spec t.Stats.node in
          List.for_all
            (fun pred ->
              match Hashtbl.find_opt completed (t.Stats.instance, pred) with
              | Some c -> c <= t.Stats.dispatched_ns
              | None -> false)
            node.App_spec.predecessors)
        r.Stats.records)

let qcheck_compiled_replays_virtual =
  QCheck.Test.make ~name:"compiled replays virtual on random DAGs" ~count:30
    QCheck.(make Gen.(pair (int_range 0 10_000) (pair (int_range 0 4) (int_range 0 2))))
    (fun (seed, (policy_ix, depth)) ->
      let spec = random_dag seed in
      let config = Config.zcu102_cores_ffts ~cores:2 ~ffts:1 in
      let policy = List.nth matrix_policies policy_ix in
      let wl () = Workload.validation [ (spec, 2) ] in
      let params =
        { Engine_core.seed = Int64.of_int (seed + 1); jitter = 0.03; reservation_depth = depth }
      in
      let vr =
        Result.get_ok
          (Emulator.run ~engine:(Emulator.Virtual params) ~policy ~config ~workload:(wl ()) ())
      in
      let plan =
        Compiled.compile ~config ~workload:(wl ()) ~policy:(policy_of policy) ()
      in
      let cr = Compiled.run plan params in
      if not (String.equal (Stats.records_csv vr) (Stats.records_csv cr)) then
        QCheck.Test.fail_reportf "records diverge for seed %d policy %s depth %d" seed policy
          depth;
      vr.Stats.makespan_ns = cr.Stats.makespan_ns && completed_multiset vr = completed_multiset cr)

let qcheck_crit_path_equals_makespan =
  (* The critical path's gaps and services partition [0, makespan] for
     any realized schedule — pinned on random DAGs through both
     engines, whose traced streams must also agree byte-for-byte. *)
  QCheck.Test.make ~name:"critical-path length = makespan on random DAGs (both engines)"
    ~count:30
    QCheck.(make Gen.(pair (int_range 0 10_000) (pair (int_range 0 4) (int_range 0 2))))
    (fun (seed, (policy_ix, depth)) ->
      let spec = random_dag seed in
      let config = Config.zcu102_cores_ffts ~cores:2 ~ffts:1 in
      let policy = List.nth matrix_policies policy_ix in
      let wl () = Workload.validation [ (spec, 2) ] in
      let params =
        { Engine_core.seed = Int64.of_int (seed + 1); jitter = 0.03; reservation_depth = depth }
      in
      let vobs = traced_obs () and cobs = traced_obs () in
      let vr =
        Result.get_ok
          (Emulator.run ~engine:(Emulator.Virtual params) ~policy ~obs:vobs ~config
             ~workload:(wl ()) ())
      in
      let plan = Compiled.compile ~config ~workload:(wl ()) ~policy:(policy_of policy) () in
      let cr = Compiled.run ~obs:cobs plan params in
      let cp_len obs =
        (Analyze.critical_path (Analyze.of_events (Obs.recorded_events obs))).Analyze.cp_length_ns
      in
      if cp_len vobs <> vr.Stats.makespan_ns then
        QCheck.Test.fail_reportf "virtual: crit path %d <> makespan %d (seed %d %s depth %d)"
          (cp_len vobs) vr.Stats.makespan_ns seed policy depth;
      if cp_len cobs <> cr.Stats.makespan_ns then
        QCheck.Test.fail_reportf "compiled: crit path %d <> makespan %d (seed %d %s depth %d)"
          (cp_len cobs) cr.Stats.makespan_ns seed policy depth;
      String.equal
        (Obs.to_jsonl (Obs.recorded_events vobs))
        (Obs.to_jsonl (Obs.recorded_events cobs)))

let qcheck_compiled_rejects_faults =
  QCheck.Test.make ~name:"compile rejects fault plans on random DAGs" ~count:10
    QCheck.(make Gen.(int_range 0 10_000))
    (fun seed ->
      let spec = random_dag seed in
      let config = Config.zcu102_cores_ffts ~cores:2 ~ffts:1 in
      try
        ignore
          (Compiled.compile ~fault:(fault_plan ()) ~config
             ~workload:(Workload.validation [ (spec, 1) ])
             ~policy:Scheduler.frfs ());
        false
      with Compiled.Unsupported _ -> true)

let () =
  Alcotest.run "diff_engines"
    [
      ( "virtual vs native",
        [
          Alcotest.test_case "linear chain parity" `Slow test_chain_parity;
          Alcotest.test_case "DAG parity on one PE" `Slow test_dag_parity_single_pe;
          Alcotest.test_case "multi-instance chain parity" `Slow test_multi_instance_parity;
          Alcotest.test_case "functional agreement matrix" `Slow test_functional_agreement_matrix;
        ] );
      ( "reservation queues",
        [
          Alcotest.test_case "chain parity at depth 1 and 3" `Slow test_reservation_chain_parity;
          Alcotest.test_case "multi-instance parity at depth 1 and 3" `Slow
            test_reservation_multi_instance_parity;
          Alcotest.test_case "batching preserves decisions" `Slow
            test_reservation_fewer_invocations_same_decisions;
          Alcotest.test_case "native reservation-depth differential" `Slow
            test_native_reservation_depth_differential;
        ] );
      ( "fault injection",
        [
          Alcotest.test_case "fault parity across the policy matrix" `Slow
            test_fault_parity_across_policies;
        ] );
      ( "event streams",
        [ Alcotest.test_case "task-lifecycle multiset parity" `Slow test_event_multiset_parity ] );
      ( "virtual vs compiled",
        [
          Alcotest.test_case "exact-replay matrix" `Slow test_compiled_exact_replay;
          Alcotest.test_case "plan purity under interleaved runs" `Quick
            test_compiled_plan_purity;
          Alcotest.test_case "fault plans rejected" `Quick test_compiled_rejects_fault_plans;
          Alcotest.test_case "custom policy replays exactly" `Slow test_custom_policy_exact_replay;
          Alcotest.test_case "duplicate assignments dropped" `Slow
            test_duplicate_assignments_dropped;
          qtest qcheck_compiled_respects_adjacency;
          qtest qcheck_compiled_replays_virtual;
          qtest qcheck_compiled_rejects_faults;
        ] );
      ( "observability lowering",
        [
          Alcotest.test_case "traced-replay matrix (events + metrics)" `Slow
            test_compiled_obs_parity;
          qtest qcheck_crit_path_equals_makespan;
        ] );
    ]
