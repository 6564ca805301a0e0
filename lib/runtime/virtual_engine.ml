module Prng = Dssoc_util.Prng
module Pe = Dssoc_soc.Pe
module Host = Dssoc_soc.Host
module Config = Dssoc_soc.Config
module Fabric = Dssoc_soc.Fabric
module App_spec = Dssoc_apps.App_spec
module Workload = Dssoc_apps.Workload
module Core = Engine_core
module Obs = Dssoc_obs.Obs

type params = Engine_core.params = {
  seed : int64;
  jitter : float;
  reservation_depth : int;
}

let default_params = Engine_core.default_params

(* ------------------------------------------------------------------ *)
(* Effect threads on the shared substrate                              *)
(* ------------------------------------------------------------------ *)

(* Each manager thread is a direct-style effect thread.  The four
   blocking operations carry the performing thread's id — resource
   manager i is thread i, the workload manager is [Des.wm] — and the
   handler hands them to [Des]; when one suspends, the continuation is
   parked in the thread's slot until [Des.run] resumes that thread. *)
type _ Effect.t +=
  | Work : int * int -> unit Effect.t  (** [(th, ns)]: {!Des.work} *)
  | Stream : int * int * int -> unit Effect.t  (** [(th, bytes, ns)]: {!Des.stream} *)
  | Sleep : int * int -> unit Effect.t  (** [(th, ns)]: {!Des.sleep} *)
  | Await : int * int option -> unit Effect.t  (** [(th, deadline)]: {!Des.await} *)

(* Spawn one thread per body (thread id = index) and run the loop:
   resource managers first, then the workload manager, the order their
   start events pop in. *)
let run_threads d (bodies : (unit -> unit) array) =
  let open Effect.Deep in
  let conts : (unit, unit) continuation option array = Array.make (Array.length bodies) None in
  let park th k suspended = if suspended then conts.(th) <- Some k else continue k () in
  let handler =
    {
      retc = (fun () -> ());
      exnc = raise;
      effc =
        (fun (type a) (eff : a Effect.t) ->
          match eff with
          | Work (th, ns) ->
            Some (fun (k : (a, unit) continuation) -> park th k (Des.work d th ns))
          | Stream (th, bytes, ns) ->
            Some (fun (k : (a, unit) continuation) -> park th k (Des.stream d th ~bytes ns))
          | Sleep (th, ns) ->
            Some (fun (k : (a, unit) continuation) -> park th k (Des.sleep d th ns))
          | Await (th, deadline) ->
            Some (fun (k : (a, unit) continuation) -> park th k (Des.await d ?deadline th))
          | _ -> None);
    }
  in
  Array.iteri (fun th _ -> Des.spawn d th) bodies;
  Des.run d
    ~start:(fun th -> match_with bodies.(th) () handler)
    ~resume:(fun th ->
      match conts.(th) with
      | Some k ->
        conts.(th) <- None;
        continue k ()
      | None -> assert false)

let work th ns = if ns > 0 then Effect.perform (Work (th, ns))
let sleep th ns = if ns > 0 then Effect.perform (Sleep (th, ns))

(* ------------------------------------------------------------------ *)
(* The DES backend for the shared engine core                          *)
(* ------------------------------------------------------------------ *)

let backend d ~prng ~jitter ~bus ~hop_ns ~overlay_perf ~est_table
    ~(policy : Scheduler.policy) ~n_pes ~(stats : Core.wm_stats) ~obs =
  let wm = Des.wm d in
  let scale ns = int_of_float (Float.round (ns /. overlay_perf)) in
  (* Modelled workload-manager bookkeeping occupies the overlay core. *)
  let charge ns =
    let ns = scale ns in
    stats.Core.wm_ns <- stats.Core.wm_ns + ns;
    work wm ns
  in
  let jit ns = Core.jittered prng ~jitter ns in
  (* The b_dma hook.  Ideal (or a phase moving no data) replays the
     legacy per-device duration on the manager's host core exactly as
     before.  Under a bus the manager thread leaves its host core:
     the stream is serviced by the shared link (fair-share among
     in-flight streams, FIFO-stalled when the link is full), then the
     fixed per-chunk device latency plus per-hop fabric latency is
     paid as plain delay. *)
  let dma (h : unit Core.handler) (ph : Core.dma_phase) =
    let th = h.Core.h_index in
    match bus with
    | Some bus when ph.Core.dp_bytes > 0 ->
      let dem = jit (Fabric.demand_ns bus ~bytes:ph.Core.dp_bytes) in
      if dem > 0 then Effect.perform (Stream (th, ph.Core.dp_bytes, dem));
      sleep th (ph.Core.dp_chunks * (ph.Core.dp_chunk_lat_ns + hop_ns.(th)))
    | _ -> work th (jit ph.Core.dp_ideal_ns)
  in
  let execute (h : unit Core.handler) (task : Task.t) =
    let kernel = Exec_model.resolve_kernel task h.Core.h_pe in
    let args = task.Task.node.App_spec.arguments in
    let th = h.Core.h_index in
    match h.Core.h_pe.Pe.kind with
    | Pe.Cpu _ ->
      kernel task.Task.store args;
      work th (jit (Exec_model.lookup est_table task th))
    | Pe.Accel acl ->
      let dma_in, compute, dma_out = Core.accel_phases task h.Core.h_pe acl in
      let traced = Obs.enabled obs in
      let phase_end ph t0 =
        if traced then
          Obs.on_phase obs ~now:d.Des.now ~task:task.Task.id ~pe_index:th ~phase:ph
            ~start_ns:t0 ~dur_ns:(d.Des.now - t0)
      in
      (* DMA to device goes through the fabric hook... *)
      let t0 = d.Des.now in
      dma h dma_in;
      phase_end Obs.Dma_in t0;
      kernel task.Task.store args;
      (* ...then the thread sleeps while the device computes... *)
      let t1 = d.Des.now in
      sleep th (jit compute);
      phase_end Obs.Device_compute t1;
      (* ...and wakes to move the results back. *)
      let t2 = d.Des.now in
      dma h dma_out;
      phase_end Obs.Dma_out t2
  in
  {
    Core.b_now = (fun () -> d.Des.now);
    (* Single-threaded event loop: no mutual exclusion needed. *)
    b_lock = ignore;
    b_unlock = ignore;
    b_handler_await = (fun h -> Effect.perform (Await (h.Core.h_index, None)));
    b_notify_handler = (fun h -> Des.signal d h.Core.h_index);
    b_wm_await = (fun ~deadline -> Effect.perform (Await (wm, deadline)));
    b_notify_wm = (fun () -> Des.signal d wm);
    b_charge = charge;
    b_dma = dma;
    b_execute = execute;
    (* Fault-detection latencies and slowdown tails keep the PE's
       manager thread asleep (the device is wedged, not computing), so
       no host core is occupied — just virtual time. *)
    b_delay = (fun h ns -> sleep h.Core.h_index ns);
    b_sched_start = (fun () -> 0);
    b_sched_done =
      (fun _t0 ~ready ~ops ->
        (* The policy's cost is modelled, not measured: the calibrated
           overhead for the *live* ready-list length, scaled by the
           overlay core and charged on it. *)
        let cost =
          scale
            (float_of_int
               (Scheduler.overhead_ns ~policy_name:policy.Scheduler.name ~ready
                  ~pes:n_pes ~ops))
        in
        stats.Core.wm_ns <- stats.Core.wm_ns + cost;
        work wm cost;
        cost);
    b_wm_tick_start = (fun () -> 0);
    (* The event heap *is* the simulation's pending future; its depth
       is the DES-specific health gauge. *)
    b_wm_tick_end = (fun _ -> Des.sample_depth d);
  }

(* ------------------------------------------------------------------ *)
(* Top-level run                                                       *)
(* ------------------------------------------------------------------ *)

(* Everything a virtual run needs, built identically for the one-shot
   and the resident-service entry points.  [clock0]/[prng] are the
   starting virtual time and engine PRNG — zero / freshly seeded for a
   normal run, the checkpointed values for a restored service. *)
type prepared = {
  pr_des : Des.t;
  pr_prng : Prng.t;
  pr_instances : Task.instance array;
  pr_handlers : unit Core.handler array;
  pr_est_table : Exec_model.table;
  pr_stats : Core.wm_stats;
  pr_fault : Dssoc_fault.Fault.t;
  pr_b : unit Core.backend;
}

let prepare ~(params : params) ~obs ~engine_name ~clock0 ~prng ?fault
    ~(config : Config.t) ~(workload : Workload.t) ~(policy : Scheduler.policy) () =
  let instances = Core.instantiate ~engine_name ~config ~workload in
  let handlers =
    Array.of_list
      (List.mapi
         (fun i (p : Config.placement) ->
           Core.make_handler ~pe:p.Config.pe ~index:i
             ~reservation_depth:params.reservation_depth ())
         config.Config.placements)
  in
  (* Price every (task, PE) pair once, up front; the scheduler and the
     dispatch paths then estimate with a single array load. *)
  let est_table =
    Exec_model.build_table ~instances ~pes:(Array.map (fun h -> h.Core.h_pe) handlers)
  in
  let stats = Core.make_stats () in
  let fault = Core.compile_fault fault ~handlers in
  Obs.attach_pes obs ~pe_labels:(Array.map (fun h -> h.Core.h_pe.Pe.label) handlers);
  let d = Des.create ~obs ~clock0 (Des.host_cores config) config.Config.fabric in
  let bus, hop_ns =
    match config.Config.fabric with
    | Fabric.Ideal -> (None, [||])
    | Fabric.Bus bus ->
      ( Some bus,
        Array.map
          (fun h -> Fabric.hops bus.Fabric.topology ~pe_index:h.Core.h_index * bus.Fabric.hop_ns)
          handlers )
  in
  let b =
    backend d ~prng ~jitter:params.jitter ~bus ~hop_ns
      ~overlay_perf:config.Config.host.Host.overlay.Host.core_class.Pe.perf_factor ~est_table
      ~policy ~n_pes:(Array.length handlers) ~stats ~obs
  in
  {
    pr_des = d;
    pr_prng = prng;
    pr_instances = instances;
    pr_handlers = handlers;
    pr_est_table = est_table;
    pr_stats = stats;
    pr_fault = fault;
    pr_b = b;
  }

(* Resource manager i is thread i, the workload manager is [Des.wm]. *)
let run_prepared p ~obs ?service ~policy () =
  let { pr_handlers = handlers; pr_est_table = est_table; pr_fault = fault; pr_b = b; _ } = p in
  let rm h () = Core.resource_manager ~obs ~fault ~est_table b h in
  let wm () =
    Core.workload_manager ~obs ~fault ?service b ~handlers ~instances:p.pr_instances
      ~est_table ~policy ~prng:p.pr_prng ~stats:p.pr_stats
  in
  run_threads p.pr_des (Array.append (Array.map rm handlers) [| wm |])

let run_detailed ?(params = default_params) ?(obs = Obs.disabled) ?fault
    ~(config : Config.t) ~(workload : Workload.t) ~(policy : Scheduler.policy) () =
  let p =
    prepare ~params ~obs ~engine_name:"Virtual_engine.run" ~clock0:0
      ~prng:(Prng.create ~seed:params.seed) ?fault ~config ~workload ~policy ()
  in
  run_prepared p ~obs ~policy ();
  ( Core.report ~host_name:config.Config.host.Host.name ~config ~policy
      ~handlers:p.pr_handlers ~instances:p.pr_instances ~stats:p.pr_stats
      ~fabric:(Des.fabric_counters p.pr_des),
    p.pr_instances )

let run ?params ?obs ?fault ~config ~workload ~policy () =
  fst (run_detailed ?params ?obs ?fault ~config ~workload ~policy ())

(* ------------------------------------------------------------------ *)
(* Resident service entry point                                        *)
(* ------------------------------------------------------------------ *)

type handler_snapshot = { hs_busy_until : int; hs_busy_ns : int; hs_tasks_run : int }

type resume_state = {
  rs_clock : int;
  rs_prng : int64 * int64 * int64 * int64;
  rs_handlers : handler_snapshot array;
}

type service_run = {
  sr_instances : Task.instance array;
  sr_stats : Core.wm_stats;
  sr_fabric : Core.fabric_counters;
  sr_prng : int64 * int64 * int64 * int64;
  sr_handlers : handler_snapshot array;
}

let run_service ?(params = default_params) ?(obs = Obs.disabled) ?resume
    ~(config : Config.t) ~(workload : Workload.t) ~(policy : Scheduler.policy)
    ~(service : Task.instance array -> Core.service) () =
  let clock0, prng =
    match resume with
    | None -> (0, Prng.create ~seed:params.seed)
    | Some r -> (r.rs_clock, Prng.of_state r.rs_prng)
  in
  let p =
    prepare ~params ~obs ~engine_name:"Virtual_engine.run_service" ~clock0 ~prng
      ~config ~workload ~policy ()
  in
  let { pr_instances = instances; pr_handlers = handlers; _ } = p in
  (match resume with
  | None -> ()
  | Some r ->
    if Array.length r.rs_handlers <> Array.length handlers then
      invalid_arg "Virtual_engine.run_service: resume PE count mismatch";
    Array.iteri
      (fun i h ->
        let s = r.rs_handlers.(i) in
        h.Core.h_busy_until <- s.hs_busy_until;
        h.Core.h_busy_ns <- s.hs_busy_ns;
        h.Core.h_tasks_run <- s.hs_tasks_run)
      handlers);
  let service = { (service instances) with Core.sv_resume = Option.is_some resume } in
  run_prepared p ~obs ~service ~policy ();
  {
    sr_instances = instances;
    sr_stats = p.pr_stats;
    sr_fabric = Des.fabric_counters p.pr_des;
    sr_prng = Prng.state p.pr_prng;
    sr_handlers =
      Array.map
        (fun h ->
          {
            hs_busy_until = h.Core.h_busy_until;
            hs_busy_ns = h.Core.h_busy_ns;
            hs_tasks_run = h.Core.h_tasks_run;
          })
        handlers;
  }
