module Pe = Dssoc_soc.Pe
module Host = Dssoc_soc.Host
module Config = Dssoc_soc.Config
module Cost_model = Dssoc_soc.Cost_model
module Fabric = Dssoc_soc.Fabric
module App_spec = Dssoc_apps.App_spec
module Workload = Dssoc_apps.Workload
module Store = Dssoc_apps.Store
module Prng = Dssoc_util.Prng
module Obs = Dssoc_obs.Obs
module Core = Engine_core

exception Unsupported of string

(* The compiled engine replays the virtual engine's event sequence
   exactly: the reference semantics is "whatever Virtual_engine does",
   down to event push order and PRNG draw interleaving.  Both run on
   [Des], so the event heap, host cores and fabric link are shared;
   what is duplicated here is the protocol — each block mirrors a
   specific suspension point of engine_core.ml, with the effect
   continuation flattened into an integer program counter.
   Divergences are caught by the differential matrix in
   test_diff_engines.ml. *)

(* One application archetype, lowered.  Node indices are positions in
   [c_nodes] (= App_spec declaration order = dense task id offsets). *)
type cls = {
  c_spec : App_spec.t;
  c_nodes : App_spec.node array;
  c_n : int;
  c_unmet : int array;  (** initial unmet-predecessor counts *)
  c_succ : int array array;  (** successor node indices, JSON order *)
  c_entry : int array;  (** nodes with no predecessors, node order *)
  c_est : int array;  (** (node, pe) estimate matrix; [Scheduler.unsupported] if unsupported *)
  c_ph_in : int array;  (** accelerator ideal DMA-in ns per (node, pe) *)
  c_ph_comp : int array;
  c_ph_out : int array;
  c_fb_dem_in : int array;
      (** bus-fabric link demand per (node, pe); [-1] = phase moves no
          data, bypass the fabric (replay the ideal duration) *)
  c_fb_dem_out : int array;
  c_fb_fix_in : int array;  (** fixed chunk + hop latency per (node, pe) *)
  c_fb_fix_out : int array;
  c_fb_bytes_in : int array;
      (** raw stream bytes per (node, pe); [0] = no fabric stream
          (only consumed by traced runs, for stream events) *)
  c_fb_bytes_out : int array;
  c_store0 : Store.t;  (** pristine initial store image *)
  c_final : Store.t option;
      (** post-kernel store image when every node's kernel is the same
          physical closure on all supported PEs (see compile) *)
}

type plan = {
  p_config : Config.t;
  p_policy : Scheduler.policy;
  p_classes : cls array;
  p_item_class : int array;
  p_item_arrival : int array;
  p_task_base : int array;  (** dense task-id base per workload item *)
  p_n_pes : int;
  p_pes : Pe.t array;
  p_pe_is_cpu : bool array;
  p_est : int array;  (** (task id, pe) estimates, stride [p_n_pes] *)
  p_ph_in : int array;
  p_ph_comp : int array;
  p_ph_out : int array;
  p_fabric : Fabric.t;
  p_fb_dem_in : int array;  (** (task id, pe) link demand; [-1] = bypass *)
  p_fb_dem_out : int array;
  p_fb_fix_in : int array;
  p_fb_fix_out : int array;
  p_fb_bytes_in : int array;
  p_fb_bytes_out : int array;
  p_cores : Des.host_cores;
  p_overlay_perf : float;
}

(* ------------------------------------------------------------------ *)
(* Compilation                                                         *)
(* ------------------------------------------------------------------ *)

let build_class ~(config : Config.t) ~(pes : Pe.t array) (spec : App_spec.t) =
  let n_pes = Array.length pes in
  let pes_list = Array.to_list pes in
  let tmpl = Task.instantiate ~task_id_base:0 ~inst_id:0 ~arrival_ns:0 spec in
  Array.iter
    (fun (t : Task.t) ->
      if not (List.exists (Task.supports t) pes_list) then
        invalid_arg
          (Printf.sprintf
             "Compiled_engine.compile: task %s/%s supports no PE of configuration %s"
             t.Task.app_name t.Task.node.App_spec.node_name config.Config.label))
    tmpl.Task.tasks;
  let n = Array.length tmpl.Task.tasks in
  let tbl = Exec_model.build_table ~instances:[| tmpl |] ~pes in
  let est = Array.make (max 1 (n * n_pes)) Scheduler.unsupported in
  let ph_in = Array.make (max 1 (n * n_pes)) 0 in
  let ph_comp = Array.make (max 1 (n * n_pes)) 0 in
  let ph_out = Array.make (max 1 (n * n_pes)) 0 in
  let fb_dem_in = Array.make (max 1 (n * n_pes)) (-1) in
  let fb_dem_out = Array.make (max 1 (n * n_pes)) (-1) in
  let fb_fix_in = Array.make (max 1 (n * n_pes)) 0 in
  let fb_fix_out = Array.make (max 1 (n * n_pes)) 0 in
  let fb_bytes_in = Array.make (max 1 (n * n_pes)) 0 in
  let fb_bytes_out = Array.make (max 1 (n * n_pes)) 0 in
  Array.iteri
    (fun j (t : Task.t) ->
      Array.iteri
        (fun i pe ->
          est.((j * n_pes) + i) <- Exec_model.lookup tbl t i;
          match pe.Pe.kind with
          | Pe.Accel acl when Task.supports t pe ->
            let a, b, c = Core.accel_phases t pe acl in
            let row = (j * n_pes) + i in
            ph_in.(row) <- a.Core.dp_ideal_ns;
            ph_comp.(row) <- b;
            ph_out.(row) <- c.Core.dp_ideal_ns;
            (match config.Config.fabric with
            | Fabric.Ideal -> ()
            | Fabric.Bus bus ->
              let hop = Fabric.hops bus.Fabric.topology ~pe_index:i * bus.Fabric.hop_ns in
              let fill dem fix bytes (ph : Core.dma_phase) =
                if ph.Core.dp_bytes > 0 then begin
                  dem.(row) <- Fabric.demand_ns bus ~bytes:ph.Core.dp_bytes;
                  fix.(row) <- ph.Core.dp_chunks * (ph.Core.dp_chunk_lat_ns + hop);
                  bytes.(row) <- ph.Core.dp_bytes
                end
              in
              fill fb_dem_in fb_fix_in fb_bytes_in a;
              fill fb_dem_out fb_fix_out fb_bytes_out c)
          | _ -> ())
        pes)
    tmpl.Task.tasks;
  let nodes = Array.of_list spec.App_spec.nodes in
  let by_name = Hashtbl.create (max 1 n) in
  Array.iteri (fun j (nd : App_spec.node) -> Hashtbl.replace by_name nd.App_spec.node_name j) nodes;
  let succ =
    Array.map
      (fun (nd : App_spec.node) ->
        Array.of_list (List.map (Hashtbl.find by_name) nd.App_spec.successors))
      nodes
  in
  let unmet = Array.map (fun (nd : App_spec.node) -> List.length nd.App_spec.predecessors) nodes in
  let entry =
    let out = ref [] in
    Array.iteri (fun j u -> if u = 0 then out := j :: !out) unmet;
    Array.of_list (List.rev !out)
  in
  (* Kernel-template memoization: every instance of an archetype
     starts from the same store bytes, so when the final store is
     independent of dispatch decisions the kernel chain can run once
     here and runs blit the image instead of re-executing identical
     kernels per instance.  A node usually resolves to one physical
     kernel closure across all its supported PEs; when PEs register
     distinct closures (e.g. a CPU and an accelerator variant of the
     same transform), each distinct kernel is executed on a copy of
     the template context and all must produce byte-identical stores.
     The chain runs in topological order — the DAG's dataflow makes
     the final store linearization-independent.  Any resolution
     failure or kernel-output divergence falls back to per-instance
     execution, which preserves the replay contract exactly. *)
  let final =
    try
      let ks =
        Array.map
          (fun (t : Task.t) ->
            let resolved =
              List.filter_map
                (fun pe ->
                  if Task.supports t pe then Some (Exec_model.resolve_kernel t pe)
                  else None)
                pes_list
            in
            match resolved with
            | [] -> raise Exit
            | k :: rest ->
              let distinct =
                List.fold_left
                  (fun acc k' ->
                    if List.exists (fun k0 -> k0 == k') acc then acc else k' :: acc)
                  [ k ] rest
              in
              Array.of_list (List.rev distinct))
          tmpl.Task.tasks
      in
      let stores_eq a b =
        List.for_all
          (fun nm -> Bytes.equal (Store.get_raw a nm) (Store.get_raw b nm))
          (Store.names a)
      in
      let st = Store.create spec.App_spec.variables in
      List.iter
        (fun (nd : App_spec.node) ->
          let j = Hashtbl.find by_name nd.App_spec.node_name in
          let kn = ks.(j) in
          if Array.length kn = 1 then kn.(0) st nd.App_spec.arguments
          else begin
            let ctx = Store.copy st in
            kn.(0) st nd.App_spec.arguments;
            for i = 1 to Array.length kn - 1 do
              let alt = Store.copy ctx in
              kn.(i) alt nd.App_spec.arguments;
              if not (stores_eq alt st) then raise Exit
            done
          end)
        (App_spec.topological_order spec);
      Some st
    with Exit | Invalid_argument _ -> None
  in
  {
    c_spec = spec;
    c_nodes = nodes;
    c_n = n;
    c_unmet = unmet;
    c_succ = succ;
    c_entry = entry;
    c_est = est;
    c_ph_in = ph_in;
    c_ph_comp = ph_comp;
    c_ph_out = ph_out;
    c_fb_dem_in = fb_dem_in;
    c_fb_dem_out = fb_dem_out;
    c_fb_fix_in = fb_fix_in;
    c_fb_fix_out = fb_fix_out;
    c_fb_bytes_in = fb_bytes_in;
    c_fb_bytes_out = fb_bytes_out;
    c_store0 = tmpl.Task.store;
    c_final = final;
  }

let compile ?fault ~(config : Config.t) ~(workload : Workload.t)
    ~(policy : Scheduler.policy) () =
  (match fault with
  | Some _ ->
    raise
      (Unsupported
         "fault plans are outside the compiled engine's replay contract (use the \
          virtual or native engine)")
  | None -> ());
  let pes = Array.of_list (Config.pes config) in
  let n_pes = Array.length pes in
  (* Archetype discovery: one class per distinct spec (shared refs
     first, structural equality as the fallback for re-parsed JSON). *)
  let items = Array.of_list workload.Workload.items in
  let class_specs : App_spec.t list ref = ref [] in
  let class_of spec =
    let rec go i = function
      | [] ->
        class_specs := !class_specs @ [ spec ];
        i
      | s :: tl -> if s == spec || s = spec then i else go (i + 1) tl
    in
    go 0 !class_specs
  in
  let item_class = Array.map (fun (it : Workload.item) -> class_of it.Workload.spec) items in
  let classes = Array.of_list (List.map (build_class ~config ~pes) !class_specs) in
  let n_items = Array.length items in
  let task_base = Array.make (max 1 n_items) 0 in
  let total = ref 0 in
  Array.iteri
    (fun idx ci ->
      task_base.(idx) <- !total;
      total := !total + classes.(ci).c_n)
    item_class;
  let n_tasks = !total in
  let est = Array.make (max 1 (n_tasks * n_pes)) Scheduler.unsupported in
  let ph_in = Array.make (max 1 (n_tasks * n_pes)) 0 in
  let ph_comp = Array.make (max 1 (n_tasks * n_pes)) 0 in
  let ph_out = Array.make (max 1 (n_tasks * n_pes)) 0 in
  let fb_dem_in = Array.make (max 1 (n_tasks * n_pes)) (-1) in
  let fb_dem_out = Array.make (max 1 (n_tasks * n_pes)) (-1) in
  let fb_fix_in = Array.make (max 1 (n_tasks * n_pes)) 0 in
  let fb_fix_out = Array.make (max 1 (n_tasks * n_pes)) 0 in
  let fb_bytes_in = Array.make (max 1 (n_tasks * n_pes)) 0 in
  let fb_bytes_out = Array.make (max 1 (n_tasks * n_pes)) 0 in
  Array.iteri
    (fun idx ci ->
      let cls = classes.(ci) in
      let len = cls.c_n * n_pes in
      if len > 0 then begin
        let dst = task_base.(idx) * n_pes in
        Array.blit cls.c_est 0 est dst len;
        Array.blit cls.c_ph_in 0 ph_in dst len;
        Array.blit cls.c_ph_comp 0 ph_comp dst len;
        Array.blit cls.c_ph_out 0 ph_out dst len;
        Array.blit cls.c_fb_dem_in 0 fb_dem_in dst len;
        Array.blit cls.c_fb_dem_out 0 fb_dem_out dst len;
        Array.blit cls.c_fb_fix_in 0 fb_fix_in dst len;
        Array.blit cls.c_fb_fix_out 0 fb_fix_out dst len;
        Array.blit cls.c_fb_bytes_in 0 fb_bytes_in dst len;
        Array.blit cls.c_fb_bytes_out 0 fb_bytes_out dst len
      end)
    item_class;
  {
    p_config = config;
    p_policy = policy;
    p_classes = classes;
    p_item_class = item_class;
    p_item_arrival = Array.map (fun (it : Workload.item) -> it.Workload.arrival_ns) items;
    p_task_base = task_base;
    p_n_pes = n_pes;
    p_pes = pes;
    p_pe_is_cpu = Array.map (fun pe -> Pe.is_cpu pe.Pe.kind) pes;
    p_est = est;
    p_ph_in = ph_in;
    p_ph_comp = ph_comp;
    p_ph_out = ph_out;
    p_fabric = config.Config.fabric;
    p_fb_dem_in = fb_dem_in;
    p_fb_dem_out = fb_dem_out;
    p_fb_fix_in = fb_fix_in;
    p_fb_fix_out = fb_fix_out;
    p_fb_bytes_in = fb_bytes_in;
    p_fb_bytes_out = fb_bytes_out;
    p_cores = Des.host_cores config;
    p_overlay_perf = config.Config.host.Host.overlay.Host.core_class.Pe.perf_factor;
  }

(* ------------------------------------------------------------------ *)
(* Instantiation (replicates Task.instantiate via the class tables)    *)
(* ------------------------------------------------------------------ *)

let instantiate_fast plan =
  Array.init (Array.length plan.p_item_class) (fun idx ->
      let cls = plan.p_classes.(plan.p_item_class.(idx)) in
      let base = plan.p_task_base.(idx) in
      let spec = cls.c_spec in
      let store = Store.copy cls.c_store0 in
      let tasks =
        Array.init cls.c_n (fun j ->
            {
              Task.id = base + j;
              instance_id = idx;
              app_name = spec.App_spec.app_name;
              node = cls.c_nodes.(j);
              spec;
              store;
              status = Task.Blocked;
              unmet = cls.c_unmet.(j);
              successors = [];
              ready_at = -1;
              dispatched_at = -1;
              completed_at = -1;
              pe_label = "";
              attempts = 0;
              last_failure = None;
            })
      in
      Array.iteri
        (fun j (t : Task.t) ->
          t.Task.successors <-
            Array.to_list (Array.map (fun k -> tasks.(k)) cls.c_succ.(j)))
        tasks;
      {
        Task.inst_id = idx;
        app = spec;
        store;
        arrival_ns = plan.p_item_arrival.(idx);
        tasks;
        entry = Array.to_list (Array.map (fun k -> tasks.(k)) cls.c_entry);
        remaining = cls.c_n;
        completed_at = -1;
        cancelled = false;
      })

(* ------------------------------------------------------------------ *)
(* The monomorphic event loop                                          *)
(* ------------------------------------------------------------------ *)

let sched_window = Cost_model.sched_examined_cap

let run_detailed ?(obs = Obs.disabled) plan (params : Core.params) =
  let instances = instantiate_fast plan in
  let config = plan.p_config in
  let n_pes = plan.p_n_pes in
  let stride = n_pes in
  let prng = Prng.create ~seed:params.Core.seed in
  let jitter = params.Core.jitter in
  let est = plan.p_est in
  let handlers =
    Array.mapi
      (fun i pe ->
        Core.make_handler ~pe ~index:i ~reservation_depth:params.Core.reservation_depth ())
      plan.p_pes
  in
  let stats = Core.make_stats () in
  (* Observability lowering: [traced] is constant for the whole run, so
     the untraced loop pays one predictable branch per hook site.
     Metric registration order mirrors the reference engine exactly —
     engine handles, then [Des.create]'s fabric and event-heap
     instruments — so [Metrics.pp] output is comparable byte-for-byte
     across engines. *)
  let traced = Obs.enabled obs in
  Obs.attach_pes obs ~pe_labels:(Array.map (fun pe -> pe.Pe.label) plan.p_pes);
  let d = Des.create ~obs ~clock0:0 plan.p_cores plan.p_fabric in
  let wm_th = Des.wm d in
  let inst_memo =
    Array.map (fun ci -> Option.is_some plan.p_classes.(ci).c_final) plan.p_item_class
  in
  let jit ns = Core.jittered prng ~jitter ns in
  let overlay_perf = plan.p_overlay_perf in
  let scale ns = int_of_float (Float.round (ns /. overlay_perf)) in
  (* ---- workload-manager state ---- *)
  let ready =
    Ready.create (Array.fold_left (fun n i -> n + Array.length i.Task.tasks) 0 instances)
  in
  let inflight = ref 0 in
  let n_items = Array.length instances in
  let pending_idx = ref 0 in
  let unfinished = ref n_items in
  let wm_pc = ref 0 in
  let sw_hi = ref 0 in
  let sw_batch = ref false in
  let ds_ret = ref 0 in
  let ds_cost = ref 0 in
  let ds_ready = ref 0 in
  let ds_nready = ref 0 in
  let ds_ops = ref 0 in
  let ds_todo : Scheduler.assignment list ref = ref [] in
  let tick_completions = ref 0 in
  let tick_injected = ref 0 in
  let pes_scratch =
    Array.map
      (fun pe -> { Scheduler.pe; idle = false; busy_until = 0; available = true })
      plan.p_pes
  in
  let estimate (t : Task.t) i = est.((t.Task.id * stride) + i) in
  let make_ready (t : Task.t) =
    t.Task.status <- Task.Ready;
    t.Task.ready_at <- d.Des.now;
    Ready.append ready t;
    if traced then
      Obs.on_task_ready obs ~now:t.Task.ready_at ~task:t.Task.id
        ~instance:t.Task.instance_id ~app:t.Task.app_name
        ~node:t.Task.node.App_spec.node_name ~ready_depth:(Ready.length ready)
  in
  (* ---- resource-manager threads (engine_core.resource_manager) ---- *)
  let rm_pc = Array.make (max 1 n_pes) 0 in
  let rm_task : Task.t option array = Array.make (max 1 n_pes) None in
  let rm_started = Array.make (max 1 n_pes) 0 in
  (* Start of the current accelerator phase, for traced Phase spans. *)
  let rm_ph0 = Array.make (max 1 n_pes) 0 in
  let rm_cur i =
    match rm_task.(i) with Some t -> t | None -> assert false
  in
  let rec rm_await i = if Des.await d i then rm_pc.(i) <- 1 else rm_wake i
  and rm_wake i = if handlers.(i).Core.h_stop then () else rm_drain i
  and rm_drain i =
    let h = handlers.(i) in
    match Queue.take_opt h.Core.h_pending with
    | None -> rm_await i
    | Some task ->
      if traced && h.Core.h_capacity > 1 then
        Obs.on_reservation_popped obs ~now:d.Des.now ~pe_index:i
          ~depth:(Queue.length h.Core.h_pending);
      rm_task.(i) <- Some task;
      rm_started.(i) <- d.Des.now;
      let row = (task.Task.id * stride) + i in
      if plan.p_pe_is_cpu.(i) then begin
        if not inst_memo.(task.Task.instance_id) then begin
          let k = Exec_model.resolve_kernel task h.Core.h_pe in
          k task.Task.store task.Task.node.App_spec.arguments
        end;
        rm_work i (jit est.(row)) 2
      end
      else begin
        if traced then rm_ph0.(i) <- d.Des.now;
        let dem = plan.p_fb_dem_in.(row) in
        if dem < 0 then rm_work i (jit plan.p_ph_in.(row)) 3
        else begin
          if Des.stream d i ~bytes:plan.p_fb_bytes_in.(row) (jit dem) then rm_pc.(i) <- 6
          else rm_fab_fix i plan.p_fb_fix_in.(row) 3
        end
      end
  and rm_work i ns pc = if Des.work d i ns then rm_pc.(i) <- pc else rm_goto i pc
  and rm_acc_after_in i =
    let task = rm_cur i in
    if traced then
      Obs.on_phase obs ~now:d.Des.now ~task:task.Task.id ~pe_index:i ~phase:Obs.Dma_in
        ~start_ns:rm_ph0.(i) ~dur_ns:(d.Des.now - rm_ph0.(i));
    if not inst_memo.(task.Task.instance_id) then begin
      let k = Exec_model.resolve_kernel task handlers.(i).Core.h_pe in
      k task.Task.store task.Task.node.App_spec.arguments
    end;
    if traced then rm_ph0.(i) <- d.Des.now;
    if Des.sleep d i (jit plan.p_ph_comp.((task.Task.id * stride) + i)) then rm_pc.(i) <- 4
    else rm_acc_after_comp i
  and rm_acc_after_comp i =
    let task = rm_cur i in
    if traced then begin
      Obs.on_phase obs ~now:d.Des.now ~task:task.Task.id ~pe_index:i
        ~phase:Obs.Device_compute ~start_ns:rm_ph0.(i) ~dur_ns:(d.Des.now - rm_ph0.(i));
      rm_ph0.(i) <- d.Des.now
    end;
    let row = (task.Task.id * stride) + i in
    let dem = plan.p_fb_dem_out.(row) in
    if dem < 0 then rm_work i (jit plan.p_ph_out.(row)) 5
    else begin
      if Des.stream d i ~bytes:plan.p_fb_bytes_out.(row) (jit dem) then rm_pc.(i) <- 7
      else rm_fab_fix i plan.p_fb_fix_out.(row) 5
    end
  and rm_fab_fix i fix pc =
    (* Fixed chunk/hop latency after the shared-link service. *)
    if Des.sleep d i fix then rm_pc.(i) <- pc else rm_goto i pc
  and rm_finish i =
    let task = rm_cur i in
    let h = handlers.(i) in
    task.Task.completed_at <- d.Des.now;
    h.Core.h_busy_ns <- h.Core.h_busy_ns + (d.Des.now - rm_started.(i));
    h.Core.h_tasks_run <- h.Core.h_tasks_run + 1;
    Queue.add task h.Core.h_completed;
    Des.signal d wm_th;
    rm_drain i
  and rm_goto i pc =
    match pc with
    | 1 -> rm_wake i
    | 2 -> rm_finish i
    | 5 ->
      if traced then begin
        let task = rm_cur i in
        Obs.on_phase obs ~now:d.Des.now ~task:task.Task.id ~pe_index:i
          ~phase:Obs.Dma_out ~start_ns:rm_ph0.(i) ~dur_ns:(d.Des.now - rm_ph0.(i))
      end;
      rm_finish i
    | 3 -> rm_acc_after_in i
    | 4 -> rm_acc_after_comp i
    | 6 ->
      let task = rm_cur i in
      rm_fab_fix i plan.p_fb_fix_in.((task.Task.id * stride) + i) 3
    | 7 ->
      let task = rm_cur i in
      rm_fab_fix i plan.p_fb_fix_out.((task.Task.id * stride) + i) 5
    | _ -> assert false
  in
  (* ---- workload-manager thread (engine_core.workload_manager,
     fault off; observability lowered at the same protocol points) ---- *)
  let rec wm_charge ns pc =
    let c = scale ns in
    stats.Core.wm_ns <- stats.Core.wm_ns + c;
    if Des.work d wm_th c then wm_pc := pc else wm_goto pc
  and wm_tick_top () =
    if traced then begin
      tick_completions := 0;
      tick_injected := 0
    end;
    wm_charge (Cost_model.monitor_per_pe_ns *. float_of_int n_pes) 10
  and wm_sweep_start () =
    sw_hi := 0;
    sw_batch := false;
    wm_sweep_cont ()
  and wm_sweep_cont () =
    if !sw_hi >= n_pes then begin
      if !sw_batch then do_schedule 1 else wm_inject ()
    end
    else begin
      let h = handlers.(!sw_hi) in
      match Queue.take_opt h.Core.h_completed with
      | None ->
        incr sw_hi;
        wm_sweep_cont ()
      | Some task ->
        h.Core.h_inflight <- h.Core.h_inflight - 1;
        decr inflight;
        if traced then begin
          incr tick_completions;
          Obs.on_task_completed obs ~now:task.Task.completed_at ~task:task.Task.id
            ~instance:task.Task.instance_id ~app:task.Task.app_name
            ~node:task.Task.node.App_spec.node_name ~pe:task.Task.pe_label
            ~pe_index:h.Core.h_index
            ~service_ns:(task.Task.completed_at - task.Task.dispatched_at)
            ~pe_depth:h.Core.h_inflight ~inflight:!inflight
        end;
        task.Task.status <- Task.Done;
        stats.Core.records <-
          {
            Stats.app = task.Task.app_name;
            instance = task.Task.instance_id;
            node = task.Task.node.App_spec.node_name;
            pe = task.Task.pe_label;
            ready_ns = task.Task.ready_at;
            dispatched_ns = task.Task.dispatched_at;
            completed_ns = task.Task.completed_at;
          }
          :: stats.Core.records;
        let inst = instances.(task.Task.instance_id) in
        inst.Task.remaining <- inst.Task.remaining - 1;
        if inst.Task.remaining = 0 then begin
          inst.Task.completed_at <- d.Des.now;
          decr unfinished
        end;
        let newly = ref 0 in
        List.iter
          (fun (succ : Task.t) ->
            succ.Task.unmet <- succ.Task.unmet - 1;
            if succ.Task.unmet = 0 then begin
              make_ready succ;
              incr newly
            end)
          task.Task.successors;
        if !newly > 0 then
          wm_charge (Cost_model.ready_update_per_task_ns *. float_of_int !newly) 11
        else wm_after_completion ()
    end
  and wm_after_completion () =
    if handlers.(!sw_hi).Core.h_capacity <= 1 then do_schedule 0
    else begin
      sw_batch := true;
      wm_sweep_cont ()
    end
  and do_schedule ret =
    ds_ret := ret;
    let n_idle = ref 0 in
    for i = 0 to n_pes - 1 do
      let h = handlers.(i) and st = pes_scratch.(i) in
      st.Scheduler.idle <- h.Core.h_inflight < h.Core.h_capacity;
      st.Scheduler.busy_until <- h.Core.h_busy_until;
      if st.Scheduler.idle then incr n_idle
    done;
    let ready_len = Ready.length ready in
    if ready_len = 0 || !n_idle = 0 then ds_end ()
    else begin
      let nready = if ready_len < sched_window then ready_len else sched_window in
      let ctx =
        { Scheduler.now = d.Des.now; ready; nready; pes = pes_scratch; estimate; prng; ops = 0 }
      in
      let assignments = plan.p_policy.Scheduler.schedule ctx in
      ds_ready := ready_len;
      ds_nready := nready;
      ds_ops := ctx.Scheduler.ops;
      ds_todo := assignments;
      let cost =
        scale
          (float_of_int
             (Scheduler.overhead_ns ~policy_name:plan.p_policy.Scheduler.name
                ~ready:ready_len ~pes:n_pes ~ops:ctx.Scheduler.ops))
      in
      ds_cost := cost;
      stats.Core.wm_ns <- stats.Core.wm_ns + cost;
      if Des.work d wm_th cost then wm_pc := 12 else wm_after_sched_work ()
    end
  and wm_after_sched_work () =
    stats.Core.sched_ns <- stats.Core.sched_ns + !ds_cost;
    stats.Core.sched_invocations <- stats.Core.sched_invocations + 1;
    if traced then
      Obs.on_sched obs ~now:d.Des.now ~ready:!ds_ready ~examined:!ds_nready ~ops:!ds_ops
        ~cost_ns:!ds_cost ~assigned:(List.length !ds_todo);
    wm_dispatch_next ()
  and wm_dispatch_next () =
    (* As [Engine_core]: an assignment whose task is no longer ready
       is dropped before its dispatch is charged. *)
    match !ds_todo with
    | [] -> ds_end ()
    | a :: rest when a.Scheduler.task.Task.status <> Task.Ready ->
      ds_todo := rest;
      wm_dispatch_next ()
    | _ -> wm_charge Cost_model.dispatch_per_task_ns 13
  and wm_dispatch_commit () =
    match !ds_todo with
    | [] -> assert false
    | { Scheduler.task; pe_index = pi } :: rest ->
      ds_todo := rest;
      let h = handlers.(pi) in
      task.Task.status <- Task.Running;
      task.Task.attempts <- task.Task.attempts + 1;
      Ready.remove ready task;
      task.Task.dispatched_at <- d.Des.now;
      task.Task.pe_label <- h.Core.h_pe.Pe.label;
      Queue.add task h.Core.h_pending;
      h.Core.h_inflight <- h.Core.h_inflight + 1;
      incr inflight;
      h.Core.h_busy_until <-
        max d.Des.now h.Core.h_busy_until + est.((task.Task.id * stride) + pi);
      if traced then begin
        Obs.on_task_dispatched obs ~now:d.Des.now ~task:task.Task.id
          ~instance:task.Task.instance_id ~app:task.Task.app_name
          ~node:task.Task.node.App_spec.node_name ~pe:h.Core.h_pe.Pe.label
          ~pe_index:pi ~wait_ns:(d.Des.now - task.Task.ready_at)
          ~ready_depth:(Ready.length ready) ~pe_depth:h.Core.h_inflight
          ~inflight:!inflight;
        if h.Core.h_capacity > 1 then
          Obs.on_reservation_enqueued obs ~now:d.Des.now ~pe_index:pi
            ~depth:(Queue.length h.Core.h_pending)
      end;
      Des.signal d pi;
      wm_dispatch_next ()
  and ds_end () =
    match !ds_ret with
    | 0 -> wm_sweep_cont ()
    | 1 -> wm_inject ()
    | _ -> wm_tick_tail ()
  and wm_inject () =
    let injected = ref 0 in
    let now_v = d.Des.now in
    while
      !pending_idx < n_items && instances.(!pending_idx).Task.arrival_ns <= now_v
    do
      let inst = instances.(!pending_idx) in
      incr pending_idx;
      if traced then
        Obs.on_instance_injected obs ~now:now_v ~instance:inst.Task.inst_id
          ~app:inst.Task.app.App_spec.app_name;
      List.iter
        (fun t ->
          make_ready t;
          incr injected)
        inst.Task.entry
    done;
    if traced then tick_injected := !injected;
    if !injected > 0 then
      wm_charge (Cost_model.ready_update_per_task_ns *. float_of_int !injected) 14
    else wm_tick_tail ()
  and wm_after_inject () = do_schedule 2
  and wm_tick_tail () =
    Des.sample_depth d;
    if traced then
      Obs.on_wm_tick obs ~now:d.Des.now ~completions:!tick_completions
        ~injected:!tick_injected;
    if !unfinished = 0 && !pending_idx >= n_items then
      Array.iter
        (fun (h : unit Core.handler) ->
          h.Core.h_stop <- true;
          Des.signal d h.Core.h_index)
        handlers
    else begin
      let deadline =
        if !pending_idx < n_items then Some instances.(!pending_idx).Task.arrival_ns
        else None
      in
      if Des.await d ?deadline wm_th then wm_pc := 15 else wm_tick_top ()
    end
  and wm_goto pc =
    match pc with
    | 10 -> wm_sweep_start ()
    | 11 -> wm_after_completion ()
    | 12 -> wm_after_sched_work ()
    | 13 -> wm_dispatch_commit ()
    | 14 -> wm_after_inject ()
    | 15 -> wm_tick_top ()
    | _ -> assert false
  in
  (* ---- startup (spawn order: resource managers, then the WM) ---- *)
  for i = 0 to wm_th do
    Des.spawn d i
  done;
  Des.run d
    ~start:(fun th -> if th = wm_th then wm_tick_top () else rm_await th)
    ~resume:(fun th -> if th = wm_th then wm_goto !wm_pc else rm_goto th rm_pc.(th));
  (* ---- functional outputs: blit the memoized kernel image ---- *)
  Array.iteri
    (fun idx (inst : Task.instance) ->
      match plan.p_classes.(plan.p_item_class.(idx)).c_final with
      | Some final -> Store.blit_from inst.Task.store ~src:final
      | None -> ())
    instances;
  ( Core.report ~host_name:config.Config.host.Host.name ~config ~policy:plan.p_policy
      ~handlers ~instances ~stats ~fabric:(Des.fabric_counters d),
    instances )

let run ?obs plan params = fst (run_detailed ?obs plan params)
