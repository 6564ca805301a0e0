module Pe = Dssoc_soc.Pe
module Config = Dssoc_soc.Config
module Cost_model = Dssoc_soc.Cost_model
module Fabric = Dssoc_soc.Fabric
module App_spec = Dssoc_apps.App_spec
module Workload = Dssoc_apps.Workload
module Prng = Dssoc_util.Prng
module Obs = Dssoc_obs.Obs
module Fault = Dssoc_fault.Fault

(* ------------------------------------------------------------------ *)
(* Parameters                                                          *)
(* ------------------------------------------------------------------ *)

type params = { seed : int64; jitter : float; reservation_depth : int }

let default_params = { seed = 1L; jitter = 0.03; reservation_depth = 0 }

let jittered prng ~jitter ns =
  if jitter <= 0.0 || ns <= 0 then ns
  else begin
    let f = Prng.gaussian prng ~mu:1.0 ~sigma:jitter in
    max 1 (int_of_float (Float.round (float_of_int ns *. Float.max 0.1 f)))
  end

(* ------------------------------------------------------------------ *)
(* DMA phases                                                          *)
(* ------------------------------------------------------------------ *)

(* A DMA phase is no longer a fixed duration decided at dispatch time:
   under a shared fabric its cost depends on who else is on the link.
   The engines receive the decomposition and charge it through their
   [b_dma] hook — [dp_ideal_ns] is the legacy per-device duration
   (what [Fabric.Ideal] replays exactly); under a bus the phase places
   [dp_bytes] of bandwidth demand on the shared link plus a fixed
   latency of [dp_chunks] per-transfer setups (and per-hop fabric
   latency, resolved per PE by the engine). *)
type dma_phase = {
  dp_ideal_ns : int;
  dp_bytes : int;
  dp_chunks : int;
  dp_chunk_lat_ns : int;
}

let no_dma = { dp_ideal_ns = 0; dp_bytes = 0; dp_chunks = 0; dp_chunk_lat_ns = 0 }

(* ------------------------------------------------------------------ *)
(* Resource handlers                                                   *)
(* ------------------------------------------------------------------ *)

type 'h handler = {
  h_pe : Pe.t;
  h_index : int;  (** this handler's PE index (row in the estimate table) *)
  h_capacity : int;  (** 1 + reservation-queue depth (1 = the paper's baseline) *)
  h_pending : Task.t Queue.t;  (** dispatched by the WM, not yet executed *)
  h_completed : Task.t Queue.t;  (** executed, awaiting WM bookkeeping *)
  mutable h_inflight : int;  (** pending + currently executing; WM-owned *)
  mutable h_stop : bool;
  mutable h_busy_ns : int;  (** occupancy (execution time), not queue residence *)
  mutable h_tasks_run : int;
  mutable h_busy_until : int;  (** EFT availability horizon; WM-owned *)
  mutable h_quarantined_until : int;
      (** WM-owned fault state: 0 = healthy, [max_int] = permanently
          dead, else the emulation time the quarantine lifts *)
  h_backend : 'h;  (** backend-private per-handler state *)
}

let make_handler ~pe ~index ~reservation_depth backend =
  {
    h_pe = pe;
    h_index = index;
    h_capacity = 1 + max 0 reservation_depth;
    h_pending = Queue.create ();
    h_completed = Queue.create ();
    h_inflight = 0;
    h_stop = false;
    h_busy_ns = 0;
    h_tasks_run = 0;
    h_busy_until = 0;
    h_quarantined_until = 0;
    h_backend = backend;
  }

(* ------------------------------------------------------------------ *)
(* Statistics accumulator                                              *)
(* ------------------------------------------------------------------ *)

type wm_stats = {
  mutable sched_invocations : int;
  mutable sched_ns : int;
  mutable wm_ns : int;
  mutable records : Stats.task_record list;
  mutable faults : int;  (** failed or slowed execution attempts *)
  mutable retries : int;
  mutable quarantines : int;
  mutable pe_deaths : int;
  mutable aborted : string option;  (** first abort reason, if any *)
}

let make_stats () =
  {
    sched_invocations = 0;
    sched_ns = 0;
    wm_ns = 0;
    records = [];
    faults = 0;
    retries = 0;
    quarantines = 0;
    pe_deaths = 0;
    aborted = None;
  }

(* Fabric contention accumulator.  Virtual/compiled mutate it from the
   single event-loop thread; native guards it with the fabric mutex. *)
type fabric_counters = {
  mutable fc_streams : int;  (** DMA streams routed through the fabric *)
  mutable fc_stalls : int;  (** admissions that found the FIFO full *)
  mutable fc_stall_ns : int;  (** total time initiators spent queued *)
  mutable fc_max_inflight : int;  (** peak concurrent in-flight streams *)
}

let make_fabric_counters () =
  { fc_streams = 0; fc_stalls = 0; fc_stall_ns = 0; fc_max_inflight = 0 }

(* ------------------------------------------------------------------ *)
(* Backends                                                            *)
(* ------------------------------------------------------------------ *)

type 'h backend = {
  b_now : unit -> int;
  b_lock : 'h handler -> unit;
  b_unlock : 'h handler -> unit;
  b_handler_await : 'h handler -> unit;
  b_notify_handler : 'h handler -> unit;
  b_wm_await : deadline:int option -> unit;
  b_notify_wm : unit -> unit;
  b_charge : float -> unit;
  b_dma : 'h handler -> dma_phase -> unit;
      (** charge one DMA phase: acquire/release shared-fabric capacity
          (or replay [dp_ideal_ns] under {!Fabric.Ideal}) *)
  b_execute : 'h handler -> Task.t -> unit;
  b_delay : 'h handler -> int -> unit;
      (** occupy the handler's PE for a modelled duration without
          running a kernel (fault detection latency, slowdown tail) *)
  b_sched_start : unit -> int;
  b_sched_done : int -> ready:int -> ops:int -> int;
  b_wm_tick_start : unit -> int;
  b_wm_tick_end : int -> unit;
}

(* ------------------------------------------------------------------ *)
(* Shared protocol pieces                                              *)
(* ------------------------------------------------------------------ *)

let instantiate ~engine_name ~(config : Config.t) ~(workload : Workload.t) =
  (* Initialization phase (outside emulation time, as in Section II-A):
     allocate every instance and its memory up front. *)
  let items = Array.of_list workload.Workload.items in
  let task_id_base = ref 0 in
  let instances =
    Array.mapi
      (fun i (item : Workload.item) ->
        let inst =
          Task.instantiate ~task_id_base:!task_id_base ~inst_id:i
            ~arrival_ns:item.Workload.arrival_ns item.Workload.spec
        in
        task_id_base := !task_id_base + Array.length inst.Task.tasks;
        inst)
      items
  in
  let pes = Config.pes config in
  Array.iter
    (fun inst ->
      Array.iter
        (fun (t : Task.t) ->
          if not (List.exists (Task.supports t) pes) then
            invalid_arg
              (Printf.sprintf "%s: task %s/%s supports no PE of configuration %s"
                 engine_name t.Task.app_name t.Task.node.App_spec.node_name
                 config.Config.label))
        inst.Task.tasks)
    instances;
  instances

(* Resolve an engine-facing fault plan against the run's handler
   array; shared by both backends so they compile identical plans. *)
let compile_fault plan ~(handlers : 'h handler array) =
  match plan with
  | None -> Fault.disabled
  | Some plan ->
    Fault.compile plan
      ~pes:
        (Array.map
           (fun h ->
             {
               Fault.pe_label = h.h_pe.Pe.label;
               pe_kind = Pe.kind_name h.h_pe.Pe.kind;
               pe_is_cpu = Pe.is_cpu h.h_pe.Pe.kind;
             })
           handlers)

let accel_phases (task : Task.t) pe acl =
  let entry = Task.platform_entry_for task pe in
  match Option.bind entry (fun e -> e.App_spec.cost_us) with
  | Some us -> (no_dma, int_of_float (us *. 1e3), no_dma)
  | None ->
    let dma_in, compute, dma_out = Exec_model.accel_phases_ns task acl in
    let bytes_in, bytes_out = Exec_model.dma_bytes task.Task.node in
    let phase ideal bytes =
      {
        dp_ideal_ns = ideal;
        dp_bytes = bytes;
        dp_chunks = Cost_model.chunk_count acl ~bytes;
        dp_chunk_lat_ns = acl.Pe.dma.Dssoc_soc.Dma.latency_ns;
      }
    in
    (phase dma_in bytes_in, compute, phase dma_out bytes_out)

(* ------------------------------------------------------------------ *)
(* Resource manager (Fig. 4)                                           *)
(* ------------------------------------------------------------------ *)

let resource_manager ?(obs = Obs.disabled) ?(fault = Fault.disabled) ?est_table
    (b : 'h backend) (h : 'h handler) =
  (* One execution attempt.  A faulted attempt burns PE time but MUST
     NOT run the kernel: kernels mutate the instance store in place and
     are not idempotent, so only the final (successful) attempt may
     execute — that keeps functional outputs identical with and
     without retries. *)
  let execute (task : Task.t) started =
    if not (Fault.enabled fault) then b.b_execute h task
    else begin
      let est_ns =
        match est_table with
        | Some tbl -> Exec_model.lookup tbl task h.h_index
        | None -> 0
      in
      match
        Fault.decide fault ~pe:h.h_index ~now:started ~task_id:task.Task.id
          ~attempt:task.Task.attempts ~est_ns
      with
      | Fault.Proceed -> b.b_execute h task
      | Fault.Proceed_slow extra_ns ->
        if Obs.enabled obs then
          Obs.on_fault_injected obs ~now:started ~task:task.Task.id
            ~pe:h.h_pe.Pe.label ~pe_index:h.h_index ~fault:"slowdown"
            ~attempt:task.Task.attempts;
        b.b_execute h task;
        if extra_ns > 0 then b.b_delay h extra_ns
      | Fault.Fail { after_ns; reason; quarantine_ns } ->
        if Obs.enabled obs then
          Obs.on_fault_injected obs ~now:started ~task:task.Task.id
            ~pe:h.h_pe.Pe.label ~pe_index:h.h_index
            ~fault:(Fault.failure_name reason) ~attempt:task.Task.attempts;
        if after_ns > 0 then b.b_delay h after_ns;
        task.Task.last_failure <- Some (reason, quarantine_ns)
    end
  in
  let rec loop () =
    b.b_lock h;
    b.b_handler_await h;
    if h.h_stop then b.b_unlock h
    else begin
      (* With a reservation queue the next task starts with no
         workload-manager round trip — the future-work optimisation
         Section III-C sketches. *)
      let rec drain () =
        match Queue.take_opt h.h_pending with
        | None -> ()
        | Some task ->
          if h.h_capacity > 1 && Obs.enabled obs then
            Obs.on_reservation_popped obs ~now:(b.b_now ()) ~pe_index:h.h_index
              ~depth:(Queue.length h.h_pending);
          b.b_unlock h;
          let started = b.b_now () in
          execute task started;
          let finished = b.b_now () in
          task.Task.completed_at <- finished;
          b.b_lock h;
          (* Occupancy, not queue residence: utilisation stays
             meaningful when a reservation queue is configured.  Failed
             attempts still occupied the PE, but only successful runs
             count as tasks run. *)
          h.h_busy_ns <- h.h_busy_ns + (finished - started);
          if task.Task.last_failure = None then h.h_tasks_run <- h.h_tasks_run + 1;
          Queue.add task h.h_completed;
          b.b_notify_wm ();
          drain ()
      in
      drain ();
      b.b_unlock h;
      loop ()
    end
  in
  loop ()

(* ------------------------------------------------------------------ *)
(* Service hooks (serve extension)                                     *)
(* ------------------------------------------------------------------ *)

(* Capabilities the workload manager hands to a resident service: the
   service decides *which* instances enter the run and when, the WM
   keeps owning the ready list, dispatch and completion monitoring. *)
type service_ops = {
  so_inject : Task.instance -> int;
      (* admit one instance now: emits the injection event, makes its
         entry tasks ready, returns how many tasks that was *)
  so_cancel : Task.instance -> unit;
      (* watchdog abort: unlink the instance's Ready tasks from the
         ready list, purge its retry entries and suppress successor
         release via [Task.cancelled].  The caller must only cancel
         instances with no Running task. *)
  so_ready_live : unit -> int;
  so_inflight : unit -> int;
  so_retry_empty : unit -> bool;
}

type service = {
  sv_tick : service_ops -> now:int -> int;
      (* one service sweep, replacing the fixed-workload injection
         drain: run admission control over due arrivals, harvest
         completions, run the watchdog; returns the number of tasks
         made ready (charged like an injection burst) *)
  sv_next : now:int -> int option;
      (* next service deadline (arrival or watchdog expiry), strictly
         in the future; [None] when only completions can wake the WM *)
  sv_finished : service_ops -> now:int -> bool;
      (* termination: every arrival consumed (or a drain was requested)
         and the run is quiescent *)
  sv_resume : bool;
      (* restored from a checkpoint: skip the first WM tick and go
         straight to the await, so the resumed clock trajectory is
         identical to the uninterrupted run's (which awaited right
         after the tick that observed the quiescent instant) *)
}

(* ------------------------------------------------------------------ *)
(* Workload manager (Fig. 3)                                           *)
(* ------------------------------------------------------------------ *)

(* Cap on how many ready tasks a single policy invocation examines.
   The *charged* (or measured) overhead still grows with the full
   ready-list length (that is the paper's O(n)/O(n^2) effect); the cap
   only bounds the engine's own compute, and idle-PE counts make
   deeper windows pointless. *)
let sched_window = Cost_model.sched_examined_cap

let workload_manager ?(obs = Obs.disabled) ?(fault = Fault.disabled) ?service
    (b : 'h backend) ~(handlers : 'h handler array)
    ~(instances : Task.instance array) ~est_table ~(policy : Scheduler.policy)
    ~prng ~(stats : wm_stats) =
  let n_pes = Array.length handlers in
  let fault_on = Fault.enabled fault in
  let ready =
    Ready.create (Array.fold_left (fun n i -> n + Array.length i.Task.tasks) 0 instances)
  in
  (* WM-owned dispatched-but-not-yet-monitored count, feeding the
     in-flight gauge; metrics are only ever touched on this thread. *)
  let inflight = ref 0 in
  (* Under a service the injection schedule is owned by the service
     hooks (admission control decides which instances ever enter), so
     the fixed-workload pending list starts empty and [unfinished] is
     not the termination criterion. *)
  let pending = ref (match service with None -> Array.to_list instances | Some _ -> []) in
  let unfinished = ref (Array.length instances) in
  let make_ready (task : Task.t) =
    task.Task.status <- Task.Ready;
    task.Task.ready_at <- b.b_now ();
    Ready.append ready task;
    if Obs.enabled obs then
      Obs.on_task_ready obs ~now:task.Task.ready_at ~task:task.Task.id
        ~instance:task.Task.instance_id ~app:task.Task.app_name
        ~node:task.Task.node.App_spec.node_name ~ready_depth:(Ready.length ready)
  in
  (* ---- fault handling (all WM-owned; no-ops when [fault_on] is false) ---- *)
  (* Tasks sleeping out a retry backoff, sorted by release time. *)
  let retry_q : (int * Task.t) list ref = ref [] in
  let insert_retry at task =
    let rec ins = function
      | ((t, _) as hd) :: tl when t <= at -> hd :: ins tl
      | rest -> (at, task) :: rest
    in
    retry_q := ins !retry_q
  in
  let abort reason = if stats.aborted = None then stats.aborted <- Some reason in
  let pe_alive h = h.h_quarantined_until <> max_int in
  let has_alive_support (task : Task.t) =
    Array.exists (fun h -> pe_alive h && Task.supports task h.h_pe) handlers
  in
  (* Permanent loss of a PE: quarantine it forever, drain its
     reservation queue back to the ready list (those tasks never
     started, so re-dispatching them elsewhere is safe), and give up
     on the run if some unfinished task now has no surviving PE. *)
  let kill_pe (h : 'h handler) ~now =
    if pe_alive h then begin
      h.h_quarantined_until <- max_int;
      stats.quarantines <- stats.quarantines + 1;
      stats.pe_deaths <- stats.pe_deaths + 1;
      if Obs.enabled obs then
        Obs.on_pe_quarantined obs ~now ~pe:h.h_pe.Pe.label ~pe_index:h.h_index
          ~until_ns:max_int ~permanent:true;
      let drained = ref [] in
      b.b_lock h;
      Queue.iter (fun t -> drained := t :: !drained) h.h_pending;
      Queue.clear h.h_pending;
      b.b_unlock h;
      List.iter
        (fun (t : Task.t) ->
          h.h_inflight <- h.h_inflight - 1;
          decr inflight;
          make_ready t)
        (List.rev !drained);
      Array.iter
        (fun inst ->
          Array.iter
            (fun (t : Task.t) ->
              if t.Task.status <> Task.Done && not (has_alive_support t) then
                abort
                  (Printf.sprintf "task %s/%s supports no surviving PE" t.Task.app_name
                     t.Task.node.App_spec.node_name))
            inst.Task.tasks)
        instances
    end
  in
  let quarantine_pe (h : 'h handler) ~until ~now =
    if pe_alive h && until > h.h_quarantined_until then begin
      h.h_quarantined_until <- until;
      stats.quarantines <- stats.quarantines + 1;
      if Obs.enabled obs then
        Obs.on_pe_quarantined obs ~now ~pe:h.h_pe.Pe.label ~pe_index:h.h_index
          ~until_ns:until ~permanent:false
    end
  in
  (* WM bookkeeping of one failed execution attempt: count it,
     quarantine the PE as the fault plan dictates, then either
     schedule a retry (capped exponential backoff) or abort. *)
  let handle_failure (h : 'h handler) (task : Task.t) reason quarantine_ns =
    stats.faults <- stats.faults + 1;
    let now = b.b_now () in
    if Obs.enabled obs then
      Obs.on_task_failed obs ~now ~task:task.Task.id ~instance:task.Task.instance_id
        ~app:task.Task.app_name ~node:task.Task.node.App_spec.node_name
        ~pe:h.h_pe.Pe.label ~pe_index:h.h_index ~fault:(Fault.failure_name reason)
        ~attempt:task.Task.attempts;
    (match reason with
    | Fault.Pe_dead -> kill_pe h ~now
    | _ when quarantine_ns = max_int -> kill_pe h ~now
    | _ when quarantine_ns > 0 -> quarantine_pe h ~until:(now + quarantine_ns) ~now
    | _ -> ());
    if not (has_alive_support task) then
      abort
        (Printf.sprintf "task %s/%s supports no surviving PE" task.Task.app_name
           task.Task.node.App_spec.node_name)
    else if task.Task.attempts >= Fault.max_attempts fault then
      abort
        (Printf.sprintf "task %s/%s exhausted its %d-attempt budget" task.Task.app_name
           task.Task.node.App_spec.node_name (Fault.max_attempts fault))
    else begin
      stats.retries <- stats.retries + 1;
      let backoff = Fault.backoff_ns fault ~attempt:task.Task.attempts in
      task.Task.status <- Task.Blocked;
      insert_retry (now + backoff) task;
      if Obs.enabled obs then
        Obs.on_task_retried obs ~now ~task:task.Task.id ~instance:task.Task.instance_id
          ~app:task.Task.app_name ~node:task.Task.node.App_spec.node_name
          ~attempt:task.Task.attempts ~backoff_ns:backoff
    end
  in
  (* A PE at or past its scheduled death time must never receive work,
     even if the proactive kill sweep has not reached it yet: the
     engines' clocks pass the death time at different wall points, and
     a dispatch that slips through on one engine but not the other
     consumes an attempt (without a fault draw) and desynchronises the
     replay. *)
  let dead_at h ~now =
    match Fault.death_ns fault ~pe:h.h_index with
    | Some t -> now >= t
    | None -> false
  in
  let sweep_deaths ~now =
    Array.iter
      (fun h ->
        if dead_at h ~now && pe_alive h then begin
          stats.faults <- stats.faults + 1;
          kill_pe h ~now
        end)
      handlers
  in
  (* Capabilities handed to the service hooks. *)
  let service_ops =
    {
      so_inject =
        (fun (inst : Task.instance) ->
          if Obs.enabled obs then
            Obs.on_instance_injected obs ~now:(b.b_now ()) ~instance:inst.Task.inst_id
              ~app:inst.Task.app.App_spec.app_name;
          List.iter make_ready inst.Task.entry;
          List.length inst.Task.entry);
      so_cancel =
        (fun (inst : Task.instance) ->
          inst.Task.cancelled <- true;
          Array.iter
            (fun (t : Task.t) ->
              if t.Task.status = Task.Ready then begin
                t.Task.status <- Task.Blocked;
                Ready.remove ready t
              end)
            inst.Task.tasks;
          retry_q :=
            List.filter
              (fun (_, (t : Task.t)) -> t.Task.instance_id <> inst.Task.inst_id)
              !retry_q);
      so_ready_live = (fun () -> Ready.length ready);
      so_inflight = (fun () -> !inflight);
      so_retry_empty = (fun () -> !retry_q = []);
    }
  in
  (* The policy-facing PE states, refreshed in place per invocation. *)
  let pes_scratch =
    Array.map
      (fun h -> { Scheduler.pe = h.h_pe; idle = false; busy_until = 0; available = true })
      handlers
  in
  let estimate task i = Exec_model.lookup est_table task i in
  (* One scheduling invocation: run the policy over the ready window,
     account its cost, dispatch the selected tasks.  Invoked
     after every task completion and after every injection burst, as
     the paper's workload manager does (it has no PE reservation
     queues, so "a scheduling algorithm incurs this overhead every
     time a task completes"). *)
  let do_schedule () =
    let now0 = if fault_on then b.b_now () else 0 in
    let pe_ok h =
      (not fault_on) || (h.h_quarantined_until <= now0 && not (dead_at h ~now:now0))
    in
    let usable h = h.h_inflight < h.h_capacity && pe_ok h in
    let have_idle = Array.exists usable handlers in
    let ready_len = Ready.length ready in
    if stats.aborted = None && ready_len > 0 && have_idle then begin
      let nready = min ready_len sched_window in
      Array.iteri
        (fun i h ->
          let st = pes_scratch.(i) in
          st.Scheduler.available <- pe_ok h;
          st.Scheduler.idle <- st.Scheduler.available && h.h_inflight < h.h_capacity;
          st.Scheduler.busy_until <- h.h_busy_until)
        handlers;
      let t0 = b.b_sched_start () in
      let ctx =
        {
          Scheduler.now = b.b_now ();
          ready;
          nready;
          pes = pes_scratch;
          estimate;
          prng;
          ops = 0;
        }
      in
      let assignments = policy.Scheduler.schedule ctx in
      let sched_cost = b.b_sched_done t0 ~ready:ready_len ~ops:ctx.Scheduler.ops in
      stats.sched_ns <- stats.sched_ns + sched_cost;
      stats.sched_invocations <- stats.sched_invocations + 1;
      if Obs.enabled obs then
        Obs.on_sched obs ~now:(b.b_now ()) ~ready:ready_len ~examined:nready
          ~ops:ctx.Scheduler.ops ~cost_ns:sched_cost
          ~assigned:(List.length assignments);
      (* Communicate selected tasks to their resource managers. *)
      List.iter
        (fun (a : Scheduler.assignment) ->
          let task = a.Scheduler.task and h = handlers.(a.Scheduler.pe_index) in
          if
            task.Task.status <> Task.Ready
            || fault_on
               && (h.h_quarantined_until > b.b_now ()
                  || dead_at h ~now:(b.b_now ())
                  || h.h_inflight >= h.h_capacity)
          then
            (* A custom policy returned a task twice, ignored
               [Scheduler.pe_state.available] or overcommitted; drop
               the assignment — an undispatched task stays in the
               ready list for the next invocation. *)
            ()
          else begin
            b.b_charge Cost_model.dispatch_per_task_ns;
            b.b_lock h;
            task.Task.status <- Task.Running;
            task.Task.attempts <- task.Task.attempts + 1;
            Ready.remove ready task;
            task.Task.dispatched_at <- b.b_now ();
            task.Task.pe_label <- h.h_pe.Pe.label;
            Queue.add task h.h_pending;
            h.h_inflight <- h.h_inflight + 1;
            incr inflight;
            h.h_busy_until <-
              max (b.b_now ()) h.h_busy_until + Exec_model.lookup est_table task h.h_index;
            if Obs.enabled obs then begin
              let now = task.Task.dispatched_at in
              Obs.on_task_dispatched obs ~now ~task:task.Task.id
                ~instance:task.Task.instance_id ~app:task.Task.app_name
                ~node:task.Task.node.App_spec.node_name ~pe:h.h_pe.Pe.label
                ~pe_index:h.h_index ~wait_ns:(now - task.Task.ready_at)
                ~ready_depth:(Ready.length ready) ~pe_depth:h.h_inflight ~inflight:!inflight;
              if h.h_capacity > 1 then
                Obs.on_reservation_enqueued obs ~now ~pe_index:h.h_index
                  ~depth:(Queue.length h.h_pending)
            end;
            b.b_notify_handler h;
            b.b_unlock h
          end)
        assignments
    end
  in
  (* Bookkeeping for one completed task: statistics, instance
     accounting, and releasing newly ready successors. *)
  let process_completion (task : Task.t) =
    task.Task.status <- Task.Done;
    (* A resident service never reads the per-task record list and
       would grow it without bound; its per-tenant aggregates are kept
       by the service layer instead. *)
    (match service with
    | Some _ -> ()
    | None ->
      stats.records <-
        {
          Stats.app = task.Task.app_name;
          instance = task.Task.instance_id;
          node = task.Task.node.App_spec.node_name;
          pe = task.Task.pe_label;
          ready_ns = task.Task.ready_at;
          dispatched_ns = task.Task.dispatched_at;
          completed_ns = task.Task.completed_at;
        }
        :: stats.records);
    let inst = instances.(task.Task.instance_id) in
    if not inst.Task.cancelled then begin
      inst.Task.remaining <- inst.Task.remaining - 1;
      if inst.Task.remaining = 0 then begin
        inst.Task.completed_at <- b.b_now ();
        decr unfinished
      end;
      let newly_ready = ref 0 in
      List.iter
        (fun (succ : Task.t) ->
          succ.Task.unmet <- succ.Task.unmet - 1;
          if succ.Task.unmet = 0 then begin
            make_ready succ;
            incr newly_ready
          end)
        task.Task.successors;
      if !newly_ready > 0 then
        b.b_charge (Cost_model.ready_update_per_task_ns *. float_of_int !newly_ready)
    end
  in
  let rec loop () =
    let tick = b.b_wm_tick_start () in
    (* Planned deaths fire before anything else in the iteration: the
       first tick may already carry due arrivals (the virtual clock is
       past t=0 once setup costs are charged), and a death must take
       effect before any dispatch decision of the same tick. *)
    if fault_on then sweep_deaths ~now:(b.b_now ());
    (* -- one completion-monitoring sweep over the resource handlers -- *)
    b.b_charge (Cost_model.monitor_per_pe_ns *. float_of_int n_pes);
    let batch_completions = ref false in
    let completions = ref 0 in
    Array.iter
      (fun h ->
        (* Pop one completion at a time, re-taking the lock between
           pops, so a capacity-1 handler's scheduling round never runs
           while this handler is locked. *)
        let continue_ = ref true in
        while !continue_ do
          b.b_lock h;
          match Queue.take_opt h.h_completed with
          | None ->
            b.b_unlock h;
            continue_ := false
          | Some task ->
            b.b_unlock h;
            h.h_inflight <- h.h_inflight - 1;
            decr inflight;
            (match task.Task.last_failure with
            | Some (reason, quarantine_ns) ->
              task.Task.last_failure <- None;
              handle_failure h task reason quarantine_ns
            | None ->
              incr completions;
              if Obs.enabled obs then
                Obs.on_task_completed obs ~now:task.Task.completed_at
                  ~task:task.Task.id ~instance:task.Task.instance_id
                  ~app:task.Task.app_name ~node:task.Task.node.App_spec.node_name
                  ~pe:task.Task.pe_label ~pe_index:h.h_index
                  ~service_ns:(task.Task.completed_at - task.Task.dispatched_at)
                  ~pe_depth:h.h_inflight ~inflight:!inflight;
              process_completion task);
            if h.h_capacity <= 1 then
              (* No reservation queue: the scheduler runs once per
                 completed task, as in the paper. *)
              do_schedule ()
            else batch_completions := true
        done)
      handlers;
    if !batch_completions then do_schedule ();
    (* -- inject newly arrived application instances -- *)
    let injected = ref 0 in
    let now = b.b_now () in
    let rec drain () =
      match !pending with
      | inst :: rest when inst.Task.arrival_ns <= now ->
        pending := rest;
        if Obs.enabled obs then
          Obs.on_instance_injected obs ~now ~instance:inst.Task.inst_id
            ~app:inst.Task.app.App_spec.app_name;
        List.iter
          (fun t ->
            make_ready t;
            incr injected)
          inst.Task.entry;
        drain ()
      | _ -> ()
    in
    (match service with
    | None -> if stats.aborted = None then drain ()
    | Some sv -> if stats.aborted = None then injected := sv.sv_tick service_ops ~now);
    if !injected > 0 then begin
      b.b_charge (Cost_model.ready_update_per_task_ns *. float_of_int !injected);
      do_schedule ()
    end;
    (* -- fault timeline: planned deaths, quarantine expiry, retries -- *)
    if fault_on then begin
      let now = b.b_now () in
      (* Planned deaths fire proactively, so a PE dies at its scheduled
         time on both engines even if nothing was dispatched to it.
         (Also swept at the top of the iteration; this catches deaths
         whose time was crossed by charges within the iteration.) *)
      sweep_deaths ~now;
      let recovered = ref false in
      Array.iter
        (fun h ->
          if h.h_quarantined_until > 0 && pe_alive h && now >= h.h_quarantined_until
          then begin
            h.h_quarantined_until <- 0;
            recovered := true;
            if Obs.enabled obs then
              Obs.on_pe_recovered obs ~now ~pe:h.h_pe.Pe.label ~pe_index:h.h_index
          end)
        handlers;
      let released = ref 0 in
      let rec release () =
        match !retry_q with
        | (t, task) :: rest when t <= now && stats.aborted = None ->
          retry_q := rest;
          make_ready task;
          incr released;
          release ()
        | _ -> ()
      in
      release ();
      if !released > 0 || !recovered then do_schedule ()
    end;
    b.b_wm_tick_end tick;
    if Obs.enabled obs then
      Obs.on_wm_tick obs ~now:(b.b_now ()) ~completions:!completions
        ~injected:!injected;
    (* -- terminate or wait for the next event -- *)
    let finished =
      match service with
      | None -> !unfinished = 0 && !pending = []
      | Some sv -> sv.sv_finished service_ops ~now:(b.b_now ())
    in
    (* An aborted run stops once in-flight work has drained: doomed
       tasks never complete, so [unfinished] cannot reach zero. *)
    let gave_up = stats.aborted <> None && !inflight = 0 in
    if finished || gave_up then
      Array.iter
        (fun h ->
          b.b_lock h;
          h.h_stop <- true;
          b.b_notify_handler h;
          b.b_unlock h)
        handlers
    else begin
      let deadline =
        if stats.aborted <> None then
          (* Only waiting for in-flight tasks; their completions wake
             the WM. *)
          None
        else begin
          let best = ref (match !pending with [] -> None | i :: _ -> Some i.Task.arrival_ns) in
          let add t = match !best with Some b when b <= t -> () | _ -> best := Some t in
          (match service with
          | Some sv -> (
            match sv.sv_next ~now:(b.b_now ()) with Some t -> add t | None -> ())
          | None -> ());
          if fault_on then begin
            (match !retry_q with (t, _) :: _ -> add t | [] -> ());
            Array.iter
              (fun h ->
                if pe_alive h then begin
                  if h.h_quarantined_until > 0 then add h.h_quarantined_until;
                  match Fault.death_ns fault ~pe:h.h_index with
                  | Some t -> add t
                  | None -> ()
                end)
              handlers
          end;
          !best
        end
      in
      b.b_wm_await ~deadline;
      loop ()
    end
  in
  (* A checkpoint is only taken at a quiescent instant, right after the
     tick that observed it.  The uninterrupted run's next action at that
     point is the await on the next service deadline — so a restored run
     must start with that await, not with a fresh tick (whose monitoring
     charge the uninterrupted run never paid at this clock value). *)
  (match service with
  | Some sv when sv.sv_resume -> b.b_wm_await ~deadline:(sv.sv_next ~now:(b.b_now ()))
  | _ -> ());
  loop ()

(* ------------------------------------------------------------------ *)
(* Report assembly                                                     *)
(* ------------------------------------------------------------------ *)

let report ~host_name ~(config : Config.t) ~(policy : Scheduler.policy)
    ~(handlers : 'h handler array) ~(instances : Task.instance array)
    ~(stats : wm_stats) ~(fabric : fabric_counters) =
  let makespan =
    Array.fold_left (fun acc inst -> max acc inst.Task.completed_at) 0 instances
  in
  (* Latencies of completed instances only: an aborted run leaves
     some at [completed_at = -1]. *)
  let app_tbl = Hashtbl.create 4 in
  Array.iter
    (fun inst ->
      let name = inst.Task.app.App_spec.app_name in
      let lats = Option.value ~default:[] (Hashtbl.find_opt app_tbl name) in
      let lats =
        if inst.Task.completed_at < 0 then lats
        else (inst.Task.completed_at - inst.Task.arrival_ns) :: lats
      in
      Hashtbl.replace app_tbl name lats)
    instances;
  let app_stats =
    Hashtbl.fold
      (fun name lats acc ->
        let n = List.length lats in
        let sum = List.fold_left ( + ) 0 lats in
        ( name,
          {
            Stats.instances = n;
            mean_latency_ns = float_of_int sum /. float_of_int (max 1 n);
            max_latency_ns = List.fold_left max 0 lats;
          } )
        :: acc)
      app_tbl []
    |> List.sort compare
  in
  let task_count =
    Array.fold_left (fun acc i -> acc + Array.length i.Task.tasks) 0 instances
  in
  let verdict =
    match stats.aborted with
    | Some reason -> Stats.Aborted reason
    | None -> if stats.faults > 0 || stats.retries > 0 then Stats.Degraded else Stats.Completed
  in
  {
    Stats.host_name;
    config_label = config.Config.label;
    policy_name = policy.Scheduler.name;
    makespan_ns = makespan;
    job_count = Array.length instances;
    task_count;
    pe_usage =
      Array.to_list
        (Array.map
           (fun h ->
             {
               Stats.pe_label = h.h_pe.Pe.label;
               pe_kind = Pe.kind_name h.h_pe.Pe.kind;
               busy_ns = h.h_busy_ns;
               tasks_run = h.h_tasks_run;
               busy_energy_mj = float_of_int h.h_busy_ns *. Pe.busy_w h.h_pe.Pe.kind *. 1e-6;
               energy_mj =
                 (float_of_int h.h_busy_ns *. Pe.busy_w h.h_pe.Pe.kind
                 +. float_of_int (max 0 (makespan - h.h_busy_ns))
                    *. Pe.idle_w h.h_pe.Pe.kind)
                 *. 1e-6;
             })
           handlers);
    sched_invocations = stats.sched_invocations;
    sched_ns = stats.sched_ns;
    wm_overhead_ns = stats.wm_ns;
    records = List.rev stats.records;
    app_stats;
    verdict;
    resilience =
      {
        Stats.faults_injected = stats.faults;
        task_retries = stats.retries;
        pe_quarantines = stats.quarantines;
        pe_deaths = stats.pe_deaths;
        tasks_lost = task_count - List.length stats.records;
      };
    fabric =
      {
        Stats.dma_streams = fabric.fc_streams;
        fabric_stalls = fabric.fc_stalls;
        fabric_stall_ns = fabric.fc_stall_ns;
        max_inflight_streams = fabric.fc_max_inflight;
      };
  }
