(** Deterministic virtual-time emulation engine.

    Reimplements the framework's three-component runtime (application
    handler, workload manager, resource managers) on top of a
    discrete-event simulation with a virtual nanosecond clock:

    - Manager threads are lightweight processes (OCaml effects) placed
      on modelled host cores according to the configuration (Section
      II-D).  A core running several manager threads processor-shares
      among them and pays a context-switch penalty, which reproduces
      the contention anomalies of Figs. 9 and 11.
    - CPU task execution charges {!Exec_model.estimate_ns}, scaled by
      the core class; accelerator execution splits into DMA-in /
      device compute / DMA-out, with the manager thread occupying its
      core only during the DMA phases (it "sleeps" while the device
      runs, as Section II-D describes).
    - The workload manager runs on the overlay core and is charged
      completion-monitoring, ready-list-update, scheduling and
      dispatch costs per loop iteration.
    - Every kernel is also executed functionally on the host, so
      emulation output data is real and checkable.

    Determinism: all randomness (execution-time jitter modelling
    run-to-run platform variance, and the RANDOM policy) flows from
    the seed.

    The workload-manager and resource-handler protocol itself lives in
    {!Engine_core}, and the clock, event heap, processor-shared host
    cores and fabric link live in {!Des}, the substrate the compiled
    engine runs on too.  This module supplies the backend between
    them: each manager thread is a direct-style effect thread whose
    blocking operations are four effects ([Work], [Stream], [Sleep],
    [Await]) carrying its thread id — resource manager [i] is thread
    [i], the workload manager thread [n_pes] — handed to {!Des}, plus
    the modelled overhead charging. *)

type params = Engine_core.params = {
  seed : int64;
  jitter : float;
      (** stddev of the multiplicative Gaussian noise on modelled task
          times; [0.] gives perfectly repeatable runs, the default
          [0.03] gives the spread the paper's Fig. 9 box plots show
          across 50 iterations on real hardware *)
  reservation_depth : int;
      (** per-PE reservation-queue depth.  [0] reproduces the paper's
          released framework (no queues: the scheduler runs on every
          task completion and PEs stall until the next dispatch);
          [> 0] implements the future-work optimisation of Section
          III-C — the workload manager queues up to this many extra
          tasks on each PE and batches scheduling invocations, and the
          resource manager starts queued work without a round trip *)
}

val default_params : params
(** seed 1, jitter 0.03, no reservation queues. *)

val run :
  ?params:params ->
  ?obs:Dssoc_obs.Obs.t ->
  ?fault:Dssoc_fault.Fault.plan ->
  config:Dssoc_soc.Config.t ->
  workload:Dssoc_apps.Workload.t ->
  policy:Scheduler.policy ->
  unit ->
  Stats.report
(** Run the workload to completion and return the collected
    statistics.

    [obs] (default {!Dssoc_obs.Obs.disabled}) receives the engine-core
    event stream and metrics, timestamped with the virtual clock —
    event logs are therefore bit-identical for a given seed.  The
    backend additionally emits accelerator DMA-in / device-compute /
    DMA-out phase events and samples the event-heap depth gauge
    ([event_heap_depth]) once per WM tick.

    [fault] (default none) injects the plan's deterministic fault
    schedule and turns on the resilient-dispatch machinery
    (retries, quarantine, degradation — see {!Engine_core.workload_manager});
    the report's [verdict] and [resilience] fields record the outcome.
    Fault draws are keyed on the plan's own seed, not [params.seed].
    @raise Invalid_argument if some task supports no PE of the
    configuration, or if a fault rule targets no PE. *)

val run_detailed :
  ?params:params ->
  ?obs:Dssoc_obs.Obs.t ->
  ?fault:Dssoc_fault.Fault.plan ->
  config:Dssoc_soc.Config.t ->
  workload:Dssoc_apps.Workload.t ->
  policy:Scheduler.policy ->
  unit ->
  Stats.report * Task.instance array
(** Like {!run} but also returns the executed instances (in workload
    order) so callers can inspect final variable stores — the
    functional-verification path. *)

(** {1 Resident service entry point}

    Used by {!Dssoc_serve.Server}: the workload carries the full
    materialized arrival schedule, injection/termination are delegated
    to the {!Engine_core.service} hooks, and the run can be restored
    from a checkpoint taken at a quiescent instant (empty ready list,
    nothing in flight, empty admission queues).  At such an instant
    the only engine state that matters for the future of the run is
    the virtual clock, the engine PRNG, and the per-handler scheduling
    horizon — captured in {!resume_state}. *)

type handler_snapshot = { hs_busy_until : int; hs_busy_ns : int; hs_tasks_run : int }

type resume_state = {
  rs_clock : int;  (** virtual time of the quiescent instant *)
  rs_prng : int64 * int64 * int64 * int64;  (** {!Dssoc_util.Prng.state} *)
  rs_handlers : handler_snapshot array;  (** in placement order *)
}

type service_run = {
  sr_instances : Task.instance array;
  sr_stats : Engine_core.wm_stats;
  sr_fabric : Engine_core.fabric_counters;
  sr_prng : int64 * int64 * int64 * int64;
  sr_handlers : handler_snapshot array;
}

val run_service :
  ?params:params ->
  ?obs:Dssoc_obs.Obs.t ->
  ?resume:resume_state ->
  config:Dssoc_soc.Config.t ->
  workload:Dssoc_apps.Workload.t ->
  policy:Scheduler.policy ->
  service:(Task.instance array -> Engine_core.service) ->
  unit ->
  service_run
(** Run a resident service over the DES backend.  [workload] must hold
    every instance the service may ever admit; [service] receives the
    instantiated instances (ids index this array) and returns the
    hooks that decide which of them are injected and when.  With [resume] the clock, engine PRNG and handler horizons
    start from the checkpointed values and the workload manager skips
    its first tick ([sv_resume] is forced accordingly), reproducing
    the uninterrupted run's trajectory exactly.  Fault plans are not
    supported in service mode (their timeline is not checkpointable).
    @raise Invalid_argument on a PE-count mismatch with [resume]. *)
