(** Top-level emulation API.

    Wraps engine selection, policy lookup and workload construction so
    examples, the CLI and the benchmark harness share one entry
    point.  Both engines run the same {!Engine_core} protocol and take
    the same {!Engine_core.params}; they differ only in backend
    (discrete-event simulation vs. real OCaml 5 domains). *)

type engine =
  | Virtual of Engine_core.params
      (** deterministic virtual-time simulation (used by all figure
          benches) *)
  | Native of Engine_core.params
      (** OCaml 5 domains executing the same handler protocol in real
          time on the machine running the emulator *)
  | Compiled of Engine_core.params
      (** ahead-of-time specialization of (workload x platform x
          policy) into a flat-array event loop; replays the virtual
          engine byte-for-byte for every registered policy, traced
          runs included — see {!Compiled_engine}.  Fault plans are
          outside its contract and turn into [Error] here. *)

val virtual_seeded : ?jitter:float -> ?reservation_depth:int -> int64 -> engine
(** Convenience: virtual engine with the given seed (jitter defaults
    to 0.03, reservation queues off — see {!Engine_core.params}). *)

val native_seeded : ?jitter:float -> ?reservation_depth:int -> int64 -> engine
(** Convenience: native engine with the given seed (jitter defaults to
    0. — native kernels run for real; the jitter only shapes the
    modelled device-compute sleeps — reservation queues off). *)

val compiled_seeded : ?jitter:float -> ?reservation_depth:int -> int64 -> engine
(** Convenience: compiled engine with the given seed (same defaults as
    {!virtual_seeded}, whose runs it replays exactly).  Each call to
    {!run} compiles the triple afresh; callers that re-run one
    workload many times should use {!Compiled_engine.compile} once and
    {!Compiled_engine.run} per emulation instead. *)

val native_default : engine
(** Native engine with {!Native_engine.default_params}. *)

val run :
  ?engine:engine ->
  ?policy:string ->
  ?obs:Dssoc_obs.Obs.t ->
  ?fault:Dssoc_fault.Fault.plan ->
  config:Dssoc_soc.Config.t ->
  workload:Dssoc_apps.Workload.t ->
  unit ->
  (Stats.report, string) result
(** Defaults: deterministic virtual engine (seed 1, 3% jitter), FRFS,
    observation disabled, no fault injection.  [obs] threads an
    observation bundle (event sink and/or metrics registry) through
    the selected engine's run — see {!Dssoc_obs.Obs}.  [fault]
    injects a deterministic fault plan and enables resilient dispatch
    — see {!Dssoc_fault.Fault} and {!Engine_core.workload_manager};
    the report's [verdict] and [resilience] fields record the
    outcome.  Errors on unknown policy names, unsupported tasks, or a
    fault rule targeting no PE of the configuration. *)

val run_exn :
  ?engine:engine ->
  ?policy:string ->
  ?obs:Dssoc_obs.Obs.t ->
  ?fault:Dssoc_fault.Fault.plan ->
  config:Dssoc_soc.Config.t ->
  workload:Dssoc_apps.Workload.t ->
  unit ->
  Stats.report

val run_detailed :
  ?engine:engine ->
  ?policy:string ->
  ?obs:Dssoc_obs.Obs.t ->
  ?fault:Dssoc_fault.Fault.plan ->
  config:Dssoc_soc.Config.t ->
  workload:Dssoc_apps.Workload.t ->
  unit ->
  (Stats.report * Task.instance array, string) result
(** Like {!run} but also returns the executed instances (in workload
    order), giving access to the final variable stores for functional
    verification. *)
