(** Ahead-of-time compiled emulation engine.

    The virtual engine interprets the workload every run: polymorphic
    task records, effect-based threads, `Scheduler.context` closures
    and the `Engine_core` backend record all sit on the hottest loop.
    This module instead {e compiles} one (workload x platform x policy)
    triple into a {!type:plan} of unboxed flat arrays — CSR
    predecessor/successor adjacency over dense task ids, a preresolved
    per-(task, PE) estimate matrix and accelerator phase tables, dense
    PE/task state arrays — and then {!val:run}s the workload-manager
    protocol inlined as integer program counters, with no per-event
    closure allocation.  Its events, host cores and fabric link are
    {!Des}, the substrate the virtual engine's effect threads run on,
    so only the protocol is lowered here, not the model.  The policy
    is called through {!Scheduler.context} exactly as {!Engine_core}
    calls it, over the same {!Ready} list and estimate sentinel, so any
    registered policy runs here.

    The contract with the reference engines is {e exact replay}: for
    every supported parameter set (any seed, any jitter, any
    reservation depth, any registered policy) a compiled run
    produces the same event sequence as the virtual engine — the same
    [Stats.report] (byte-identical [records_csv]) and the same final
    instance stores.  Observability is lowered into the loop rather
    than interpreted: a traced run ([?obs] on {!val:run}) emits the
    same events with the same timestamps in the same order as the
    virtual engine (byte-identical {!Dssoc_obs.Obs.to_jsonl}) and
    populates the same metrics registry, while an untraced run pays
    only one predictable branch per hook site.  Anything the engine
    cannot replay bit-for-bit (fault plans) is rejected at
    compile time with {!exception:Unsupported} rather than allowed to
    diverge silently.  The differential matrix in
    [test/test_diff_engines.ml] pins both contracts.

    Because every instance of an application archetype starts from the
    same store bytes and its kernels are deterministic dataflow
    functions, compilation also runs each archetype's kernel chain once
    (in topological order) and records the final store; runs then blit
    that image into every instance store instead of re-executing
    identical kernels hundreds of times.  When a node's platform
    entries resolve to different kernel functions the archetype falls
    back to per-instance kernel execution, preserving the contract. *)

type plan

exception Unsupported of string
(** Raised by {!val:compile} for inputs outside the compiled engine's
    replay contract: a fault plan. *)

val compile :
  ?fault:Dssoc_fault.Fault.plan ->
  config:Dssoc_soc.Config.t ->
  workload:Dssoc_apps.Workload.t ->
  policy:Scheduler.policy ->
  unit ->
  plan
(** Lower the triple into a plan.  The plan is immutable apart from
    internal scratch buffers: it can be kept, reused and interleaved
    with other plans — every {!val:run} starts from fresh instances.
    Observability is a per-run concern ([?obs] on {!val:run} /
    {!val:run_detailed}), not a compile-time one.
    @raise Unsupported for a fault plan.
    @raise Invalid_argument when some task supports no PE of the
    configuration (same validation as the reference engines). *)

val run : ?obs:Dssoc_obs.Obs.t -> plan -> Engine_core.params -> Stats.report
(** Execute one emulation of the plan: instantiate fresh instances,
    replay the workload-manager protocol, assemble the report exactly
    as the virtual engine would.  With [?obs], also emit the virtual
    engine's exact event log and metrics. *)

val run_detailed :
  ?obs:Dssoc_obs.Obs.t ->
  plan ->
  Engine_core.params ->
  Stats.report * Task.instance array
(** Like {!val:run}, also returning the instances (with final store
    contents) for functional inspection. *)
