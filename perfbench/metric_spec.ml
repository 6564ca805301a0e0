(* The metric names and units the benchmark reports; BENCHMARK.json
   lists the same (a test keeps the two in step). *)

let end_to_end =
  [
    ("setup_s", "s");
    ("emu_cost_ref", "ratio");
    ("alloc_mb_per_emu", "MB");
    ("peak_heap_mb", "MB");
    ("sim_makespan_ms", "sim_ms");
    ("sim_p90_ms", "sim_ms");
    ("sim_goodput_per_ms", "1/sim_ms");
  ]

let per_layer =
  [
    ("apps.instantiate_ms", "ms");
    ("dsp.kernel_ms", "ms");
    ("dsp.kernel_calls", "count");
    ("runtime.policy_ms", "ms");
    ("runtime.policy_calls", "count");
    ("runtime.policy_ops_per_call", "count");
    ("runtime.engine_self_ms", "ms");
    ("runtime.plan_compile_ms", "ms");
    ("runtime.compiled_point_ms", "ms");
    ("obs.events_per_emu", "count");
    ("obs.overhead_pct", "%");
    ("obs.analyze_ms", "ms");
    ("explore.point_overhead_ms", "ms");
    ("soc.fabric_streams", "count");
    ("soc.fabric_stall_ms", "sim_ms");
    ("serve.run_ms", "ms");
    ("serve.offered", "count");
    ("serve.shed_frac", "ratio");
    ("serve.timed_out", "count");
    ("serve.heap_mb_per_1k_arrivals", "MB");
    ("gc.minor_mb_per_emu", "MB");
    ("gc.promoted_mb_per_emu", "MB");
    ("gc.major_collections_per_emu", "count");
    ("bench.emu_per_s", "1/s");
    ("bench.ref_unit_ms", "ms");
    ("bench.trace_overhead_pct", "%");
  ]
