(* Every benchmark workload, by the name BENCHMARK.json gives it. *)

let all = [ Sweeps.mix_sweep; Sweeps.rate_sweep_compiled; Serve_wl.serve_shed ]
