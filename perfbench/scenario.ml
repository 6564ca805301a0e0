(* What a benchmark workload provides to the harness. *)

type sim = {
  makespan_ms : float;  (** mean simulated makespan per emulation *)
  p90_ms : float;  (** p90 arrival-to-completion job latency over the fixed set *)
  goodput_per_ms : float;  (** completed jobs per simulated ms over the fixed set *)
  sim_layers : (string * float) list;  (** simulated per-layer figures (fabric) *)
}

type prepared = {
  units : int;  (** samples per round *)
  round : Check.t -> boundary:(unit -> unit) -> string;
      (** Run one round: the workload calls [boundary] right after each
          unit (sweep point or server run) finishes, and returns the
          round's deterministic output text. *)
  reference : string;  (** the first round's output *)
  sim : Check.t -> sim;
      (** Simulated metrics from one fixed set of emulations derived
          from the seed — never from the timed rounds — and the
          workload's one-off replay checks.  Untimed. *)
  layers : Check.t -> traced_sample_ms:float -> untraced_sample_ms:float -> (string * float) list;
      (** per-layer figures this workload measures by replaying public
          calls on its own inputs; run after the traced rounds *)
}

type t = {
  name : string;
  setups : int;  (** fresh set-ups timed per untraced run *)
  setup : seed:int64 -> Check.t -> prepared;
      (** build inputs, compile, warm caches and run the first round *)
}
