(** The four reference applications of the paper's SDR domain
    (Section III-B): radar range detection (Fig. 2 / Listing 1),
    pulse Doppler (Fig. 8), and the WiFi transmitter and receiver
    chains (Fig. 7).

    Every builder registers the kernels it needs in the {!Kernels}
    registry, once per process (so a kernel a caller later replaces
    with {!Kernels.register_object} stays replaced), and returns a validated archetype whose
    task counts match Table I: range detection 6, pulse Doppler 770,
    WiFi TX 7, WiFi RX 9.

    The applications are functionally real: range detection carries a
    synthetic echo baked into the JSON initial values and recovers its
    delay; pulse Doppler synthesises a Doppler-shifted echo train and
    recovers range and velocity; WiFi RX decodes the baked TX waveform
    back to the exact payload with a passing CRC.  Integration tests
    assert all of these after full emulated runs. *)

val range_detection : unit -> App_spec.t
val pulse_doppler : unit -> App_spec.t
val wifi_tx : unit -> App_spec.t
val wifi_rx : unit -> App_spec.t

val all : unit -> App_spec.t list
(** All four, in the order used by the paper's workload tables. *)

val by_name : string -> (App_spec.t, string) result
(** Lookup by [AppName] ("range_detection", "pulse_doppler",
    "wifi_tx", "wifi_rx"). *)

val ensure_kernels_registered : unit -> unit
(** Force registration of every reference shared object without
    building the specs.  Idempotent. *)

(** Ground-truth values the built-in workloads embed, exposed so tests
    and examples can assert end-to-end functional correctness. *)
module Truth : sig
  val rd_n_samples : int
  val rd_fft_size : int
  val rd_echo_delay : int
  (** Sample delay of the synthetic echo in [rx]; the MAX kernel must
      recover exactly this lag. *)

  val pd_n_samples : int
  val pd_n_pulses : int
  val pd_range_bin : int
  val pd_doppler_bin : int
  val pd_prf : float
  val pd_carrier_hz : float
  val pd_velocity : float
  (** Radial velocity (m/s) implied by {!pd_doppler_bin}. *)

  val wifi_payload : bool array
  (** The 64-bit payload the TX chain transmits and RX must recover. *)

  val wifi_scramble_seed : int
  val wifi_fft_size : int
  val wifi_data_bits : int
  (** Payload + CRC32 = 96 bits entering the scrambler/encoder. *)
end
