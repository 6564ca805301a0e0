module Cbuf = Dssoc_dsp.Cbuf
module Fft = Dssoc_dsp.Fft
module Radar = Dssoc_dsp.Radar
module Scrambler = Dssoc_dsp.Scrambler
module Conv_code = Dssoc_dsp.Conv_code
module Viterbi = Dssoc_dsp.Viterbi
module Interleaver = Dssoc_dsp.Interleaver
module Modulation = Dssoc_dsp.Modulation
module Crc = Dssoc_dsp.Crc
module Window = Dssoc_dsp.Window
module Prng = Dssoc_util.Prng

(* ------------------------------------------------------------------ *)
(* Ground truth                                                        *)
(* ------------------------------------------------------------------ *)

module Truth = struct
  let rd_n_samples = 256
  let rd_fft_size = 512
  let rd_echo_delay = 37
  let pd_n_samples = 128
  let pd_n_pulses = 256
  let pd_range_bin = 50
  let pd_doppler_bin = 64
  let pd_prf = 10_000.0
  let pd_carrier_hz = 1.0e9

  let pd_velocity =
    Radar.doppler_velocity ~peak_bin:pd_doppler_bin ~n_pulses:pd_n_pulses ~prf:pd_prf
      ~carrier_hz:pd_carrier_hz

  let wifi_payload =
    (* Deterministic 64-bit payload drawn from a fixed-seed stream. *)
    let g = Prng.create ~seed:0x57F1L in
    Array.init 64 (fun _ -> Prng.bool g)

  let wifi_scramble_seed = 93
  let wifi_fft_size = 128
  let wifi_data_bits = 96
end

(* Kernel registration runs once per process.  Registering on every
   constructor call would rebuild every closure (pulse Doppler alone
   has 1,280) and would silently replace any kernel a caller installed
   with [Kernels.register_object].  The guard is a mutex rather than a
   shared [Lazy]: constructors run on several domains (parallel sweeps,
   service mode), and forcing one lazy from two domains at once is
   undefined. *)
let once f =
  let m = Mutex.create () and fired = Atomic.make false in
  fun () ->
    if not (Atomic.get fired) then
      Mutex.protect m (fun () ->
          if not (Atomic.get fired) then begin
            f ();
            Atomic.set fired true
          end)

(* ------------------------------------------------------------------ *)
(* Variable-spec helpers                                               *)
(* ------------------------------------------------------------------ *)

let le32 v = [ v land 0xFF; (v lsr 8) land 0xFF; (v lsr 16) land 0xFF; (v lsr 24) land 0xFF ]

let f32_bytes f = le32 (Int32.to_int (Int32.logand (Int32.bits_of_float f) 0xFFFFFFFFl))

let cbuf_init buf =
  let out = ref [] in
  for i = Cbuf.length buf - 1 downto 0 do
    let re, im = Cbuf.get buf i in
    out := f32_bytes re @ f32_bytes im @ !out
  done;
  !out

let bits_init bits = Array.to_list (Array.map (fun b -> if b then 1 else 0) bits)

let i32_var v : Store.var_spec = { bytes = 4; is_ptr = false; ptr_alloc_bytes = 0; init = le32 v }
let f32_var v : Store.var_spec = { bytes = 4; is_ptr = false; ptr_alloc_bytes = 0; init = f32_bytes v }

let ptr_var ?(init = []) alloc : Store.var_spec =
  { bytes = 8; is_ptr = true; ptr_alloc_bytes = alloc; init }

(* Platform-entry helpers.  The generic platform name "cpu" matches any
   CPU-class PE at dispatch time (so the same JSON runs on ZCU102 A53s
   and Odroid big/LITTLE clusters, as in Case Study 3). *)
let cpu e : App_spec.platform_entry =
  { platform = "cpu"; runfunc = e; shared_object = None; cost_us = None }

let accel e : App_spec.platform_entry =
  { platform = "fft"; runfunc = e; shared_object = Some "fft_accel.so"; cost_us = None }

let mk_node ?(kernel = "generic") ?(size = 1) ?(bytes_in = 0) ?(bytes_out = 0) ~args ~preds
    ~platforms name : App_spec.node =
  {
    App_spec.node_name = name;
    arguments = args;
    predecessors = preds;
    successors = [];
    platforms;
    kernel_class = kernel;
    size;
    bytes_in;
    bytes_out;
  }

(* ------------------------------------------------------------------ *)
(* Range detection (Listing 1 / Fig. 2)                                *)
(* ------------------------------------------------------------------ *)

let rd_sample_rate = 1.0e6
let rd_bandwidth = 0.4e6

let rd_reference_waveform () =
  Radar.lfm_chirp ~n:Truth.rd_n_samples ~bandwidth:rd_bandwidth ~sample_rate:rd_sample_rate

let rd_received () =
  Radar.delayed_echo None ~waveform:(rd_reference_waveform ())
    ~total:Truth.rd_n_samples ~delay:Truth.rd_echo_delay ~attenuation:0.6 ~noise_sigma:0.0

let pad_to n buf =
  let out = Cbuf.create n in
  let m = min n (Cbuf.length buf) in
  Array.blit buf.Cbuf.re 0 out.Cbuf.re 0 m;
  Array.blit buf.Cbuf.im 0 out.Cbuf.im 0 m;
  out

let rd_fft_kernel ~src ~dst store args =
  ignore args;
  let x = Store.get_cbuf store src in
  Store.set_cbuf store dst (Fft.fft (pad_to Truth.rd_fft_size x))

let register_range_detection_kernels =
  once @@ fun () ->
  let open Kernels in
  let lfm store _args =
    let n = Store.get_i32 store "n_samples" in
    Store.set_cbuf store "lfm_waveform"
      (Radar.lfm_chirp ~n ~bandwidth:rd_bandwidth ~sample_rate:rd_sample_rate)
  in
  let fft_0 = rd_fft_kernel ~src:"rx" ~dst:"X1" in
  let fft_1 = rd_fft_kernel ~src:"lfm_waveform" ~dst:"X2" in
  let mul store _args =
    let x1 = Store.get_cbuf store "X1" and x2 = Store.get_cbuf store "X2" in
    Store.set_cbuf store "corr" (Cbuf.mul_pointwise x1 (Cbuf.conj x2))
  in
  let ifft store _args = Store.set_cbuf store "corr" (Fft.ifft (Store.get_cbuf store "corr")) in
  let max_k store _args =
    let corr = Store.get_cbuf store "corr" in
    let idx, mag = Radar.peak corr in
    let lag = if idx > Truth.rd_fft_size / 2 then idx - Truth.rd_fft_size else idx in
    Store.set_i32 store "index" idx;
    Store.set_f32 store "max_corr" mag;
    Store.set_i32 store "lag" lag
  in
  register_object "range_detection.so"
    [
      ("range_detect_LFM", lfm);
      ("range_detect_FFT_0_CPU", fft_0);
      ("range_detect_FFT_1_CPU", fft_1);
      ("range_detect_MUL", mul);
      ("range_detect_IFFT_CPU", ifft);
      ("range_detect_MAX", max_k);
    ];
  register_object "fft_accel.so"
    [
      ("range_detect_FFT_0_ACCEL", fft_0);
      ("range_detect_FFT_1_ACCEL", fft_1);
      ("range_detect_IFFT_ACCEL", ifft);
    ]

let range_detection () =
  register_range_detection_kernels ();
  let n = Truth.rd_n_samples and nf = Truth.rd_fft_size in
  let cbytes k = 8 * k in
  let variables =
    [
      ("n_samples", i32_var n);
      ("sampling_rate", f32_var rd_sample_rate);
      ("lfm_waveform", ptr_var (cbytes n));
      ("rx", ptr_var (cbytes n) ~init:(cbuf_init (rd_received ())));
      ("X1", ptr_var (cbytes nf));
      ("X2", ptr_var (cbytes nf));
      ("corr", ptr_var (cbytes nf));
      ("index", i32_var 0);
      ("max_corr", f32_var 0.0);
      ("lag", i32_var 0);
    ]
  in
  let nodes =
    [
      mk_node "LFM" ~kernel:"lfm_gen" ~size:n
        ~args:[ "n_samples"; "lfm_waveform" ]
        ~preds:[]
        ~platforms:[ cpu "range_detect_LFM" ];
      mk_node "FFT_0" ~kernel:"fft" ~size:nf ~bytes_in:(cbytes nf) ~bytes_out:(cbytes nf)
        ~args:[ "n_samples"; "rx"; "X1" ]
        ~preds:[]
        ~platforms:[ cpu "range_detect_FFT_0_CPU"; accel "range_detect_FFT_0_ACCEL" ];
      mk_node "FFT_1" ~kernel:"fft" ~size:nf ~bytes_in:(cbytes nf) ~bytes_out:(cbytes nf)
        ~args:[ "n_samples"; "lfm_waveform"; "X2" ]
        ~preds:[ "LFM" ]
        ~platforms:[ cpu "range_detect_FFT_1_CPU"; accel "range_detect_FFT_1_ACCEL" ];
      mk_node "MUL" ~kernel:"vec_mul" ~size:nf
        ~args:[ "n_samples"; "X1"; "X2"; "corr" ]
        ~preds:[ "FFT_0"; "FFT_1" ]
        ~platforms:[ cpu "range_detect_MUL" ];
      mk_node "IFFT" ~kernel:"ifft" ~size:nf ~bytes_in:(cbytes nf) ~bytes_out:(cbytes nf)
        ~args:[ "n_samples"; "corr" ]
        ~preds:[ "MUL" ]
        ~platforms:[ cpu "range_detect_IFFT_CPU"; accel "range_detect_IFFT_ACCEL" ];
      mk_node "MAX" ~kernel:"peak_max" ~size:nf
        ~args:[ "n_samples"; "corr"; "index"; "max_corr"; "lag"; "sampling_rate" ]
        ~preds:[ "IFFT" ]
        ~platforms:[ cpu "range_detect_MAX" ];
    ]
  in
  App_spec.of_edges ~app_name:"range_detection" ~shared_object:"range_detection.so" ~variables
    ~nodes

(* ------------------------------------------------------------------ *)
(* Pulse Doppler (Fig. 8): 1 GEN + 256 x (FFT, MUL, IFFT) + 1 DOP      *)
(* ------------------------------------------------------------------ *)

let pd_pulse_slice store name p =
  Store.get_cbuf_slice store name ~off:(p * Truth.pd_n_samples) ~len:Truth.pd_n_samples

let pd_store_slice store name p buf =
  Store.set_cbuf_slice store name ~off:(p * Truth.pd_n_samples) buf

let pd_reference () =
  Radar.lfm_chirp ~n:Truth.pd_n_samples ~bandwidth:0.4e6 ~sample_rate:1.0e6

let register_pulse_doppler_kernels =
  once @@ fun () ->
  let open Kernels in
  let n = Truth.pd_n_samples and m = Truth.pd_n_pulses in
  let gen store _args =
    let reference = pd_reference () in
    Store.set_cbuf store "ref_fft" (Cbuf.conj (Fft.fft reference));
    let all = Cbuf.create (m * n) in
    (* Target echo at range bin pd_range_bin; slow-time phase advances
       by 2*pi*doppler_bin/m per pulse, landing the Doppler FFT peak on
       pd_doppler_bin exactly. *)
    let phase_step = 2.0 *. Float.pi *. float_of_int Truth.pd_doppler_bin /. float_of_int m in
    for p = 0 to m - 1 do
      let phase = phase_step *. float_of_int p in
      let c = cos phase and s = sin phase in
      (* Echo truncated at the pulse end (delay + chirp may overrun). *)
      let len = min (n - Truth.pd_range_bin) n in
      for i = 0 to len - 1 do
        let re = 0.8 *. reference.Cbuf.re.(i) and im = 0.8 *. reference.Cbuf.im.(i) in
        all.Cbuf.re.(((p * n) + Truth.pd_range_bin + i)) <- (re *. c) -. (im *. s);
        all.Cbuf.im.(((p * n) + Truth.pd_range_bin + i)) <- (re *. s) +. (im *. c)
      done
    done;
    Store.set_cbuf store "rx_all" all
  in
  let fft_p p store _args = pd_store_slice store "x_all" p (Fft.fft (pd_pulse_slice store "rx_all" p)) in
  let mul_p p store _args =
    let x = pd_pulse_slice store "x_all" p in
    let r = Store.get_cbuf store "ref_fft" in
    pd_store_slice store "corr_all" p (Cbuf.mul_pointwise x r)
  in
  let ifft_p p store _args = pd_store_slice store "corr_all" p (Fft.ifft (pd_pulse_slice store "corr_all" p)) in
  let dop store _args =
    (* Non-coherent integration across pulses to find the range bin. *)
    let acc = Array.make n 0.0 in
    for p = 0 to m - 1 do
      let c = pd_pulse_slice store "corr_all" p in
      let pw = Cbuf.power c in
      for i = 0 to n - 1 do acc.(i) <- acc.(i) +. pw.(i) done
    done;
    let range_bin = ref 0 in
    for i = 1 to n - 1 do
      if acc.(i) > acc.(!range_bin) then range_bin := i
    done;
    (* Slow-time FFT at the detected range bin. *)
    let pulses = Array.init m (fun p -> pd_pulse_slice store "corr_all" p) in
    let slow = Radar.doppler_bins pulses ~bin:!range_bin in
    let spectrum = Fft.fft (Window.apply Window.Rectangular slow) in
    let dbin, _ = Radar.peak spectrum in
    let prf = Store.get_f32 store "prf" and carrier = Store.get_f32 store "carrier" in
    Store.set_i32 store "range_bin" !range_bin;
    Store.set_i32 store "doppler_bin" dbin;
    Store.set_f32 store "velocity"
      (Radar.doppler_velocity ~peak_bin:dbin ~n_pulses:m ~prf ~carrier_hz:carrier)
  in
  let cpu_syms =
    ("pd_GEN", gen) :: ("pd_DOP", dop)
    :: List.concat
         (List.init m (fun p ->
              [
                (Printf.sprintf "pd_FFT_%d_CPU" p, fft_p p);
                (Printf.sprintf "pd_MUL_%d" p, mul_p p);
                (Printf.sprintf "pd_IFFT_%d_CPU" p, ifft_p p);
              ]))
  in
  register_object "pulse_doppler.so" cpu_syms;
  register_object "fft_accel.so"
    (List.concat
       (List.init m (fun p ->
            [
              (Printf.sprintf "pd_FFT_%d_ACCEL" p, fft_p p);
              (Printf.sprintf "pd_IFFT_%d_ACCEL" p, ifft_p p);
            ])))

let pulse_doppler () =
  register_pulse_doppler_kernels ();
  let n = Truth.pd_n_samples and m = Truth.pd_n_pulses in
  let cbytes k = 8 * k in
  let variables =
    [
      ("n_samples", i32_var n);
      ("n_pulses", i32_var m);
      ("prf", f32_var Truth.pd_prf);
      ("carrier", f32_var Truth.pd_carrier_hz);
      ("ref_fft", ptr_var (cbytes n));
      ("rx_all", ptr_var (cbytes (m * n)));
      ("x_all", ptr_var (cbytes (m * n)));
      ("corr_all", ptr_var (cbytes (m * n)));
      ("range_bin", i32_var 0);
      ("doppler_bin", i32_var 0);
      ("velocity", f32_var 0.0);
    ]
  in
  let gen_node =
    mk_node "GEN" ~kernel:"pd_gen" ~size:(m * n)
      ~args:[ "n_samples"; "n_pulses"; "ref_fft"; "rx_all" ]
      ~preds:[]
      ~platforms:[ cpu "pd_GEN" ]
  in
  let pulse_nodes =
    List.concat
      (List.init m (fun p ->
           let fft_name = Printf.sprintf "FFT_%d" p
           and mul_name = Printf.sprintf "MUL_%d" p
           and ifft_name = Printf.sprintf "IFFT_%d" p in
           [
             mk_node fft_name ~kernel:"fft" ~size:n ~bytes_in:(cbytes n) ~bytes_out:(cbytes n)
               ~args:[ "n_samples"; "rx_all"; "x_all" ]
               ~preds:[ "GEN" ]
               ~platforms:
                 [ cpu (Printf.sprintf "pd_FFT_%d_CPU" p); accel (Printf.sprintf "pd_FFT_%d_ACCEL" p) ];
             mk_node mul_name ~kernel:"vec_mul" ~size:n
               ~args:[ "n_samples"; "x_all"; "ref_fft"; "corr_all" ]
               ~preds:[ fft_name ]
               ~platforms:[ cpu (Printf.sprintf "pd_MUL_%d" p) ];
             mk_node ifft_name ~kernel:"ifft" ~size:n ~bytes_in:(cbytes n) ~bytes_out:(cbytes n)
               ~args:[ "n_samples"; "corr_all" ]
               ~preds:[ mul_name ]
               ~platforms:
                 [ cpu (Printf.sprintf "pd_IFFT_%d_CPU" p); accel (Printf.sprintf "pd_IFFT_%d_ACCEL" p) ];
           ]))
  in
  let dop_node =
    mk_node "DOP" ~kernel:"doppler_proc" ~size:m
      ~args:
        [ "n_samples"; "n_pulses"; "prf"; "carrier"; "corr_all"; "range_bin"; "doppler_bin"; "velocity" ]
      ~preds:(List.init m (Printf.sprintf "IFFT_%d"))
      ~platforms:[ cpu "pd_DOP" ]
  in
  App_spec.of_edges ~app_name:"pulse_doppler" ~shared_object:"pulse_doppler.so" ~variables
    ~nodes:((gen_node :: pulse_nodes) @ [ dop_node ])

(* ------------------------------------------------------------------ *)
(* WiFi TX / RX (Fig. 7)                                               *)
(* ------------------------------------------------------------------ *)

let wifi_rows = 4
let wifi_coded_bits = Conv_code.encoded_length Truth.wifi_data_bits (* 204 *)
let wifi_symbols = wifi_coded_bits / 2 (* 102 QPSK symbols *)

(* OFDM grid: pilots (1+0i) at bins 0 and 64; data on bins 1..51 and
   77..127; the rest are guard bins. *)
let data_bins =
  Array.append (Array.init 51 (fun i -> i + 1)) (Array.init 51 (fun i -> i + 77))

let pilot_bins = [| 0; 64 |]

let pilot_insert symbols =
  let grid = Cbuf.create Truth.wifi_fft_size in
  Array.iter (fun b -> Cbuf.set grid b 1.0 0.0) pilot_bins;
  Array.iteri
    (fun i b ->
      let re, im = Cbuf.get symbols i in
      Cbuf.set grid b re im)
    data_bins;
  grid

let pilot_remove grid =
  let out = Cbuf.create wifi_symbols in
  Array.iteri
    (fun i b ->
      let re, im = Cbuf.get grid b in
      Cbuf.set out i re im)
    data_bins;
  out

let channel_estimate grid =
  (* Average received pilot value; transmitted pilots are 1+0i. *)
  let acc_re = ref 0.0 and acc_im = ref 0.0 in
  Array.iter
    (fun b ->
      let re, im = Cbuf.get grid b in
      acc_re := !acc_re +. re;
      acc_im := !acc_im +. im)
    pilot_bins;
  let k = float_of_int (Array.length pilot_bins) in
  (!acc_re /. k, !acc_im /. k)

let tx_chain payload =
  let framed = Crc.append_bits payload in
  let scrambled = Scrambler.run ~seed:Truth.wifi_scramble_seed framed in
  let coded = Conv_code.encode scrambled in
  let interleaved = Interleaver.interleave ~rows:wifi_rows coded in
  let symbols = Modulation.modulate Modulation.Qpsk interleaved in
  Fft.ifft (pilot_insert symbols)

let register_wifi_kernels =
  once @@ fun () ->
  let open Kernels in
  (* --- TX --- *)
  let crc store _ =
    Store.set_bits store "framed" (Crc.append_bits (Array.sub (Store.get_bits store "payload") 0 64))
  in
  let scramble store _ =
    let seed = Store.get_i32 store "scramble_seed" in
    Store.set_bits store "scrambled" (Scrambler.run ~seed (Store.get_bits store "framed"))
  in
  let encode store _ = Store.set_bits store "coded" (Conv_code.encode (Store.get_bits store "scrambled")) in
  let interleave store _ =
    Store.set_bits store "interleaved" (Interleaver.interleave ~rows:wifi_rows (Store.get_bits store "coded"))
  in
  let modulate store _ =
    Store.set_cbuf store "symbols" (Modulation.modulate Modulation.Qpsk (Store.get_bits store "interleaved"))
  in
  let pilot store _ = Store.set_cbuf store "grid" (pilot_insert (Store.get_cbuf store "symbols")) in
  let ifft store _ = Store.set_cbuf store "tx_time" (Fft.ifft (Store.get_cbuf store "grid")) in
  register_object "wifi_tx.so"
    [
      ("wifi_tx_CRC", crc);
      ("wifi_tx_SCRAMBLE", scramble);
      ("wifi_tx_ENCODE", encode);
      ("wifi_tx_INTERLEAVE", interleave);
      ("wifi_tx_MODULATE", modulate);
      ("wifi_tx_PILOT", pilot);
      ("wifi_tx_IFFT_CPU", ifft);
    ];
  register_object "fft_accel.so" [ ("wifi_tx_IFFT_ACCEL", ifft) ];
  (* --- RX --- *)
  let sync store _ =
    (* Frame detection: verify signal energy and pass the samples on. *)
    let x = Store.get_cbuf store "rx_time" in
    ignore (Cbuf.energy x);
    Store.set_cbuf store "rx_time" x
  in
  let rx_fft store _ = Store.set_cbuf store "freq" (Fft.fft (Store.get_cbuf store "rx_time")) in
  let pilot_rm store _ = Store.set_cbuf store "symbols" (pilot_remove (Store.get_cbuf store "freq")) in
  let equalize store _ =
    let h_re, h_im = channel_estimate (Store.get_cbuf store "freq") in
    let denom = (h_re *. h_re) +. (h_im *. h_im) in
    let syms = Store.get_cbuf store "symbols" in
    let out = Cbuf.create (Cbuf.length syms) in
    for i = 0 to Cbuf.length syms - 1 do
      let re, im = Cbuf.get syms i in
      Cbuf.set out i
        (((re *. h_re) +. (im *. h_im)) /. denom)
        (((im *. h_re) -. (re *. h_im)) /. denom)
    done;
    Store.set_cbuf store "eq_symbols" out
  in
  let demod store _ =
    Store.set_bits store "demod_bits" (Modulation.demodulate Modulation.Qpsk (Store.get_cbuf store "eq_symbols"))
  in
  let deinterleave store _ =
    Store.set_bits store "deint" (Interleaver.deinterleave ~rows:wifi_rows (Store.get_bits store "demod_bits"))
  in
  let viterbi store _ =
    Store.set_bits store "decoded"
      (Viterbi.decode ~message_length:Truth.wifi_data_bits (Store.get_bits store "deint"))
  in
  let descramble store _ =
    let seed = Store.get_i32 store "scramble_seed" in
    Store.set_bits store "descrambled" (Scrambler.descramble ~seed (Store.get_bits store "decoded"))
  in
  let crc_check store _ =
    let framed = Store.get_bits store "descrambled" in
    Store.set_bits store "payload_out" (Array.sub framed 0 64);
    Store.set_i32 store "crc_ok" (if Crc.check_bits framed then 1 else 0)
  in
  register_object "wifi_rx.so"
    [
      ("wifi_rx_SYNC", sync);
      ("wifi_rx_FFT_CPU", rx_fft);
      ("wifi_rx_PILOT_RM", pilot_rm);
      ("wifi_rx_EQUALIZE", equalize);
      ("wifi_rx_DEMOD", demod);
      ("wifi_rx_DEINTERLEAVE", deinterleave);
      ("wifi_rx_VITERBI", viterbi);
      ("wifi_rx_DESCRAMBLE", descramble);
      ("wifi_rx_CRC_CHECK", crc_check);
    ];
  register_object "fft_accel.so" [ ("wifi_rx_FFT_ACCEL", rx_fft) ]

let wifi_tx () =
  register_wifi_kernels ();
  let cbytes k = 8 * k in
  let variables =
    [
      ("scramble_seed", i32_var Truth.wifi_scramble_seed);
      ("payload", ptr_var 64 ~init:(bits_init Truth.wifi_payload));
      ("framed", ptr_var Truth.wifi_data_bits);
      ("scrambled", ptr_var Truth.wifi_data_bits);
      ("coded", ptr_var wifi_coded_bits);
      ("interleaved", ptr_var wifi_coded_bits);
      ("symbols", ptr_var (cbytes wifi_symbols));
      ("grid", ptr_var (cbytes Truth.wifi_fft_size));
      ("tx_time", ptr_var (cbytes Truth.wifi_fft_size));
    ]
  in
  let chain = [
    ("CRC", "crc32", 64, [ "payload"; "framed" ], "wifi_tx_CRC");
    ("SCRAMBLE", "scramble", Truth.wifi_data_bits, [ "scramble_seed"; "framed"; "scrambled" ], "wifi_tx_SCRAMBLE");
    ("ENCODE", "conv_encode", Truth.wifi_data_bits, [ "scrambled"; "coded" ], "wifi_tx_ENCODE");
    ("INTERLEAVE", "interleave", wifi_coded_bits, [ "coded"; "interleaved" ], "wifi_tx_INTERLEAVE");
    ("MODULATE", "modulate", wifi_coded_bits, [ "interleaved"; "symbols" ], "wifi_tx_MODULATE");
    ("PILOT", "pilot_insert", wifi_symbols, [ "symbols"; "grid" ], "wifi_tx_PILOT");
  ] in
  let rec build prev = function
    | [] -> []
    | (name, kernel, size, args, sym) :: rest ->
      mk_node name ~kernel ~size ~args ~preds:(match prev with None -> [] | Some p -> [ p ])
        ~platforms:[ cpu sym ]
      :: build (Some name) rest
  in
  let nodes = build None chain in
  let ifft_node =
    mk_node "IFFT" ~kernel:"ifft" ~size:Truth.wifi_fft_size
      ~bytes_in:(cbytes Truth.wifi_fft_size) ~bytes_out:(cbytes Truth.wifi_fft_size)
      ~args:[ "grid"; "tx_time" ]
      ~preds:[ "PILOT" ]
      ~platforms:[ cpu "wifi_tx_IFFT_CPU"; accel "wifi_tx_IFFT_ACCEL" ]
  in
  App_spec.of_edges ~app_name:"wifi_tx" ~shared_object:"wifi_tx.so" ~variables
    ~nodes:(nodes @ [ ifft_node ])

let wifi_rx () =
  register_wifi_kernels ();
  let cbytes k = 8 * k in
  let rx_time = tx_chain Truth.wifi_payload in
  let variables =
    [
      ("scramble_seed", i32_var Truth.wifi_scramble_seed);
      ("rx_time", ptr_var (cbytes Truth.wifi_fft_size) ~init:(cbuf_init rx_time));
      ("freq", ptr_var (cbytes Truth.wifi_fft_size));
      ("symbols", ptr_var (cbytes wifi_symbols));
      ("eq_symbols", ptr_var (cbytes wifi_symbols));
      ("demod_bits", ptr_var wifi_coded_bits);
      ("deint", ptr_var wifi_coded_bits);
      ("decoded", ptr_var Truth.wifi_data_bits);
      ("descrambled", ptr_var Truth.wifi_data_bits);
      ("payload_out", ptr_var 64);
      ("crc_ok", i32_var 0);
    ]
  in
  let nodes =
    [
      mk_node "SYNC" ~kernel:"sync_detect" ~size:Truth.wifi_fft_size
        ~args:[ "rx_time" ] ~preds:[]
        ~platforms:[ cpu "wifi_rx_SYNC" ];
      mk_node "FFT" ~kernel:"fft" ~size:Truth.wifi_fft_size
        ~bytes_in:(cbytes Truth.wifi_fft_size) ~bytes_out:(cbytes Truth.wifi_fft_size)
        ~args:[ "rx_time"; "freq" ] ~preds:[ "SYNC" ]
        ~platforms:[ cpu "wifi_rx_FFT_CPU"; accel "wifi_rx_FFT_ACCEL" ];
      mk_node "PILOT_RM" ~kernel:"pilot_remove" ~size:wifi_symbols
        ~args:[ "freq"; "symbols" ] ~preds:[ "FFT" ]
        ~platforms:[ cpu "wifi_rx_PILOT_RM" ];
      mk_node "EQUALIZE" ~kernel:"equalize" ~size:wifi_symbols
        ~args:[ "freq"; "symbols"; "eq_symbols" ] ~preds:[ "PILOT_RM" ]
        ~platforms:[ cpu "wifi_rx_EQUALIZE" ];
      mk_node "DEMOD" ~kernel:"demodulate" ~size:wifi_coded_bits
        ~args:[ "eq_symbols"; "demod_bits" ] ~preds:[ "EQUALIZE" ]
        ~platforms:[ cpu "wifi_rx_DEMOD" ];
      mk_node "DEINTERLEAVE" ~kernel:"interleave" ~size:wifi_coded_bits
        ~args:[ "demod_bits"; "deint" ] ~preds:[ "DEMOD" ]
        ~platforms:[ cpu "wifi_rx_DEINTERLEAVE" ];
      mk_node "VITERBI" ~kernel:"viterbi" ~size:Truth.wifi_data_bits
        ~args:[ "deint"; "decoded" ] ~preds:[ "DEINTERLEAVE" ]
        ~platforms:[ cpu "wifi_rx_VITERBI" ];
      mk_node "DESCRAMBLE" ~kernel:"descramble" ~size:Truth.wifi_data_bits
        ~args:[ "scramble_seed"; "decoded"; "descrambled" ] ~preds:[ "VITERBI" ]
        ~platforms:[ cpu "wifi_rx_DESCRAMBLE" ];
      mk_node "CRC_CHECK" ~kernel:"crc32" ~size:Truth.wifi_data_bits
        ~args:[ "descrambled"; "payload_out"; "crc_ok" ] ~preds:[ "DESCRAMBLE" ]
        ~platforms:[ cpu "wifi_rx_CRC_CHECK" ];
    ]
  in
  App_spec.of_edges ~app_name:"wifi_rx" ~shared_object:"wifi_rx.so" ~variables ~nodes

(* ------------------------------------------------------------------ *)

let ensure_kernels_registered () =
  register_range_detection_kernels ();
  register_pulse_doppler_kernels ();
  register_wifi_kernels ()

let all () = [ pulse_doppler (); range_detection (); wifi_tx (); wifi_rx () ]

let by_name = function
  | "range_detection" -> Ok (range_detection ())
  | "pulse_doppler" -> Ok (pulse_doppler ())
  | "wifi_tx" -> Ok (wifi_tx ())
  | "wifi_rx" -> Ok (wifi_rx ())
  | other -> Error (Printf.sprintf "unknown application %S" other)
