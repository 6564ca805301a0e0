(* Rounds of (reference unit, sample) pairs, and the metrics computed
   from them. *)

type sample = { ref_ns : int; d : Probe.snap }

(* The minor heap is emptied before every reference unit, so the unit
   always does the same collection work. *)
let time_ref () =
  Gc.minor ();
  snd (Probe.time (fun () -> ignore (Sys.opaque_identity (Refunit.run ()))))

(* One round: the reference unit runs right before every unit, and
   the sample is everything from the end of that reference unit to
   the unit's boundary callback. *)
let round (p : Scenario.prepared) check =
  let samples = ref [] in
  let left = ref p.Scenario.units in
  let ref_ns = ref (time_ref ()) in
  let start = ref (Probe.snap ()) in
  let boundary () =
    let now = Probe.snap () in
    samples := { ref_ns = !ref_ns; d = Probe.diff now !start } :: !samples;
    decr left;
    if !left > 0 then begin
      ref_ns := time_ref ();
      start := Probe.snap ()
    end
  in
  let out = p.Scenario.round check ~boundary in
  Check.same_text check "round output equals the first round's" ~expected:p.Scenario.reference out;
  Check.expect check "round reported every unit" (!left = 0);
  List.rev !samples

(* Whole rounds until [seconds] have passed (at least two), so every
   unit is equally represented in the pair statistic. *)
let measure p check ~seconds =
  let deadline = Dssoc_util.Mclock.now_ns () + int_of_float (seconds *. 1e9) in
  let rec go acc n =
    let acc = round p check :: acc in
    if n + 1 >= 2 && Dssoc_util.Mclock.now_ns () >= deadline then
      Array.of_list (List.concat (List.rev acc))
    else go acc (n + 1)
  in
  go [] 0

(* One untimed round with a full major collection around every unit:
   the exact words each unit allocates, which repeat from run to run
   for a given seed.  Returns the mean per unit, in MB. *)
let alloc_round (p : Scenario.prepared) check =
  let words = ref [] in
  let last = ref (Probe.exact_alloc_words ()) in
  let out =
    p.Scenario.round check ~boundary:(fun () ->
        words := (Probe.exact_alloc_words () -. !last) :: !words;
        last := Probe.exact_alloc_words ())
  in
  Check.same_text check "allocation round output equals the first round's"
    ~expected:p.Scenario.reference out;
  Stat.mean (Array.of_list !words) *. 8.0 /. 1e6

let ms ns = float_of_int ns /. 1e6
let mb words = words *. 8.0 /. 1e6
let per samples f = Stat.mean (Array.map f samples)

let emu_cost_ref samples =
  Stat.pair_ratio_median
    (Array.map (fun s -> (float_of_int s.ref_ns, float_of_int s.d.Probe.t_ns)) samples)

let sample_ms samples = per samples (fun s -> ms s.d.Probe.t_ns)
let median_sample_ms samples = Stat.median (Array.map (fun s -> ms s.d.Probe.t_ns) samples)

let end_to_end ~setup_s ~samples ~alloc_mb ~peak_heap_mb ~(sim : Scenario.sim) =
  [
    ("setup_s", setup_s);
    ("emu_cost_ref", emu_cost_ref samples);
    ("alloc_mb_per_emu", alloc_mb);
    ("peak_heap_mb", peak_heap_mb);
    ("sim_makespan_ms", sim.Scenario.makespan_ms);
    ("sim_p90_ms", sim.Scenario.p90_ms);
    ("sim_goodput_per_ms", sim.Scenario.goodput_per_ms);
  ]

(* [untraced] are plain samples, [traced] samples taken with the
   kernel and policy wrappers installed; [own] are the figures the
   workload measured itself.  A per-layer metric a workload does not
   exercise reads 0. *)
let per_layer ~untraced ~traced ~peak_heap_mb ~(sim : Scenario.sim) ~own =
  let sum f = Array.fold_left (fun acc s -> acc + f s.d) 0 traced in
  let get name = Option.value ~default:0.0 (List.assoc_opt name own) in
  let kernel_ms = per traced (fun s -> ms s.d.Probe.k_ns) in
  let policy_ms = per traced (fun s -> ms s.d.Probe.p_ns) in
  let calls = sum (fun d -> d.Probe.p_calls) in
  let ecr_u = emu_cost_ref untraced and ecr_t = emu_cost_ref traced in
  let min_ns = Array.fold_left (fun m s -> min m s.d.Probe.t_ns) max_int untraced in
  let generic =
    [
      ("dsp.kernel_ms", kernel_ms);
      ("dsp.kernel_calls", per traced (fun s -> float_of_int s.d.Probe.k_calls));
      ("runtime.policy_ms", policy_ms);
      ("runtime.policy_calls", per traced (fun s -> float_of_int s.d.Probe.p_calls));
      ( "runtime.policy_ops_per_call",
        if calls = 0 then 0.0
        else float_of_int (sum (fun d -> d.Probe.p_ops)) /. float_of_int calls );
      ( "runtime.engine_self_ms",
        sample_ms traced -. kernel_ms -. policy_ms -. get "apps.instantiate_ms" );
      ("gc.minor_mb_per_emu", per untraced (fun s -> mb s.d.Probe.minor_words));
      ("gc.promoted_mb_per_emu", per untraced (fun s -> mb s.d.Probe.promoted_words));
      ("gc.major_collections_per_emu", per untraced (fun s -> float_of_int s.d.Probe.majors));
      ( "serve.heap_mb_per_1k_arrivals",
        let offered = get "serve.offered" in
        if offered > 0.0 then peak_heap_mb /. (offered /. 1000.0) else 0.0 );
      ("bench.emu_per_s", 1e9 /. float_of_int min_ns);
      ("bench.ref_unit_ms", Stat.median (Array.map (fun s -> ms s.ref_ns) untraced));
      ("bench.trace_overhead_pct", ((ecr_t /. ecr_u) -. 1.0) *. 100.0);
    ]
  in
  List.map
    (fun (name, _unit) ->
      let v =
        match List.assoc_opt name generic with
        | Some v -> v
        | None -> (
          match List.assoc_opt name sim.Scenario.sim_layers with Some v -> v | None -> get name)
      in
      (name, v))
    Metric_spec.per_layer

(* The result line: correctness counts and the metrics in spec order. *)
let result_line ~check ~metrics =
  let units = Metric_spec.end_to_end @ Metric_spec.per_layer in
  let field (name, v) =
    let v =
      if Float.is_finite v then v
      else begin
        Check.expect check (name ^ " is a finite number") false;
        0.0
      end
    in
    Printf.sprintf "%S: {\"value\": %.17g, \"unit\": %S}" name v (List.assoc name units)
  in
  let fields = List.map field metrics in
  Printf.sprintf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}"
    (check.Check.failed = 0) check.Check.attempted check.Check.failed
    (String.concat ", " fields)
