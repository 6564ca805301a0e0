(* The resident-service workload: one sample is one [Server.run] of a
   gold tenant beside a saturating bulk tenant under the degrade
   admission policy.  A round runs [runs_per_round] servers whose seeds
   derive from the benchmark seed.  Which arrivals get shed at
   saturation is sensitive to every arrival and jitter draw, so the
   round is large enough for its totals to settle. *)

module Server = Dssoc_serve.Server
module Config = Dssoc_soc.Config
module Workload = Dssoc_apps.Workload
module Reference_apps = Dssoc_apps.Reference_apps
module Scheduler = Dssoc_runtime.Scheduler
module Engine_core = Dssoc_runtime.Engine_core
module Obs = Dssoc_obs.Obs
module Prng = Dssoc_util.Prng

let tenants_spec =
  "gold:apps=wifi_tx:rate=1:prio=2:slo=4ms;"
  ^ "bulk:apps=range_detection*3+wifi_rx:rate=12:prio=0:slo=10ms"

let admission_spec = "policy=degrade:queue=8:max-ready=32:timeout=20ms"
let runs_per_round = 16
let duration_ms = 50.0

let get = function Ok x -> x | Error msg -> failwith msg

(* offered = completed + shed + timed-out for every tenant, and every
   arrival resolved. *)
let accounted (o : Server.outcome) =
  List.for_all
    (fun (t : Server.tenant_report) ->
      t.Server.tr_offered = t.Server.tr_completed + t.Server.tr_shed + t.Server.tr_timed_out
      && t.Server.tr_admitted = t.Server.tr_completed + t.Server.tr_timed_out)
    o.Server.oc_tenants
  && Array.length o.Server.oc_dispositions
     = List.fold_left (fun acc t -> acc + t.Server.tr_offered) 0 o.Server.oc_tenants
  && Array.for_all (fun d -> d <> Server.Pending) o.Server.oc_dispositions

let total f (o : Server.outcome) = List.fold_left (fun acc t -> acc + f t) 0 o.Server.oc_tenants

let p95_ns lats =
  if lats = [] then 0
  else int_of_float (Stat.nearest_rank 0.95 (Array.of_list (List.map float_of_int lats)))

let setup ~seed check =
  let tenants = get (Server.tenants_of_spec tenants_spec) in
  let admission = get (Server.admission_of_spec admission_spec) in
  let config = Config.zcu102_cores_ffts ~cores:3 ~ffts:1 in
  (* The policy is looked up on every run, so a wrapper registered
     under its name is the one the server calls. *)
  let spec k =
    {
      Server.sp_config = config;
      sp_policy = get (Scheduler.find "FRFS");
      sp_seed = Prng.derive_seed ~seed ~index:k;
      sp_jitter = 0.03;
      sp_duration_ms = duration_ms;
      sp_admission = admission;
      sp_tenants = tenants;
    }
  in
  let outcomes = Array.make runs_per_round None in
  let run_one check k =
    match Server.run (spec k) with
    | Error msg ->
      Check.expect check ("serve run failed: " ^ msg) false;
      "error: " ^ msg ^ "\n"
    | Ok o ->
      Check.expect check (Printf.sprintf "serve run %d accounts for every arrival" k) (accounted o);
      outcomes.(k) <- Some o;
      Server.render_report o
  in
  let round check ~boundary =
    let buf = Buffer.create 4096 in
    for k = 0 to runs_per_round - 1 do
      Buffer.add_string buf (run_one check k);
      boundary ()
    done;
    Buffer.contents buf
  in
  let first = Array.init runs_per_round (fun k -> run_one check k) in
  let reference = String.concat "" (Array.to_list first) in
  let sim check =
    let lats = ref [] and clock = ref 0 and completed = ref 0 in
    for k = 0 to runs_per_round - 1 do
      let sink = Obs.Sink.ring ~capacity:(1 lsl 18) () in
      let obs = Obs.make ~sink () in
      let o = get (Server.run ~obs (spec k)) in
      Check.same_text check
        (Printf.sprintf "traced serve run %d equals the untraced one" k)
        ~expected:first.(k) (Server.render_report o);
      Check.expect check "serve event ring dropped nothing" (Obs.Sink.dropped sink = 0);
      let arrivals = Array.of_list (Server.materialize_debug (spec k)) in
      let last = Array.make (Array.length arrivals) min_int in
      List.iter
        (fun (e : Obs.event) ->
          match e.Obs.body with
          | Obs.Task_completed { instance; _ } when instance < Array.length last ->
            last.(instance) <- max last.(instance) e.Obs.t_ns
          | _ -> ())
        (Obs.recorded_events obs);
      let per_tenant = Array.make (List.length tenants) [] in
      Array.iteri
        (fun i d ->
          if d = Server.Completed then begin
            let arrival_ns, tenant, _, _ = arrivals.(i) in
            per_tenant.(tenant) <- (last.(i) - arrival_ns) :: per_tenant.(tenant)
          end)
        o.Server.oc_dispositions;
      (* A job's latency runs to its last task's completion, which the
         workload manager observes no earlier: the server's own p95
         bounds the one read back from the event log. *)
      List.iteri
        (fun ti (tn : Server.tenant_spec) ->
          let tr =
            List.find (fun t -> t.Server.tr_name = tn.Server.tn_name) o.Server.oc_tenants
          in
          Check.expect check
            (Printf.sprintf "serve run %d tenant %s latencies agree with its report" k
               tn.Server.tn_name)
            (List.length per_tenant.(ti) = tr.Server.tr_completed
            && float_of_int (p95_ns per_tenant.(ti)) /. 1e6 <= tr.Server.tr_p95_ms))
        tenants;
      Array.iter (fun l -> lats := l @ !lats) per_tenant;
      clock := !clock + o.Server.oc_clock_ns;
      completed := !completed + total (fun t -> t.Server.tr_completed) o
    done;
    {
      Scenario.makespan_ms = float_of_int !clock /. float_of_int runs_per_round /. 1e6;
      p90_ms = Stat.quantile_ms 0.9 !lats;
      goodput_per_ms = float_of_int !completed /. (float_of_int !clock /. 1e6);
      sim_layers = [];
    }
  in
  let layers _check ~traced_sample_ms:_ ~untraced_sample_ms =
    (* Instantiation of each run's arrivals, timed on the same inputs
       through the engine core's public entry point. *)
    let inst_ns = ref 0 in
    for k = 0 to runs_per_round - 1 do
      let counts = Hashtbl.create 4 in
      let items =
        List.map
          (fun (arrival_ns, _, _, app) ->
            let n = Option.value ~default:0 (Hashtbl.find_opt counts app) in
            Hashtbl.replace counts app (n + 1);
            { Workload.spec = get (Reference_apps.by_name app); arrival_ns; instance = n })
          (Server.materialize_debug (spec k))
      in
      let workload = { Workload.items; window_ns = int_of_float (duration_ms *. 1e6) } in
      let _, ns =
        Probe.time (fun () -> Engine_core.instantiate ~engine_name:"perfbench" ~config ~workload)
      in
      inst_ns := !inst_ns + ns
    done;
    let runs = float_of_int runs_per_round in
    let sum f =
      float_of_int
        (Array.fold_left
           (fun acc o -> match o with Some o -> acc + total f o | None -> acc)
           0 outcomes)
    in
    let offered = sum (fun t -> t.Server.tr_offered) in
    [
      ("apps.instantiate_ms", Harness.ms !inst_ns /. runs);
      ("serve.run_ms", untraced_sample_ms);
      ("serve.offered", offered /. runs);
      ("serve.shed_frac", sum (fun t -> t.Server.tr_shed) /. offered);
      ("serve.timed_out", sum (fun t -> t.Server.tr_timed_out) /. runs);
    ]
  in
  {
    Scenario.units = runs_per_round;
    round;
    reference;
    sim;
    layers;
  }

let serve_shed = { Scenario.name = "serve-shed"; setups = 3; setup }
