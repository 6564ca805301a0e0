module Prng = Dssoc_util.Prng

type item = { spec : App_spec.t; arrival_ns : int; instance : int }

type t = { items : item list; window_ns : int }

let validation apps =
  let items =
    List.concat_map
      (fun (spec, count) ->
        if count < 0 then invalid_arg "Workload.validation: negative count";
        List.init count (fun instance -> { spec; arrival_ns = 0; instance }))
      apps
  in
  { items; window_ns = 0 }

type injection = { app : App_spec.t; period_ns : int; probability : float }

let performance ~prng ~window_ns injections =
  if window_ns <= 0 then invalid_arg "Workload.performance: window must be positive";
  let items =
    List.concat_map
      (fun inj ->
        if inj.period_ns <= 0 then invalid_arg "Workload.performance: period must be positive";
        if inj.probability < 0.0 || inj.probability > 1.0 then
          invalid_arg "Workload.performance: probability out of range";
        let rec attempts t acc =
          if t >= window_ns then List.rev acc
          else begin
            let inject = inj.probability >= 1.0 || Prng.bernoulli prng inj.probability in
            attempts (t + inj.period_ns) (if inject then t :: acc else acc)
          end
        in
        List.mapi (fun instance arrival_ns -> { spec = inj.app; arrival_ns; instance })
          (attempts 0 []))
      injections
  in
  let items = List.stable_sort (fun a b -> compare a.arrival_ns b.arrival_ns) items in
  { items; window_ns }

let job_count t = List.length t.items

let task_count t =
  List.fold_left (fun acc it -> acc + List.length it.spec.App_spec.nodes) 0 t.items

let injection_rate_per_ms t =
  let span_ns =
    if t.window_ns > 0 then t.window_ns
    else List.fold_left (fun acc i -> max acc i.arrival_ns) 1 t.items
  in
  float_of_int (job_count t) /. (float_of_int span_ns /. 1e6)

let count_by_app t =
  let tbl = Hashtbl.create 8 in
  List.iter
    (fun i ->
      let name = i.spec.App_spec.app_name in
      Hashtbl.replace tbl name (1 + Option.value ~default:0 (Hashtbl.find_opt tbl name)))
    t.items;
  Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl [] |> List.sort compare

(* Table II: instance counts per application at each average injection
   rate (jobs per msec) over the 100 ms window. *)
let table2 =
  [
    (1.71, [ ("pulse_doppler", 8); ("range_detection", 123); ("wifi_tx", 20); ("wifi_rx", 20) ]);
    (2.28, [ ("pulse_doppler", 10); ("range_detection", 164); ("wifi_tx", 27); ("wifi_rx", 27) ]);
    (3.42, [ ("pulse_doppler", 15); ("range_detection", 245); ("wifi_tx", 41); ("wifi_rx", 41) ]);
    (4.57, [ ("pulse_doppler", 18); ("range_detection", 329); ("wifi_tx", 55); ("wifi_rx", 55) ]);
    (6.92, [ ("pulse_doppler", 32); ("range_detection", 495); ("wifi_tx", 82); ("wifi_rx", 83) ]);
  ]

let table2_rates = List.map fst table2

let table2_counts rate =
  match List.assoc_opt rate table2 with
  | Some counts -> counts
  | None -> invalid_arg (Printf.sprintf "Workload.table2_counts: unknown rate %g" rate)

let table2_workload ?(window_ms = 100.0) ~rate () =
  let counts = table2_counts rate in
  let window_ns = int_of_float (window_ms *. 1e6) in
  let scale = window_ms /. 100.0 in
  let injections =
    List.map
      (fun (name, count) ->
        let app =
          match Reference_apps.by_name name with
          | Ok app -> app
          | Error msg -> invalid_arg msg
        in
        let count = max 1 (int_of_float (Float.round (float_of_int count *. scale))) in
        (* Attempts land at 0, p, 2p, ... < window; the ceiling division
           makes the attempt count exactly [count]. *)
        { app; period_ns = (window_ns + count - 1) / count; probability = 1.0 })
      counts
  in
  (* Probability 1 never consults the generator, but the API wants one. *)
  performance ~prng:(Prng.create ~seed:0L) ~window_ns injections
