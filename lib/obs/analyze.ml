module Vec = Dssoc_util.Vec
module Quantile = Dssoc_stats.Quantile
module Json = Dssoc_json.Json

(* Engine-agnostic post-run analytics over a recorded event log.  The
   input is the realized schedule (ready/dispatch/complete triples plus
   DMA phases and fabric admissions), not the application DAG: the
   analysis reconstructs what *bound* the run — dependency chains,
   per-PE serialisation, fabric stalls — purely from what the engines
   emitted, so it applies identically to virtual, compiled and native
   logs (and to logs reloaded from disk via [Obs.event_of_json]). *)

type task_exec = {
  x_task : int;
  x_instance : int;
  x_app : string;
  x_node : string;
  x_pe : string;
  x_pe_index : int;
  x_ready_ns : int;
  x_dispatched_ns : int;
  x_completed_ns : int;
  x_dma_ns : int;  (** dma_in + dma_out phase time *)
  x_stall_ns : int;  (** fabric admission stalls inside the service window *)
}

type t = {
  a_tasks : task_exec array;  (* completion order *)
  a_makespan_ns : int;
  a_inject_ns : (int, int) Hashtbl.t;  (* instance -> first injection time *)
}

(* Mutable accumulator for a task whose completion has not been seen
   yet.  A retried task overwrites ready/dispatch in place, so the
   finalized record reflects the successful attempt. *)
type pending = {
  mutable p_ready : int;
  mutable p_dispatched : int;
  mutable p_dma : int;
}

(* Attribute each fabric stall to the task occupying that PE when the
   stream was admitted (its DMA phase is what queued): a task is
   charged every stall on its PE admitted in [dispatched, completed].
   The stalls are sorted by (PE, admission time) with prefix sums of
   their durations, so each task costs two binary searches. *)
let attribute_stalls stalls arr =
  let key_lt (t1, pe1, _) pe2 t2 = pe1 < pe2 || (pe1 = pe2 && t1 < t2) in
  let a = Array.of_list stalls in
  Array.sort
    (fun (t1, pe1, _) (t2, pe2, _) -> if pe1 <> pe2 then Int.compare pe1 pe2 else Int.compare t1 t2)
    a;
  let prefix = Array.make (Array.length a + 1) 0 in
  Array.iteri (fun k (_, _, stall_ns) -> prefix.(k + 1) <- prefix.(k) + stall_ns) a;
  (* first index whose key is >= (pe_index, t) *)
  let lower_bound pe_index t =
    let lo = ref 0 and hi = ref (Array.length a) in
    while !lo < !hi do
      let mid = (!lo + !hi) lsr 1 in
      if key_lt a.(mid) pe_index t then lo := mid + 1 else hi := mid
    done;
    !lo
  in
  Array.map
    (fun x ->
      let lo = lower_bound x.x_pe_index x.x_dispatched_ns
      and hi = lower_bound x.x_pe_index (x.x_completed_ns + 1) in
      if hi <= lo then x else { x with x_stall_ns = prefix.(hi) - prefix.(lo) })
    arr

let of_events events =
  let pend : (int, pending) Hashtbl.t = Hashtbl.create 64 in
  let pending_of task =
    match Hashtbl.find_opt pend task with
    | Some p -> p
    | None ->
        let p = { p_ready = 0; p_dispatched = 0; p_dma = 0 } in
        Hashtbl.replace pend task p;
        p
  in
  let tasks = Vec.create () in
  let injects = Hashtbl.create 16 in
  let stalls = ref [] in
  List.iter
    (fun { Obs.t_ns; body } ->
      match body with
      | Obs.Instance_injected { instance; _ } ->
          if not (Hashtbl.mem injects instance) then Hashtbl.replace injects instance t_ns
      | Obs.Task_ready { task; _ } -> (pending_of task).p_ready <- t_ns
      | Obs.Task_dispatched { task; _ } -> (pending_of task).p_dispatched <- t_ns
      | Obs.Phase { task; phase = Obs.Dma_in | Obs.Dma_out; dur_ns; _ } ->
          let p = pending_of task in
          p.p_dma <- p.p_dma + dur_ns
      | Obs.Task_completed { task; instance; app; node; pe; pe_index; _ } ->
          let p = pending_of task in
          Vec.push tasks
            {
              x_task = task;
              x_instance = instance;
              x_app = app;
              x_node = node;
              x_pe = pe;
              x_pe_index = pe_index;
              x_ready_ns = p.p_ready;
              x_dispatched_ns = p.p_dispatched;
              x_completed_ns = t_ns;
              x_dma_ns = p.p_dma;
              x_stall_ns = 0;
            };
          Hashtbl.remove pend task
      | Obs.Stream_admitted { pe_index; stall_ns; _ } when stall_ns > 0 ->
          stalls := (t_ns, pe_index, stall_ns) :: !stalls
      | _ -> ())
    events;
  let arr = Vec.to_array tasks in
  let arr = if !stalls = [] then arr else attribute_stalls !stalls arr in
  (* The engine reports its makespan as the WM-observed completion of
     the last instance, which trails the last task completion by the
     final sweep's overhead charge.  The last event in the log — the
     WM tick of that sweep — carries exactly that time, so "latest
     event" reproduces the reported makespan. *)
  let makespan =
    List.fold_left (fun acc (e : Obs.event) -> if e.Obs.t_ns > acc then e.Obs.t_ns else acc) 0 events
  in
  { a_tasks = arr; a_makespan_ns = makespan; a_inject_ns = injects }

let tasks t = Array.to_list t.a_tasks
let makespan_ns t = t.a_makespan_ns

(* ------------------------------------------------------------------ *)
(* Critical path                                                       *)
(* ------------------------------------------------------------------ *)

type edge = Injection | Dependency | Resource

let edge_name = function
  | Injection -> "injection"
  | Dependency -> "dependency"
  | Resource -> "resource"

type step = {
  s_task : task_exec;
  s_edge : edge;
  s_gap_ns : int;  (** predecessor completion (or t=0) to dispatch *)
  s_service_ns : int;
  s_slack_ns : int;  (** margin before the next-latest constraint binds *)
}

type critical_path = {
  cp_steps : step list;
  cp_length_ns : int;
  cp_gap_ns : int;
  cp_service_ns : int;
  cp_observe_ns : int;
  cp_dma_ns : int;
  cp_stall_ns : int;
  cp_dma_frac : float;
}

let empty_path =
  {
    cp_steps = [];
    cp_length_ns = 0;
    cp_gap_ns = 0;
    cp_service_ns = 0;
    cp_observe_ns = 0;
    cp_dma_ns = 0;
    cp_stall_ns = 0;
    cp_dma_frac = 0.0;
  }

(* Walk the realized schedule backwards from the last completion.  At
   each task the binding constraint on its start is either
   - a {e resource} edge: it waited for its PE (dispatch after ready),
     bound by the latest same-PE completion inside [ready, dispatched];
   - a {e dependency} edge: it became ready the instant a same-instance
     predecessor completed; or
   - {e injection}: nothing earlier constrains it (chain start).
   Each step's [dispatch] is at or after its predecessor's completion,
   so gaps and services partition [0, last completion]; the terminal
   observation segment (the final WM sweep's overhead, up to the
   reported makespan) is charged separately, making the path length
   equal the run's makespan by construction. *)
let critical_path t =
  let n = Array.length t.a_tasks in
  if n = 0 then empty_path
  else begin
    let tsk i = t.a_tasks.(i) in
    let best = ref 0 in
    Array.iteri
      (fun i x ->
        let b = tsk !best in
        if
          x.x_completed_ns > b.x_completed_ns
          || (x.x_completed_ns = b.x_completed_ns && x.x_task < b.x_task)
        then best := i)
      t.a_tasks;
    let visited = Hashtbl.create 16 in
    (* (index, edge, predecessor index option), forward order: consing
       while walking backwards reverses the walk. *)
    let chain = ref [] in
    let rec back i =
      Hashtbl.replace visited i ();
      let x = tsk i in
      let dep = ref (-1) in
      Array.iteri
        (fun k p ->
          if
            k <> i && p.x_instance = x.x_instance && p.x_completed_ns = x.x_ready_ns
            && (!dep < 0 || p.x_task < (tsk !dep).x_task)
          then dep := k)
        t.a_tasks;
      let res = ref (-1) in
      if x.x_dispatched_ns > x.x_ready_ns then
        Array.iteri
          (fun k p ->
            if
              k <> i && p.x_pe_index = x.x_pe_index
              && p.x_completed_ns <= x.x_dispatched_ns
              && p.x_completed_ns >= x.x_ready_ns
            then
              if !res < 0 then res := k
              else
                let r = tsk !res in
                if
                  p.x_completed_ns > r.x_completed_ns
                  || (p.x_completed_ns = r.x_completed_ns && p.x_task < r.x_task)
                then res := k)
          t.a_tasks;
      let pick =
        if x.x_dispatched_ns > x.x_ready_ns && !res >= 0 then Some (!res, Resource)
        else if !dep >= 0 then Some (!dep, Dependency)
        else None
      in
      match pick with
      | Some (p, edge) when not (Hashtbl.mem visited p) ->
          chain := (i, edge, Some p) :: !chain;
          back p
      | _ -> chain := (i, Injection, None) :: !chain
    in
    back !best;
    let inject_ns inst =
      match Hashtbl.find_opt t.a_inject_ns inst with Some v -> v | None -> 0
    in
    let slack_of i edge pred =
      let x = tsk i in
      match (edge, pred) with
      | Injection, _ -> 0
      | Dependency, _ ->
          (* How much earlier the binding predecessor could have
             finished before the next-latest same-instance completion
             (or the injection itself) becomes the binding constraint. *)
          let alt = ref (inject_ns x.x_instance) in
          Array.iteri
            (fun k p ->
              if
                k <> i && p.x_instance = x.x_instance
                && p.x_completed_ns < x.x_ready_ns
                && p.x_completed_ns > !alt
              then alt := p.x_completed_ns)
            t.a_tasks;
          x.x_ready_ns - !alt
      | Resource, Some pr ->
          let pc = (tsk pr).x_completed_ns in
          let alt = ref x.x_ready_ns in
          Array.iteri
            (fun k q ->
              if
                k <> i && k <> pr && q.x_pe_index = x.x_pe_index
                && q.x_completed_ns >= x.x_ready_ns && q.x_completed_ns < pc
                && q.x_completed_ns > !alt
              then alt := q.x_completed_ns)
            t.a_tasks;
          pc - !alt
      | Resource, None -> 0
    in
    let prev_end = ref 0 in
    let steps =
      List.map
        (fun (i, edge, pred) ->
          let x = tsk i in
          let gap = max 0 (x.x_dispatched_ns - !prev_end) in
          prev_end := x.x_completed_ns;
          {
            s_task = x;
            s_edge = edge;
            s_gap_ns = gap;
            s_service_ns = x.x_completed_ns - x.x_dispatched_ns;
            s_slack_ns = slack_of i edge pred;
          })
        !chain
    in
    let gap = List.fold_left (fun a s -> a + s.s_gap_ns) 0 steps in
    let service = List.fold_left (fun a s -> a + s.s_service_ns) 0 steps in
    let dma = List.fold_left (fun a s -> a + s.s_task.x_dma_ns) 0 steps in
    let stall = List.fold_left (fun a s -> a + s.s_task.x_stall_ns) 0 steps in
    let observe = max 0 (t.a_makespan_ns - (tsk !best).x_completed_ns) in
    let length = gap + service + observe in
    {
      cp_steps = steps;
      cp_length_ns = length;
      cp_gap_ns = gap;
      cp_service_ns = service;
      cp_observe_ns = observe;
      cp_dma_ns = dma;
      cp_stall_ns = stall;
      cp_dma_frac = (if length <= 0 then 0.0 else float_of_int dma /. float_of_int length);
    }
  end

(* ------------------------------------------------------------------ *)
(* Utilization / occupancy                                             *)
(* ------------------------------------------------------------------ *)

(* PE class = label with the trailing instance digits stripped
   ("cpu0" -> "cpu", "fft2" -> "fft"); mirrors [Stats.pe_kind]. *)
let pe_class label =
  let n = String.length label in
  let rec stem i = if i > 0 && label.[i - 1] >= '0' && label.[i - 1] <= '9' then stem (i - 1) else i in
  let k = stem n in
  if k = 0 then label else String.sub label 0 k

(* Busy (service) time per observed PE, as a fraction of makespan.
   Only PEs that completed at least one task appear in the log, so an
   idle PE simply does not show up (its utilization is 0). *)
let utilization t =
  if t.a_makespan_ns <= 0 then []
  else begin
    let tbl = Hashtbl.create 8 in
    Array.iter
      (fun x ->
        let busy = Option.value ~default:0 (Hashtbl.find_opt tbl (x.x_pe_index, x.x_pe)) in
        Hashtbl.replace tbl (x.x_pe_index, x.x_pe)
          (busy + (x.x_completed_ns - x.x_dispatched_ns)))
      t.a_tasks;
    Hashtbl.fold (fun (idx, pe) busy acc -> (idx, pe, busy) :: acc) tbl []
    |> List.sort compare
    |> List.map (fun (_, pe, busy) ->
           (pe, float_of_int busy /. float_of_int t.a_makespan_ns))
  end

let utilization_by_class t =
  let tbl = Hashtbl.create 4 in
  let order = ref [] in
  List.iter
    (fun (pe, u) ->
      let c = pe_class pe in
      match Hashtbl.find_opt tbl c with
      | Some (sum, n) -> Hashtbl.replace tbl c (sum +. u, n + 1)
      | None ->
          order := c :: !order;
          Hashtbl.replace tbl c (u, 1))
    (utilization t);
  List.rev_map
    (fun c ->
      let sum, n = Hashtbl.find tbl c in
      (c, sum /. float_of_int n))
    !order

(* Step series of concurrently running tasks per PE class: +1 at each
   dispatch, -1 at each completion, collapsed per timestamp. *)
let occupancy_by_class t =
  let tbl = Hashtbl.create 4 in
  let order = ref [] in
  let push c delta =
    match Hashtbl.find_opt tbl c with
    | Some v -> Vec.push v delta
    | None ->
        let v = Vec.create () in
        Vec.push v delta;
        order := c :: !order;
        Hashtbl.replace tbl c v
  in
  Array.iter
    (fun x ->
      let c = pe_class x.x_pe in
      push c (x.x_dispatched_ns, 1);
      push c (x.x_completed_ns, -1))
    t.a_tasks;
  List.rev_map
    (fun c ->
      let deltas = List.sort compare (Vec.to_list (Hashtbl.find tbl c)) in
      let series = ref [] and level = ref 0 in
      List.iter
        (fun (tm, d) ->
          level := !level + d;
          match !series with
          | (t0, _) :: rest when t0 = tm -> series := (tm, !level) :: rest
          | _ -> series := (tm, !level) :: !series)
        deltas;
      (c, List.rev !series))
    !order

(* ------------------------------------------------------------------ *)
(* Queueing-delay breakdown                                            *)
(* ------------------------------------------------------------------ *)

type dist = {
  d_n : int;
  d_mean_us : float;
  d_p50_us : float;
  d_p95_us : float;
  d_max_us : float;
}

type queueing = { q_wait : dist; q_service : dist; q_stall : dist }

let dist_of_ns xs =
  let n = Array.length xs in
  if n = 0 then { d_n = 0; d_mean_us = 0.0; d_p50_us = 0.0; d_p95_us = 0.0; d_max_us = 0.0 }
  else begin
    let us = Array.map (fun v -> float_of_int v /. 1e3) xs in
    {
      d_n = n;
      d_mean_us = Quantile.mean us;
      d_p50_us = Quantile.median us;
      d_p95_us = Quantile.quantile us 0.95;
      d_max_us = Quantile.max us;
    }
  end

let queueing t =
  let wait = Array.map (fun x -> x.x_dispatched_ns - x.x_ready_ns) t.a_tasks in
  let service = Array.map (fun x -> x.x_completed_ns - x.x_dispatched_ns) t.a_tasks in
  let stall = Array.map (fun x -> x.x_stall_ns) t.a_tasks in
  { q_wait = dist_of_ns wait; q_service = dist_of_ns service; q_stall = dist_of_ns stall }

(* ------------------------------------------------------------------ *)
(* Rendering                                                           *)
(* ------------------------------------------------------------------ *)

let us ns = float_of_int ns /. 1e3

let pp fmt t =
  let cp = critical_path t in
  Format.fprintf fmt "== analysis ==@.";
  Format.fprintf fmt "  tasks %d  makespan %.1f us@." (Array.length t.a_tasks)
    (us t.a_makespan_ns);
  Format.fprintf fmt
    "  critical path: %d steps, %.1f us = wait %.1f us + service %.1f us + observe %.1f us \
     (dma %.1f%%, fabric stall %.1f us)@."
    (List.length cp.cp_steps) (us cp.cp_length_ns) (us cp.cp_gap_ns)
    (us cp.cp_service_ns) (us cp.cp_observe_ns)
    (cp.cp_dma_frac *. 100.0)
    (us cp.cp_stall_ns);
  List.iteri
    (fun i s ->
      Format.fprintf fmt
        "    %2d  %-10s %-18s %-12s %-6s gap %8.1f  dur %8.1f  slack %8.1f us@." i
        (edge_name s.s_edge)
        (Printf.sprintf "%s/%d" s.s_task.x_app s.s_task.x_instance)
        s.s_task.x_node s.s_task.x_pe (us s.s_gap_ns) (us s.s_service_ns)
        (us s.s_slack_ns))
    cp.cp_steps;
  (match utilization_by_class t with
  | [] -> ()
  | classes ->
      Format.fprintf fmt "  utilization:";
      List.iter (fun (c, u) -> Format.fprintf fmt " %s %.1f%%" c (u *. 100.0)) classes;
      Format.fprintf fmt "@.");
  let q = queueing t in
  let line name d =
    Format.fprintf fmt "    %-8s n %d  mean %8.1f  p50 %8.1f  p95 %8.1f  max %8.1f us@."
      name d.d_n d.d_mean_us d.d_p50_us d.d_p95_us d.d_max_us
  in
  Format.fprintf fmt "  queueing breakdown:@.";
  line "wait" q.q_wait;
  line "service" q.q_service;
  line "stall" q.q_stall

let dist_json d =
  Json.obj
    [
      ("n", Json.int d.d_n);
      ("mean_us", Json.float d.d_mean_us);
      ("p50_us", Json.float d.d_p50_us);
      ("p95_us", Json.float d.d_p95_us);
      ("max_us", Json.float d.d_max_us);
    ]

let to_json t =
  let cp = critical_path t in
  let q = queueing t in
  Json.obj
    [
      ("tasks", Json.int (Array.length t.a_tasks));
      ("makespan_ns", Json.int t.a_makespan_ns);
      ( "critical_path",
        Json.obj
          [
            ("length_ns", Json.int cp.cp_length_ns);
            ("gap_ns", Json.int cp.cp_gap_ns);
            ("service_ns", Json.int cp.cp_service_ns);
            ("observe_ns", Json.int cp.cp_observe_ns);
            ("dma_ns", Json.int cp.cp_dma_ns);
            ("stall_ns", Json.int cp.cp_stall_ns);
            ("dma_frac", Json.float cp.cp_dma_frac);
            ( "steps",
              Json.list
                (List.map
                   (fun s ->
                     Json.obj
                       [
                         ("task", Json.int s.s_task.x_task);
                         ("instance", Json.int s.s_task.x_instance);
                         ("app", Json.str s.s_task.x_app);
                         ("node", Json.str s.s_task.x_node);
                         ("pe", Json.str s.s_task.x_pe);
                         ("edge", Json.str (edge_name s.s_edge));
                         ("dispatched_ns", Json.int s.s_task.x_dispatched_ns);
                         ("completed_ns", Json.int s.s_task.x_completed_ns);
                         ("gap_ns", Json.int s.s_gap_ns);
                         ("service_ns", Json.int s.s_service_ns);
                         ("slack_ns", Json.int s.s_slack_ns);
                       ])
                   cp.cp_steps) );
          ] );
      ( "utilization",
        Json.obj (List.map (fun (c, u) -> (c, Json.float u)) (utilization_by_class t)) );
      ( "occupancy",
        Json.obj
          (List.map
             (fun (c, series) ->
               ( c,
                 Json.list
                   (List.map
                      (fun (tm, lvl) -> Json.list [ Json.int tm; Json.int lvl ])
                      series) ))
             (occupancy_by_class t)) );
      ( "queueing",
        Json.obj
          [
            ("wait", dist_json q.q_wait);
            ("service", dist_json q.q_service);
            ("stall", dist_json q.q_stall);
          ] );
    ]
