module App_spec = Dssoc_apps.App_spec
module Kernels = Dssoc_apps.Kernels
module Pe = Dssoc_soc.Pe
module Cost_model = Dssoc_soc.Cost_model

let entry_for (task : Task.t) pe =
  match Task.platform_entry_for task pe with
  | Some e -> e
  | None ->
    invalid_arg
      (Printf.sprintf "Exec_model: task %s/%s does not support PE %s" task.Task.app_name
         task.Task.node.App_spec.node_name pe.Pe.label)

let dma_bytes (node : App_spec.node) =
  let default = 8 * node.App_spec.size in
  let bi = if node.App_spec.bytes_in > 0 then node.App_spec.bytes_in else default in
  let bo = if node.App_spec.bytes_out > 0 then node.App_spec.bytes_out else default in
  (bi, bo)

let accel_phases_ns (task : Task.t) (acl : Pe.accel_class) =
  let node = task.Task.node in
  let bytes_in, bytes_out = dma_bytes node in
  Cost_model.accel_phases_ns ~bytes_in ~bytes_out ~n:node.App_spec.size acl

let estimate_ns (task : Task.t) pe =
  let entry = entry_for task pe in
  match entry.App_spec.cost_us with
  | Some us -> int_of_float (Float.round (us *. 1e3))
  | None -> (
    let node = task.Task.node in
    match pe.Pe.kind with
    | Pe.Cpu cls ->
      Cost_model.cpu_cost_ns ~kernel:node.App_spec.kernel_class ~n:node.App_spec.size cls
    | Pe.Accel acl ->
      let i, c, o = accel_phases_ns task acl in
      i + c + o)

(* ------------------------------------------------------------------ *)
(* Dense per-run estimate table                                        *)
(* ------------------------------------------------------------------ *)

(* The schedulers (EFT in particular) ask for an estimate for every
   (ready task, PE) pair on every invocation — once per task
   completion.  The estimate only depends on the node's cost metadata
   and the PE class, so the engines precompute the whole
   (task, pe_index) matrix at instantiation time; the inner scheduling
   loops then do a single int-array load instead of hashing a
   polymorphic key.  Unsupported pairs hold [Scheduler.unsupported],
   which is how the policies tell support. *)

type table = { base_id : int; stride : int; data : int array }

let build_table ~(instances : Task.instance array) ~(pes : Pe.t array) =
  let base_id, max_id =
    Array.fold_left
      (fun (lo, hi) (inst : Task.instance) ->
        Array.fold_left
          (fun (lo, hi) (t : Task.t) -> (min lo t.Task.id, max hi t.Task.id))
          (lo, hi) inst.Task.tasks)
      (max_int, min_int) instances
  in
  let stride = Array.length pes in
  if max_id < base_id || stride = 0 then { base_id = 0; stride; data = [||] }
  else begin
    let data = Array.make ((max_id - base_id + 1) * stride) Scheduler.unsupported in
    (* Many tasks share cost metadata (all 256 pulse-Doppler FFT nodes
       price identically), so memoize the build itself on the metadata
       key; the memo is local to this call, not shared state. *)
    let memo = Hashtbl.create 256 in
    Array.iter
      (fun (inst : Task.instance) ->
        Array.iter
          (fun (t : Task.t) ->
            let row = (t.Task.id - base_id) * stride in
            Array.iteri
              (fun p pe ->
                if Task.supports t pe then begin
                  let node = t.Task.node in
                  let key =
                    ( node.App_spec.kernel_class,
                      node.App_spec.size,
                      node.App_spec.bytes_in,
                      node.App_spec.bytes_out,
                      (entry_for t pe).App_spec.cost_us,
                      pe.Pe.kind )
                  in
                  let v =
                    match Hashtbl.find_opt memo key with
                    | Some v -> v
                    | None ->
                      let v = estimate_ns t pe in
                      Hashtbl.replace memo key v;
                      v
                  in
                  data.(row + p) <- v
                end)
              pes)
          inst.Task.tasks)
      instances;
    { base_id; stride; data }
  end

let lookup tbl (task : Task.t) pe_index =
  tbl.data.(((task.Task.id - tbl.base_id) * tbl.stride) + pe_index)

let resolve_kernel (task : Task.t) pe =
  let entry = entry_for task pe in
  match Kernels.resolve ~app:task.Task.spec ~node:task.Task.node ~platform:entry with
  | Ok k -> k
  | Error msg -> invalid_arg (Printf.sprintf "Exec_model.resolve_kernel: %s" msg)
