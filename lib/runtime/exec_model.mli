(** Task execution-time estimation.

    Bridges the cost model to tasks: picks the matching platform entry,
    honours an explicit [cost_us] override from the JSON, and otherwise
    prices CPU execution from the kernel profile and accelerator
    execution from the device model.  Both the virtual engine (to
    charge time) and the MET/EFT schedulers (to estimate) use it.

    The scheduling inner loops ask for an estimate once per
    (ready task, PE) pair per invocation; the engines precompute a
    dense {!table} over the whole run at instantiation time so those
    loops cost one int-array load. *)

val estimate_ns : Task.t -> Dssoc_soc.Pe.t -> int
(** Full turnaround estimate on the given PE, computed from the cost
    model.  Pure in the task's cost metadata and the PE class.
    @raise Invalid_argument when the task does not support the PE. *)

(** {1 Per-run dense estimate table} *)

type table
(** Precomputed [estimate_ns] for every (task, PE) pair of one run,
    indexed by task id and PE index. *)

val build_table : instances:Task.instance array -> pes:Dssoc_soc.Pe.t array -> table
(** Price every (task, pe) pair once, up front.  Task ids may start at
    any base but must be dense (as [Task.instantiate] produces them).
    Unsupported pairs hold {!Scheduler.unsupported}. *)

val lookup : table -> Task.t -> int -> int
(** [lookup tbl task pe_index] = [estimate_ns task pes.(pe_index)],
    as a single array load, or {!Scheduler.unsupported} when the task
    does not support the PE. *)

val accel_phases_ns : Task.t -> Dssoc_soc.Pe.accel_class -> int * int * int
(** [(dma_in, device_compute, dma_out)]; DMA sizes come from the node's
    [bytes_in]/[bytes_out], defaulting to [8 * size] (one complex
    float32 per sample) when unspecified. *)

val dma_bytes : Dssoc_apps.App_spec.node -> int * int
(** [(bytes_in, bytes_out)] a node moves over the interconnect —
    the explicit [bytes_in]/[bytes_out] when positive, else the
    [8 * size] default.  The fabric layer prices bandwidth demand
    from these. *)

val resolve_kernel : Task.t -> Dssoc_soc.Pe.t -> Dssoc_apps.Kernels.kernel
(** The functional kernel to execute for this (task, PE) pairing.
    @raise Invalid_argument on unknown shared object or symbol — app
    parsing is supposed to catch this earlier. *)
