(** The discrete-event substrate both DES engines run on.

    One virtual nanosecond clock, one integer-encoded event heap and
    the modelled resources the paper's manager threads compete for:

    - {b Threads.}  A run has [n_pes + 1] threads: resource manager
      [i] is thread [i], the workload manager is thread [n_pes]
      ({!wm}).  Each thread has at most one outstanding suspension and
      one condition it can {!await} (signalled by {!signal}).  The
      substrate does not know what a thread runs: it calls the
      engine's [start th] / [resume th] from {!run} and the engine
      continues its own code — an effect continuation
      ({!Virtual_engine}) or a program counter ({!Compiled_engine}).
    - {b Host cores.}  Manager threads occupy modelled host cores
      ({!work}).  A core with [k > 1] jobs serves each at
      [quantum / (quantum + switch) / k] of full rate — the OS-level
      preemption behind the paper's Figs. 9 and 11.  Resource manager
      [i] runs on [core_of_pe.(i)]; the workload manager on core 0,
      the overlay core.
    - {b Fabric link.}  Under a {!Dssoc_soc.Fabric.Bus}, DMA streams
      share one link at a plain fair share [1/k] ({!stream}); streams
      beyond the FIFO depth wait in arrival order and their threads
      stall.

    Determinism: events pop in [(time, push order)]; a push below the
    clock is clamped to it.  Every operation below pushes the same
    events in the same order whichever engine calls it, which is what
    makes a compiled run replay a virtual one byte-for-byte. *)

(** {1 Host-core table} *)

type host_cores = {
  core_of_pe : int array;  (** manager-core index per PE; core 0 is the overlay *)
  rate1 : float array;  (** per core: [quantum /. (quantum +. switch)] *)
}

val host_cores : Dssoc_soc.Config.t -> host_cores
(** Core 0 is the configuration's overlay core; the other distinct
    host cores follow in placement order. *)

(** {1 The substrate} *)

type state

type t = private {
  mutable now : int;  (** the virtual clock, ns *)
  st : state;
}
(** Read-only outside this module; [now] is exposed so that reading
    the clock is a plain load. *)

val create :
  obs:Dssoc_obs.Obs.t -> clock0:int -> host_cores -> Dssoc_soc.Fabric.t -> t
(** A substrate with no pending events and the clock at [clock0].
    Registers, when [obs] has metrics and the fabric is a bus, the
    [fabric_stall_ns] histogram and then the [fabric_occupancy]
    gauge; then (with metrics, any fabric) the [event_heap_depth]
    gauge.  Call it after {!Dssoc_obs.Obs.attach_pes}: that is the
    registration order both engines pin. *)

val wm : t -> int
(** The workload manager's thread id ([n_pes]). *)

val pending_events : t -> int
(** Events in the heap, stale ones included. *)

val sample_depth : t -> unit
(** Set the [event_heap_depth] gauge to {!pending_events} (no-op
    without metrics). *)

val fabric_counters : t -> Engine_core.fabric_counters
(** The link's contention counters; all zero under Ideal. *)

(** {1 Thread operations}

    Each blocking operation returns [true] when it suspended the
    thread — the engine then returns to {!run}, which calls
    [resume th] once the thread may continue — and [false] when it
    completed at once (the thread continues inline). *)

val spawn : t -> int -> unit
(** Schedule [start th] at the current time.  Spawning defers the
    body to the event loop, so a thread never starts inside another. *)

val work : t -> int -> int -> bool
(** [work d th ns]: consume [ns] of full-rate CPU work on the thread's
    host core (dilated while the core is shared).  [false] iff
    [ns <= 0]. *)

val sleep : t -> int -> int -> bool
(** [sleep d th ns]: let [ns] of virtual time pass without occupying a
    core.  [false] iff [ns <= 0]. *)

val await : t -> ?deadline:int -> int -> bool
(** [await d ?deadline th]: consume the thread's pending signal and
    return [false], or suspend until the next {!signal} or the
    absolute [deadline], whichever comes first.  A deadline left over
    from an earlier suspension never resumes the thread. *)

val signal : t -> int -> unit
(** Resume [th] if it is awaiting its condition, else leave the
    signal pending for its next {!await}. *)

val stream : t -> int -> bytes:int -> int -> bool
(** [stream d th ~bytes ns]: serve [ns] of link demand for PE [th]'s
    DMA stream of [bytes], admitted FIFO once the link has a free
    slot.  Counts the stream (and a stall if it waits), observes the
    stall time, and emits the stream events.  [false] iff [ns <= 0]
    (nothing counted). *)

(** {1 The loop} *)

val run : t -> start:(int -> unit) -> resume:(int -> unit) -> unit
(** Pop and apply events until the heap is empty.  [start th] runs a
    {!spawn}ed thread's body; [resume th] continues a suspended
    thread. *)
