(** Task-scheduling policy library (Section II-C).

    The workload manager hands the policy a window on its ready-task
    list and the PE states; the policy returns assignments of ready
    tasks to *idle* PEs.  The default library implements the paper's
    four policies — FRFS, MET, EFT and RANDOM — and user policies can
    be registered under new names (the paper's "custom scheduling
    algorithm" hook).  Every engine, the compiled one included, calls
    a registered policy through the same {!context}. *)

type pe_state = {
  pe : Dssoc_soc.Pe.t;
  mutable idle : bool;
  mutable busy_until : int;
      (** estimated completion of the in-flight task (EFT looks at
          this); meaningful only when not idle *)
  mutable available : bool;
      (** false for quarantined or dead PEs: policies must neither
          select nor reserve them.  [idle] implies [available]; EFT is
          the one built-in that also reads it directly (it reserves
          busy-but-available PEs via [busy_until]). *)
}

type context = {
  now : int;
  ready : Ready.t;
      (** the engine's live ready list, in ready (FIFO) order.  The
          policy sees its first [nready] entries (the window); walk
          them with {!iter_window}.  The list may be longer, and a
          policy must not modify it. *)
  nready : int;
      (** window length: the list's length, capped at
          {!Dssoc_soc.Cost_model.sched_examined_cap} *)
  pes : pe_state array;
  estimate : Task.t -> int -> int;
      (** [estimate task pe_index]: modelled execution time on
          [pes.(pe_index)], or {!unsupported} when the task cannot run
          on that PE.  The engines back this with a dense precomputed
          table ({!Exec_model.build_table}), so calling it in an inner
          loop is one array load; it also answers the support question
          more cheaply than {!Task.supports}. *)
  prng : Dssoc_util.Prng.t;
  mutable ops : int;
      (** policies increment this per elementary examination; the
          engine charges overlay-core time proportional to the policy's
          complexity model.  The built-ins charge [nready] x PE count,
          a full walk of the window, even when they stop early *)
}

type assignment = { task : Task.t; pe_index : int }

type policy = { name : string; schedule : context -> assignment list }
(** [schedule] returns assignments of window tasks to idle PEs.  The
    engine dispatches them in list order and drops an assignment whose
    task is no longer ready (e.g. a task returned twice). *)

val unsupported : int
(** The {!field:estimate} of an unsupported (task, PE) pair: [min_int]. *)

val iter_window : context -> (Task.t -> unit) -> unit
(** Apply a function to the window's tasks, in ready order. *)

(** {1 Built-in policies} *)

val frfs : policy
(** First ready-first start: walk the ready list in order; each task
    goes to the first idle PE that supports it. *)

val met : policy
(** Minimum execution time: each ready task goes to the idle
    supporting PE with the smallest estimated execution time. *)

val eft : policy
(** Earliest finish time: a planning pass in ready order; each task
    picks the supporting PE with the earliest finish (busy PEs finish
    at [busy_until] + estimate, and the pass advances a virtual
    availability horizon as it commits tasks).  A task whose winner is
    busy reserves it and keeps waiting instead of falling back to an
    idle PE — the behaviour whose O(n^2) cost Case Study 2 charges. *)

val random : policy
(** Uniformly random idle supporting PE per ready task. *)

val power : policy
(** Power-aware heuristic (the paper's future-work extension): each
    ready task goes to the idle supporting PE with the lowest
    estimated energy-to-completion (execution time x active power),
    ties broken by execution time.  On big.LITTLE hosts this steers
    work to LITTLE cores until they saturate. *)

(** {1 Registry} *)

val register : policy -> unit
(** Add or replace a policy by name.  Built-ins are pre-registered. *)

val find : string -> (policy, string) result
(** Case-insensitive lookup. *)

val names : unit -> string list

(** {1 Overhead model} *)

val overhead_ns : policy_name:string -> ready:int -> pes:int -> ops:int -> int
(** Modelled scheduling-invocation cost on the reference overlay core:
    FRFS is linear in PE count, MET linear in ready-task count, EFT
    quadratic in ready-task count (the complexities stated in Case
    Study 2); unknown (custom) policies are charged per recorded
    elementary operation. *)
