(** The workload manager's ready-task list.

    An intrusive doubly-linked list over dense task ids: O(1) append
    at the tail and O(1) unlink of any member, insertion order kept,
    and every task at most once.  Both discrete-event engines keep
    their ready list here, and policies walk it through
    {!Scheduler.context}.  All storage is allocated by {!create} and
    on the first {!append}; nothing grows afterwards.

    A walk reads the fields directly, with the members' task ids as
    cursors:
    {[
      let c = ref r.Ready.head in
      while !c >= 0 do
        let task = r.Ready.tasks.(!c) in
        ...;
        c := r.Ready.next.(!c)
      done
    ]} *)

type t = private {
  next : int array;  (** by id: the next member's id, [-1] at the tail *)
  prev : int array;  (** by id: the previous member's id, [-1] at the head, [-2] if absent *)
  mutable tasks : Task.t array;  (** by id; empty until the first {!append} *)
  mutable head : int;  (** first member's id, [-1] when empty *)
  mutable tail : int;
  mutable length : int;
}
(** Read-only outside this module; exposed so that a walk is plain
    loads, with no call per member. *)

val create : int -> t
(** [create n] holds tasks with ids in [\[0, n)] — a run's task count,
    as its dense ids run from 0. *)

val length : t -> int

val mem : t -> Task.t -> bool

val append : t -> Task.t -> unit
(** Add at the tail.
    @raise Invalid_argument if the task is already a member. *)

val remove : t -> Task.t -> unit
(** Unlink a member.
    @raise Invalid_argument if the task is not a member. *)
