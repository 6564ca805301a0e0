(* Host-side probes: counter snapshots around every sample, and the
   name-preserving wrappers the traced run installs through the public
   kernel and policy registries. *)

module Mclock = Dssoc_util.Mclock
module Kernels = Dssoc_apps.Kernels
module Scheduler = Dssoc_runtime.Scheduler

let kernel_ns = ref 0
let kernel_calls = ref 0
let policy_ns = ref 0
let policy_calls = ref 0
let policy_ops = ref 0
let plain_policies = ref []

(* Re-register every symbol of every shared object, and every policy,
   under its own name with a timing wrapper around the original.  The
   engines resolve both by name at run time, so the traced run times
   the real calls without touching the program.  Plans compiled
   before this point keep the kernels they memoized. *)
let install () =
  List.iter
    (fun obj ->
      Kernels.register_object obj
        (List.map
           (fun sym ->
             let k = Kernels.lookup_exn ~shared_object:obj ~symbol:sym in
             ( sym,
               fun store args ->
                 let t0 = Mclock.now_ns () in
                 k store args;
                 kernel_ns := !kernel_ns + (Mclock.now_ns () - t0);
                 incr kernel_calls ))
           (Kernels.symbols obj)))
    (Kernels.objects ());
  List.iter
    (fun name ->
      match Scheduler.find name with
      | Error _ -> ()
      | Ok (p : Scheduler.policy) ->
        plain_policies := p :: !plain_policies;
        Scheduler.register
          {
            p with
            Scheduler.schedule =
              (fun ctx ->
                let ops0 = ctx.Scheduler.ops in
                let t0 = Mclock.now_ns () in
                let r = p.Scheduler.schedule ctx in
                policy_ns := !policy_ns + (Mclock.now_ns () - t0);
                incr policy_calls;
                policy_ops := !policy_ops + (ctx.Scheduler.ops - ops0);
                r);
          })
    (Scheduler.names ())

(* Run [f] with the original policies registered.  The compiled engine
   specializes only the built-in policy values themselves, so a plan
   compiled while the wrappers are installed would be refused. *)
let with_plain_policies f =
  let wrapped =
    List.map (fun (p : Scheduler.policy) -> Scheduler.find p.Scheduler.name) !plain_policies
  in
  List.iter Scheduler.register !plain_policies;
  Fun.protect f ~finally:(fun () ->
      List.iter (function Ok p -> Scheduler.register p | Error _ -> ()) wrapped)

type snap = {
  t_ns : int;
  minor_words : float;
  promoted_words : float;
  majors : int;
  k_ns : int;
  k_calls : int;
  p_ns : int;
  p_calls : int;
  p_ops : int;
}

(* [Gc.minor_words] is exact; [Gc.quick_stat]'s minor count can miss
   part of the current minor heap. *)
let snap () =
  let g = Gc.quick_stat () in
  {
    t_ns = Mclock.now_ns ();
    minor_words = Gc.minor_words ();
    promoted_words = g.Gc.promoted_words;
    majors = g.Gc.major_collections;
    k_ns = !kernel_ns;
    k_calls = !kernel_calls;
    p_ns = !policy_ns;
    p_calls = !policy_calls;
    p_ops = !policy_ops;
  }

(* Words allocated so far, exactly: [Gc.quick_stat]'s major-heap
   counts lag until a major cycle completes, so this forces one. *)
let exact_alloc_words () =
  Gc.full_major ();
  let g = Gc.quick_stat () in
  Gc.minor_words () +. g.Gc.major_words -. g.Gc.promoted_words

let diff b a =
  {
    t_ns = b.t_ns - a.t_ns;
    minor_words = b.minor_words -. a.minor_words;
    promoted_words = b.promoted_words -. a.promoted_words;
    majors = b.majors - a.majors;
    k_ns = b.k_ns - a.k_ns;
    k_calls = b.k_calls - a.k_calls;
    p_ns = b.p_ns - a.p_ns;
    p_calls = b.p_calls - a.p_calls;
    p_ops = b.p_ops - a.p_ops;
  }

let time f =
  let t0 = Mclock.now_ns () in
  let r = f () in
  (r, Mclock.now_ns () - t0)

let peak_heap_mb () = float_of_int ((Gc.quick_stat ()).Gc.top_heap_words * 8) /. 1e6
