module Pe = Dssoc_soc.Pe
module Cost_model = Dssoc_soc.Cost_model
module Prng = Dssoc_util.Prng

type pe_state = {
  pe : Pe.t;
  mutable idle : bool;
  mutable busy_until : int;
  mutable available : bool;
      (* quarantined/dead PEs are unavailable: no policy may select or
         reserve them.  [idle] implies [available]. *)
}

type context = {
  now : int;
  ready : Ready.t;
  nready : int;
  pes : pe_state array;
  estimate : Task.t -> int -> int;
  prng : Prng.t;
  mutable ops : int;
}

type assignment = { task : Task.t; pe_index : int }

type policy = { name : string; schedule : context -> assignment list }

let unsupported = min_int

let iter_window ctx f =
  let r = ctx.ready in
  let c = ref r.Ready.head in
  for _ = 1 to ctx.nready do
    f r.Ready.tasks.(!c);
    c := r.Ready.next.(!c)
  done

(* ------------------------------------------------------------------ *)
(* Built-ins                                                           *)
(* ------------------------------------------------------------------ *)

(* The window scan the built-ins share.  [pick task] returns the PE it
   chose for [task], or -1; the task is assigned when that PE is idle
   (EFT also picks busy PEs, to reserve them).  A built-in assigns only
   idle PEs and everything else [pick] touches is per-invocation
   scratch, so once no idle PE remains the rest of the window cannot
   change the result and the scan stops there.  [ops] is still charged
   as a walk of the whole window, [nready * n_pes] examinations (see
   DESIGN.md §9, "stop at the idle budget, count the rest").  Support
   is read off the estimate table ([unsupported]), never re-derived
   from the task's platform list. *)
let scan ctx pick =
  let pes = ctx.pes in
  let n_idle = ref 0 in
  for i = 0 to Array.length pes - 1 do
    if pes.(i).idle then incr n_idle
  done;
  let r = ctx.ready in
  let out = ref [] and c = ref r.Ready.head and j = ref 0 in
  while !j < ctx.nready && !n_idle > 0 do
    let task = r.Ready.tasks.(!c) in
    let i = pick task in
    if i >= 0 && pes.(i).idle then begin
      pes.(i).idle <- false;
      decr n_idle;
      out := { task; pe_index = i } :: !out
    end;
    c := r.Ready.next.(!c);
    incr j
  done;
  ctx.ops <- ctx.ops + (ctx.nready * Array.length pes);
  List.rev !out

let frfs =
  let schedule ctx =
    scan ctx (fun task ->
        let chosen = ref (-1) and i = ref 0 in
        while !chosen < 0 && !i < Array.length ctx.pes do
          let st = ctx.pes.(!i) in
          if st.idle && ctx.estimate task !i <> unsupported then chosen := !i;
          incr i
        done;
        !chosen)
  in
  { name = "FRFS"; schedule }

let met =
  let schedule ctx =
    scan ctx (fun task ->
        let best = ref (-1) and best_est = ref 0 in
        for i = 0 to Array.length ctx.pes - 1 do
          let st = ctx.pes.(i) in
          if st.idle then begin
            let est = ctx.estimate task i in
            if est <> unsupported && (!best < 0 || est < !best_est) then begin
              best := i;
              best_est := est
            end
          end
        done;
        !best)
  in
  { name = "MET"; schedule }

let eft =
  let schedule ctx =
    (* Virtual availability starts from the real PE state and advances
       as the pass commits or reserves tasks, so one invocation plans
       several tasks ahead.  A task whose earliest-finish PE is busy
       *reserves* it (pushing the availability horizon) and stays in
       the ready list — the "wait for the better PE" behaviour that
       distinguishes EFT from MET. *)
    let now = ctx.now in
    let avail = Array.map (fun st -> if st.idle then now else st.busy_until) ctx.pes in
    scan ctx (fun task ->
        let best = ref (-1) and best_finish = ref 0 in
        for i = 0 to Array.length ctx.pes - 1 do
          let st = ctx.pes.(i) in
          if st.available then begin
            let est = ctx.estimate task i in
            if est <> unsupported then begin
              let a = avail.(i) in
              let finish = (if a > now then a else now) + est in
              if !best < 0 || finish < !best_finish then begin
                best := i;
                best_finish := finish
              end
            end
          end
        done;
        if !best >= 0 then avail.(!best) <- !best_finish;
        !best)
  in
  { name = "EFT"; schedule }

let power =
  let schedule ctx =
    scan ctx (fun task ->
        let best = ref (-1) and best_energy = ref 0.0 and best_est = ref 0 in
        for i = 0 to Array.length ctx.pes - 1 do
          let st = ctx.pes.(i) in
          if st.idle then begin
            let est = ctx.estimate task i in
            (* Energy-to-completion for this task on this PE; ties
               broken by execution time. *)
            if est <> unsupported then begin
              let energy = float_of_int est *. Pe.busy_w st.pe.Pe.kind in
              if
                !best < 0 || energy < !best_energy || (energy = !best_energy && est < !best_est)
              then begin
                best := i;
                best_energy := energy;
                best_est := est
              end
            end
          end
        done;
        !best)
  in
  { name = "POWER"; schedule }

let random =
  let schedule ctx =
    let cand = Array.make (Array.length ctx.pes) 0 in
    scan ctx (fun task ->
        (* Candidates in descending PE order: the seeded draw indexes
           them that way. *)
        let n = ref 0 in
        for i = Array.length ctx.pes - 1 downto 0 do
          let st = ctx.pes.(i) in
          if st.idle && ctx.estimate task i <> unsupported then begin
            cand.(!n) <- i;
            incr n
          end
        done;
        if !n = 0 then -1 else cand.(Prng.int ctx.prng !n))
  in
  { name = "RANDOM"; schedule }

(* ------------------------------------------------------------------ *)
(* Registry                                                            *)
(* ------------------------------------------------------------------ *)

let registry : (string, policy) Hashtbl.t = Hashtbl.create 8

let register p = Hashtbl.replace registry (String.uppercase_ascii p.name) p

let () = List.iter register [ frfs; met; eft; random; power ]

let find name =
  match Hashtbl.find_opt registry (String.uppercase_ascii name) with
  | Some p -> Ok p
  | None ->
    Error
      (Printf.sprintf "unknown scheduling policy %S (available: %s)" name
         (String.concat ", "
            (Hashtbl.fold (fun k _ acc -> k :: acc) registry [] |> List.sort compare)))

let names () = Hashtbl.fold (fun k _ acc -> k :: acc) registry [] |> List.sort compare

(* ------------------------------------------------------------------ *)
(* Overhead model                                                      *)
(* ------------------------------------------------------------------ *)

let overhead_ns ~policy_name ~ready ~pes ~ops =
  let open Cost_model in
  let examined = min ready sched_examined_cap in
  let extra =
    match String.uppercase_ascii policy_name with
    | "FRFS" -> sched_frfs_per_pe_ns *. float_of_int pes
    | "RANDOM" -> sched_frfs_per_pe_ns *. float_of_int (pes + examined)
    | "MET" | "POWER" -> sched_met_per_task_ns *. float_of_int examined
    | "EFT" -> sched_eft_per_pair_ns *. float_of_int (examined * examined)
    | _ -> 60.0 *. float_of_int ops
  in
  int_of_float (Float.round (sched_base_ns +. extra))
