module Config = Dssoc_soc.Config
module Host = Dssoc_soc.Host
module Fabric = Dssoc_soc.Fabric
module Obs = Dssoc_obs.Obs
module Core = Engine_core

type host_cores = { core_of_pe : int array; rate1 : float array }

let host_cores (config : Config.t) =
  let overlay = config.Config.host.Host.overlay in
  let core_list = ref [ overlay ] in
  let core_index (c : Host.core) =
    let rec go i = function
      | [] ->
        core_list := !core_list @ [ c ];
        i
      | (x : Host.core) :: tl -> if x.Host.core_id = c.Host.core_id then i else go (i + 1) tl
    in
    go 0 !core_list
  in
  let core_of_pe =
    Array.of_list
      (List.map (fun (p : Config.placement) -> core_index p.Config.host_core)
         config.Config.placements)
  in
  let rate1 =
    Array.map
      (fun (c : Host.core) ->
        float_of_int c.Host.quantum_ns
        /. (float_of_int c.Host.quantum_ns +. float_of_int c.Host.ctx_switch_ns))
      (Array.of_list !core_list)
  in
  { core_of_pe; rate1 }

(* Event kinds in the integer-encoded heap: (kind, a, b). *)
let ev_start = 0 (* a = thread *)
let ev_resume = 1 (* a = thread *)
let ev_core = 2 (* a = core or link, b = its version *)
let ev_deadline = 3 (* a = thread, b = suspension generation *)

type state = {
  (* ---- SoA event heap, (time, seq) ordered ---- *)
  mutable ht : int array;
  mutable hs : int array;
  mutable hk : int array;
  mutable ha : int array;
  mutable hb : int array;
  mutable hn : int;
  mutable hseq : int;
  (* ---- threads: one outstanding suspension and one condition each ---- *)
  w_gen : int array;
  w_resumed : bool array;
  w_pending : bool array;
  w_waiting : bool array;
  core_of_thread : int array;
  (* ---- processor sharing: host cores, then the fabric link ---- *)
  c_rate1 : float array;
  c_last : int array;
  c_version : int array;
  c_njobs : int array;
  c_rem : float array array;
  c_thr : int array array;
  c_fin : int array;
  (* ---- fabric link admission: at most one stream per PE, so n_pes
     bounds the stall queue ---- *)
  fab_fifo : int;
  counters : Core.fabric_counters;
  obs : Obs.t;
  stall_hist : Obs.Metrics.histogram option;
  occ : Obs.Metrics.gauge option;
  heap_gauge : Obs.Metrics.gauge option;
  fb_queue : int Queue.t;
  fb_qt0 : int array;
  fb_qdem : int array;
  fb_qbytes : int array;
}

type t = { mutable now : int; st : state }

let create ~obs ~clock0 (hc : host_cores) (fabric : Fabric.t) =
  let n_pes = Array.length hc.core_of_pe in
  let n_thr = n_pes + 1 in
  let n_res = Array.length hc.rate1 + 1 in
  let cap = 1024 in
  let metrics = Obs.metrics obs in
  let bus_metric f = match fabric with Fabric.Bus _ -> Option.map f metrics | Fabric.Ideal -> None in
  (* Stall histogram before occupancy gauge, then the heap gauge:
     [Metrics.pp] order is part of the cross-engine parity contract. *)
  let stall_hist = bus_metric (fun m -> Obs.Metrics.histogram m "fabric_stall_ns") in
  let occ = bus_metric (fun m -> Obs.Metrics.gauge m "fabric_occupancy") in
  let heap_gauge = Option.map (fun m -> Obs.Metrics.gauge m "event_heap_depth") metrics in
  let per_pe v = Array.make (max 1 n_pes) v in
  {
    now = clock0;
    st =
      {
        ht = Array.make cap 0;
        hs = Array.make cap 0;
        hk = Array.make cap 0;
        ha = Array.make cap 0;
        hb = Array.make cap 0;
        hn = 0;
        hseq = 0;
        w_gen = Array.make n_thr 0;
        w_resumed = Array.make n_thr true;
        w_pending = Array.make n_thr false;
        w_waiting = Array.make n_thr false;
        core_of_thread = Array.append hc.core_of_pe [| 0 |];
        c_rate1 = Array.append hc.rate1 [| 1.0 |];
        c_last = Array.make n_res 0;
        c_version = Array.make n_res 0;
        c_njobs = Array.make n_res 0;
        c_rem = Array.init n_res (fun _ -> Array.make n_thr 0.0);
        c_thr = Array.init n_res (fun _ -> Array.make n_thr (-1));
        c_fin = Array.make n_thr (-1);
        fab_fifo = (match fabric with Fabric.Bus b -> b.Fabric.fifo_depth | Fabric.Ideal -> max_int);
        counters = Core.make_fabric_counters ();
        obs;
        stall_hist;
        occ;
        heap_gauge;
        fb_queue = Queue.create ();
        fb_qt0 = per_pe 0;
        fb_qdem = per_pe 0;
        fb_qbytes = per_pe 0;
      };
  }

let wm d = Array.length d.st.w_gen - 1
let pending_events d = d.st.hn
let fabric_counters d = d.st.counters

let sample_depth d =
  match d.st.heap_gauge with
  | Some g -> Obs.Metrics.set g ~t_ns:d.now d.st.hn
  | None -> ()

(* ------------------------------------------------------------------ *)
(* Event heap                                                          *)
(* ------------------------------------------------------------------ *)

let hless s i j =
  let ti = s.ht.(i) and tj = s.ht.(j) in
  ti < tj || (ti = tj && s.hs.(i) < s.hs.(j))

let hswap s i j =
  let t = s.ht.(i) in
  s.ht.(i) <- s.ht.(j);
  s.ht.(j) <- t;
  let t = s.hs.(i) in
  s.hs.(i) <- s.hs.(j);
  s.hs.(j) <- t;
  let t = s.hk.(i) in
  s.hk.(i) <- s.hk.(j);
  s.hk.(j) <- t;
  let t = s.ha.(i) in
  s.ha.(i) <- s.ha.(j);
  s.ha.(j) <- t;
  let t = s.hb.(i) in
  s.hb.(i) <- s.hb.(j);
  s.hb.(j) <- t

let hgrow s =
  let ncap = 2 * Array.length s.ht in
  let g a =
    let n = Array.make ncap 0 in
    Array.blit a 0 n 0 s.hn;
    n
  in
  s.ht <- g s.ht;
  s.hs <- g s.hs;
  s.hk <- g s.hk;
  s.ha <- g s.ha;
  s.hb <- g s.hb

let push d t k a b =
  let s = d.st in
  let t = if t < d.now then d.now else t in
  if s.hn = Array.length s.ht then hgrow s;
  let i = s.hn in
  s.ht.(i) <- t;
  s.hs.(i) <- s.hseq;
  s.hk.(i) <- k;
  s.ha.(i) <- a;
  s.hb.(i) <- b;
  s.hseq <- s.hseq + 1;
  s.hn <- s.hn + 1;
  let i = ref i in
  let continue_ = ref true in
  while !continue_ && !i > 0 do
    let parent = (!i - 1) / 2 in
    if hless s !i parent then begin
      hswap s !i parent;
      i := parent
    end
    else continue_ := false
  done

let sift_down s =
  let i = ref 0 in
  let continue_ = ref true in
  while !continue_ do
    let l = (2 * !i) + 1 and r = (2 * !i) + 2 in
    let smallest = ref !i in
    if l < s.hn && hless s l !smallest then smallest := l;
    if r < s.hn && hless s r !smallest then smallest := r;
    if !smallest <> !i then begin
      hswap s !i !smallest;
      i := !smallest
    end
    else continue_ := false
  done

(* ------------------------------------------------------------------ *)
(* Threads                                                             *)
(* ------------------------------------------------------------------ *)

let resume_thread d th =
  let s = d.st in
  if not s.w_resumed.(th) then begin
    s.w_resumed.(th) <- true;
    push d d.now ev_resume th 0
  end

let suspend s th =
  s.w_resumed.(th) <- false;
  s.w_gen.(th) <- s.w_gen.(th) + 1

let spawn d th = push d d.now ev_start th 0

let sleep d th ns =
  if ns <= 0 then false
  else begin
    suspend d.st th;
    push d (d.now + ns) ev_deadline th d.st.w_gen.(th);
    true
  end

let await d ?deadline th =
  let s = d.st in
  if s.w_pending.(th) then begin
    s.w_pending.(th) <- false;
    false
  end
  else begin
    s.w_waiting.(th) <- true;
    suspend s th;
    (match deadline with
    | Some t -> push d t ev_deadline th s.w_gen.(th)
    | None -> ());
    true
  end

let signal d th =
  let s = d.st in
  if s.w_waiting.(th) then begin
    s.w_waiting.(th) <- false;
    resume_thread d th
  end
  else s.w_pending.(th) <- true

let deadline_event d th gen =
  let s = d.st in
  if gen = s.w_gen.(th) && not s.w_resumed.(th) then begin
    s.w_waiting.(th) <- false;
    resume_thread d th
  end

(* ------------------------------------------------------------------ *)
(* Processor sharing: the host cores and the fabric link               *)
(* ------------------------------------------------------------------ *)

(* Per-job progress rate on a resource with k active jobs: fair share
   1/k, discounted by the round-robin efficiency quantum/(quantum+switch)
   when a host core is contended.  This is the mechanism behind the
   paper's 2Core+2FFT observation (two accelerator manager threads
   "cyclically preempting each other" on one core).  The fabric link is
   the last resource, with factor 1: an arbitrated bus has no
   context-switch discount. *)
let job_rate s c k = if k <= 1 then 1.0 else s.c_rate1.(c) /. float_of_int k

let link s = Array.length s.c_rate1 - 1

let update_core d c =
  let s = d.st in
  let elapsed = d.now - s.c_last.(c) in
  if elapsed > 0 then begin
    let k = s.c_njobs.(c) in
    if k > 0 then begin
      let progress = float_of_int elapsed *. job_rate s c k in
      let rem = s.c_rem.(c) in
      for j = 0 to k - 1 do
        rem.(j) <- rem.(j) -. progress
      done
    end;
    s.c_last.(c) <- d.now
  end

(* One completion event per resource, re-armed (and the previous one
   invalidated) whenever its job set changes. *)
let reschedule_core d c =
  let s = d.st in
  s.c_version.(c) <- s.c_version.(c) + 1;
  let k = s.c_njobs.(c) in
  if k > 0 then begin
    let rate = job_rate s c k in
    let rem = s.c_rem.(c) in
    let mn = ref Float.infinity in
    for j = 0 to k - 1 do
      mn := Float.min !mn rem.(j)
    done;
    let dt = int_of_float (Float.ceil (Float.max 0.0 !mn /. rate)) in
    push d (d.now + dt) ev_core c s.c_version.(c)
  end

let add_job s c th ns =
  let k = s.c_njobs.(c) in
  s.c_rem.(c).(k) <- float_of_int ns;
  s.c_thr.(c).(k) <- th;
  s.c_njobs.(c) <- k + 1

let work d th ns =
  if ns <= 0 then false
  else begin
    let s = d.st in
    let c = s.core_of_thread.(th) in
    suspend s th;
    update_core d c;
    add_job s c th ns;
    reschedule_core d c;
    true
  end

(* A stream takes a link slot: count it and report its stall. *)
let admit d th ns bytes ~stall_ns =
  let s = d.st in
  let l = link s in
  add_job s l th ns;
  let c = s.counters in
  c.Core.fc_stall_ns <- c.Core.fc_stall_ns + stall_ns;
  if s.c_njobs.(l) > c.Core.fc_max_inflight then c.Core.fc_max_inflight <- s.c_njobs.(l);
  (match s.stall_hist with
  | Some h when stall_ns > 0 -> Obs.Metrics.observe h (float_of_int stall_ns)
  | _ -> ());
  if Obs.enabled s.obs then
    Obs.on_stream_admitted s.obs ~now:d.now ~pe_index:th ~bytes ~stall_ns
      ~inflight:s.c_njobs.(l)

let set_occupancy d =
  match d.st.occ with
  | Some g -> Obs.Metrics.set g ~t_ns:d.now d.st.c_njobs.(link d.st)
  | None -> ()

(* Admission is inline (no event) and a full FIFO enqueues with no
   event; only completions re-arm the link. *)
let stream d th ~bytes ns =
  if ns <= 0 then false
  else begin
    let s = d.st in
    let l = link s in
    suspend s th;
    let c = s.counters in
    c.Core.fc_streams <- c.Core.fc_streams + 1;
    if s.c_njobs.(l) < s.fab_fifo then begin
      update_core d l;
      admit d th ns bytes ~stall_ns:0;
      set_occupancy d;
      reschedule_core d l
    end
    else begin
      c.Core.fc_stalls <- c.Core.fc_stalls + 1;
      if Obs.enabled s.obs then
        Obs.on_stream_stalled s.obs ~now:d.now ~pe_index:th ~bytes
          ~queued:(Queue.length s.fb_queue + 1);
      s.fb_qt0.(th) <- d.now;
      s.fb_qdem.(th) <- ns;
      s.fb_qbytes.(th) <- bytes;
      Queue.add th s.fb_queue
    end;
    true
  end

(* Finished jobs leave in arrival order, the rest compact in place;
   their threads resume after the resource is re-armed.  On the link,
   freed slots first admit queued streams FIFO: one re-arm covers the
   whole admission batch. *)
let core_event d c v =
  let s = d.st in
  if v = s.c_version.(c) then begin
    update_core d c;
    let k = s.c_njobs.(c) in
    let rem = s.c_rem.(c) and thr = s.c_thr.(c) in
    let nf = ref 0 and w = ref 0 in
    for j = 0 to k - 1 do
      if rem.(j) <= 1e-6 then begin
        s.c_fin.(!nf) <- thr.(j);
        incr nf
      end
      else begin
        rem.(!w) <- rem.(j);
        thr.(!w) <- thr.(j);
        incr w
      end
    done;
    s.c_njobs.(c) <- !w;
    if c = link s then begin
      while (not (Queue.is_empty s.fb_queue)) && s.c_njobs.(c) < s.fab_fifo do
        let th = Queue.pop s.fb_queue in
        admit d th s.fb_qdem.(th) s.fb_qbytes.(th) ~stall_ns:(d.now - s.fb_qt0.(th))
      done;
      set_occupancy d
    end;
    reschedule_core d c;
    for j = 0 to !nf - 1 do
      resume_thread d s.c_fin.(j)
    done
  end

(* ------------------------------------------------------------------ *)
(* The event loop                                                      *)
(* ------------------------------------------------------------------ *)

let run d ~start ~resume =
  let s = d.st in
  while s.hn > 0 do
    let t = s.ht.(0) and k = s.hk.(0) and a = s.ha.(0) and b = s.hb.(0) in
    s.hn <- s.hn - 1;
    if s.hn > 0 then begin
      hswap s 0 s.hn;
      sift_down s
    end;
    if t > d.now then d.now <- t;
    if k = ev_resume then resume a
    else if k = ev_core then core_event d a b
    else if k = ev_deadline then deadline_event d a b
    else start a
  done
