(* Order statistics over small float samples. *)

let sorted a =
  let c = Array.copy a in
  Array.sort Float.compare c;
  c

let median a =
  let n = Array.length a in
  if n = 0 then nan
  else
    let s = sorted a in
    if n mod 2 = 1 then s.(n / 2) else (s.((n / 2) - 1) +. s.(n / 2)) /. 2.0

(* Nearest-rank quantile: the smallest value with at least [q] of the
   sample at or below it (the rule the serve report uses for its p95). *)
let nearest_rank q a =
  let n = Array.length a in
  if n = 0 then nan
  else
    let s = sorted a in
    s.(max 0 (int_of_float (Float.ceil (q *. float_of_int n)) - 1))

(* [nearest_rank] of integer nanoseconds, in milliseconds. *)
let quantile_ms q ns = nearest_rank q (Array.of_list (List.map (fun l -> float_of_int l /. 1e6) ns))

let mean a =
  let n = Array.length a in
  if n = 0 then nan else Array.fold_left ( +. ) 0.0 a /. float_of_int n

(* The drift-cancelling cost statistic: each pair is (reference-unit
   time, sample time) measured back to back in one process; the result
   is the median of the per-pair ratios.  A slowdown that lasts longer
   than one pair scales both halves and drops out. *)
let pair_ratio_median pairs = median (Array.map (fun (r, s) -> s /. r) pairs)
