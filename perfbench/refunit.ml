(* The reference unit: a fixed, emulator-shaped piece of host work run
   right before every timed sample, so that a sample's cost can be
   expressed as a ratio to it.  A co-tenant that slows the core slows
   both halves of the pair alike, and the ratio cancels the drift.

   It mixes what the emulator spends its time on — small-record
   allocation, hashtable and map updates, sorting and float math — in
   blocks of [block] records.  Every block is garbage before the next
   one starts, so a minor collection during the unit promotes at most
   one block and the unit leaves no live data behind: it adds no
   major-GC work to the sample that follows. *)

type item = { id : int; key : float; mutable hits : int }

module Int_map = Map.Make (Int)

let block = 64

let blocks = 320

let run_block salt =
  let items =
    Array.init block (fun i ->
        let h = ((i * 2654435761) + (salt * 40503)) land 0xffff in
        { id = i; key = float_of_int h /. 65536.0; hits = 0 })
  in
  let tbl = Hashtbl.create block in
  Array.iter (fun it -> Hashtbl.replace tbl it.id it) items;
  let map =
    Array.fold_left (fun m it -> Int_map.add ((it.id * 37) mod block) it m) Int_map.empty items
  in
  Array.sort (fun a b -> Float.compare a.key b.key) items;
  let acc = ref 0.0 in
  Array.iteri
    (fun rank it ->
      (match Hashtbl.find_opt tbl ((rank * 13) mod block) with
      | Some other -> other.hits <- other.hits + 1
      | None -> ());
      acc := !acc +. (sqrt it.key *. exp (-.it.key)) +. (float_of_int rank *. 1e-3))
    items;
  let hits = Int_map.fold (fun _ it n -> n + it.hits) map 0 in
  hits + int_of_float (!acc *. 1000.0)

let run () =
  let acc = ref 0 in
  for b = 1 to blocks do
    acc := !acc lxor run_block b
  done;
  !acc
