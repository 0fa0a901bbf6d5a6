type model =
  | Abstract
  | Realistic of { coalesce : bool }
  | Pso

(* The buffer proper is a ring of [capacity] slots held in two int arrays
   (address index, value), oldest entry at [head]: a store issues without
   allocating and forwarding scans plain ints. *)
type t = {
  capacity : int;
  model : model;
  addrs : int array;
  vals : int array;
  mutable head : int;
  mutable len : int;
  mutable egress : (Addr.t * int) option;
}

let create ~capacity ~model =
  if capacity < 1 then invalid_arg "Store_buffer.create: capacity must be >= 1";
  {
    capacity;
    model;
    addrs = Array.make capacity 0;
    vals = Array.make capacity 0;
    head = 0;
    len = 0;
    egress = None;
  }

let capacity t = t.capacity
let model t = t.model
let entries t = t.len
let pending t = t.len + (match t.egress with None -> 0 | Some _ -> 1)
let is_empty t = pending t = 0
let is_full t = t.len >= t.capacity

(* Ring slot of the [k]-th oldest entry (0 <= k < capacity). *)
let[@inline] slot t k =
  let i = t.head + k in
  if i >= t.capacity then i - t.capacity else i

let push t a v =
  if is_full t then invalid_arg "Store_buffer.push: buffer full";
  let i = slot t t.len in
  t.addrs.(i) <- Addr.to_index a;
  t.vals.(i) <- v;
  t.len <- t.len + 1

(* Slot of the newest entry for address index [a] among the [k + 1]
   oldest, or -1. Top-level, so a scan allocates no closure. *)
let rec find_newest t a k =
  if k < 0 then -1
  else
    let i = slot t k in
    if t.addrs.(i) = a then i else find_newest t a (k - 1)

(* B holds the oldest pending store, so it only matters when the buffer
   proper has no match. *)
let lookup t a =
  let i = find_newest t (Addr.to_index a) (t.len - 1) in
  if i >= 0 then Some t.vals.(i)
  else
    match t.egress with
    | Some (a', v) when Addr.equal a a' -> Some v
    | _ -> None

let read t mem a =
  let i = find_newest t (Addr.to_index a) (t.len - 1) in
  if i >= 0 then t.vals.(i)
  else
    match t.egress with
    | Some (a', v) when Addr.equal a a' -> v
    | _ -> Memory.get mem a

type drain_result =
  | Wrote of Addr.t * int
  | Staged of Addr.t * int
  | Coalesced of Addr.t * int

let oldest t =
  if t.len = 0 then None
  else Some (Addr.of_index t.addrs.(t.head), t.vals.(t.head))

let can_drain t =
  t.len > 0
  &&
  match t.model with
  | Abstract | Pso -> true
  | Realistic { coalesce } -> (
      match t.egress with
      | None -> true
      | Some (a', _) -> coalesce && Addr.to_index a' = t.addrs.(t.head))

(* Remove the [k]-th oldest entry, keeping the others in order. *)
let delete t k =
  if k = 0 then t.head <- slot t 1
  else
    for j = k to t.len - 2 do
      let dst = slot t j and src = slot t (j + 1) in
      t.addrs.(dst) <- t.addrs.(src);
      t.vals.(dst) <- t.vals.(src)
    done;
  t.len <- t.len - 1

let drain t mem =
  if not (can_drain t) then invalid_arg "Store_buffer.drain: not enabled";
  let a = Addr.of_index t.addrs.(t.head) and v = t.vals.(t.head) in
  delete t 0;
  match t.model with
  | Abstract | Pso ->
      Memory.set mem a v;
      Wrote (a, v)
  | Realistic _ -> (
      match t.egress with
      | None ->
          t.egress <- Some (a, v);
          Staged (a, v)
      | Some (a', _) ->
          assert (Addr.equal a a');
          t.egress <- Some (a, v);
          Coalesced (a, v))

let fold_entries t f acc =
  let acc = ref acc in
  for k = 0 to t.len - 1 do
    let i = slot t k in
    acc := f !acc (Addr.of_index t.addrs.(i)) t.vals.(i)
  done;
  !acc

(* PSO: one drain lane per address with pending stores; lanes are address
   indices, so they are stable across replays of a schedule. *)
let drain_lanes t =
  match t.model with
  | Abstract | Realistic _ -> if can_drain t then [ 0 ] else []
  | Pso ->
      fold_entries t (fun acc a _ -> Addr.to_index a :: acc) []
      |> List.sort_uniq compare

let drain_lane t lane mem =
  match t.model with
  | Abstract | Realistic _ ->
      if lane <> 0 then invalid_arg "Store_buffer.drain_lane: bad lane";
      drain t mem
  | Pso ->
      (* remove the oldest entry whose address is [lane] *)
      let rec first k =
        if k >= t.len then
          invalid_arg "Store_buffer.drain_lane: lane has no pending store"
        else if t.addrs.(slot t k) = lane then k
        else first (k + 1)
      in
      let k = first 0 in
      let a = Addr.of_index t.addrs.(slot t k) and v = t.vals.(slot t k) in
      delete t k;
      Memory.set mem a v;
      Wrote (a, v)

let can_flush_egress t = Option.is_some t.egress

let flush_egress t mem =
  match t.egress with
  | None -> invalid_arg "Store_buffer.flush_egress: B is empty"
  | Some (a, v) ->
      t.egress <- None;
      Memory.set mem a v;
      (a, v)

let egress_entry t = t.egress

let clear t =
  t.head <- 0;
  t.len <- 0;
  t.egress <- None

let set_egress t e = t.egress <- e
let buffered t = List.rev (fold_entries t (fun acc a v -> (a, v) :: acc) [])

let iter_entries t f =
  for k = 0 to t.len - 1 do
    let i = slot t k in
    f (Addr.of_index t.addrs.(i)) t.vals.(i)
  done

let to_list t =
  let tail = buffered t in
  match t.egress with None -> tail | Some e -> e :: tail

let pp mem ppf t =
  let pp_entry ppf (a, v) =
    Format.fprintf ppf "%s:=%d" (Memory.name mem a) v
  in
  Format.fprintf ppf "[%a]"
    (Format.pp_print_list ~pp_sep:(fun ppf () -> Format.fprintf ppf "; ") pp_entry)
    (to_list t)
