(* One region per allocation: a scalar cell or a whole array. Cell names are
   formatted on demand from the region holding the cell, so allocating an
   array costs one fill, not one formatted string per element. *)
type region = {
  start : int;  (* index of the region's first cell *)
  tag : string;
  indexed : bool;  (* an array: its cells are named [tag[i]] *)
}

type t = {
  mutable cells : int array;
  mutable used : int;
  (* allocation order, so [start]s ascend; spare slots are filler *)
  mutable regions : region array;
  mutable n_regions : int;
}

let no_region = { start = 0; tag = ""; indexed = false }

let create () =
  { cells = Array.make 64 0; used = 0; regions = [||]; n_regions = 0 }

let ensure_capacity t n =
  if n > Array.length t.cells then begin
    let cells = Array.make (max n (2 * Array.length t.cells)) 0 in
    Array.blit t.cells 0 cells 0 t.used;
    t.cells <- cells
  end

let add_region t ~tag ~indexed ~len =
  ensure_capacity t (t.used + len);
  let k = t.n_regions in
  if k = Array.length t.regions then begin
    let grown = Array.make (max 8 (2 * k)) no_region in
    Array.blit t.regions 0 grown 0 k;
    t.regions <- grown
  end;
  let start = t.used in
  t.regions.(k) <- { start; tag; indexed };
  t.n_regions <- k + 1;
  t.used <- start + len;
  start

let alloc t ~name ~init =
  let a = add_region t ~tag:name ~indexed:false ~len:1 in
  t.cells.(a) <- init;
  Addr.of_index a

let alloc_array t ~name ~len ~init =
  assert (len > 0);
  let base = add_region t ~tag:name ~indexed:true ~len in
  Array.fill t.cells base len init;
  Addr.of_index base

let check t a =
  let i = Addr.to_index a in
  if i < 0 || i >= t.used then
    invalid_arg (Printf.sprintf "Memory: address %d out of bounds (size %d)" i t.used);
  i

let get t a = t.cells.(check t a)
let set t a v = t.cells.(check t a) <- v
let size t = t.used

(* The last region starting at or before cell [i] (0 <= i < used). *)
let region_of t i =
  let lo = ref 0 and hi = ref (t.n_regions - 1) in
  while !lo < !hi do
    let mid = (!lo + !hi + 1) / 2 in
    if t.regions.(mid).start <= i then lo := mid else hi := mid - 1
  done;
  t.regions.(!lo)

let cell_name t i =
  let r = region_of t i in
  if r.indexed then Printf.sprintf "%s[%d]" r.tag (i - r.start) else r.tag

let name t a = cell_name t (check t a)
let snapshot t = Array.sub t.cells 0 t.used

let blit_to t dst =
  if Array.length dst < t.used then
    invalid_arg "Memory.blit_to: destination too small";
  Array.blit t.cells 0 dst 0 t.used

let restore_from t src ~len =
  if len <> t.used then invalid_arg "Memory.restore_from: size mismatch";
  Array.blit src 0 t.cells 0 len

let cell t i =
  if i < 0 || i >= t.used then invalid_arg "Memory.cell: index out of bounds";
  t.cells.(i)

let pp ppf t =
  Format.fprintf ppf "@[<v>";
  for i = 0 to t.used - 1 do
    Format.fprintf ppf "%s = %d@," (cell_name t i) t.cells.(i)
  done;
  Format.fprintf ppf "@]"
