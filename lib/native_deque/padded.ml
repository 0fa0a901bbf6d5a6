(* see padded.mli for why 15 *)
let words = 15

(* The copy is made with Obj because a record type cannot declare unused
   trailing fields generically; field access compiles to a fixed offset
   and never reads past the declared fields, and [Atomic] operations touch
   field 0 only, so the padding is invisible to typed code. *)
let copy (r : 'a) : 'a =
  let o = Obj.repr r in
  if Obj.is_int o || Obj.tag o <> 0 then
    invalid_arg "Padded.copy: not a tag-0 block";
  let n = Obj.size o in
  let b = Obj.new_block 0 (n + words) in
  for i = 0 to n - 1 do
    Obj.set_field b i (Obj.field o i)
  done;
  for i = n to n + words - 1 do
    Obj.set_field b i (Obj.repr 0)
  done;
  Obj.obj b

let atomic v = copy (Atomic.make v)
