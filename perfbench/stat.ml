(* Exact order statistics over raw samples, and the per-request stage
   decomposition of the service workload. Nothing here buckets: every
   percentile is one of the recorded samples. *)

(* Nearest-rank percentile of a sorted array: the smallest sample with at
   least a fraction [p] of all samples at or below it. The epsilon keeps
   [p *. n] from rounding up past an exact rank (0.9 *. 10. = 9.000...1). *)
let rank_sorted a p =
  let n = Array.length a in
  if n = 0 then invalid_arg "Stat.rank_sorted: no samples";
  let k = int_of_float (Float.ceil ((p *. float_of_int n) -. 1e-9)) in
  a.(max 0 (min (n - 1) (k - 1)))

let sorted a =
  let c = Array.copy a in
  Array.sort compare c;
  c

let percentile a p = rank_sorted (sorted a) p

(* Median of a small sample set (passes, set-ups): the mean of the two
   middle values when the count is even. *)
let median (xs : float list) =
  match List.sort compare xs with
  | [] -> invalid_arg "Stat.median: no samples"
  | s ->
      let a = Array.of_list s in
      let n = Array.length a in
      if n land 1 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

(* Growable int buffer for raw samples recorded on a hot path. *)
module Ibuf = struct
  type t = { mutable a : int array; mutable n : int }

  let create () = { a = Array.make 1024 0; n = 0 }

  let add b x =
    if b.n = Array.length b.a then begin
      let a = Array.make (2 * b.n) 0 in
      Array.blit b.a 0 a 0 b.n;
      b.a <- a
    end;
    b.a.(b.n) <- x;
    b.n <- b.n + 1

  let to_array b = Array.sub b.a 0 b.n
end

(* One request's life on the benchmark's clock: due (its slot in the
   pre-drawn schedule), the submit call beginning, start of stage 1, end
   of the last stage. The three stages tile the sojourn, so the residual
   is 0 unless the decomposition itself is wrong. *)
type stages = {
  qwait : int array;  (** due -> submit call begins *)
  dispatch : int array;  (** submit call begins -> stage 1 starts *)
  service : int array;  (** stage 1 starts -> last stage ends *)
  sojourn : int array;  (** due -> last stage ends *)
  residual : int;  (** max |sojourn - (qwait + dispatch + service)| *)
}

(* Request [i]'s stamps were all written, in causal order: a stamp left
   at 0 or out of order means the load generator recorded the wrong
   instant. *)
let ordered ~due ~sub ~start ~fin i =
  0 < due.(i) && due.(i) <= sub.(i) && sub.(i) <= start.(i) && start.(i) <= fin.(i)

let stages ~due ~sub ~start ~fin =
  let n = Array.length due in
  let qwait = Array.init n (fun i -> sub.(i) - due.(i)) in
  let dispatch = Array.init n (fun i -> start.(i) - sub.(i)) in
  let service = Array.init n (fun i -> fin.(i) - start.(i)) in
  let sojourn = Array.init n (fun i -> fin.(i) - due.(i)) in
  let residual = ref 0 in
  for i = 0 to n - 1 do
    let r = sojourn.(i) - (qwait.(i) + dispatch.(i) + service.(i)) in
    residual := max !residual (abs r)
  done;
  { qwait; dispatch; service; sojourn; residual = !residual }
