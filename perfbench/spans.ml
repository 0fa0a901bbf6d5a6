(* The traced run's span recorder: name, start, end and parent id around
   each call the benchmark makes into a layer. Each domain appends to its
   own buffer (no lock on the recording path); the buffers stay in memory
   until the run ends, when they are collected, reduced to per-name self
   times and written out. With [on] false, [enter] and [leave] cost one
   test. *)

let on = ref false

let names : (string, int) Hashtbl.t = Hashtbl.create 16
let name_list = ref [||]

(* Intern a span name. Call from the main domain at set-up, before any
   worker records. *)
let name s =
  match Hashtbl.find_opt names s with
  | Some i -> i
  | None ->
      let i = Hashtbl.length names in
      Hashtbl.add names s i;
      name_list := Array.append !name_list [| s |];
      i

let name_of i = !name_list.(i)

type buf = {
  dom : int;
  mutable data : int array;  (* stride 4: name, parent, start, stop *)
  mutable n : int;
  mutable stack : int list;  (* ids of this domain's open spans *)
}

let lock = Mutex.create ()
let bufs : buf list ref = ref []

let key =
  Domain.DLS.new_key (fun () ->
      Mutex.protect lock (fun () ->
          let b =
            { dom = List.length !bufs; data = Array.make 4096 0; n = 0; stack = [] }
          in
          bufs := b :: !bufs;
          b))

let id_bits = 32

(* Open a span; returns its id, or -1 when tracing is off. The parent is
   the innermost open span of this domain unless given. *)
let enter ?parent nm =
  if not !on then -1
  else begin
    let b = Domain.DLS.get key in
    let parent =
      match parent with
      | Some p -> p
      | None -> ( match b.stack with p :: _ -> p | [] -> -1)
    in
    if (4 * b.n) + 4 > Array.length b.data then begin
      let d = Array.make (2 * Array.length b.data) 0 in
      Array.blit b.data 0 d 0 (4 * b.n);
      b.data <- d
    end;
    let o = 4 * b.n in
    b.data.(o) <- nm;
    b.data.(o + 1) <- parent;
    b.data.(o + 2) <- Telemetry.Clock.now_ns ();
    b.data.(o + 3) <- -1;
    let id = (b.dom lsl id_bits) lor b.n in
    b.n <- b.n + 1;
    b.stack <- id :: b.stack;
    id
  end

let leave id =
  if id >= 0 then begin
    let b = Domain.DLS.get key in
    let i = id land ((1 lsl id_bits) - 1) in
    b.data.((4 * i) + 3) <- Telemetry.Clock.now_ns ();
    b.stack <- (match b.stack with _ :: r -> r | [] -> [])
  end

let with_span nm f =
  let id = enter nm in
  match f () with
  | v ->
      leave id;
      v
  | exception e ->
      leave id;
      raise e

type span = { sid : int; sname : int; sparent : int; t0 : int; t1 : int }

(* Every closed span recorded so far, across domains. *)
let collect () =
  Mutex.protect lock (fun () ->
      List.concat_map
        (fun b ->
          List.filter_map
            (fun i ->
              let o = 4 * i in
              if b.data.(o + 3) < 0 then None
              else
                Some
                  {
                    sid = (b.dom lsl id_bits) lor i;
                    sname = b.data.(o);
                    sparent = b.data.(o + 1);
                    t0 = b.data.(o + 2);
                    t1 = b.data.(o + 3);
                  })
            (List.init b.n Fun.id))
        !bufs)

(* A span's self time is its duration minus the part of its interval that
   its children cover (children may overlap each other, e.g. when they run
   on other domains). Returns, per span name: (count, total ns, self ns). *)
let self_times (spans : span list) =
  let kids = Hashtbl.create 1024 in
  List.iter
    (fun s -> if s.sparent >= 0 then Hashtbl.add kids s.sparent (s.t0, s.t1))
    spans;
  let acc = Hashtbl.create 16 in
  List.iter
    (fun s ->
      let ivs =
        List.sort compare
          (List.filter_map
             (fun (a, b) ->
               let a = max a s.t0 and b = min b s.t1 in
               if b > a then Some (a, b) else None)
             (Hashtbl.find_all kids s.sid))
      in
      let covered, _ =
        List.fold_left
          (fun (cov, reach) (a, b) ->
            if b <= reach then (cov, reach)
            else (cov + (b - max a reach), b))
          (0, min_int) ivs
      in
      let dur = s.t1 - s.t0 in
      let c, d, se =
        Option.value ~default:(0, 0, 0) (Hashtbl.find_opt acc s.sname)
      in
      Hashtbl.replace acc s.sname (c + 1, d + dur, se + (dur - covered)))
    spans;
  acc

(* One line per span: name, id, parent id, start ns, end ns. *)
let write path spans =
  let oc = open_out path in
  output_string oc "name\tid\tparent\tstart_ns\tend_ns\n";
  List.iter
    (fun s ->
      Printf.fprintf oc "%s\t%d\t%d\t%d\t%d\n" (name_of s.sname) s.sid
        s.sparent s.t0 s.t1)
    spans;
  close_out oc
