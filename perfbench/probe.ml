(* Single-domain probes of one layer each, for the traced run. They call
   the public interfaces directly, so a probe's time is that layer's own
   cost with nothing else on the path. *)

open Tso

let words () = Gc.minor_words ()

(* Words one [words ()] pair costs by itself (the boxed float results). *)
let words_bias =
  lazy
    (let w0 = words () in
     let w1 = words () in
     w1 -. w0)

let words_between w0 = words () -. w0 -. Lazy.force words_bias

(* Machine layer, on the states the explorer visits: walk each scenario
   from a fresh instance to quiescence along seeded random choices,
   timing the steps (enabled-set refill + [Machine.apply]) and their
   allocation, [Machine.fingerprint] at every state, and
   [Machine.restore_into] of snapshots taken along the walk. *)
let machine (r : Common.report) ~seed ~walks
    (specs : Ws_harness.Scenarios.spec list) =
  let rng = Random.State.make [| seed; 0x6d61 |] in
  let buf = Machine.tbuf_create () in
  let step_ns = ref 0 and steps = ref 0 and step_words = ref 0.0 in
  let fp_ns = ref 0 and fps = ref 0 in
  let rs_ns = ref 0 and restores = ref 0 in
  let sink = ref 0 in
  for w = 1 to walks do
    let spec = List.nth specs (w mod List.length specs) in
    let fresh () =
      let inst = Ws_harness.Scenarios.instance spec () in
      Machine.set_record_responses inst.Explore.machine true;
      inst.Explore.machine
    in
    let m = fresh () in
    let snaps = ref [] in
    let continue = ref true in
    while !continue do
      (* fingerprint this state, 16 times to lift it above clock reads *)
      let t0 = Telemetry.Clock.now_ns () in
      for _ = 1 to 16 do
        sink := !sink lxor Machine.fingerprint m
      done;
      fp_ns := !fp_ns + (Telemetry.Clock.now_ns () - t0);
      fps := !fps + 16;
      if !steps mod 8 = 0 then begin
        let s = Machine.snapshot_create () in
        Machine.snapshot m s;
        snaps := s :: !snaps
      end;
      let w0 = words () in
      let t0 = Telemetry.Clock.now_ns () in
      let n = Machine.enabled_into m buf in
      if n = 0 then continue := false
      else Machine.apply m (Machine.tbuf_get buf (Random.State.int rng n));
      let t1 = Telemetry.Clock.now_ns () in
      if n > 0 then begin
        step_ns := !step_ns + (t1 - t0);
        step_words := !step_words +. words_between w0;
        incr steps
      end
    done;
    List.iter
      (fun s ->
        let target = fresh () in
        let t0 = Telemetry.Clock.now_ns () in
        Machine.restore_into s target;
        rs_ns := !rs_ns + (Telemetry.Clock.now_ns () - t0);
        incr restores)
      !snaps
  done;
  ignore (Sys.opaque_identity !sink);
  let per a b = if b = 0 then 0.0 else float_of_int a /. float_of_int b in
  Common.set r "machine.step_ns" (per !step_ns !steps);
  Common.set r "machine.words_per_step"
    (if !steps = 0 then 0.0 else !step_words /. float_of_int !steps);
  Common.set r "machine.fingerprint_ns" (per !fp_ns !fps);
  Common.set r "machine.restore_ns" (per !rs_ns !restores)

(* Deque layer: one domain through the public Chase-Lev interface, so
   every operation takes its uncontended path. *)
let deque (r : Common.report) ~ops =
  let q = Ws_native.Chase_lev.create () in
  let sink = ref 0 in
  let t0 = Telemetry.Clock.now_ns () in
  for i = 1 to ops do
    Ws_native.Chase_lev.push q i;
    match Ws_native.Chase_lev.pop q with
    | Some v -> sink := !sink + v
    | None -> ()
  done;
  let t1 = Telemetry.Clock.now_ns () in
  for i = 1 to ops do
    Ws_native.Chase_lev.push q i
  done;
  let t2 = Telemetry.Clock.now_ns () in
  for _ = 1 to ops do
    match Ws_native.Chase_lev.steal q with
    | Some v -> sink := !sink + v
    | None -> ()
  done;
  let t3 = Telemetry.Clock.now_ns () in
  ignore (Sys.opaque_identity !sink);
  Common.check r
    ~ok:(Ws_native.Chase_lev.size q = 0)
    "deque probe: steals left elements behind";
  Common.set r "deque.push_pop_ns" (float_of_int (t1 - t0) /. float_of_int ops);
  Common.set r "deque.steal_ns" (float_of_int (t3 - t2) /. float_of_int ops)
