(* native-service: the request shape of `wsrepro native` (a chain of 4
   dependent stages of 2000 spins each) submitted from outside the pool,
   so the path is external [Pool.submit] -> injector -> park/wake, with one
   worker domain and no steals. Three phases:
   - svc_lo, an open loop at 10k requests/s (the worker parks between
     arrivals);
   - svc_hi, the same open loop at [hi_rate] (requests queue);
   - svc_sat, a closed loop with [inflight] requests outstanding.
   The open-loop generator is the benchmark's own: Poisson schedules pre-drawn
   from the workload seed, a sleep-then-spin generator, and every request
   timed from its due time on the monotonic clock. *)

module Pool = Ws_native.Pool

let chain = 4
let work = 2000
let lo_rate = 10_000.0
(* Requests queue at this rate. The closed loop's capacity is 140-230k
   requests/s on a 2-vCPU x86_64 VM, but while the generator spins on the
   second vCPU the host stalls either thread for milliseconds: at 60k/s
   the injector holds hundreds of requests after a stall (p50 sojourn about
   1 ms) and drains them; at 100k/s the backlog grew through whole phases. *)
let hi_rate = 60_000.0
let inflight = 64
let sat_batch = 20_000

let spin_work iters =
  let x = ref 0 in
  for i = 1 to iters do
    x := !x + i
  done;
  ignore (Sys.opaque_identity !x)

let sp_phase = Spans.name "svc.phase"
let sp_submit = Spans.name "pool.submit"

(* One phase's requests: schedule offsets plus the four stamps, the
   generator's own timings, and the per-request completion flag. *)
type phase = {
  offset : int array;  (** due time relative to the phase start, ns *)
  due : int array;
  sub : int array;  (** the submit call began *)
  start : int array;
  fin : int array;
  runs : int array;  (** times the last stage ran: must end at 1 *)
  late : int array;  (** generator lateness: submit began - due *)
  submit_ns : int array;
  completed : int Atomic.t;
  mutable depth_max : int;
}

let phase_of offset =
  let n = Array.length offset in
  let z () = Array.make n 0 in
  {
    offset;
    due = z ();
    sub = z ();
    start = z ();
    fin = z ();
    runs = z ();
    late = z ();
    submit_ns = z ();
    completed = Atomic.make 0;
    depth_max = 0;
  }

(* Poisson arrivals at [rate]/s for [seconds], drawn from the seed. *)
let schedule ~seed ~tag ~rate ~seconds =
  let rng = Random.State.make [| seed; tag |] in
  let n = max 1 (int_of_float (rate *. seconds)) in
  let t = ref 0.0 in
  Array.init n (fun _ ->
      t := !t +. (-.log (1.0 -. Random.State.float rng 1.0) /. rate);
      int_of_float (!t *. 1e9))

let rec stage pool (p : phase) i k () =
  if k = 1 then p.start.(i) <- Telemetry.Clock.now_ns ();
  spin_work work;
  if k < chain then Pool.spawn pool (stage pool p i (k + 1))
  else begin
    p.fin.(i) <- Telemetry.Clock.now_ns ();
    p.runs.(i) <- p.runs.(i) + 1;
    Atomic.incr p.completed
  end

let submit pool (p : phase) (r : Common.report) i ~parent =
  let s0 = Telemetry.Clock.now_ns () in
  p.sub.(i) <- s0;
  p.late.(i) <- s0 - p.due.(i);
  let sp = Spans.enter ~parent sp_submit in
  let ok = Pool.submit pool (stage pool p i 1) in
  Spans.leave sp;
  let s1 = Telemetry.Clock.now_ns () in
  p.submit_ns.(i) <- s1 - s0;
  p.depth_max <- max p.depth_max (Pool.injector_depth pool);
  if not ok then Common.attempt r ~ok:false (Printf.sprintf "request %d refused" i)

(* Wait for every submitted request, then check each completed exactly
   once with its stamps written in order. A request still missing after
   10 s counts as lost. *)
let finish (p : phase) (r : Common.report) ~name =
  let n = Array.length p.offset in
  let deadline = Common.now_s () +. 10.0 in
  while Atomic.get p.completed < n && Common.now_s () < deadline do
    Domain.cpu_relax ()
  done;
  Array.iteri
    (fun i c ->
      let ok = c = 1 && Stat.ordered ~due:p.due ~sub:p.sub ~start:p.start ~fin:p.fin i in
      Common.attempt r ~ok
        (if ok then ""
         else
           Printf.sprintf "%s request %d completed %d times, stamps %d %d %d %d" name i c
             p.due.(i) p.sub.(i) p.start.(i) p.fin.(i)))
    p.runs

(* Open loop: each request is submitted at its due time whatever the
   pool is doing. Sleep while the next arrival is far off (a sleep can
   oversleep by milliseconds), then spin the rest of the way. *)
let open_loop pool (p : phase) r ~name =
  let parent = Spans.enter sp_phase in
  let t0 = Telemetry.Clock.now_ns () + 1_000_000 in
  Array.iteri
    (fun i off ->
      let due = t0 + off in
      p.due.(i) <- due;
      let rem = due - Telemetry.Clock.now_ns () in
      if rem > 2_000_000 then Unix.sleepf (float_of_int (rem - 1_000_000) *. 1e-9);
      while Telemetry.Clock.now_ns () < due do
        Domain.cpu_relax ()
      done;
      submit pool p r i ~parent)
    p.offset;
  finish p r ~name;
  Spans.leave parent

(* Closed loop: keep up to [inflight] requests outstanding; each is due
   the moment the loop can submit it. The submitter sleeps while the
   window is full rather than spin, so the worker runs alone: [inflight]
   requests outlast the sleep, and the worker never runs dry. *)
let closed_loop pool (p : phase) r =
  let parent = Spans.enter sp_phase in
  let n = Array.length p.offset in
  for i = 0 to n - 1 do
    while i - Atomic.get p.completed >= inflight do
      Unix.sleepf 50e-6
    done;
    p.due.(i) <- Telemetry.Clock.now_ns ();
    submit pool p r i ~parent
  done;
  finish p r ~name:"svc_sat";
  Spans.leave parent

let sessions = 20

(* Set-up of one session: a fresh pool (its worker domain spawned) and a
   closed-loop warm-up batch, whose requests are checked like the rest. *)
let setup r () =
  let pool = Pool.create ~domains:1 ~backend:Pool.Chase_lev_deques () in
  closed_loop pool (phase_of (Array.make 5000 0)) r;
  pool

(* The window is spread over [sessions] fresh pools, since a pool's speed
   depends on where its hot fields land relative to cache lines. Each
   session runs svc_lo, svc_hi, then svc_sat batches for the rest of its
   share of the window. The pools' svc_sat rates fall in two modes (about
   140k and 230k requests/s on a 2-vCPU VM), so the reported rate is the
   mean over the sessions of each session's median batch: it moves in
   proportion to the share of fast pools, where a median over all batches
   jumps between the modes. *)
let run (ctx : Common.ctx) (r : Common.report) =
  let share = ctx.seconds /. float_of_int sessions in
  let plans =
    List.init sessions (fun k ->
        Common.timed (fun () ->
            ( phase_of
                (schedule ~seed:ctx.seed ~tag:(2 * k) ~rate:lo_rate ~seconds:(0.35 *. share)),
              phase_of
                (schedule ~seed:ctx.seed ~tag:((2 * k) + 1) ~rate:hi_rate
                   ~seconds:(0.15 *. share)) )))
  in
  let setup_times = ref [] and lo_parks = ref 0 in
  (* svc_sat: every batch's (traced, time), each session's rate, and
     what the batches leave for the per-layer figures *)
  let sat = ref [] and sat_rates = ref [] in
  let sat_residual = ref 0 and sat_submit_ns = ref [] and sat_depth = ref 0 in
  List.iter
    (fun ((lo, hi), t_plan) ->
      let t_start = Common.now_s () in
      let pool, t = Common.timed (setup r) in
      setup_times := (t +. t_plan) :: !setup_times;
      r.threads <- max r.threads (1 + Pool.worker_count pool);
      let parks () =
        Array.fold_left (fun a (s : Pool.worker_stats) -> a + s.parks) 0 (Pool.worker_stats pool)
      in
      Spans.on := ctx.trace;
      let parks0 = parks () in
      open_loop pool lo r ~name:"svc_lo";
      lo_parks := !lo_parks + parks () - parks0;
      open_loop pool hi r ~name:"svc_hi";
      Spans.on := false;
      (* one batch's arrays, cleared before each batch, outside its timing *)
      let p = phase_of (Array.make sat_batch 0) in
      let untraced = ref [] in
      ignore
        (Common.passes ~min_passes:1
           ~seconds:(share -. (Common.now_s () -. t_start))
           (fun _ ->
             List.iter (fun a -> Array.fill a 0 sat_batch 0) [ p.due; p.sub; p.start; p.fin; p.runs ];
             Atomic.set p.completed 0;
             let traced = Common.traced_pass ctx (List.length !sat) in
             Spans.on := traced;
             let (), t = Common.timed (fun () -> closed_loop pool p r) in
             Spans.on := false;
             sat := (traced, t) :: !sat;
             if not traced then untraced := t :: !untraced;
             let st = Stat.stages ~due:p.due ~sub:p.sub ~start:p.start ~fin:p.fin in
             sat_residual := max !sat_residual st.residual;
             sat_submit_ns := Array.copy p.submit_ns :: !sat_submit_ns));
      if !untraced <> [] then
        sat_rates := (float_of_int sat_batch /. Stat.median !untraced) :: !sat_rates;
      sat_depth := max !sat_depth p.depth_max;
      Pool.shutdown pool)
    plans;
  let los = List.map (fun ((lo, _), _) -> lo) plans and his = List.map (fun ((_, hi), _) -> hi) plans in
  let st p = Stat.stages ~due:p.due ~sub:p.sub ~start:p.start ~fin:p.fin in
  let lo_st = List.map st los and hi_st = List.map st his in
  let residual =
    List.fold_left (fun m (s : Stat.stages) -> max m s.residual) !sat_residual (lo_st @ hi_st)
  in
  Common.check r ~ok:(residual = 0) "stages do not add up to the sojourn";
  let cat f sts = Stat.sorted (Array.concat (List.map f sts)) in
  let sat_times traced =
    List.filter_map (fun (tr, t) -> if tr = traced then Some t else None) !sat
  in
  let untraced = sat_times false and traced = sat_times true in
  Common.set r "setup_s" (Stat.median !setup_times);
  Common.set r "rate_per_s"
    (List.fold_left ( +. ) 0.0 !sat_rates /. float_of_int (List.length !sat_rates));
  let lo_soj = cat (fun (s : Stat.stages) -> s.sojourn) lo_st in
  let hi_soj = cat (fun (s : Stat.stages) -> s.sojourn) hi_st in
  Common.op_median r lo_soj;
  let us a p = Common.us_of_ns (Stat.rank_sorted a p) in
  let late = cat (fun p -> p.late) (los @ his) in
  let submit_ns =
    Stat.sorted (Array.concat (List.map (fun p -> p.submit_ns) (los @ his) @ !sat_submit_ns))
  in
  let n_lo = Array.length lo_soj in
  Common.set r "gen.late_p50_us" (us late 0.5);
  Common.set r "gen.late_p99_us" (us late 0.99);
  Common.set r "gen.late_max_us" (us late 1.0);
  Common.set r "svc.qwait_us" (us (cat (fun (s : Stat.stages) -> s.qwait) lo_st) 0.5);
  Common.set r "svc.dispatch_us" (us (cat (fun (s : Stat.stages) -> s.dispatch) lo_st) 0.5);
  Common.set r "svc.service_us" (us (cat (fun (s : Stat.stages) -> s.service) lo_st) 0.5);
  Common.seti r "svc.stage_residual_ns" residual;
  Common.set r "svc.p50_us" (us lo_soj 0.5);
  Common.set r "svc.p90_us" (us lo_soj 0.9);
  Common.set r "svc.p99_us" (us lo_soj 0.99);
  Common.set r "svc.p999_us" (us lo_soj 0.999);
  Common.set r "svc_hi.p50_us" (us hi_soj 0.5);
  Common.set r "svc_hi.p90_us" (us hi_soj 0.9);
  Common.set r "svc_hi.p99_us" (us hi_soj 0.99);
  Common.set r "pool.parks_per_req" (float_of_int !lo_parks /. float_of_int n_lo);
  Common.set r "pool.submit_ns_p50" (float_of_int (Stat.rank_sorted submit_ns 0.5));
  Common.set r "pool.submit_ns_p99" (float_of_int (Stat.rank_sorted submit_ns 0.99));
  let hi_depth = List.fold_left (fun m p -> max m p.depth_max) 0 his in
  Printf.printf "svc_hi at %.0f/s: injector depth max %d, dispatch p50 %.1f us\n" hi_rate
    hi_depth
    (us (cat (fun (s : Stat.stages) -> s.dispatch) hi_st) 0.5);
  Common.seti r "injector.depth_max"
    (List.fold_left (fun m p -> max m p.depth_max) !sat_depth (los @ his));
  if ctx.trace then begin
    if traced <> [] && untraced <> [] then
      Common.set r "trace.overhead_pct"
        (100.0 *. ((Stat.median traced /. Stat.median untraced) -. 1.0));
    Common.span_shares r ~root:sp_phase [ "svc.phase"; "pool.submit" ]
  end
  else []
