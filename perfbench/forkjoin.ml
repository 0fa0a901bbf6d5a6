(* native-forkjoin: closed-loop saturation of the native pool with a
   benchmark-written parallel Fibonacci (every internal node spawns both
   children), on the Chase-Lev backend with one worker domain plus the
   coordinator. Deque push/pop/steal and per-task cells dominate; the
   injector and park/wake are nearly idle. One operation is one fib(n)
   call; a session is [calls_per_session] calls on a fresh pool. fib(n) is
   fixed, so the workload seed changes nothing here. *)

module Pool = Ws_native.Pool

let n = 22
let calls_per_session = 60

let rec fib_closed k = if k < 2 then k else fib_closed (k - 1) + fib_closed (k - 2)

(* Tasks of one call: every node of the call tree, 2 fib(n+1) - 1. *)
let expected_tasks = (2 * fib_closed (n + 1)) - 1
let expected_sum = fib_closed n

(* Leaf sums accumulate per domain, so the benchmark adds no shared
   atomic of its own to the pool's traffic. *)
let acc_lock = Mutex.create ()
let accs : int ref list ref = ref []

let acc_key =
  Domain.DLS.new_key (fun () ->
      let r = ref 0 in
      Mutex.protect acc_lock (fun () -> accs := r :: !accs);
      r)

(* Traced calls time one internal node's pair of spawns in every
   [spawn_sample], into per-domain (pairs seen, spawns timed, ns) cells;
   timing every spawn would double the cost of the call it measures. *)
let spawn_sample = 16
let spawn_cells : int array list ref = ref []

let spawn_key =
  Domain.DLS.new_key (fun () ->
      let c = [| 0; 0; 0 |] in
      Mutex.protect acc_lock (fun () -> spawn_cells := c :: !spawn_cells);
      c)

let rec task pool k () =
  if k < 2 then begin
    let a = Domain.DLS.get acc_key in
    a := !a + k
  end
  else begin
    Pool.spawn pool (task pool (k - 1));
    Pool.spawn pool (task pool (k - 2))
  end

let rec task_traced pool k () =
  if k < 2 then begin
    let a = Domain.DLS.get acc_key in
    a := !a + k
  end
  else begin
    let c = Domain.DLS.get spawn_key in
    c.(0) <- c.(0) + 1;
    if c.(0) mod spawn_sample = 0 then begin
      let t0 = Telemetry.Clock.now_ns () in
      Pool.spawn pool (task_traced pool (k - 1));
      Pool.spawn pool (task_traced pool (k - 2));
      c.(1) <- c.(1) + 2;
      c.(2) <- c.(2) + (Telemetry.Clock.now_ns () - t0)
    end
    else begin
      Pool.spawn pool (task_traced pool (k - 1));
      Pool.spawn pool (task_traced pool (k - 2))
    end
  end

let sum_accs () =
  Mutex.protect acc_lock (fun () ->
      List.fold_left
        (fun s a ->
          let v = !a in
          a := 0;
          s + v)
        0 !accs)

let call pool ~traced =
  ignore (sum_accs ());
  let before = Pool.tasks_run pool in
  Pool.parallel_run pool [ (if traced then task_traced pool n else task pool n) ];
  let sum = sum_accs () in
  (sum, Pool.tasks_run pool - before)

let sp_session = Spans.name "fj.session"
let sp_call = Spans.name "pool.parallel_run"

(* Set-up of one session: a fresh pool (its worker domain spawned) and a
   few warm-up calls. *)
let setup () =
  let pool = Pool.create ~domains:1 ~backend:Pool.Chase_lev_deques () in
  for _ = 1 to 5 do
    ignore (call pool ~traced:false)
  done;
  pool

(* steals, steal attempts, steal aborts, take empties *)
let sum_stats pool =
  Array.fold_left
    (fun (a : int array) (s : Pool.worker_stats) ->
      [|
        a.(0) + s.steals;
        a.(1) + s.steal_attempts;
        a.(2) + s.steal_aborts;
        a.(3) + s.take_empties;
      |])
    [| 0; 0; 0; 0 |] (Pool.worker_stats pool)

(* A pool's speed depends on where its hot fields land relative to cache
   lines, which differs from one pool to the next, so the window is spread
   over a sequence of sessions, each on a fresh pool. *)
let run (ctx : Common.ctx) (r : Common.report) =
  let setup_times = ref [] in
  let call_ns = Stat.Ibuf.create () and traced_ns = Stat.Ibuf.create () in
  let stats = Array.make 4 0 and coord_words = ref 0.0 and coord_tasks = ref 0 in
  let gcs = ref 0 and imbalance = ref [] in
  let session i =
    let traced = Common.traced_pass ctx i in
    let pool, t = Common.timed setup in
    setup_times := t :: !setup_times;
    r.threads <- max r.threads (1 + Pool.worker_count pool);
    let stats0 = sum_stats pool in
    let slot0 = Array.map (fun (s : Pool.worker_stats) -> s.tasks_run) (Pool.worker_stats pool) in
    Spans.on := traced;
    Spans.with_span sp_session (fun () ->
        for _ = 1 to calls_per_session do
          let w0 = if traced then Probe.words () else 0.0 in
          let coord0 = if traced then (Pool.worker_stats pool).(0).tasks_run else 0 in
          let g0 = if traced then (Gc.quick_stat ()).minor_collections else 0 in
          let sp = Spans.enter sp_call in
          let t0 = Telemetry.Clock.now_ns () in
          let sum, ran = call pool ~traced in
          let dt = Telemetry.Clock.now_ns () - t0 in
          Spans.leave sp;
          if traced then begin
            Stat.Ibuf.add traced_ns dt;
            coord_words := !coord_words +. Probe.words_between w0;
            coord_tasks := !coord_tasks + (Pool.worker_stats pool).(0).tasks_run - coord0;
            gcs := !gcs + (Gc.quick_stat ()).minor_collections - g0
          end
          else Stat.Ibuf.add call_ns dt;
          Common.attempt r
            ~ok:(sum = expected_sum && ran = expected_tasks)
            (Printf.sprintf "fib %d = %d (want %d), %d tasks run (want %d)" n sum
               expected_sum ran expected_tasks)
        done);
    Spans.on := false;
    if traced then begin
      let s1 = sum_stats pool in
      Array.iteri (fun k v -> stats.(k) <- stats.(k) + v - stats0.(k)) s1;
      let ran =
        Array.mapi
          (fun i (s : Pool.worker_stats) -> float_of_int (s.tasks_run - slot0.(i)))
          (Pool.worker_stats pool)
      in
      let mean = Array.fold_left ( +. ) 0.0 ran /. float_of_int (Array.length ran) in
      imbalance := (Array.fold_left max 0.0 ran /. mean) :: !imbalance
    end;
    Pool.shutdown pool
  in
  let sessions = Common.passes ~min_passes:3 ~seconds:ctx.seconds session in
  Common.set r "setup_s" (Stat.median !setup_times);
  let calls = Stat.sorted (Stat.Ibuf.to_array call_ns) in
  if Array.length calls > 0 then
    Common.set r "rate_per_s"
      (float_of_int expected_tasks /. (float_of_int (Stat.rank_sorted calls 0.5) *. 1e-9));
  Common.op_median r calls;
  Common.seti r "forkjoin.sessions" (List.length sessions);
  if ctx.trace then begin
    let tr = Stat.Ibuf.to_array traced_ns in
    if Array.length calls > 0 && Array.length tr > 0 then
      Common.set r "trace.overhead_pct"
        (100.0 *. ((float_of_int (Stat.percentile tr 0.5)
                    /. float_of_int (Stat.rank_sorted calls 0.5)) -. 1.0));
    let ncalls = float_of_int (max 1 (Array.length tr)) in
    Common.set r "pool.steal_success_ratio"
      (float_of_int stats.(0) /. float_of_int (max 1 stats.(1)));
    Common.set r "pool.steal_aborts_per_call" (float_of_int stats.(2) /. ncalls);
    Common.set r "pool.take_empties_per_call" (float_of_int stats.(3) /. ncalls);
    Common.set r "pool.task_imbalance" (Stat.median !imbalance);
    let sc, sns =
      List.fold_left (fun (c, t) a -> (c + a.(1), t + a.(2))) (0, 0) !spawn_cells
    in
    Common.set r "pool.spawn_ns" (float_of_int sns /. float_of_int (max 1 sc));
    Common.set r "gc.minor_words_per_task"
      (!coord_words /. float_of_int (max 1 !coord_tasks));
    Common.set r "gc.minor_gcs_per_call" (float_of_int !gcs /. ncalls);
    Probe.deque r ~ops:2_000_000;
    Common.span_shares r ~root:sp_session [ "fj.session"; "pool.parallel_run" ]
  end
  else []
