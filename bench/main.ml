(* Benchmark harness.

   Part 1 — Bechamel micro-benchmarks: one Test.make per table/figure, each
   measuring the per-operation cost that the corresponding experiment's
   behaviour hinges on (fenced vs fence-free take, steal paths, the litmus
   program, the capacity microbenchmark, simulator step throughput, and the
   native deque ops).

   Part 2 — the full figure/table regeneration (the same harness the
   [wsrepro all] CLI exposes): Table 1, Fig. 1, Fig. 7, Fig. 8, Fig. 10 on
   both machines, Fig. 11. This is the output recorded in EXPERIMENTS.md. *)

open Bechamel
open Toolkit

(* --- micro-benchmark helpers ---------------------------------------- *)

(* A single-worker machine that repeatedly takes from a preloaded queue;
   returns a thunk performing [puts+takes] of one batch. Building the
   machine is part of the thunk (continuations are single-shot), so these
   numbers compare variants rather than measure bare op latency. *)
let sim_machine ~queue ~worker_fence ~delta () =
  let m = Tso.Machine.create (Tso.Machine.abstract_config ~sb_capacity:8) in
  let params =
    { Ws_core.Queue_intf.capacity = 128; delta; worker_fence; tag = "q" }
  in
  let q = Ws_core.Registry.create (Ws_core.Registry.find queue) m params in
  let scratch =
    Tso.Memory.alloc (Tso.Machine.memory m) ~name:"scratch" ~init:0
  in
  let _ =
    Tso.Machine.spawn m ~name:"w" (fun () ->
        for i = 1 to 64 do
          Ws_core.Queue_intf.put q i
        done;
        let rec drain () =
          match Ws_core.Queue_intf.take q with
          | `Task t ->
              Tso.Program.store scratch t;
              drain ()
          | `Empty -> ()
        in
        drain ())
  in
  m

(* Run a machine to quiescence; a counting wrapper measures transitions
   without touching the scheduler's hot path (every policy invocation is
   exactly one applied transition). *)
let run_sim ?steps m =
  let policy = Tso.Sched.round_robin () in
  let policy =
    match steps with
    | None -> policy
    | Some c ->
        fun m buf ->
          incr c;
          policy m buf
  in
  match Tso.Sched.run m policy with
  | Tso.Sched.Quiescent -> ()
  | _ -> failwith "bench batch did not quiesce"

let sim_batch ~queue ~worker_fence ~delta () =
  run_sim (sim_machine ~queue ~worker_fence ~delta ())

let litmus_batch () =
  ignore
    (Ws_litmus.Litmus_program.run ~tasks:64 ~sb_capacity:8 ~coalesce:true ~l:1
       ~delta:5 ~drain_weight:0.05 ~seed:7 ())

let capacity_batch () =
  ignore
    (Ws_litmus.Capacity.cycles_per_iteration Ws_litmus.Capacity.westmere_model
       ~stores:36 ~iterations:100)

let fig10_batch () =
  let dag =
    Ws_runtime.Dag.of_comp (Ws_workloads.Cilk_suite.fib ~spawn:5 ~join:5 ~leaf:10 8)
  in
  let cfg =
    {
      Ws_runtime.Engine.default_config with
      workers = 2;
      queue = Ws_core.Registry.find "thep";
      delta = 4;
      sb_capacity = 8;
    }
  in
  let wl = Ws_runtime.Dag.instantiate dag ~name:"fib8" in
  ignore (Ws_runtime.Engine.run_timed cfg wl)

let fig11_graph =
  lazy (Ws_workloads.Graph.random_graph ~nodes:400 ~edges:1200 ~seed:3)

let fig11_batch () =
  let checked =
    Ws_workloads.Graph_workloads.transitive_closure (Lazy.force fig11_graph)
      ~src:0 ()
  in
  let cfg =
    {
      Ws_runtime.Engine.default_config with
      workers = 2;
      queue = Ws_core.Registry.find "ff-cl";
      delta = 4;
      sb_capacity = 8;
    }
  in
  ignore
    (Ws_runtime.Engine.run_timed cfg checked.Ws_workloads.Graph_workloads.workload)

let ablation_batch () =
  ignore
    (Ws_harness.Exp_ablation.fence_sweep ~bench:"Integrate" ~costs:[ 20 ] ())

let native_cl_batch () =
  let q = Ws_native.Chase_lev.create ~capacity:128 () in
  for i = 1 to 64 do
    Ws_native.Chase_lev.push q i
  done;
  for _ = 1 to 32 do
    ignore (Ws_native.Chase_lev.pop q)
  done;
  for _ = 1 to 32 do
    ignore (Ws_native.Chase_lev.steal q)
  done

let native_the_batch () =
  let q = Ws_native.The_queue.create ~capacity:128 () in
  for i = 1 to 64 do
    Ws_native.The_queue.push q i
  done;
  for _ = 1 to 32 do
    ignore (Ws_native.The_queue.pop q)
  done;
  for _ = 1 to 32 do
    ignore (Ws_native.The_queue.steal q)
  done

let tests =
  [
    (* Fig. 1: the fence is the whole story of the worker's take path *)
    Test.make ~name:"fig1/the-take-fenced(64ops)"
      (Staged.stage (sim_batch ~queue:"the" ~worker_fence:true ~delta:1));
    Test.make ~name:"fig1/the-take-fence-free(64ops)"
      (Staged.stage (sim_batch ~queue:"the" ~worker_fence:false ~delta:1));
    (* Fig. 10 algorithms on the simulated machine *)
    Test.make ~name:"fig10/ff-the(64ops)"
      (Staged.stage (sim_batch ~queue:"ff-the" ~worker_fence:false ~delta:4));
    Test.make ~name:"fig10/thep(64ops)"
      (Staged.stage (sim_batch ~queue:"thep" ~worker_fence:false ~delta:4));
    Test.make ~name:"fig10/fib8-2workers-thep" (Staged.stage fig10_batch);
    (* Fig. 11 *)
    Test.make ~name:"fig11/ff-cl(64ops)"
      (Staged.stage (sim_batch ~queue:"ff-cl" ~worker_fence:false ~delta:4));
    Test.make ~name:"fig11/idempotent-lifo(64ops)"
      (Staged.stage (sim_batch ~queue:"idempotent-lifo" ~worker_fence:false ~delta:1));
    Test.make ~name:"fig11/tc-400nodes-ff-cl" (Staged.stage fig11_batch);
    (* Fig. 8 / Fig. 9: one litmus run *)
    Test.make ~name:"fig8/litmus-run(64tasks)" (Staged.stage litmus_batch);
    (* Fig. 6 / Fig. 7: the capacity microbenchmark *)
    Test.make ~name:"fig7/capacity-point(100iters)" (Staged.stage capacity_batch);
    (* native artifact *)
    Test.make ~name:"native/chase-lev(64push+pop+steal)"
      (Staged.stage native_cl_batch);
    Test.make ~name:"native/the-queue(64push+pop+steal)"
      (Staged.stage native_the_batch);
    (* ablation: one fence-sweep point *)
    Test.make ~name:"ablation/fence-sweep-point" (Staged.stage ablation_batch);
  ]

let run_micro () =
  let ols =
    Analyze.ols ~r_square:true ~bootstrap:0 ~predictors:[| Measure.run |]
  in
  let instances = Instance.[ monotonic_clock ] in
  let cfg =
    Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.5) ~kde:None ()
  in
  let raw =
    List.map (fun test -> Benchmark.all cfg instances test) tests
  in
  Printf.printf "== Bechamel micro-benchmarks (ns per batch, OLS on run) ==\n";
  List.iter2
    (fun test tbl ->
      let results = Analyze.all ols Instance.monotonic_clock tbl in
      Hashtbl.iter
        (fun name ols_result ->
          let est =
            match Analyze.OLS.estimates ols_result with
            | Some (e :: _) -> Printf.sprintf "%12.1f ns" e
            | _ -> "        n/a"
          in
          let r2 =
            match Analyze.OLS.r_square ols_result with
            | Some r -> Printf.sprintf "r²=%.3f" r
            | None -> ""
          in
          Printf.printf "%-40s %s  %s\n%!" name est r2)
        results;
      ignore test)
    tests raw

(* --- full figure regeneration ---------------------------------------- *)

let run_figures () =
  print_newline ();
  Ws_harness.Exp_table1.run ();
  print_newline ();
  Ws_harness.Exp_fig1.run ();
  print_newline ();
  Ws_harness.Exp_fig7.run ();
  print_newline ();
  Ws_harness.Exp_fig8.run ();
  print_newline ();
  List.iter
    (fun m ->
      Ws_harness.Exp_fig10.run m ~repeats:3 ();
      print_newline ())
    Ws_harness.Machine_config.primary;
  Ws_harness.Exp_fig11.run ~repeats:3 ();
  print_newline ();
  Ws_harness.Exp_ablation.run ()

(* --- machine-readable benchmark (BENCH_simulator.json) ---------------- *)

(* Schema contract for the tracked perf baseline. The CI smoke job and the
   cram test validate this id and the exact field set, so numbers recorded
   in EXPERIMENTS.md stay comparable across commits; bump the version if a
   field changes meaning. *)
let bench_schema = "wsrepro-bench/v8"

let bench_fields =
  [
    "sim_batch_steps_per_sec";
    "sim_batch_steps_per_sec_telemetry";
    "sim_steps_per_sec_jobs4";
    "sim_steps_per_sec_jobs4_telemetry";
    "telemetry_overhead_pct";
    "registry_op_overhead_ns";
    "explorer_runs_per_sec";
    "explorer_por_runs_per_sec";
    "explorer_dpor_runs_per_sec";
    "por_reduction_factor";
    "dpor_reduction_factor";
    "frontier_steal_rate";
    "snapshot_restore_ns";
    "fig10_wall_s";
    "open_sim_p99_ticks";
    "fingerprint_probe_cells";
    "fingerprint_ns";
    "memo_lookup_ns";
    "memo_store_lookup_ns";
    "native_fib_tasks_per_sec";
    "native_graph_tasks_per_sec";
    "native_service_rps";
    "native_service_p99_ns";
    "flight_recorder_event_ns";
    "flight_overhead_pct";
    "stage_attribution_overhead_pct";
    "windowed_record_ns";
  ]

let wall f =
  let t0 = Unix.gettimeofday () in
  let r = f () in
  (r, Unix.gettimeofday () -. t0)

(* Simulator step throughput through [Sched.run]: the number the
   allocation-free enabled-set path is accountable for. With
   [~telemetry:true] a sink is attached to every machine, so the same loop
   measures the fully-instrumented stepping rate; the default (no sink)
   exercises the disabled guard that must stay free. *)
let measure_sim_steps ?(telemetry = false) ~batches () =
  let steps = ref 0 in
  let sink = if telemetry then Some (Telemetry.Sink.create ()) else None in
  let (), dt =
    wall (fun () ->
        for _ = 1 to batches do
          let m = sim_machine ~queue:"thep" ~worker_fence:false ~delta:4 () in
          (match sink with Some s -> Tso.Machine.set_sink m s | None -> ());
          run_sim ~steps m
        done)
  in
  float_of_int !steps /. dt

(* The same stepping probe fanned over domains through the sharded plane:
   each domain gets a private [Telemetry.Sink] shard (Par_runner.map_sharded)
   and attaches it to every machine it builds, so the accounting path never
   writes a counter another domain reads; shards are batch-merged at the
   join. The telemetry_overhead_pct the baseline records is the ratio of
   this rate to the same fan-out with no sink attached — the number the
   sharding work is accountable for: multi-domain instrumented stepping
   must cost no more than single-domain did. *)
let measure_sim_steps_jobs ?(telemetry = false) ~jobs ~batches () =
  let chunk = (batches + jobs - 1) / jobs in
  let items = List.init jobs (fun _ -> chunk) in
  let run_chunk sink_opt n =
    let steps = ref 0 in
    for _ = 1 to n do
      let m = sim_machine ~queue:"thep" ~worker_fence:false ~delta:4 () in
      (match sink_opt with Some s -> Tso.Machine.set_sink m s | None -> ());
      run_sim ~steps m
    done;
    !steps
  in
  let counts, dt =
    wall (fun () ->
        if telemetry then
          let into = Telemetry.Sink.create () in
          Ws_harness.Par_runner.map_sharded ~jobs ~into
            (fun shard n -> run_chunk (Some shard) n)
            items
        else Ws_harness.Par_runner.map ~jobs (fun n -> run_chunk None n) items)
  in
  float_of_int (List.fold_left ( + ) 0 counts) /. dt

(* Per-queue-op cost of the fully attached sharded plane: one batch is 64
   puts + 65 takes through Core.Registry's Counted shim (plus the machine
   transitions implementing them, whose per-event counters ride the same
   plane), so (attached - detached) / (batches * 129) amortizes the whole
   accounting path onto the ops that drive it. Attached means
   [Machine.set_sharded_sink] with a 1-shard ring — the exact hot path a
   per-worker shard pays, including the shard-routing table lookup. *)
let registry_ops_per_batch = 129

let measure_registry_op_overhead ~batches () =
  let run ~attach =
    let best = ref infinity in
    for _ = 1 to 3 do
      let (), dt =
        wall (fun () ->
            for _ = 1 to batches do
              let m = sim_machine ~queue:"thep" ~worker_fence:false ~delta:4 () in
              if attach then
                Tso.Machine.set_sharded_sink m
                  (Telemetry.Sink.create ())
                  (Telemetry.Shards.create ~n:1);
              run_sim m
            done)
      in
      if dt < !best then best := dt
    done;
    !best
  in
  ignore (run ~attach:false) (* warm up *);
  let dt_off = run ~attach:false in
  let dt_on = run ~attach:true in
  1e9 *. Float.max 0.0 (dt_on -. dt_off)
  /. float_of_int (batches * registry_ops_per_batch)

(* Open-system smoke: the default heavy-traffic scenario (3 ff-the
   workers, Poisson arrivals, exponential services in 3 stages) shrunk to
   200 requests. The timing engine is deterministic — pre-drawn plan,
   seeded victim choice, lexicographic tie-break — so the p99 sojourn is
   exact and reproducible: --check re-runs the probe live and requires the
   recorded value to match to the tick. Any drift is a behavioural change
   in the timing model, the queues, or the load generator, not noise. *)
let open_probe_config =
  {
    Ws_runtime.Open_system.default_config with
    requests = 200;
    seed = 42;
    max_steps = 50_000_000;
  }

let measure_open_probe () =
  let r = Ws_runtime.Open_system.run open_probe_config in
  (match r.Ws_runtime.Open_system.outcome with
  | Tso.Sched.Quiescent -> ()
  | _ -> failwith "open-system probe did not quiesce");
  if
    r.Ws_runtime.Open_system.completed
    <> r.Ws_runtime.Open_system.injected
  then failwith "open-system probe lost requests";
  float_of_int r.Ws_runtime.Open_system.p99

(* Explorer throughput on a small FF-THE scenario (complete runs/sec).
   With [por] the sleep-set reduction is on (and with [dpor] source-DPOR on
   top of it): the same verdict is reached from far fewer runs, so the rate
   divides completed runs (not skipped siblings) by the wall time — it
   answers "how fast does one verdict arrive", not "how fast does the
   machine step". *)
let explorer_spec =
  {
    Ws_harness.Scenarios.default_spec with
    queue = "ff-the";
    sb_capacity = 1;
    delta = 2;
    preloaded = 2;
    steal_attempts = 1;
  }

let measure_explorer ?(por = false) ?(dpor = false) ?(snapshots = true)
    ~max_runs () =
  let (st, _), dt =
    wall (fun () ->
        Ws_harness.Runner.exhaustive_check explorer_spec ~max_runs
          ~preemption_bound:(Some 3) ~jobs:1 ~memo:false ~por ~dpor ~snapshots
          ())
  in
  float_of_int st.Tso.Explore.runs /. dt

(* POR/DPOR reduction factors: completed runs of the reduced searches vs a
   run-capped plain search of the same scenario. The scenario is the
   minimal unbounded FF-THE instance (one preloaded task, one steal
   attempt, no client stores): the reduced searches exhaust it in a few
   hundred runs — deterministically, so the factors are exact and
   reproducible — while plain exploration exceeds any practical cap
   (store-buffer drain nondeterminism multiplies every step), so the plain
   baseline is the cap itself and both factors are lower bounds. *)
let reduction_spec =
  {
    Ws_harness.Scenarios.default_spec with
    queue = "ff-the";
    sb_capacity = 1;
    delta = 1;
    preloaded = 1;
    puts = 0;
    steal_attempts = 1;
    client_stores = 0;
  }

let measure_reduction ~max_runs () =
  let runs ~por ~dpor =
    let st, _ =
      Ws_harness.Runner.exhaustive_check reduction_spec ~max_runs
        ~preemption_bound:None ~por ~dpor ()
    in
    st.Tso.Explore.runs
  in
  let plain = runs ~por:false ~dpor:false in
  let por = runs ~por:true ~dpor:false in
  let dpor = runs ~por:false ~dpor:true in
  ( float_of_int plain /. float_of_int por,
    float_of_int plain /. float_of_int dpor )

(* Work-stealing frontier shape: steals per frontier task when the explorer
   scenario is fanned out over 4 domains. Scheduling-dependent (unlike the
   reduction factors), so the check gates positivity, not a value. *)
let measure_frontier ~max_runs () =
  let _, fr, _ =
    Ws_harness.Runner.exhaustive_check_full explorer_spec ~max_runs
      ~preemption_bound:(Some 3) ~jobs:4 ()
  in
  float_of_int fr.Tso.Explore_par.fr_steals
  /. float_of_int (max 1 fr.Tso.Explore_par.fr_tasks)

(* Incremental cost of [Machine.restore_into] — what one sibling branch
   pays on the explorer's snapshot path, beyond building the fresh
   instance both paths share (the replay path it replaced paid one
   [Machine.apply] per prefix step on top of the same instance build).
   Measured by subtracting a build-only loop from a build+restore loop. *)
let measure_snapshot_restore ~iters () =
  let mk =
    Tso.Explore.Internal.recording_mk
      (Ws_harness.Scenarios.instance Ws_harness.Scenarios.default_spec)
  in
  let inst = mk () in
  (match
     Tso.Sched.run ~max_steps:40 inst.Tso.Explore.machine
       (Tso.Sched.round_robin ())
   with
  | Tso.Sched.Max_steps -> ()
  | _ -> failwith "snapshot probe ran to completion; deepen the scenario");
  let snap = Tso.Machine.snapshot_create () in
  Tso.Machine.snapshot inst.Tso.Explore.machine snap;
  let (), dt_build =
    wall (fun () ->
        for _ = 1 to iters do
          ignore (Sys.opaque_identity (mk ()))
        done)
  in
  let (), dt_both =
    wall (fun () ->
        for _ = 1 to iters do
          let i = mk () in
          Tso.Machine.restore_into snap i.Tso.Explore.machine
        done)
  in
  1e9 *. Float.max 0.0 (dt_both -. dt_build) /. float_of_int iters

(* The fingerprint/memo probe machine, pinned: a single-worker THEP
   machine stopped exactly 200 round-robin steps into its run. Fingerprint
   cost is O(live memory cells), so the cell count IS the probe shape —
   it is recorded in the baseline as [fingerprint_probe_cells] and
   [--check] verifies the live probe builds a machine with exactly the
   recorded count before comparing ns numbers. (This is why the tracked
   ~550 ns differs from the "108 ns" in DESIGN.md §8's before/after table:
   that one-off fingerprinted a 2-thread SB litmus machine with far fewer
   live cells. Same code path, different pinned shape.) A scenario change
   that lets the machine quiesce before 200 steps would silently shrink
   the fingerprinted state, so quiescing early is a probe failure. *)
let fingerprint_probe_machine () =
  let m = sim_machine ~queue:"thep" ~worker_fence:false ~delta:4 () in
  (match Tso.Sched.run ~max_steps:200 m (Tso.Sched.round_robin ()) with
  | Tso.Sched.Max_steps -> ()
  | _ ->
      failwith
        "fingerprint probe shape changed: the probe machine quiesced before \
         200 steps");
  m

let fingerprint_probe_cells () =
  Tso.Memory.size (Tso.Machine.memory (fingerprint_probe_machine ()))

(* Cost of one [Machine.fingerprint] of a mid-run machine state — the memo
   key computation on the explorer's hot path. *)
let measure_fingerprint ~iters () =
  let m = fingerprint_probe_machine () in
  let acc = ref 0 in
  let (), dt =
    wall (fun () ->
        for _ = 1 to iters do
          acc := !acc lxor Tso.Machine.fingerprint m
        done)
  in
  Sys.opaque_identity !acc |> ignore;
  1e9 *. dt /. float_of_int iters

(* Fingerprint + Pareto-dominance probe against a populated memo table:
   what one memoized-explorer node pays before recursing. *)
let measure_memo_lookup ~iters () =
  let m = fingerprint_probe_machine () in
  let tbl : (int, (int * int) list) Hashtbl.t = Hashtbl.create 4096 in
  (* deterministic LCG fill — a realistic load factor without Random *)
  let x = ref 0x9E3779B9 in
  for _ = 1 to 4096 do
    x := (!x lxor (!x lsr 17)) * 0x2545F4914F6CDD1D land max_int;
    Hashtbl.replace tbl !x [ (8, 2) ]
  done;
  Hashtbl.replace tbl (Tso.Machine.fingerprint m) [ (8, 2) ];
  let hits = ref 0 in
  let (), dt =
    wall (fun () ->
        for _ = 1 to iters do
          let fp = Tso.Machine.fingerprint m in
          if Tso.Memo_store.tbl_check tbl fp ~depth_rem:4 ~preempt_rem:1
          then incr hits
        done)
  in
  Sys.opaque_identity !hits |> ignore;
  1e9 *. dt /. float_of_int iters

(* Same probe shape against the persistent memo store's [seen] (atomic
   lookup counter + shard mutex + the shared Pareto check), so
   memo_store_lookup_ns - memo_lookup_ns isolates the synchronization
   cost one disk-backed-memo node pays over the in-memory table. The
   store is opened at a nonexistent path and never committed, so the
   probe touches no disk. *)
let measure_memo_store_lookup ~iters () =
  let m = fingerprint_probe_machine () in
  let store =
    let path =
      Filename.concat
        (Filename.get_temp_dir_name ())
        (Printf.sprintf "wsrepro-bench-memo-probe-%d" (Unix.getpid ()))
    in
    match
      Tso.Memo_store.open_ ~path ~config:"bench-probe"
        ~max_depth:Tso.Explore.default_max_depth ~preemption_bound:(Some 3)
        ~por:false ~dpor:false ()
    with
    | Ok s -> s
    | Error e -> failwith ("memo store probe: " ^ e)
  in
  let x = ref 0x9E3779B9 in
  for _ = 1 to 4096 do
    x := (!x lxor (!x lsr 17)) * 0x2545F4914F6CDD1D land max_int;
    ignore (Tso.Memo_store.seen store !x ~depth_rem:8 ~preempt_rem:2)
  done;
  ignore
    (Tso.Memo_store.seen store
       (Tso.Machine.fingerprint m)
       ~depth_rem:8 ~preempt_rem:2);
  let hits = ref 0 in
  let (), dt =
    wall (fun () ->
        for _ = 1 to iters do
          let fp = Tso.Machine.fingerprint m in
          if Tso.Memo_store.seen store fp ~depth_rem:4 ~preempt_rem:1 then
            incr hits
        done)
  in
  Sys.opaque_identity !hits |> ignore;
  1e9 *. dt /. float_of_int iters

(* Wall time of one Fig. 10 column (Fib on haswell), the end-to-end figure
   regeneration cost the hot-path work targets. *)
let measure_fig10 ~repeats () =
  let (), dt =
    wall (fun () ->
        ignore
          (Ws_harness.Exp_fig10.compute Ws_harness.Machine_config.haswell
             ~repeats ~benches:[ "Fib" ] ()))
  in
  dt

(* The native pool on real silicon: throughput of the two parity workloads
   (tasks/s) and the open-system service benchmark (achieved rps, p99
   sojourn ns). Absolute numbers are machine-dependent; the contract the
   check enforces is positivity and schema shape — the parity analysis
   lives in `wsrepro native` / EXPERIMENTS.md. *)
let measure_native ~smoke () =
  let domains = 3 in
  let fib_n, nodes, requests, rate, work =
    if smoke then (16, 400, 200, 2000., 500) else (24, 2000, 1000, 5000., 2000)
  in
  let fib =
    Ws_harness.Exp_native.native_fib ~domains ~n:fib_n ()
  in
  let graph =
    Ws_harness.Exp_native.native_graph ~domains ~nodes ~edges:(4 * nodes)
      ~seed:23 ()
  in
  let svc =
    Ws_harness.Exp_native.service ~domains ~rate ~requests ~chain:4 ~work
      ~seed:23 ()
  in
  ( fib.Ws_harness.Exp_native.tasks_per_sec,
    graph.Ws_harness.Exp_native.tasks_per_sec,
    svc.Ws_harness.Exp_native.throughput_rps,
    float_of_int svc.Ws_harness.Exp_native.p99_ns )

(* Hot-path cost of one flight-recorder event: four plain int stores plus
   one monotonic clock read, on the single-writer path every recorded pool
   transition pays. The ring is sized so the loop wraps many times — the
   drop-oldest overwrite is the same unconditional store, so wraparound is
   free and deliberately included. The ceiling the check enforces is what
   makes [--flight] cheap enough to leave on. *)
let measure_flight_event ~iters () =
  let r = Telemetry.Flight_recorder.create ~capacity:4096 ~slots:1 () in
  let (), dt =
    wall (fun () ->
        for i = 1 to iters do
          Telemetry.Flight_recorder.record r ~slot:0
            Telemetry.Flight_recorder.Spawn ~task:i ~arg:(i - 1)
        done)
  in
  Sys.opaque_identity (Telemetry.Flight_recorder.wrote r ~slot:0) |> ignore;
  1e9 *. dt /. float_of_int iters

(* End-to-end recorder tax: the service benchmark run twice — recorder off,
   then on — and the achieved-rps delta as a percentage of the off run.
   The service is an open system (throughput tracks the offered rate while
   the pool keeps up), so any sustained positive overhead here means the
   recorder ate real capacity; negative values are scheduler noise. *)
let measure_flight_overhead ~smoke () =
  let domains = 3 in
  let requests, rate, work =
    if smoke then (200, 2000., 500) else (1000, 5000., 2000)
  in
  let rps flight =
    (Ws_harness.Exp_native.service ~domains ~flight ~rate ~requests ~chain:4
       ~work ~seed:23 ())
      .Ws_harness.Exp_native.throughput_rps
  in
  let off = rps false in
  let on = rps true in
  100.0 *. (off -. on) /. off

(* End-to-end stage-attribution tax, same shape as the recorder probe: the
   service benchmark run attribution-off then attribution-on, achieved-rps
   delta as a percentage of the off run. On means every pool cell pays two
   extra monotonic clock reads plus three stage-histogram observations and
   one windowed sojourn record; the ceiling is what keeps per-stage
   latency cheap enough to leave on under production scrapes. *)
let measure_stage_overhead ~smoke () =
  let domains = 3 in
  let requests, rate, work =
    if smoke then (200, 2000., 500) else (1000, 5000., 2000)
  in
  let rps attribution =
    (Ws_harness.Exp_native.service ~domains ~attribution ~rate ~requests
       ~chain:4 ~work ~seed:23 ())
      .Ws_harness.Exp_native.throughput_rps
  in
  let off = rps false in
  let on = rps true in
  100.0 *. (off -. on) /. off

(* Hot-path cost of one windowed observation: a histogram bucket store
   plus the ring-slot claim check, on the single-writer path every
   attributed cell pays at completion. [now] advances so the 16-slot ring
   rotates many times — eviction resets the displaced histogram, and that
   amortized cost is deliberately included, exactly as wraparound is in
   the flight-event probe. *)
let measure_windowed_record ~iters () =
  let w = Telemetry.Windowed.create ~slots:16 ~width:1024 () in
  let (), dt =
    wall (fun () ->
        for i = 1 to iters do
          Telemetry.Windowed.observe w ~now:(i * 4) (i land 4095)
        done)
  in
  Sys.opaque_identity (Telemetry.Windowed.latest w) |> ignore;
  1e9 *. dt /. float_of_int iters

let run_json ~smoke ~out () =
  let batches, max_runs, fp_iters, snap_iters, repeats =
    if smoke then (20, 500, 2_000, 500, 1)
    else (2_000, 20_000, 200_000, 20_000, 3)
  in
  let disabled = measure_sim_steps ~batches () in
  let enabled = measure_sim_steps ~telemetry:true ~batches () in
  let j4_off = measure_sim_steps_jobs ~jobs:4 ~batches () in
  let j4_on = measure_sim_steps_jobs ~telemetry:true ~jobs:4 ~batches () in
  let native_fib, native_graph, native_rps, native_p99 =
    measure_native ~smoke ()
  in
  let por_factor, dpor_factor = measure_reduction ~max_runs () in
  let metrics =
    [
      ("sim_batch_steps_per_sec", disabled);
      ("sim_batch_steps_per_sec_telemetry", enabled);
      ("sim_steps_per_sec_jobs4", j4_off);
      ("sim_steps_per_sec_jobs4_telemetry", j4_on);
      ("telemetry_overhead_pct", 100.0 *. (j4_off -. j4_on) /. j4_off);
      ("registry_op_overhead_ns", measure_registry_op_overhead ~batches ());
      ("explorer_runs_per_sec", measure_explorer ~max_runs ());
      ("explorer_por_runs_per_sec", measure_explorer ~por:true ~max_runs ());
      ("explorer_dpor_runs_per_sec", measure_explorer ~dpor:true ~max_runs ());
      ("por_reduction_factor", por_factor);
      ("dpor_reduction_factor", dpor_factor);
      ("frontier_steal_rate", measure_frontier ~max_runs ());
      ("snapshot_restore_ns", measure_snapshot_restore ~iters:snap_iters ());
      ("fig10_wall_s", measure_fig10 ~repeats ());
      ("open_sim_p99_ticks", measure_open_probe ());
      ("fingerprint_probe_cells", float_of_int (fingerprint_probe_cells ()));
      ("fingerprint_ns", measure_fingerprint ~iters:fp_iters ());
      ("memo_lookup_ns", measure_memo_lookup ~iters:fp_iters ());
      ("memo_store_lookup_ns", measure_memo_store_lookup ~iters:fp_iters ());
      ("native_fib_tasks_per_sec", native_fib);
      ("native_graph_tasks_per_sec", native_graph);
      ("native_service_rps", native_rps);
      ("native_service_p99_ns", native_p99);
      ("flight_recorder_event_ns", measure_flight_event ~iters:fp_iters ());
      ("flight_overhead_pct", measure_flight_overhead ~smoke ());
      ("stage_attribution_overhead_pct", measure_stage_overhead ~smoke ());
      ("windowed_record_ns", measure_windowed_record ~iters:fp_iters ());
    ]
  in
  assert (List.map fst metrics = bench_fields);
  let buf = Buffer.create 256 in
  Buffer.add_string buf "{\n";
  Buffer.add_string buf (Printf.sprintf "  \"schema\": %S,\n" bench_schema);
  Buffer.add_string buf
    (Printf.sprintf "  \"mode\": %S,\n" (if smoke then "smoke" else "full"));
  Buffer.add_string buf "  \"metrics\": {\n";
  let n = List.length metrics in
  List.iteri
    (fun i (k, v) ->
      Buffer.add_string buf
        (Printf.sprintf "    %S: %.3f%s\n" k v (if i = n - 1 then "" else ",")))
    metrics;
  Buffer.add_string buf "  }\n}\n";
  match out with
  | None -> print_string (Buffer.contents buf)
  | Some path ->
      let oc = open_out path in
      output_string oc (Buffer.contents buf);
      close_out oc;
      Printf.printf "wrote %s\n" path

(* Validator for --check. The contracts, in print order:

   1. Schema: the file parses as JSON (the in-tree strict parser), carries
      the schema id, and has every required metric — the CI smoke job keys
      on this so drift fails the build.

   2. Pay-for-use: stepping with no sink attached must not regress more
      than 5% against the rate recorded in the file. The live probe takes
      the best of three short runs (downward noise hides a regression less
      than upward noise fakes one); the recorded baseline was a single
      long measurement on the same machine.

   3. The recorded telemetry_overhead_pct — now measured across 4 domains
      through the sharded plane — must stay under the single-domain budget
      it replaced (~3.1%): sharding exists precisely so that fanning the
      instrumented stepping out over domains costs no more than one domain
      paid, and more than that means a counter write started crossing
      domains again. The recorded registry_op_overhead_ns (the whole
      attached accounting path amortized per Counted queue op) must stay
      under an absolute ceiling for the same reason. Smoke-mode documents
      use much looser ceilings — their probes run for milliseconds, so the
      recorded ratios are mostly scheduler noise.

   4. The live snapshot-restore probe must stay within a generous factor
      of the recorded one. Restore skips the per-transition machinery the
      replay path pays; the only way to blow the factor is an algorithmic
      regression (e.g. the restore path quietly re-acquiring an O(depth)
      replay), which this catches even through CI machine-speed noise.

   5. The fingerprint probe shape must match exactly (live-cell count =
      recorded fingerprint_probe_cells) and the live fingerprint must stay
      within a factor of the recorded one — the pinned shape is what makes
      the ns series comparable across commits.

   6. The live memo-store lookup must stay within a factor of the recorded
      one (a blown factor means the shard path grew synchronization or the
      Pareto check regressed).

   7. The recorded reduction factors must satisfy dpor >= por >= 1 — run
      counts are deterministic, so this is exact, and a source-DPOR change
      that falls behind plain sleep sets on the probe scenario is a
      regression even if verdicts still agree.

   8. explorer_dpor_runs_per_sec and (in full mode) frontier_steal_rate
      must be positive, like the native metrics: a zero means the probe
      produced nothing.

   9. The open-system probe is deterministic (pre-drawn plan, seeded
      victim choice, lexicographic tie-break), so the live re-run must
      reproduce the recorded open_sim_p99_ticks exactly — a one-tick drift
      is a behavioural change in the timing model, the queues, or the load
      generator, never noise.

   10. fig10_wall_s must not regress: a live single-repeat Fig. 10 column
      must finish within a generous factor of the recorded wall time
      (sized for CI machine spread; it catches the order-of-magnitude
      regressions a serializing measurement plane would cause).

   11. The flight recorder must stay cheap enough to leave on: the recorded
      flight_recorder_event_ns must sit under an absolute ceiling (the
      single-writer record path is four int stores plus a clock read — in
      full mode anything over ~50 ns means a CAS, fence, or allocation
      crept in), a live re-measure must stay within a factor of the
      recorded value, and the recorded flight_overhead_pct (recorder-on vs
      recorder-off service rps) must stay under 10% in full mode. Smoke
      ceilings are loose — those probes run for microseconds. *)
let overhead_budget_pct = 5.0

(* recorded telemetry_overhead_pct ceiling (absolute, machine-independent):
   the jobs-4 sharded-plane measurement must hold the single-domain 3.1%
   line the pre-shard sink recorded *)
let telemetry_overhead_ceiling_pct ~smoke = if smoke then 100.0 else 3.1

(* recorded registry_op_overhead_ns ceiling (absolute): the attached
   accounting path amortized per Counted queue op *)
let registry_op_ceiling_ns ~smoke = if smoke then 10_000.0 else 400.0

(* live fig10 single-repeat wall time vs recorded: factor + slack sized
   for CI machine spread (the recorded full-mode number used 3 repeats) *)
let fig10_factor = 3.0
let fig10_slack_s = 1.0

(* live snapshot_restore_ns vs recorded: factor + absolute slack, sized for
   cross-machine noise and the subtraction-based probe *)
let snapshot_factor = 3.0
let snapshot_slack_ns = 2000.0

(* live fingerprint_ns / memo_store_lookup_ns vs recorded. The fingerprint
   ceiling only means something because the probe shape is pinned: the
   check first requires the live probe machine's live-cell count to equal
   the recorded fingerprint_probe_cells exactly (cell count is the shape —
   fingerprint cost is O(live cells)), then applies the factor. The
   memo-store slack absorbs mutex contention noise on loaded CI runners. *)
let fingerprint_factor = 3.0
let fingerprint_slack_ns = 300.0
let memo_store_factor = 3.0
let memo_store_slack_ns = 2000.0

(* recorded flight_recorder_event_ns ceiling (absolute) plus the live
   re-measure budget (factor + slack, like the other ns probes) *)
let flight_event_ceiling_ns ~smoke = if smoke then 500.0 else 50.0
let flight_event_factor = 3.0
let flight_event_slack_ns = 100.0

(* recorded flight_overhead_pct ceiling: recorder-on service throughput
   within 10% of recorder-off (full mode; smoke runs are all noise) *)
let flight_overhead_ceiling_pct ~smoke = if smoke then 75.0 else 10.0

(* recorded stage_attribution_overhead_pct ceiling: attribution-on service
   throughput within 5% of attribution-off (full mode; smoke is noise) *)
let stage_overhead_ceiling_pct ~smoke = if smoke then 75.0 else 5.0

(* recorded windowed_record_ns ceiling (absolute) plus the live re-measure
   budget — same shape as the flight-event gate; eviction amortized in *)
let windowed_record_ceiling_ns ~smoke = if smoke then 1000.0 else 150.0
let windowed_record_factor = 3.0
let windowed_record_slack_ns = 100.0

let run_check file =
  let doc =
    match Telemetry.Json.parse_file file with
    | Ok j -> j
    | Error e ->
        Printf.eprintf "%s: not valid JSON: %s\n" file e;
        exit 1
  in
  let str_field k =
    match Telemetry.Json.member k doc with
    | Some (Telemetry.Json.Str s) -> Some s
    | _ -> None
  in
  let schema_ok = str_field "schema" = Some bench_schema in
  let metric k =
    match Telemetry.Json.member "metrics" doc with
    | Some m -> (
        match Telemetry.Json.member k m with
        | Some (Telemetry.Json.Float f) -> Some f
        | Some (Telemetry.Json.Int i) -> Some (float_of_int i)
        | _ -> None)
    | None -> None
  in
  let missing = List.filter (fun f -> metric f = None) bench_fields in
  if (not schema_ok) || missing <> [] then begin
    if not schema_ok then
      Printf.eprintf "%s: missing or wrong schema id (want %s)\n" file
        bench_schema;
    List.iter (fun f -> Printf.eprintf "%s: missing metric %S\n" file f) missing;
    exit 1
  end;
  Printf.printf "%s: schema %s OK (%d metrics)\n" file bench_schema
    (List.length bench_fields);
  let recorded = Option.get (metric "sim_batch_steps_per_sec") in
  ignore (measure_sim_steps ~batches:5 ()) (* warm up *);
  let live =
    List.fold_left max 0.0
      (List.init 3 (fun _ -> measure_sim_steps ~batches:60 ()))
  in
  let delta_pct = 100.0 *. (recorded -. live) /. recorded in
  let ok = delta_pct <= overhead_budget_pct in
  Printf.printf
    "%s: telemetry-disabled stepping %.2f Msteps/s (recorded %.2f, delta \
     %+.1f%%) %s\n"
    file (live /. 1e6) (recorded /. 1e6) delta_pct
    (if ok then "OK" else "REGRESSED");
  let recorded_ovh = Option.get (metric "telemetry_overhead_pct") in
  let ceiling =
    telemetry_overhead_ceiling_pct ~smoke:(str_field "mode" = Some "smoke")
  in
  let ovh_ok = recorded_ovh <= ceiling in
  Printf.printf "%s: recorded telemetry overhead %.1f%% (ceiling %.1f%%) %s\n"
    file recorded_ovh ceiling
    (if ovh_ok then "OK" else "OVER BUDGET");
  let recorded_reg = Option.get (metric "registry_op_overhead_ns") in
  let reg_ceiling =
    registry_op_ceiling_ns ~smoke:(str_field "mode" = Some "smoke")
  in
  let reg_ok = recorded_reg <= reg_ceiling in
  Printf.printf
    "%s: recorded registry op overhead %.1f ns (ceiling %.0f) %s\n" file
    recorded_reg reg_ceiling
    (if reg_ok then "OK" else "OVER BUDGET");
  let recorded_snap = Option.get (metric "snapshot_restore_ns") in
  let live_snap =
    List.fold_left min infinity
      (List.init 3 (fun _ -> measure_snapshot_restore ~iters:300 ()))
  in
  let snap_budget = (recorded_snap *. snapshot_factor) +. snapshot_slack_ns in
  let snap_ok = live_snap <= snap_budget in
  Printf.printf
    "%s: snapshot restore %.0f ns (recorded %.0f, budget %.0f) %s\n" file
    live_snap recorded_snap snap_budget
    (if snap_ok then "OK" else "REGRESSED");
  let recorded_cells = Option.get (metric "fingerprint_probe_cells") in
  let live_cells = float_of_int (fingerprint_probe_cells ()) in
  let cells_ok = live_cells = recorded_cells in
  Printf.printf "%s: fingerprint probe shape %.0f live cells (recorded %.0f) %s\n"
    file live_cells recorded_cells
    (if cells_ok then "OK" else "SHAPE CHANGED");
  let recorded_fp = Option.get (metric "fingerprint_ns") in
  let live_fp =
    List.fold_left min infinity
      (List.init 3 (fun _ -> measure_fingerprint ~iters:2_000 ()))
  in
  let fp_budget = (recorded_fp *. fingerprint_factor) +. fingerprint_slack_ns in
  let fp_ok = live_fp <= fp_budget in
  Printf.printf "%s: fingerprint %.0f ns (recorded %.0f, budget %.0f) %s\n"
    file live_fp recorded_fp fp_budget
    (if fp_ok then "OK" else "REGRESSED");
  let recorded_ms = Option.get (metric "memo_store_lookup_ns") in
  let live_ms =
    List.fold_left min infinity
      (List.init 3 (fun _ -> measure_memo_store_lookup ~iters:2_000 ()))
  in
  let ms_budget = (recorded_ms *. memo_store_factor) +. memo_store_slack_ns in
  let ms_ok = live_ms <= ms_budget in
  Printf.printf
    "%s: memo-store lookup %.0f ns (recorded %.0f, budget %.0f) %s\n" file
    live_ms recorded_ms ms_budget
    (if ms_ok then "OK" else "REGRESSED");
  (* The reduction factors are ratios of deterministic run counts, so they
     are exact: sleep sets must reduce (>= 1) and source-DPOR must never
     fall behind sleep sets alone on the probe scenario. *)
  let por_factor = Option.get (metric "por_reduction_factor") in
  let dpor_factor = Option.get (metric "dpor_reduction_factor") in
  let red_ok = por_factor >= 1.0 && dpor_factor >= por_factor in
  Printf.printf
    "%s: reduction factors por %.1fx, dpor %.1fx (want dpor >= por >= 1) %s\n"
    file por_factor dpor_factor
    (if red_ok then "OK" else "REGRESSED");
  (* frontier_steal_rate is scheduling-dependent: a full-mode recording
     with zero steals means the frontier never distributed work; smoke
     recordings run for milliseconds and may legitimately see none. *)
  let steal_rate = Option.get (metric "frontier_steal_rate") in
  let dpor_rate = Option.get (metric "explorer_dpor_runs_per_sec") in
  let frontier_ok =
    dpor_rate > 0.0
    && if str_field "mode" = Some "smoke" then steal_rate >= 0.0
       else steal_rate > 0.0
  in
  Printf.printf "%s: dpor rate %.0f runs/s, frontier steal rate %.3f %s\n" file
    dpor_rate steal_rate
    (if frontier_ok then "OK" else "NOT POSITIVE");
  (* Native metrics are machine-dependent wallclock numbers; the recorded
     values must at least be live measurements (strictly positive — a zero
     means the probe silently produced nothing, e.g. a hung pool whose run
     was killed or a histogram that never saw an observation). *)
  let native_ok =
    List.for_all
      (fun f -> Option.get (metric f) > 0.0)
      [
        "native_fib_tasks_per_sec";
        "native_graph_tasks_per_sec";
        "native_service_rps";
        "native_service_p99_ns";
      ]
  in
  Printf.printf "%s: native metrics %s\n" file
    (if native_ok then "all positive OK" else "NOT POSITIVE");
  (* The open-system probe is deterministic, so the live re-run must
     reproduce the recorded p99 sojourn exactly. *)
  let recorded_open = Option.get (metric "open_sim_p99_ticks") in
  let live_open = measure_open_probe () in
  let open_ok = live_open = recorded_open in
  Printf.printf
    "%s: open-system probe p99 %.0f ticks (recorded %.0f, want exact) %s\n"
    file live_open recorded_open
    (if open_ok then "OK" else "DRIFTED");
  let recorded_f10 = Option.get (metric "fig10_wall_s") in
  let live_f10 = measure_fig10 ~repeats:1 () in
  let f10_budget = (recorded_f10 *. fig10_factor) +. fig10_slack_s in
  let f10_ok = live_f10 <= f10_budget in
  Printf.printf
    "%s: fig10 column %.2f s live (recorded %.2f, budget %.2f) %s\n" file
    live_f10 recorded_f10 f10_budget
    (if f10_ok then "OK" else "REGRESSED");
  let smoke = str_field "mode" = Some "smoke" in
  let recorded_fe = Option.get (metric "flight_recorder_event_ns") in
  let fe_ceiling = flight_event_ceiling_ns ~smoke in
  let live_fe =
    List.fold_left min infinity
      (List.init 3 (fun _ -> measure_flight_event ~iters:20_000 ()))
  in
  let fe_budget =
    (recorded_fe *. flight_event_factor) +. flight_event_slack_ns
  in
  let fe_ok = recorded_fe <= fe_ceiling && live_fe <= fe_budget in
  Printf.printf
    "%s: flight-recorder event %.1f ns live (recorded %.1f, ceiling %.0f, \
     budget %.0f) %s\n"
    file live_fe recorded_fe fe_ceiling fe_budget
    (if fe_ok then "OK" else "OVER BUDGET");
  let recorded_fo = Option.get (metric "flight_overhead_pct") in
  let fo_ceiling = flight_overhead_ceiling_pct ~smoke in
  let fo_ok = recorded_fo <= fo_ceiling in
  Printf.printf "%s: recorded flight overhead %.1f%% (ceiling %.0f%%) %s\n"
    file recorded_fo fo_ceiling
    (if fo_ok then "OK" else "OVER BUDGET");
  let recorded_so = Option.get (metric "stage_attribution_overhead_pct") in
  let so_ceiling = stage_overhead_ceiling_pct ~smoke in
  let so_ok = recorded_so <= so_ceiling in
  Printf.printf
    "%s: recorded stage-attribution overhead %.1f%% (ceiling %.0f%%) %s\n"
    file recorded_so so_ceiling
    (if so_ok then "OK" else "OVER BUDGET");
  let recorded_wr = Option.get (metric "windowed_record_ns") in
  let wr_ceiling = windowed_record_ceiling_ns ~smoke in
  let live_wr =
    List.fold_left min infinity
      (List.init 3 (fun _ -> measure_windowed_record ~iters:20_000 ()))
  in
  let wr_budget =
    (recorded_wr *. windowed_record_factor) +. windowed_record_slack_ns
  in
  let wr_ok = recorded_wr <= wr_ceiling && live_wr <= wr_budget in
  Printf.printf
    "%s: windowed record %.1f ns live (recorded %.1f, ceiling %.0f, budget \
     %.0f) %s\n"
    file live_wr recorded_wr wr_ceiling wr_budget
    (if wr_ok then "OK" else "OVER BUDGET");
  if
    not
      (ok && ovh_ok && reg_ok && snap_ok && cells_ok && fp_ok && ms_ok
     && red_ok && frontier_ok && native_ok && open_ok && f10_ok && fe_ok
     && fo_ok && so_ok && wr_ok)
  then exit 1

let usage () =
  print_string
    ("usage: bench [--micro | --figures]\n\
     \       bench --json [--smoke] [--out FILE]\n\
     \       bench --check FILE\n\n\
      Default: Bechamel micro-benchmarks, then the full figure/table\n\
      regeneration. --micro / --figures run only one half.\n\n\
      --json emits the " ^ bench_schema
   ^ " baseline document (--smoke: tiny\n\
      iteration counts — the shape is the contract, the numbers are\n\
      meaningless). --check validates a baseline file and gates the live\n\
      stepping rate, the recorded telemetry overhead (jobs-4 sharded\n\
      plane, <= 3.1%% full mode), the recorded per-op registry accounting\n\
      cost, the live snapshot-restore / fingerprint / memo-store-lookup /\n\
      flight-recorder costs, the fingerprint probe shape, the recorded\n\
      reduction factors (dpor >= por >= 1), the deterministic open-system\n\
      p99 (exact match on a live re-run), a live fig10 column against the\n\
      recorded wall time, the recorded flight-recorder overhead, the\n\
      recorded stage-attribution overhead (<= 5%% full mode), and the\n\
      windowed-record cost (absolute ceiling + live re-measure).\n\n\
      Probe shapes (numbers are only comparable for identical probes):\n\
     \  sim_steps_per_sec_jobs4[_telemetry]  the stepping probe fanned\n\
     \      over 4 domains via Par_runner; the telemetry variant gives\n\
     \      each domain a private sink shard (map_sharded) merged at the\n\
     \      join. telemetry_overhead_pct is the pair's ratio — the cost\n\
     \      of the fully-sharded measurement plane under parallel load.\n\
     \  registry_op_overhead_ns          (attached - detached) batch time\n\
     \      over 129 Counted queue ops per batch, with a 1-shard\n\
     \      set_sharded_sink attached: the whole accounting path\n\
     \      (shard routing included) amortized per queue op.\n\
     \  open_sim_p99_ticks               p99 sojourn of the default\n\
     \      open-system scenario at 200 requests (3 ff-the workers,\n\
     \      Poisson 2.0/ktick, exponential 400-tick services, seed 42).\n\
     \      Deterministic: --check re-runs it and requires equality.\n\
     \  fingerprint_ns / memo_lookup_ns / memo_store_lookup_ns\n\
     \      one Machine.fingerprint of a THEP worker machine stopped\n\
     \      exactly 200 steps into its run; the machine's live-cell count\n\
     \      is recorded as fingerprint_probe_cells and --check requires it\n\
     \      to match exactly (fingerprint cost is O(live cells) — the\n\
     \      pinned count is the probe shape; a 2-thread litmus machine\n\
     \      fingerprints ~5x faster, see EXPERIMENTS.md). memo_lookup adds\n\
     \      the in-memory Pareto table probe, memo_store_lookup the\n\
     \      persistent store's seen() (atomic counter + shard mutex +\n\
     \      the same Pareto check; no disk on the lookup path).\n\
     \  explorer_runs_per_sec            bounded FF-THE scenario, sb=1,\n\
     \      preemption bound 3, memo off, snapshot-based siblings.\n\
     \  explorer_por_runs_per_sec        same scenario with sleep-set POR:\n\
     \      completed runs per second, so fewer runs to the same verdict\n\
     \      lowers it even as the verdict arrives sooner.\n\
     \  explorer_dpor_runs_per_sec       same scenario with source-DPOR\n\
     \      (race-reversal backtracking on top of sleep sets).\n\
     \  por_reduction_factor /           plain runs / reduced runs on the\n\
     \  dpor_reduction_factor            minimal unbounded FF-THE scenario\n\
     \      (1 preloaded task, 1 steal attempt, no client stores). The\n\
     \      reduced searches exhaust it deterministically; plain cannot\n\
     \      (store-buffer drains), so plain is capped at the run budget\n\
     \      and both factors are lower bounds.\n\
     \  frontier_steal_rate              steals per frontier task, explorer\n\
     \      scenario fanned over 4 domains. Scheduling-dependent: gated\n\
     \      for positivity (full mode), not value.\n\
     \  snapshot_restore_ns              Machine.restore_into of a 40-step\n\
     \      default-scenario snapshot, minus the fresh-instance build both\n\
     \      explorer sibling paths share.\n\
     \  flight_recorder_event_ns         one single-writer ring record\n\
     \      (four int stores + one monotonic clock read) in a 1-slot\n\
     \      recorder; the ring wraps many times, so drop-oldest overwrite\n\
     \      is included. --check gates the recorded value under an\n\
     \      absolute ceiling (50 ns full mode) and re-measures live.\n\
     \  flight_overhead_pct              achieved service rps recorder-off\n\
     \      vs recorder-on, as %% of the off run; gated <= 10%% (full).\n\
     \  stage_attribution_overhead_pct   achieved service rps attribution-\n\
     \      off vs attribution-on (per-cell qwait/dispatch/service stamps\n\
     \      plus the windowed sojourn record), as %% of the off run;\n\
     \      gated <= 5%% (full).\n\
     \  windowed_record_ns               one Windowed.observe into a\n\
     \      16-slot ring with an advancing clock, so slot eviction (a\n\
     \      histogram reset) is amortized in; --check gates the recorded\n\
     \      value under an absolute ceiling and re-measures live.\n\
     \  native_*                         the OCaml 5 pool on real silicon,\n\
     \      3 worker domains: fib/graph task throughput and the Poisson\n\
     \      service benchmark (achieved rps, p99 sojourn). Wallclock — the\n\
     \      check gates positivity, not speed.\n")

let () =
  let argv = Sys.argv in
  let has f = Array.exists (String.equal f) argv in
  let value_of flag =
    let r = ref None in
    Array.iteri
      (fun i a -> if String.equal a flag && i + 1 < Array.length argv then r := Some argv.(i + 1))
      argv;
    !r
  in
  if has "--help" || has "-h" then usage ()
  else if has "--check" then
    match value_of "--check" with
    | Some f -> run_check f
    | None ->
        prerr_endline "usage: bench --check FILE";
        exit 2
  else if has "--json" then
    run_json ~smoke:(has "--smoke") ~out:(value_of "--out") ()
  else begin
    let micro_only = has "--micro" in
    let figures_only = has "--figures" in
    if not figures_only then run_micro ();
    if not micro_only then run_figures ()
  end
