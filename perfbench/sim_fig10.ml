(* sim-fig10: the Fig. 10 Haswell grid (11 Cilk benchmarks x the THE
   baseline and the five fence-free variants, one seed), as closed batch
   work through [Runner.config] and [Engine.run_timed]. A pass is one full
   grid; the workload seed only orders the grid points within each pass,
   so every simulated count and the figure itself stay exact. *)

open Ws_harness
module Engine = Ws_runtime.Engine

let machine = Machine_config.haswell
let variants = Array.of_list (Variants.the_baseline :: Variants.fig10)

(* The seed [Exp_fig10.compute ~repeats:1] runs each grid point with. *)
let fig10_seed = 11

let sp_pass = Spans.name "sim.pass"
let sp_config = Spans.name "sim.config"
let sp_instantiate = Spans.name "sim.instantiate"
let sp_run = Spans.name "engine.run_timed"

type counts = {
  mutable steps : int;
  mutable cycles : int;
  mutable stall : int;
  mutable steals : int;
  mutable steal_attempts : int;
}

(* Build the grid: the benchmark DAGs (from their computations, not the
   suite's cache, so each set-up pays for construction). *)
let setup () =
  Array.of_list
    (List.map
       (fun (b : Ws_workloads.Cilk_suite.bench) ->
         (b.name, Ws_runtime.Dag.of_comp (b.comp ())))
       Ws_workloads.Cilk_suite.all)

let run (ctx : Common.ctx) (r : Common.report) =
  let grid, setup_ts = Common.setups ~k:3 setup in
  (* the suite's own DAGs must be the ones we built *)
  Array.iter
    (fun (name, dag) ->
      let ref_dag = Ws_workloads.Cilk_suite.(dag (find name)) in
      Common.check r
        ~ok:
          (Ws_runtime.Dag.size dag = Ws_runtime.Dag.size ref_dag
          && Ws_runtime.Dag.total_work dag = Ws_runtime.Dag.total_work ref_dag)
        (name ^ ": rebuilt DAG differs from the suite's"))
    grid;
  let nb = Array.length grid and nv = Array.length variants in
  let rng = Random.State.make [| ctx.seed; 0xf10 |] in
  let makespans = Array.make_matrix nb nv 0 in
  let point_ns = ref [] in
  let run_words = ref 0.0 and traced_steps = ref 0 in
  let per_pass = ref [] in
  let pass i =
    let traced = Common.traced_pass ctx i in
    Spans.on := traced;
    let c = { steps = 0; cycles = 0; stall = 0; steals = 0; steal_attempts = 0 } in
    let ns = Array.make (nb * nv) 0 in
    let order = Array.init (nb * nv) Fun.id in
    Common.shuffle rng order;
    Spans.with_span sp_pass (fun () ->
        Array.iter
          (fun p ->
            let bi = p / nv and vi = p mod nv in
            let name, dag = grid.(bi) and v = variants.(vi) in
            let cfg =
              Spans.with_span sp_config (fun () ->
                  Runner.config machine v ~seed:fig10_seed ())
            in
            let wl =
              Spans.with_span sp_instantiate (fun () ->
                  Ws_runtime.Dag.instantiate dag ~name)
            in
            let w0 = if traced then Probe.words () else 0.0 in
            let sp = Spans.enter sp_run in
            let t0 = Telemetry.Clock.now_ns () in
            let res = Engine.run_timed cfg wl in
            let dt = Telemetry.Clock.now_ns () - t0 in
            Spans.leave sp;
            ns.(p) <- dt;
            let ok =
              res.Engine.outcome = Tso.Sched.Quiescent
              && res.lost = 0 && res.duplicates = 0 && res.timing <> None
            in
            Common.attempt r ~ok
              (Printf.sprintf "%s/%s: not quiescent or lost/duplicated tasks"
                 name v.Variants.label);
            match res.timing with
            | None -> ()
            | Some t ->
                if traced then begin
                  run_words := !run_words +. Probe.words_between w0;
                  traced_steps := !traced_steps + t.Tso.Timing.steps
                end;
                makespans.(bi).(vi) <- t.Tso.Timing.makespan;
                c.steps <- c.steps + t.steps;
                c.cycles <- c.cycles + t.makespan;
                Array.iter
                  (fun (th : Tso.Timing.thread_stats) ->
                    c.stall <- c.stall + th.fence_stall)
                  t.threads;
                c.steals <- c.steals + Ws_runtime.Metrics.total_steals res.metrics;
                c.steal_attempts <-
                  c.steal_attempts
                  + Ws_runtime.Metrics.total_steal_attempts res.metrics)
          order);
    Spans.on := false;
    if not traced then point_ns := ns :: !point_ns;
    per_pass := (traced, c) :: !per_pass
  in
  let times =
    Common.passes ~between:(Common.setup_again setup_ts setup) ~seconds:ctx.seconds pass
  in
  Common.set r "setup_s" (Stat.median !setup_ts);
  let per_pass = List.rev !per_pass in
  let rows =
    Array.to_list
      (Array.mapi
         (fun bi (name, _) ->
           let base = float_of_int makespans.(bi).(0) in
           {
             Exp_fig10.bench = name;
             baseline = base;
             cells =
               List.mapi
                 (fun i (v : Variants.t) ->
                   ( v.label,
                     100.0 *. float_of_int makespans.(bi).(i + 1) /. base ))
                 Variants.fig10;
           })
         grid)
  in
  let geomean = List.assoc "THEP d=4" (Exp_fig10.geomean_row rows) in
  (* the figure the library itself computes, outside the timed window *)
  let reference =
    List.assoc "THEP d=4"
      (Exp_fig10.geomean_row (Exp_fig10.compute machine ~repeats:1 ()))
  in
  Common.check r ~ok:(geomean = reference)
    (Printf.sprintf "THEP d=4 geomean %.17g%% differs from Exp_fig10's %.17g%%"
       geomean reference);
  (* every pass, traced or not, must simulate exactly the same thing *)
  let _, c0 = List.hd per_pass in
  List.iter
    (fun (traced, c) ->
      Common.check r ~ok:(c = c0)
        (Printf.sprintf "simulated counts differ between passes (traced=%b)"
           traced))
    per_pass;
  let untraced =
    List.filteri (fun i _ -> not (Common.traced_pass ctx i)) times
  in
  let med = Common.median_of r !point_ns in
  let med_s = Array.fold_left ( +. ) 0.0 med *. 1e-9 in
  Common.set r "rate_per_s" (float_of_int c0.steps /. med_s);
  Common.op_median r (Array.map Float.to_int med);
  Common.set r "fig10.wall_s" (Stat.median untraced);
  Common.set r "fig10.run_timed_s" med_s;
  Common.set r "fig10.thep_d4_geomean_pct" geomean;
  Common.seti r "timing.steps" c0.steps;
  Common.seti r "timing.sim_cycles" c0.cycles;
  Common.seti r "timing.fence_stall_cycles" c0.stall;
  Common.set r "engine.steal_success_ratio"
    (float_of_int c0.steals /. float_of_int (max 1 c0.steal_attempts));
  if ctx.trace then begin
    Common.set r "trace.overhead_pct" (Common.overhead_pct ctx times);
    let spans =
      Common.span_shares r ~root:sp_pass
        [ "sim.pass"; "sim.config"; "sim.instantiate"; "engine.run_timed" ]
    in
    let runs =
      List.filter_map
        (fun (s : Spans.span) ->
          if s.sname = sp_run then Some (s.t1 - s.t0) else None)
        spans
    in
    Common.set r "engine.run_ms"
      (float_of_int (Stat.percentile (Array.of_list runs) 0.5) /. 1e6);
    let run_total = List.fold_left ( + ) 0 runs in
    Common.set r "engine.ns_per_step"
      (float_of_int run_total /. float_of_int (max 1 !traced_steps));
    Common.set r "engine.words_per_step"
      (!run_words /. float_of_int (max 1 !traced_steps));
    spans
  end
  else []
