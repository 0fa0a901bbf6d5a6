(* The repo benchmark. Run from the repository root (run.py builds and
   starts it):

     main.exe --workload W --seed N --seconds S --trace 0|1

   BENCHMARK.json names two workloads, sim-fig10 and native-forkjoin. The
   traced run of each first runs explore-suite or native-service, so the
   explorer and the submit/injector/park-wake layers are measured too;
   those two are not timed end to end (NOTES.md says why) but also run on
   their own. The metric names and units come from BENCHMARK.json: with
   --trace 0 the last stdout line carries every end-to-end metric, with
   --trace 1 every per-layer metric (0 for a layer the workload does not
   exercise). Spans of a traced run are written under .bench_build/spans/.
   The exit code is 0 only if every correctness check passed. *)

(* name -> threads needed, the workload, and the layer phases its traced
   run adds, each with the seconds it is given (1 s holds explore-suite to
   its minimum of two passes). A layer phase runs first,
   into the same report: the workload's own metrics then overwrite the
   names they share (set-up, rate, trace overhead, op.p50_us). *)
let workloads =
  [
    ("sim-fig10", (1, Sim_fig10.run, [ (Explore_suite.run, 1.0) ]));
    ("native-forkjoin", (2, Forkjoin.run, [ (Service.run, 10.0) ]));
    ("explore-suite", (1, Explore_suite.run, []));
    ("native-service", (2, Service.run, []));
  ]

let usage () =
  prerr_endline
    "usage: main.exe --workload (sim-fig10|explore-suite|native-forkjoin|\
     native-service) --seed N --seconds S --trace 0|1";
  exit 2

let args () =
  let rec go acc = function
    | k :: v :: rest when String.length k > 2 && String.sub k 0 2 = "--" ->
        go ((String.sub k 2 (String.length k - 2), v) :: acc) rest
    | [] -> acc
    | _ -> usage ()
  in
  let kv = go [] (List.tl (Array.to_list Sys.argv)) in
  let get k = match List.assoc_opt k kv with Some v -> v | None -> usage () in
  let int k = match int_of_string_opt (get k) with Some i -> i | None -> usage () in
  let trace = match get "trace" with "0" -> false | "1" -> true | _ -> usage () in
  (get "workload", { Common.seed = int "seed"; seconds = float_of_int (int "seconds"); trace })

(* (name, unit) of each metric in one section of BENCHMARK.json. *)
let metric_specs section =
  let module J = Telemetry.Json in
  match J.parse_file "BENCHMARK.json" with
  | Error e -> failwith ("BENCHMARK.json: " ^ e)
  | Ok doc -> (
      match J.member section doc with
      | Some (J.List ms) ->
          List.map
            (fun m ->
              match (J.member "name" m, J.member "unit" m) with
              | Some (J.Str n), Some (J.Str u) -> (n, u)
              | _ -> failwith ("BENCHMARK.json: malformed " ^ section))
            ms
      | _ -> failwith ("BENCHMARK.json: no " ^ section))

let json_number v =
  if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.0f" v
  else Printf.sprintf "%.17g" v

let () =
  let workload, ctx = args () in
  let threads_needed, run, layers_run =
    match List.assoc_opt workload workloads with Some w -> w | None -> usage ()
  in
  let e2e = metric_specs "end_to_end" and layers = metric_specs "per_layer" in
  let r = Common.report () in
  Selftest.run r;
  let nproc = Domain.recommended_domain_count () in
  Printf.printf "perfbench: workload=%s seed=%d seconds=%.0f trace=%d\n%!"
    workload ctx.seed ctx.seconds (if ctx.trace then 1 else 0);
  let spans =
    if threads_needed > nproc then begin
      Common.check r ~ok:false
        (Printf.sprintf "needs %d threads, nproc is %d" threads_needed nproc);
      []
    end
    else
      try
        if ctx.trace then
          List.iter
            (fun (phase, seconds) -> ignore (phase { ctx with seconds } r))
            layers_run;
        run ctx r
      with e ->
        Common.check r ~ok:false ("exception: " ^ Printexc.to_string e);
        []
  in
  Common.check r ~ok:(r.threads <= nproc)
    (Printf.sprintf "used %d threads, nproc is %d" r.threads nproc);
  Common.seti r "threads.nproc" nproc;
  Common.seti r "threads.used" r.threads;
  Printf.printf "threads: nproc=%d used=%d\n" nproc r.threads;
  if spans <> [] then begin
    let dir = Filename.concat ".bench_build" "spans" in
    if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
    let path = Filename.concat dir (workload ^ ".tsv") in
    Spans.write path spans;
    Printf.printf "spans: %d written to %s\n" (List.length spans) path
  end;
  let wanted = if ctx.trace then layers else e2e in
  let units = e2e @ layers in
  List.iter
    (fun (name, v) ->
      let unit = Option.value ~default:"" (List.assoc_opt name units) in
      Printf.printf "  %-34s %s %s\n" name (json_number v) unit)
    (List.sort compare (List.of_seq (Hashtbl.to_seq r.values)));
  let fields =
    List.map
      (fun (name, unit) ->
        let v =
          match Hashtbl.find_opt r.values name with
          | Some v -> v
          | None ->
              (* an end-to-end metric must be measured; a layer the
                 workload bypasses reads 0 *)
              if not ctx.trace then
                Common.check r ~ok:false ("metric not measured: " ^ name);
              0.0
        in
        Common.check r ~ok:(Float.is_finite v) ("metric is not finite: " ^ name);
        Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" name
          (json_number (if Float.is_finite v then v else 0.0))
          unit)
      wanted
  in
  List.iter (fun p -> Printf.eprintf "FAILED: %s\n" p) (List.rev r.problems);
  let correct = r.failed = 0 in
  Printf.printf "failed_frac: %d / %d\n" r.failed (max 1 r.attempted);
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    correct (max 1 r.attempted) r.failed (String.concat ", " fields);
  exit (if correct then 0 else 1)
