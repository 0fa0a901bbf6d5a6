(* What every workload shares: the run's arguments, its report (failure
   accounting plus the metrics it measured), and the pass/set-up loops. *)

type ctx = {
  seed : int;
  seconds : float;
  trace : bool;  (** the per-layer run: spans on, per-layer metrics out *)
}

type report = {
  mutable attempted : int;
  mutable failed : int;
  mutable problems : string list;  (** newest first *)
  values : (string, float) Hashtbl.t;
  mutable threads : int;  (** most threads any phase used *)
}

let report () =
  {
    attempted = 0;
    failed = 0;
    problems = [];
    values = Hashtbl.create 64;
    threads = 1;
  }

let set r name v = Hashtbl.replace r.values name v
let seti r name v = set r name (float_of_int v)

(* An operation was attempted; [ok = false] counts it failed. *)
let attempt r ~ok what =
  r.attempted <- r.attempted + 1;
  if not ok then begin
    r.failed <- r.failed + 1;
    if List.length r.problems < 20 then r.problems <- what :: r.problems
  end

(* A whole-run check (not an operation): failing it fails the run. *)
let check r ~ok what = if not ok then attempt r ~ok what

let now_s () = float_of_int (Telemetry.Clock.now_ns ()) *. 1e-9

let timed f =
  let t0 = Telemetry.Clock.now_ns () in
  let v = f () in
  (v, float_of_int (Telemetry.Clock.now_ns () - t0) *. 1e-9)

(* Set up [k] times and keep the last value, with the [k] set-up times
   in a ref that [setup_again] adds to; the reported set-up time is the
   median of them all, so one slow first allocation does not set it. *)
let setups ~k f =
  let rec go i acc last =
    if i = k then (Option.get last, ref acc)
    else
      let v, t = timed f in
      go (i + 1) (t :: acc) (Some v)
  in
  go 0 [] None

(* One more set-up, timed into [times] and its value dropped. The host's
   speed drifts over seconds, so set-ups spread between the passes sample
   the same stretch of time as the passes; a burst at the start samples
   one moment. *)
let setup_again times f () =
  let _, t = timed f in
  times := t :: !times

(* Run [pass] (given its index) until [seconds] are used: another pass
   starts only if, at the median pass time so far, it would end no later
   than half a pass past the deadline. At least [min_passes] run.
   [between] runs, untimed, before every pass but the first. Returns the
   pass times, oldest first. *)
let passes ?(min_passes = 2) ?(between = ignore) ~seconds pass =
  let t_start = now_s () in
  let rec go i acc =
    let (), t = timed (fun () -> pass i) in
    let acc = t :: acc in
    let elapsed = now_s () -. t_start in
    if i + 1 < min_passes || elapsed +. (0.5 *. Stat.median acc) <= seconds
    then begin
      between ();
      go (i + 1) acc
    end
    else List.rev acc
  in
  go 0 []

(* In the traced run, even passes record spans and odd ones do not; the
   tracing overhead is the traced median over the untraced one. *)
let traced_pass ctx i = ctx.trace && i land 1 = 0

let overhead_pct ctx times =
  let tr = List.filteri (fun i _ -> traced_pass ctx i) times in
  let un = List.filteri (fun i _ -> not (traced_pass ctx i)) times in
  if tr = [] || un = [] then 0.0
  else 100.0 *. ((Stat.median tr /. Stat.median un) -. 1.0)

let us_of_ns ns = float_of_int ns /. 1e3

(* Median-of-passes per item, in ns: every pass repeats the same
   deterministic items, and the host's speed drifts within a run, so each
   item's median over the run's passes is its time at the run's typical
   speed. Passes must agree on the items. *)
let median_of r (passes : int array list) =
  match passes with
  | [] -> [||]
  | p0 :: _ ->
      if List.exists (fun p -> Array.length p <> Array.length p0) passes then begin
        check r ~ok:false "passes differ in their number of operations";
        [||]
      end
      else
        Array.init (Array.length p0) (fun i ->
            Stat.median (List.map (fun p -> float_of_int p.(i)) passes))

(* Fisher-Yates, in place, from the run's seeded generator. *)
let shuffle rng a =
  for k = Array.length a - 1 downto 1 do
    let j = Random.State.int rng (k + 1) in
    let t = a.(k) in
    a.(k) <- a.(j);
    a.(j) <- t
  done

(* The exact median of raw per-operation latencies (ns). *)
let op_median r (lat_ns : int array) =
  if Array.length lat_ns = 0 then check r ~ok:false "no operations measured"
  else set r "op.p50_us" (us_of_ns (Stat.percentile lat_ns 0.5))

(* Self time of each span name as a share of all traced root-span time. *)
let span_shares r ~root names =
  let spans = Spans.collect () in
  let st = Spans.self_times spans in
  let total =
    match Hashtbl.find_opt st root with Some (_, d, _) -> d | None -> 0
  in
  List.iter
    (fun nm ->
      let self =
        match Hashtbl.find_opt st (Spans.name nm) with
        | Some (_, _, s) -> s
        | None -> 0
      in
      set r
        ("self." ^ nm ^ "_pct")
        (if total = 0 then 0.0
         else 100.0 *. float_of_int self /. float_of_int total))
    names;
  seti r "trace.spans" (List.length spans);
  spans
