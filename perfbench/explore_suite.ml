(* explore-suite: three fixed model-checking scenarios through
   [Tso.Explore.search], with [Scenarios.instance] as [mk].
   A pass runs all three; the workload seed orders them within each pass.
   Each search is timed whole, and the rate is verdicts per second.
   Every explorer count is exact and is checked to repeat across passes. *)

open Ws_harness
module Explore = Tso.Explore

type scenario = {
  tag : string;
  spec : Scenarios.spec;
  pb : int;  (** CHESS preemption bound *)
  memo : bool;
  dpor : bool;
  clean : bool;  (** expected verdict: clean, or a counterexample *)
}

let base = Scenarios.default_spec

let scenarios =
  [|
    (* (a) DPOR and snapshot-restore heavy *)
    {
      tag = "a";
      spec =
        { base with queue = "ff-cl"; sb_capacity = 1; delta = 2; preloaded = 2; steal_attempts = 1 };
      pb = 2;
      memo = false;
      dpor = true;
      clean = true;
    };
    (* (b) fingerprint (memo) heavy *)
    {
      tag = "b";
      spec =
        { base with queue = "ff-the"; sb_capacity = 2; delta = 2; preloaded = 3; steal_attempts = 2 };
      pb = 3;
      memo = true;
      dpor = false;
      clean = true;
    };
    (* (c) THE without its take fence: stop at the first violation *)
    {
      tag = "c";
      spec =
        {
          base with
          queue = "the";
          sb_capacity = 1;
          delta = 2;
          preloaded = 2;
          steal_attempts = 1;
          worker_fence = false;
        };
      pb = 3;
      memo = false;
      dpor = false;
      clean = false;
    };
  |]

let sp_pass = Spans.name "explore.pass"
let sp_search = Spans.name "explore.search"
let sp_build = Spans.name "machine.build"
let sp_replay = Spans.name "explore.replay"

type counts = { runs : int; pruned : int; sleep_skips : int; memo_hits : int; mk_calls : int }

(* Set-up: one instance and a short warm-up search of each scenario, so
   the timed passes start with a grown heap. *)
let setup () =
  Array.iter
    (fun s ->
      ignore (Scenarios.instance s.spec ());
      ignore
        (Explore.search
           ~max_runs:(if s.memo then 100 else 2000)
           ~preemption_bound:(Some s.pb)
           ~memo:s.memo ~dpor:s.dpor ~mk:(Scenarios.instance s.spec) ()))
    scenarios

let run (ctx : Common.ctx) (r : Common.report) =
  let (), setup_ts = Common.setups ~k:3 setup in
  let rng = Random.State.make [| ctx.seed; 0xe8 |] in
  let counts = Hashtbl.create 8 in
  (* per scenario, the untraced passes' whole-search times *)
  let search_s = Hashtbl.create 8 in
  let build_ns = Stat.Ibuf.create () and build_words = ref 0.0 in
  let search (s : scenario) ~traced =
    let mk_calls = ref 0 in
    let mk () =
      incr mk_calls;
      if traced then begin
        let sp = Spans.enter sp_build in
        let w0 = Probe.words () in
        let t0 = Telemetry.Clock.now_ns () in
        let inst = Scenarios.instance s.spec () in
        Stat.Ibuf.add build_ns (Telemetry.Clock.now_ns () - t0);
        build_words := !build_words +. Probe.words_between w0;
        Spans.leave sp;
        inst
      end
      else Scenarios.instance s.spec ()
    in
    (* (c) stops at its first failure: checked after every completed run *)
    let on_progress =
      if s.clean then None
      else Some (fun (st : Explore.stats) -> if st.failures <> [] then raise Explore.Stop)
    in
    let st, t =
      Common.timed (fun () ->
          Spans.with_span sp_search (fun () ->
              Explore.search ~preemption_bound:(Some s.pb) ~memo:s.memo
                ~dpor:s.dpor ?on_progress ~progress_every:1 ~mk ()))
    in
    if not traced then
      Hashtbl.replace search_s s.tag
        (t :: Option.value ~default:[] (Hashtbl.find_opt search_s s.tag));
    let c =
      {
        runs = st.runs;
        pruned = st.pruned;
        sleep_skips = st.sleep_skips;
        memo_hits = st.memo_hits;
        mk_calls = !mk_calls;
      }
    in
    (match Hashtbl.find_opt counts s.tag with
    | None -> Hashtbl.replace counts s.tag c
    | Some c0 ->
        Common.check r ~ok:(c = c0)
          (Printf.sprintf "(%s): explorer counts differ between passes" s.tag));
    if s.clean then
      Common.attempt r
        ~ok:(st.failures = [] && st.truncated = 0 && st.covered = 1.0)
        (Printf.sprintf "(%s): expected a clean, fully covered verdict" s.tag)
    else
      match Explore.failures_in_replay_order st with
      | [] -> Common.attempt r ~ok:false (Printf.sprintf "(%s): no counterexample" s.tag)
      | (choices, msg) :: _ ->
          let replayed =
            Spans.with_span sp_replay (fun () ->
                Explore.replay_choices ~mk:(Scenarios.instance s.spec) choices)
          in
          Common.attempt r ~ok:(replayed = Error msg)
            (Printf.sprintf "(%s): counterexample does not replay to %S" s.tag msg)
  in
  let pass i =
    let traced = Common.traced_pass ctx i in
    Spans.on := traced;
    let order = Array.copy scenarios in
    Common.shuffle rng order;
    Spans.with_span sp_pass (fun () -> Array.iter (search ~traced) order);
    Spans.on := false
  in
  let times =
    Common.passes ~between:(Common.setup_again setup_ts setup) ~seconds:ctx.seconds pass
  in
  Common.set r "setup_s" (Stat.median !setup_ts);
  let untraced = List.filteri (fun i _ -> not (Common.traced_pass ctx i)) times in
  (* each scenario's median search time over the passes: a verdict, as a
     user waits for it, GC work included *)
  let med tag = Stat.median (Hashtbl.find search_s tag) in
  let a = med "a" and b = med "b" and c = med "c" in
  Common.set r "rate_per_s" (3.0 /. (a +. b +. c));
  Common.set r "explore.wall_s" (Stat.median untraced);
  Common.set r "explore.verdict_s" (a +. b);
  Common.set r "explore.counterexample_s" c;
  let mk_total = ref 0 and runs = ref 0 in
  Array.iter
    (fun s ->
      let c = Hashtbl.find counts s.tag in
      Printf.printf "explore (%s): %d runs, %d memo hits, median search %.3f s\n" s.tag
        c.runs c.memo_hits (med s.tag);
      Common.seti r ("explore." ^ s.tag ^ ".runs") c.runs;
      Common.seti r ("explore." ^ s.tag ^ ".pruned") c.pruned;
      Common.seti r ("explore." ^ s.tag ^ ".sleep_skips") c.sleep_skips;
      Common.seti r ("explore." ^ s.tag ^ ".memo_hits") c.memo_hits;
      mk_total := !mk_total + c.mk_calls;
      runs := !runs + c.runs)
    scenarios;
  Common.seti r "explore.mk_calls" !mk_total;
  Common.set r "explore.runs_per_mk" (float_of_int !runs /. float_of_int (max 1 !mk_total));
  if ctx.trace then begin
    Common.set r "trace.overhead_pct" (Common.overhead_pct ctx times);
    let b = Stat.Ibuf.to_array build_ns in
    if Array.length b > 0 then begin
      Common.set r "machine.build_ns" (float_of_int (Stat.percentile b 0.5));
      Common.set r "machine.build_words" (!build_words /. float_of_int (Array.length b))
    end;
    let spans =
      Common.span_shares r ~root:sp_pass
        [ "explore.pass"; "explore.search"; "machine.build"; "explore.replay" ]
    in
    Probe.machine r ~seed:ctx.seed ~walks:400
      (Array.to_list (Array.map (fun s -> s.spec) scenarios));
    spans
  end
  else []
