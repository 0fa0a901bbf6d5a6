(* Self-tests of the benchmark's own arithmetic on synthetic inputs: exact
   percentiles, the stage decomposition, and span self time. Every run
   executes them first; a failure fails the run. *)

let cases () =
  let ( => ) name ok = (name, ok) in
  let ints = Array.init 100 (fun i -> 100 - i) in
  let st =
    Stat.stages ~due:[| 0; 10 |] ~sub:[| 3; 10 |] ~start:[| 7; 25 |]
      ~fin:[| 20; 26 |]
  in
  let ord due sub start fin =
    Stat.ordered ~due:[| due |] ~sub:[| sub |] ~start:[| start |] ~fin:[| fin |] 0
  in
  (* root [0,100] with children A [10,30] and B [20,50] overlapping, a
     grandchild [12,14] under A, and a child on another domain that
     outlives the root, [90,120] *)
  let sp id parent t0 t1 = { Spans.sid = id; sname = id; sparent = parent; t0; t1 } in
  let self =
    Spans.self_times
      [ sp 0 (-1) 0 100; sp 1 0 10 30; sp 2 0 20 50; sp 3 1 12 14; sp 4 0 90 120 ]
  in
  let self_of id = let _, _, s = Hashtbl.find self id in s in
  [
    "p50 of 5 samples" => (Stat.percentile [| 5; 1; 4; 2; 3 |] 0.5 = 3);
    "p90 of 1..100" => (Stat.percentile ints 0.9 = 90);
    "p99 of 1..100" => (Stat.percentile ints 0.99 = 99);
    "p99.9 of 1..100 is the max" => (Stat.percentile ints 0.999 = 100);
    "p100 is the max" => (Stat.percentile ints 1.0 = 100);
    "tiny p is the min" => (Stat.percentile ints 0.001 = 1);
    "p90 of 10 samples is the 9th" => (Stat.percentile (Array.init 10 succ) 0.9 = 9);
    "median of an even count" => (Stat.median [ 1.0; 3.0 ] = 2.0);
    "median of an odd count" => (Stat.median [ 3.0; 1.0; 2.0 ] = 2.0);
    "stages" =>
      (st.qwait = [| 3; 0 |] && st.dispatch = [| 4; 15 |]
      && st.service = [| 13; 1 |] && st.sojourn = [| 20; 16 |]
      && st.residual = 0);
    "ordered stamps pass" => (ord 1 3 7 20 && ord 5 5 5 5);
    "an unwritten stamp fails" => (not (ord 1 3 0 20) && not (ord 0 0 0 0));
    "dispatch before submit fails" => not (ord 1 8 7 20);
    "root self time subtracts the union of its children" => (self_of 0 = 50);
    "child self time subtracts its grandchild" => (self_of 1 = 18);
    "leaf self time is its duration" => (self_of 2 = 30 && self_of 3 = 2);
    "a child outliving its parent keeps its own duration" => (self_of 4 = 30);
  ]

let run (r : Common.report) =
  List.iter
    (fun (name, ok) -> Common.check r ~ok ("self-test failed: " ^ name))
    (cases ())
