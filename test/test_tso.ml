(* Tests for the bounded-TSO substrate: memory, store buffers (both models),
   the abstract machine's transition semantics, schedulers, the explorer and
   the timing engine. *)

open Tso

let check = Alcotest.check
let checki = check Alcotest.int
let checkb = check Alcotest.bool

(* ------------------------------------------------------------------ *)
(* Memory                                                              *)
(* ------------------------------------------------------------------ *)

let test_memory_alloc () =
  let mem = Memory.create () in
  let a = Memory.alloc mem ~name:"x" ~init:7 in
  let b = Memory.alloc mem ~name:"y" ~init:0 in
  checki "x init" 7 (Memory.get mem a);
  checki "y init" 0 (Memory.get mem b);
  Memory.set mem b 42;
  checki "y set" 42 (Memory.get mem b);
  checki "size" 2 (Memory.size mem);
  check Alcotest.string "name x" "x" (Memory.name mem a);
  check Alcotest.string "name y" "y" (Memory.name mem b)

let test_memory_array () =
  let mem = Memory.create () in
  let base = Memory.alloc_array mem ~name:"t" ~len:5 ~init:(-1) in
  checki "size" 5 (Memory.size mem);
  for i = 0 to 4 do
    checki "init" (-1) (Memory.get mem (Addr.offset base i))
  done;
  Memory.set mem (Addr.offset base 3) 9;
  checki "set elem" 9 (Memory.get mem (Addr.offset base 3));
  check Alcotest.string "elem name" "t[3]" (Memory.name mem (Addr.offset base 3));
  check (Alcotest.array Alcotest.int) "snapshot"
    [| -1; -1; -1; 9; -1 |]
    (Memory.snapshot mem)

let test_memory_growth () =
  let mem = Memory.create () in
  let addrs = List.init 500 (fun i -> Memory.alloc mem ~name:(Printf.sprintf "c%d" i) ~init:i) in
  List.iteri (fun i a -> checki "grown cell" i (Memory.get mem a)) addrs

let test_memory_oob () =
  let mem = Memory.create () in
  let _ = Memory.alloc mem ~name:"x" ~init:0 in
  Alcotest.check_raises "oob" (Invalid_argument "Memory: address 5 out of bounds (size 1)")
    (fun () -> ignore (Memory.get mem (Addr.of_index 5)))

(* Cell names are formatted on demand from one name per allocation; they
   must read exactly as eagerly formatted per-cell names would, across
   scalars, arrays of every length and the boundaries between them. *)
let test_memory_names_on_demand () =
  let mem = Memory.create () in
  let expected = ref [] in
  let scalar name init =
    ignore (Memory.alloc mem ~name ~init);
    expected := (name, init) :: !expected
  in
  let array name len =
    ignore (Memory.alloc_array mem ~name ~len ~init:len);
    for i = 0 to len - 1 do
      expected := (Printf.sprintf "%s[%d]" name i, len) :: !expected
    done
  in
  scalar "H" 1;
  array "q0.tasks" 17;
  scalar "T" 2;
  scalar "lock" 3;
  array "one" 1;
  array "q1.tasks" 1000;
  for k = 0 to 11 do
    array (Printf.sprintf "a%d" k) (k + 2);
    scalar (Printf.sprintf "s%d" k) k
  done;
  let expected = Array.of_list (List.rev !expected) in
  checki "size" (Array.length expected) (Memory.size mem);
  Array.iteri
    (fun i (name, _) ->
      check Alcotest.string
        (Printf.sprintf "name of cell %d" i)
        name
        (Memory.name mem (Addr.of_index i)))
    expected;
  let eager_pp =
    Format.asprintf "%t" (fun ppf ->
        Format.fprintf ppf "@[<v>";
        Array.iter (fun (n, v) -> Format.fprintf ppf "%s = %d@," n v) expected;
        Format.fprintf ppf "@]")
  in
  check Alcotest.string "pp" eager_pp (Format.asprintf "%a" Memory.pp mem);
  let size = Memory.size mem in
  List.iter
    (fun i ->
      Alcotest.check_raises
        (Printf.sprintf "name of cell %d" i)
        (Invalid_argument
           (Printf.sprintf "Memory: address %d out of bounds (size %d)" i size))
        (fun () -> ignore (Memory.name mem (Addr.of_index i))))
    [ -1; size; size + 5 ]

(* ------------------------------------------------------------------ *)
(* Store buffer                                                        *)
(* ------------------------------------------------------------------ *)

let mk_mem2 () =
  let mem = Memory.create () in
  let x = Memory.alloc mem ~name:"x" ~init:0 in
  let y = Memory.alloc mem ~name:"y" ~init:0 in
  (mem, x, y)

let test_sb_fifo () =
  let mem, x, y = mk_mem2 () in
  let sb = Store_buffer.create ~capacity:4 ~model:Store_buffer.Abstract in
  Store_buffer.push sb x 1;
  Store_buffer.push sb y 2;
  Store_buffer.push sb x 3;
  checki "entries" 3 (Store_buffer.entries sb);
  check (Alcotest.option Alcotest.int) "lookup newest x" (Some 3) (Store_buffer.lookup sb x);
  check (Alcotest.option Alcotest.int) "lookup y" (Some 2) (Store_buffer.lookup sb y);
  (match Store_buffer.drain sb mem with
  | Store_buffer.Wrote (a, v) ->
      checkb "first drain is oldest" true (Addr.equal a x);
      checki "oldest value" 1 v
  | _ -> Alcotest.fail "abstract drain must write memory");
  checki "memory x after drain" 1 (Memory.get mem x);
  check (Alcotest.option Alcotest.int) "x still forwarded from newer entry" (Some 3)
    (Store_buffer.lookup sb x)

let test_sb_capacity () =
  let _, x, _ = mk_mem2 () in
  let sb = Store_buffer.create ~capacity:2 ~model:Store_buffer.Abstract in
  Store_buffer.push sb x 1;
  Store_buffer.push sb x 2;
  checkb "full" true (Store_buffer.is_full sb);
  Alcotest.check_raises "push full" (Invalid_argument "Store_buffer.push: buffer full")
    (fun () -> Store_buffer.push sb x 3)

let test_sb_egress () =
  let mem, x, y = mk_mem2 () in
  let sb = Store_buffer.create ~capacity:2 ~model:(Store_buffer.Realistic { coalesce = false }) in
  Store_buffer.push sb x 1;
  Store_buffer.push sb y 2;
  (match Store_buffer.drain sb mem with
  | Store_buffer.Staged (a, 1) -> checkb "staged x" true (Addr.equal a x)
  | _ -> Alcotest.fail "realistic drain stages into B");
  checki "memory untouched while in B" 0 (Memory.get mem x);
  check (Alcotest.option Alcotest.int) "B still forwards" (Some 1) (Store_buffer.lookup sb x);
  (* without coalescing, B must flush before the next (different-address) drain *)
  checkb "cannot drain y over occupied B" false (Store_buffer.can_drain sb);
  let a, v = Store_buffer.flush_egress sb mem in
  checkb "flushed x" true (Addr.equal a x);
  checki "flushed value" 1 v;
  checki "memory x" 1 (Memory.get mem x);
  checkb "can drain y now" true (Store_buffer.can_drain sb)

let test_sb_coalescing () =
  let mem, x, _ = mk_mem2 () in
  let sb = Store_buffer.create ~capacity:3 ~model:(Store_buffer.Realistic { coalesce = true }) in
  Store_buffer.push sb x 1;
  Store_buffer.push sb x 2;
  Store_buffer.push sb x 3;
  ignore (Store_buffer.drain sb mem) (* x:=1 staged in B *);
  (match Store_buffer.drain sb mem with
  | Store_buffer.Coalesced (a, 2) -> checkb "coalesced same addr" true (Addr.equal a x)
  | _ -> Alcotest.fail "same-address drain must coalesce into B");
  ignore (Store_buffer.drain sb mem) (* x:=3 coalesces too *);
  checki "nothing reached memory yet" 0 (Memory.get mem x);
  let _, v = Store_buffer.flush_egress sb mem in
  checki "B holds newest coalesced value" 3 v;
  checki "memory sees only final value" 3 (Memory.get mem x);
  checkb "empty" true (Store_buffer.is_empty sb)

let test_sb_no_cross_address_coalescing () =
  let mem, x, y = mk_mem2 () in
  let sb = Store_buffer.create ~capacity:3 ~model:(Store_buffer.Realistic { coalesce = true }) in
  Store_buffer.push sb x 1;
  Store_buffer.push sb y 2;
  ignore (Store_buffer.drain sb mem);
  (* y may not coalesce over x: TSO would break (§7.3's A/B example) *)
  checkb "different address cannot drain into occupied B" false
    (Store_buffer.can_drain sb);
  ignore (Store_buffer.flush_egress sb mem);
  ignore (Store_buffer.drain sb mem);
  ignore (Store_buffer.flush_egress sb mem);
  checki "x" 1 (Memory.get mem x);
  checki "y" 2 (Memory.get mem y)

let test_sb_lookup_shadows_egress () =
  (* forwarding precedence: the newest entry of the buffer proper must
     shadow an older same-address store staged in B *)
  let mem, x, _ = mk_mem2 () in
  let sb =
    Store_buffer.create ~capacity:2
      ~model:(Store_buffer.Realistic { coalesce = false })
  in
  Store_buffer.push sb x 1;
  ignore (Store_buffer.drain sb mem) (* x:=1 staged into B *);
  check (Alcotest.option Alcotest.int) "B forwards when queue empty" (Some 1)
    (Store_buffer.lookup sb x);
  Store_buffer.push sb x 2;
  check (Alcotest.option Alcotest.int) "newest queue entry shadows B" (Some 2)
    (Store_buffer.lookup sb x);
  (match Store_buffer.egress_entry sb with
  | Some (a, 1) -> checkb "B holds the oldest store" true (Addr.equal a x)
  | _ -> Alcotest.fail "expected x:=1 in B");
  (match Store_buffer.buffered sb with
  | [ (a, 2) ] -> checkb "buffer proper holds the newest" true (Addr.equal a x)
  | _ -> Alcotest.fail "expected [x:=2] in the buffer proper");
  ignore (Store_buffer.flush_egress sb mem);
  checki "memory got B's value" 1 (Memory.get mem x);
  check (Alcotest.option Alcotest.int) "queue still forwards after flush"
    (Some 2) (Store_buffer.lookup sb x)

let test_sb_pso_lanes_stable () =
  let mem, x, y = mk_mem2 () in
  let sb = Store_buffer.create ~capacity:4 ~model:Store_buffer.Pso in
  Store_buffer.push sb y 1;
  Store_buffer.push sb x 2;
  Store_buffer.push sb y 3;
  let lanes = Store_buffer.drain_lanes sb in
  check (Alcotest.list Alcotest.int) "one sorted lane per pending address"
    [ Addr.to_index x; Addr.to_index y ]
    lanes;
  check (Alcotest.list Alcotest.int) "lanes are stable across calls" lanes
    (Store_buffer.drain_lanes sb);
  (match Store_buffer.drain_lane sb (Addr.to_index y) mem with
  | Store_buffer.Wrote (a, 1) -> checkb "oldest y first" true (Addr.equal a y)
  | _ -> Alcotest.fail "PSO drain writes memory directly");
  check (Alcotest.list Alcotest.int) "y still pending: lanes unchanged"
    [ Addr.to_index x; Addr.to_index y ]
    (Store_buffer.drain_lanes sb);
  (match Store_buffer.drain_lane sb (Addr.to_index y) mem with
  | Store_buffer.Wrote (_, 3) -> ()
  | _ -> Alcotest.fail "second y drain must write y:=3");
  check (Alcotest.list Alcotest.int) "y lane disappears once empty"
    [ Addr.to_index x ]
    (Store_buffer.drain_lanes sb)

(* qcheck: the abstract store buffer against a reference list model. *)
let sb_model_prop =
  QCheck.Test.make ~name:"store buffer matches reference model" ~count:300
    QCheck.(list (pair (int_bound 3) (int_bound 100)))
    (fun ops ->
      let mem = Memory.create () in
      let addrs = Array.init 4 (fun i -> Memory.alloc mem ~name:(Printf.sprintf "a%d" i) ~init:0) in
      let sb = Store_buffer.create ~capacity:8 ~model:Store_buffer.Abstract in
      (* reference: pending stores as a list (oldest first) + memory array *)
      let pending = ref [] in
      let refmem = Array.make 4 0 in
      List.iter
        (fun (ai, v) ->
          (* interleave pushes with occasional drains *)
          if Store_buffer.is_full sb || (v mod 5 = 0 && Store_buffer.can_drain sb)
          then begin
            (match Store_buffer.drain sb mem with
            | Store_buffer.Wrote _ -> ()
            | _ -> assert false);
            match !pending with
            | (i, w) :: rest ->
                refmem.(i) <- w;
                pending := rest
            | [] -> assert false
          end;
          Store_buffer.push sb addrs.(ai) v;
          pending := !pending @ [ (ai, v) ])
        ops;
      (* check forwarding for every address *)
      let ok_fwd =
        List.for_all
          (fun i ->
            let expected =
              List.fold_left
                (fun acc (j, v) -> if i = j then Some v else acc)
                None !pending
            in
            Store_buffer.lookup sb addrs.(i) = expected)
          [ 0; 1; 2; 3 ]
      in
      (* drain everything and compare final memory *)
      while Store_buffer.can_drain sb do
        ignore (Store_buffer.drain sb mem)
      done;
      List.iter (fun (i, v) -> refmem.(i) <- v) !pending;
      ok_fwd
      && List.for_all
           (fun i -> Memory.get mem addrs.(i) = refmem.(i))
           [ 0; 1; 2; 3 ])

(* qcheck: the ring buffer against a list model under every buffer model,
   over long push/drain/flush sequences on small capacities, so the ring
   wraps many times. Every observable is compared after every operation. *)
let sb_ring_differential_prop =
  let models =
    [|
      Store_buffer.Abstract;
      Store_buffer.Realistic { coalesce = false };
      Store_buffer.Realistic { coalesce = true };
      Store_buffer.Pso;
    |]
  in
  QCheck.Test.make ~name:"ring store buffer matches a list model" ~count:400
    QCheck.(
      triple (int_bound 3) (int_range 1 5)
        (list_of_size Gen.(int_range 50 300)
           (triple (int_bound 3) (int_bound 2) (int_bound 99))))
    (fun (mi, capacity, ops) ->
      let model = models.(mi) in
      let mem = Memory.create () in
      let addrs =
        Array.init 3 (fun i ->
            Memory.alloc mem ~name:(Printf.sprintf "a%d" i) ~init:0)
      in
      let sb = Store_buffer.create ~capacity ~model in
      (* the model: pending stores oldest-first, B, memory *)
      let pending = ref [] and egress = ref None in
      let refmem = Array.make 3 0 in
      let coalesce =
        match model with Store_buffer.Realistic { coalesce } -> coalesce | _ -> false
      in
      let entry (i, v) = (addrs.(i), v) in
      let model_lookup i =
        match List.filter (fun (j, _) -> j = i) !pending |> List.rev with
        | (_, v) :: _ -> Some v
        | [] -> (
            match !egress with Some (j, v) when j = i -> Some v | _ -> None)
      in
      let model_can_drain () =
        match (!pending, model) with
        | [], _ -> false
        | (i, _) :: _, Store_buffer.Realistic _ -> (
            match !egress with None -> true | Some (j, _) -> coalesce && i = j)
        | _ -> true
      in
      let model_lanes () =
        match model with
        | Store_buffer.Pso ->
            List.sort_uniq compare
              (List.map (fun (i, _) -> Addr.to_index addrs.(i)) !pending)
        | _ -> if model_can_drain () then [ 0 ] else []
      in
      let rec remove_first i = function
        | [] -> assert false
        | (j, v) :: rest when j = i -> ((j, v), rest)
        | e :: rest ->
            let found, rest = remove_first i rest in
            (found, e :: rest)
      in
      let same = ref true in
      let expect b = if not b then same := false in
      let observe () =
        let buffered = List.map entry !pending in
        expect (Store_buffer.buffered sb = buffered);
        let seen = ref [] in
        Store_buffer.iter_entries sb (fun a v -> seen := (a, v) :: !seen);
        expect (List.rev !seen = buffered);
        expect
          (Store_buffer.to_list sb
          = (match !egress with None -> [] | Some e -> [ entry e ]) @ buffered);
        expect (Store_buffer.egress_entry sb = Option.map entry !egress);
        expect
          (Store_buffer.oldest sb
          = match !pending with [] -> None | e :: _ -> Some (entry e));
        expect (Store_buffer.entries sb = List.length !pending);
        expect
          (Store_buffer.pending sb
          = List.length !pending + if !egress = None then 0 else 1);
        expect (Store_buffer.is_full sb = (List.length !pending >= capacity));
        expect (Store_buffer.can_drain sb = model_can_drain ());
        expect (Store_buffer.drain_lanes sb = model_lanes ());
        Array.iteri
          (fun i a ->
            let fwd = model_lookup i in
            expect (Store_buffer.lookup sb a = fwd);
            expect
              (Store_buffer.read sb mem a
              = match fwd with Some v -> v | None -> refmem.(i));
            expect (Memory.get mem a = refmem.(i)))
          addrs
      in
      List.iter
        (fun (kind, i, v) ->
          (match kind with
          | 0 | 1 ->
              if not (Store_buffer.is_full sb) then begin
                Store_buffer.push sb addrs.(i) v;
                pending := !pending @ [ (i, v) ]
              end
          | 2 -> (
              match model_lanes () with
              | [] -> ()
              | lanes ->
                  let lane = List.nth lanes (v mod List.length lanes) in
                  let got = Store_buffer.drain_lane sb lane mem in
                  (* PSO drains the oldest store of the lane's address,
                     the FIFO models the oldest store overall *)
                  let j =
                    match model with
                    | Store_buffer.Pso ->
                        let rec idx k =
                          if Addr.to_index addrs.(k) = lane then k else idx (k + 1)
                        in
                        idx 0
                    | _ -> fst (List.hd !pending)
                  in
                  let (j, w), rest = remove_first j !pending in
                  pending := rest;
                  let want =
                    match (model, !egress) with
                    | Store_buffer.Realistic _, None ->
                        egress := Some (j, w);
                        Store_buffer.Staged (addrs.(j), w)
                    | Store_buffer.Realistic _, Some _ ->
                        egress := Some (j, w);
                        Store_buffer.Coalesced (addrs.(j), w)
                    | _ ->
                        refmem.(j) <- w;
                        Store_buffer.Wrote (addrs.(j), w)
                  in
                  expect (got = want))
          | _ -> (
              match !egress with
              | None -> expect (not (Store_buffer.can_flush_egress sb))
              | Some (j, w) ->
                  expect (Store_buffer.flush_egress sb mem = entry (j, w));
                  egress := None;
                  refmem.(j) <- w));
          observe ())
        ops;
      !same)

(* ------------------------------------------------------------------ *)
(* Machine semantics                                                   *)
(* ------------------------------------------------------------------ *)

(* The SB litmus: Dekker's store buffering. r0 = r1 = 0 must be reachable
   under TSO and unreachable when both threads fence. *)
let sb_litmus_instance ~fences () =
  let m = Machine.create (Machine.abstract_config ~sb_capacity:2) in
  let mem = Machine.memory m in
  let x = Memory.alloc mem ~name:"x" ~init:0 in
  let y = Memory.alloc mem ~name:"y" ~init:0 in
  let r0 = ref (-1) and r1 = ref (-1) in
  let prog a b r () =
    Program.store a 1;
    if fences then Program.fence ();
    r := Program.load b
  in
  let _ = Machine.spawn m ~name:"t0" (prog x y r0) in
  let _ = Machine.spawn m ~name:"t1" (prog y x r1) in
  let check () =
    if !r0 = 0 && !r1 = 0 then Error "weak outcome" else Ok ()
  in
  { Explore.machine = m; check }

let test_sb_litmus_weak_outcome_reachable () =
  let st = Explore.search ~mk:(sb_litmus_instance ~fences:false) () in
  checkb "explorer finds the TSO-weak outcome" true (st.Explore.failures <> []);
  checki "no deadlocks" 0 st.Explore.deadlocks

let test_sb_litmus_fenced_is_sc () =
  let st = Explore.search ~mk:(sb_litmus_instance ~fences:true) () in
  checkb "fences forbid the weak outcome" true (st.Explore.failures = []);
  checkb "search completed" true (st.Explore.runs > 0 && st.Explore.truncated = 0)

let test_machine_enabledness () =
  let m = Machine.create (Machine.abstract_config ~sb_capacity:1) in
  let mem = Machine.memory m in
  let x = Memory.alloc mem ~name:"x" ~init:0 in
  let y = Memory.alloc mem ~name:"y" ~init:0 in
  let tid =
    Machine.spawn m ~name:"t" (fun () ->
        Program.store x 1;
        Program.store y 2;
        Program.fence ();
        ignore (Program.cas x ~expect:1 ~replace:5))
  in
  (* first store enabled *)
  checkb "step enabled" true (List.mem (Machine.Step tid) (Machine.enabled m));
  ignore (Machine.apply m (Machine.Step tid));
  (* buffer full (capacity 1): second store must wait for a drain *)
  checkb "store blocked" true (Machine.store_blocked m tid);
  check (Alcotest.list Alcotest.string) "only drain enabled"
    [ "drain" ]
    (List.map
       (function Machine.Drain _ -> "drain" | Machine.Step _ -> "step" | Machine.Flush _ -> "flush")
       (Machine.enabled m));
  ignore (Machine.apply m (Machine.Drain (tid, 0)));
  ignore (Machine.apply m (Machine.Step tid));
  (* fence must wait until y drains *)
  checkb "fence not enabled while buffered" true
    (not (List.mem (Machine.Step tid) (Machine.enabled m)));
  ignore (Machine.apply m (Machine.Drain (tid, 0)));
  ignore (Machine.apply m (Machine.Step tid)) (* fence *);
  ignore (Machine.apply m (Machine.Step tid)) (* cas, buffer empty *);
  checkb "done" true (Machine.thread_done m tid);
  checki "cas wrote memory directly" 5 (Memory.get mem x);
  checkb "quiescent" true (Machine.quiescent m)

let test_machine_forwarding () =
  let m = Machine.create (Machine.abstract_config ~sb_capacity:4) in
  let mem = Machine.memory m in
  let x = Memory.alloc mem ~name:"x" ~init:0 in
  let seen = ref (-1) in
  let tid =
    Machine.spawn m ~name:"t" (fun () ->
        Program.store x 33;
        seen := Program.load x)
  in
  ignore (Machine.apply m (Machine.Step tid));
  (* no drain yet: the load must be satisfied from the thread's own buffer *)
  ignore (Machine.apply m (Machine.Step tid));
  checki "store-to-load forwarding" 33 !seen;
  checki "memory not yet updated" 0 (Memory.get mem x)

(* Minor words allocated by [f], net of the measurement's own boxing. *)
let minor_words_of f =
  let w0 = Gc.minor_words () in
  let w1 = Gc.minor_words () in
  f ();
  let w2 = Gc.minor_words () in
  (w2 -. w1) -. (w1 -. w0)

(* Allocation budget of the load step: executing a load (here one that
   scans a full store buffer and misses) and resuming the program to its
   next load through [Machine.apply]. *)
let test_machine_load_step_words () =
  let loads = 1000 in
  let m = Machine.create (Machine.abstract_config ~sb_capacity:8) in
  let mem = Machine.memory m in
  let x = Memory.alloc mem ~name:"x" ~init:5 in
  let y = Memory.alloc mem ~name:"y" ~init:0 in
  let sum = ref 0 in
  let tid =
    Machine.spawn m ~name:"t" (fun () ->
        for i = 1 to 8 do
          Program.store y i
        done;
        for _ = 1 to loads do
          sum := !sum + Program.load x
        done)
  in
  let step = Machine.step_transition m tid in
  for _ = 1 to 9 do
    Machine.apply m step
  done;
  let words =
    minor_words_of (fun () ->
        for _ = 2 to loads do
          Machine.apply m step
        done)
  in
  checki "loads observed memory" (5 * loads) !sum;
  let per_step = words /. float_of_int (loads - 1) in
  if per_step > 20.0 then
    Alcotest.failf "a load step allocates %.1f words (budget 20)" per_step

let test_machine_events () =
  let m = Machine.create (Machine.abstract_config ~sb_capacity:2) in
  let mem = Machine.memory m in
  let x = Memory.alloc mem ~name:"x" ~init:0 in
  let events = ref [] in
  Machine.on_event m (fun e -> events := e :: !events);
  let tid = Machine.spawn m ~name:"t" (fun () -> Program.store x 1) in
  ignore (Machine.apply m (Machine.Step tid));
  ignore (Machine.apply m (Machine.Drain (tid, 0)));
  let kinds =
    List.rev_map
      (function
        | Machine.Ev_exec _ -> "exec"
        | Machine.Ev_drain _ -> "drain"
        | Machine.Ev_flush _ -> "flush"
        | Machine.Ev_done _ -> "done")
      !events
  in
  check (Alcotest.list Alcotest.string) "event stream" [ "exec"; "done"; "drain" ] kinds

let test_machine_event_order () =
  (* listeners fire in registration order, for every event *)
  let m = Machine.create (Machine.abstract_config ~sb_capacity:2) in
  let mem = Machine.memory m in
  let x = Memory.alloc mem ~name:"x" ~init:0 in
  let order = ref [] in
  Machine.on_event m (fun _ -> order := "first" :: !order);
  Machine.on_event m (fun _ -> order := "second" :: !order);
  let tid = Machine.spawn m ~name:"t" (fun () -> Program.store x 1) in
  ignore (Machine.apply m (Machine.Step tid)) (* Ev_exec then Ev_done *);
  check
    (Alcotest.list Alcotest.string)
    "registration order per event"
    [ "first"; "second"; "first"; "second" ]
    (List.rev !order);
  (* registration stays cheap and ordered as the listener set grows *)
  let hits = Array.make 64 (-1) in
  Array.iteri
    (fun i _ ->
      Machine.on_event m (fun _ -> if hits.(i) < 0 then hits.(i) <- i))
    hits;
  ignore (Machine.apply m (Machine.Drain (tid, 0)));
  checkb "all listeners fired" true (Array.for_all (fun v -> v >= 0) hits)

let test_fingerprint_covers_control_state () =
  (* a pure label step changes neither memory nor buffers, but it moves the
     program position, so the fingerprint must change *)
  let m = Machine.create (Machine.abstract_config ~sb_capacity:2) in
  let tid =
    Machine.spawn m ~name:"t" (fun () ->
        Program.label "a";
        Program.label "b")
  in
  let fp0 = Machine.fingerprint m in
  ignore (Machine.apply m (Machine.Step tid));
  let fp1 = Machine.fingerprint m in
  checkb "label step changes the fingerprint" true (fp0 <> fp1);
  ignore (Machine.apply m (Machine.Step tid));
  checkb "second label step changes it again" true (fp1 <> Machine.fingerprint m)

let test_fingerprint_distinguishes_egress () =
  (* a store staged in B and the same store still queued are different
     machine states (they enable different transitions) and must not share a
     fingerprint, even though the flattened pending-store list is equal *)
  let mk () =
    let m = Machine.create (Machine.realistic_config ~sb_capacity:2 ~coalesce:false) in
    let mem = Machine.memory m in
    let x = Memory.alloc mem ~name:"x" ~init:0 in
    let tid = Machine.spawn m ~name:"t" (fun () -> Program.store x 1) in
    ignore (Machine.apply m (Machine.Step tid));
    (m, tid)
  in
  let m_queued, _ = mk () in
  let m_staged, tid = mk () in
  check Alcotest.int "identical states share a fingerprint"
    (Machine.fingerprint m_queued)
    (Machine.fingerprint m_staged);
  ignore (Machine.apply m_staged (Machine.Drain (tid, 0))) (* stage into B *);
  checkb "queued vs staged-in-B differ" true
    (Machine.fingerprint m_queued <> Machine.fingerprint m_staged)

let test_machine_rmw_atomicity () =
  (* two threads fetch-add the same cell 50 times each; the result must be
     exactly 100 under every schedule tried *)
  List.iter
    (fun seed ->
      let m = Machine.create (Machine.abstract_config ~sb_capacity:4) in
      let mem = Machine.memory m in
      let x = Memory.alloc mem ~name:"x" ~init:0 in
      for t = 0 to 1 do
        ignore
          (Machine.spawn m ~name:(Printf.sprintf "t%d" t) (fun () ->
               for _ = 1 to 50 do
                 ignore (Program.fetch_add x 1)
               done))
      done;
      let rng = Random.State.make [| seed |] in
      (match Sched.run m (Sched.weighted rng ~drain_weight:0.3) with
      | Sched.Quiescent -> ()
      | _ -> Alcotest.fail "not quiescent");
      checki "fetch_add total" 100 (Memory.get mem x))
    [ 1; 2; 3; 4; 5 ]

(* ------------------------------------------------------------------ *)
(* Schedulers                                                          *)
(* ------------------------------------------------------------------ *)

let test_sched_replay_roundtrip () =
  let mk () =
    let m = Machine.create (Machine.abstract_config ~sb_capacity:2) in
    let mem = Machine.memory m in
    let x = Memory.alloc mem ~name:"x" ~init:0 in
    let y = Memory.alloc mem ~name:"y" ~init:0 in
    let r = ref 0 in
    let _ = Machine.spawn m ~name:"a" (fun () -> Program.store x 1; r := !r + Program.load y) in
    let _ = Machine.spawn m ~name:"b" (fun () -> Program.store y 1; r := !r + (10 * Program.load x)) in
    (m, r)
  in
  let m1, r1 = mk () in
  let recorded = ref [] in
  let rng = Random.State.make [| 77 |] in
  let policy = Sched.record (fun i -> recorded := i :: !recorded) (Sched.uniform rng) in
  (match Sched.run m1 policy with Sched.Quiescent -> () | _ -> Alcotest.fail "q");
  let m2, r2 = mk () in
  let fallback _ _ = Alcotest.fail "replay must cover the whole run" in
  (match Sched.run m2 (Sched.replay (List.rev !recorded) ~fallback) with
  | Sched.Quiescent -> ()
  | _ -> Alcotest.fail "q2");
  checki "replayed run reproduces outcome" !r1 !r2;
  check Alcotest.int "replayed run reproduces memory" (Machine.fingerprint m1)
    (Machine.fingerprint m2)

let test_sched_deadlock_detection () =
  (* a thread waiting forever on a CAS that can never succeed still
     terminates the scheduler via quiescence of others? No — build a real
     deadlock: impossible by construction (drains always enabled), so check
     instead that Max_steps fires on an infinite spin. *)
  let m = Machine.create (Machine.abstract_config ~sb_capacity:2) in
  let mem = Machine.memory m in
  let x = Memory.alloc mem ~name:"x" ~init:0 in
  let _ =
    Machine.spawn m ~name:"spinner" (fun () ->
        while Program.load x = 0 do
          Program.spin_pause ()
        done)
  in
  let rng = Random.State.make [| 1 |] in
  (match Sched.run ~max_steps:1000 m (Sched.uniform rng) with
  | Sched.Max_steps -> ()
  | _ -> Alcotest.fail "expected Max_steps")

(* ------------------------------------------------------------------ *)
(* Timing                                                              *)
(* ------------------------------------------------------------------ *)

let timing_machine body =
  let m = Machine.create (Machine.abstract_config ~sb_capacity:4) in
  let mem = Machine.memory m in
  let x = Memory.alloc mem ~name:"x" ~init:0 in
  let _ = Machine.spawn m ~name:"t" (body x) in
  m

let costs =
  {
    Timing.load_cost = 2;
    store_cost = 3;
    rmw_cost = 20;
    fence_cost = 10;
    drain_latency = 7;
    pause_cost = 1;
  }

let test_timing_work_only () =
  let m = timing_machine (fun _ () -> Program.work 100) in
  let r = Timing.run m costs in
  checki "work cycles" 100 r.Timing.makespan;
  checkb "quiescent" true (r.Timing.outcome = Sched.Quiescent)

let test_timing_fence_stall () =
  (* store (3) then fence: drain completes at 3 + 7 = 10; fence executes at
     10 and costs 10 -> finish 20 *)
  let m =
    timing_machine (fun x () ->
        Program.store x 1;
        Program.fence ())
  in
  let r = Timing.run m costs in
  checki "fence waits for drain" 20 r.Timing.makespan;
  checki "stall accounted" 7 r.Timing.threads.(0).Timing.fence_stall;
  checki "one fence" 1 r.Timing.threads.(0).Timing.fences

let test_timing_no_fence_no_stall () =
  let m =
    timing_machine (fun x () ->
        Program.store x 1;
        ignore (Program.load x))
  in
  let r = Timing.run m costs in
  (* store at 0 (cost 3), load at 3 (cost 2): finish 5; drain happens in
     background and does not delay the thread *)
  checki "no stall without fence" 5 r.Timing.makespan

let test_timing_deterministic () =
  let run () =
    let m = Machine.create (Machine.abstract_config ~sb_capacity:4) in
    let mem = Machine.memory m in
    let x = Memory.alloc mem ~name:"x" ~init:0 in
    for t = 0 to 2 do
      ignore
        (Machine.spawn m ~name:(Printf.sprintf "t%d" t) (fun () ->
             for i = 1 to 20 do
               Program.store x ((10 * t) + i);
               Program.work 5;
               ignore (Program.load x)
             done))
    done;
    let r = Timing.run m costs in
    (r.Timing.makespan, Machine.fingerprint m)
  in
  let a = run () and b = run () in
  checkb "timing is deterministic" true (a = b)

let test_timing_stats () =
  let m =
    timing_machine (fun x () ->
        Program.store x 1;
        Program.store x 2;
        ignore (Program.load x);
        ignore (Program.cas x ~expect:2 ~replace:3);
        Program.work 11)
  in
  let r = Timing.run m costs in
  let t = r.Timing.threads.(0) in
  checki "stores" 2 t.Timing.stores;
  checki "loads" 1 t.Timing.loads;
  checki "rmws" 1 t.Timing.rmws;
  checki "work" 11 t.Timing.work_cycles

let test_timing_domain_isolation () =
  (* two domains running [Timing.run] concurrently must not perturb each
     other's clocks — each run owns a private clock, with no module-global
     time left anywhere *)
  let mk extra =
    let m = Machine.create (Machine.abstract_config ~sb_capacity:4) in
    let mem = Machine.memory m in
    let x = Memory.alloc mem ~name:"x" ~init:0 in
    let y = Memory.alloc mem ~name:"y" ~init:0 in
    let _ =
      Machine.spawn m ~name:"a" (fun () ->
          Program.work (10_000 * extra);
          for i = 1 to 40 do
            Program.store x i;
            ignore (Program.load y)
          done)
    in
    let _ =
      Machine.spawn m ~name:"b" (fun () ->
          for i = 1 to 40 do
            Program.store y i;
            ignore (Program.load x);
            Program.fence ()
          done)
    in
    m
  in
  let seq0 = Timing.run (mk 0) costs in
  let seq9 = Timing.run (mk 9) costs in
  let d0 = Domain.spawn (fun () -> Timing.run (mk 0) costs) in
  let d9 = Domain.spawn (fun () -> Timing.run (mk 9) costs) in
  let par0 = Domain.join d0 and par9 = Domain.join d9 in
  checki "short run makespan unchanged" seq0.Timing.makespan
    par0.Timing.makespan;
  checki "long run makespan unchanged" seq9.Timing.makespan
    par9.Timing.makespan;
  checki "fence stalls unchanged" seq0.Timing.threads.(1).Timing.fence_stall
    par0.Timing.threads.(1).Timing.fence_stall;
  checkb "the two grids differ (test is not vacuous)" true
    (seq0.Timing.makespan <> seq9.Timing.makespan)

let test_timing_sharded_sink_byte_identical () =
  (* the sharded counter plane is invisible in the totals: a run whose
     threads accumulate into per-thread shards (merged at quiescence) must
     render the same sink JSON, byte for byte, as a run writing the plain
     sink directly — queue-op counters (Counted shim, shard-routed) and
     machine counters alike *)
  let build () =
    let m = Machine.create (Machine.abstract_config ~sb_capacity:4) in
    let params =
      {
        Ws_core.Queue_intf.capacity = 64;
        delta = 2;
        worker_fence = false;
        tag = "q";
      }
    in
    let q =
      Ws_core.Registry.create ~shard:0 (Ws_core.Registry.find "ff-the") m
        params
    in
    let _ =
      Machine.spawn m ~name:"owner" (fun () ->
          for i = 1 to 16 do
            Ws_core.Queue_intf.put q i
          done;
          let rec drain () =
            match Ws_core.Queue_intf.take q with
            | `Task _ -> drain ()
            | `Empty -> ()
          in
          drain ())
    in
    let _ =
      Machine.spawn m ~name:"thief" (fun () ->
          for _ = 1 to 8 do
            ignore (Ws_core.Queue_intf.steal q)
          done)
    in
    m
  in
  let plain = Telemetry.Sink.create () in
  let r1 = Timing.run ~sink:plain (build ()) costs in
  let merged = Telemetry.Sink.create () in
  let shards = Telemetry.Shards.create ~n:2 in
  let r2 = Timing.run ~sink:merged ~shards (build ()) costs in
  checki "same makespan" r1.Timing.makespan r2.Timing.makespan;
  Alcotest.(check string)
    "sink JSON byte-identical"
    (Telemetry.Json.to_string ~indent:true (Telemetry.Sink.to_json plain))
    (Telemetry.Json.to_string ~indent:true (Telemetry.Sink.to_json merged))

(* ------------------------------------------------------------------ *)
(* Explore                                                             *)
(* ------------------------------------------------------------------ *)

let test_explore_replay_failure () =
  let st = Explore.search ~mk:(sb_litmus_instance ~fences:false) () in
  match st.Explore.failures with
  | [] -> Alcotest.fail "expected a weak-outcome failure"
  | (choices, _) :: _ -> (
      match Explore.replay_choices ~mk:(sb_litmus_instance ~fences:false) choices with
      | Error _ -> () (* the failure reproduces *)
      | Ok () -> Alcotest.fail "replayed schedule did not reproduce the failure")

let test_explore_counts_preemptions () =
  (* TSO's store/load reordering comes from the memory subsystem, not from
     thread interleaving: even with a preemption bound of 0 (threads run
     serially), the weak outcome is reachable purely by delaying drains. *)
  let st =
    Explore.search ~preemption_bound:(Some 0)
      ~mk:(sb_litmus_instance ~fences:false) ()
  in
  checkb "weak outcome needs no preemptions" true (st.Explore.failures <> []);
  checkb "thread interleavings were pruned" true (st.Explore.pruned > 0);
  (* sequentially-consistent interleaving nondeterminism, by contrast, DOES
     need preemptions: with fences and bound 0 the space is tiny *)
  let fenced =
    Explore.search ~preemption_bound:(Some 0)
      ~mk:(sb_litmus_instance ~fences:true) ()
  in
  checkb "fenced + bound 0 has no failures" true (fenced.Explore.failures = [])

let test_explore_memo_equivalence () =
  (* the visited-state cache cuts runs without changing the verdict, and a
     memoized failure prefix still replays *)
  let plain = Explore.search ~mk:(sb_litmus_instance ~fences:false) () in
  let memo = Explore.search ~memo:true ~mk:(sb_litmus_instance ~fences:false) () in
  checkb "weak outcome still found" true (memo.Explore.failures <> []);
  checkb "memo explores fewer runs" true (memo.Explore.runs < plain.Explore.runs);
  checkb "memo hits reported" true (memo.Explore.memo_hits > 0);
  checki "plain search reports no memo hits" 0 plain.Explore.memo_hits;
  (match memo.Explore.failures with
  | (choices, _) :: _ -> (
      match Explore.replay_choices ~mk:(sb_litmus_instance ~fences:false) choices with
      | Error _ -> ()
      | Ok () -> Alcotest.fail "memoized failure prefix did not reproduce")
  | [] -> assert false);
  let memo_f = Explore.search ~memo:true ~mk:(sb_litmus_instance ~fences:true) () in
  checkb "no false positives under memoization" true (memo_f.Explore.failures = []);
  checkb "memoized fenced search still exhausts" true
    (memo_f.Explore.truncated = 0 && memo_f.Explore.runs > 0);
  (* dominance check: memoization stays exact under a preemption bound — a
     state first seen with little remaining budget must not mask a later
     visit with more *)
  let bounded =
    Explore.search ~preemption_bound:(Some 0) ~memo:true
      ~mk:(sb_litmus_instance ~fences:false) ()
  in
  checkb "weak outcome found at bound 0 with memo" true
    (bounded.Explore.failures <> [])

(* ------------------------------------------------------------------ *)
(* Transition footprints                                               *)
(* ------------------------------------------------------------------ *)

let test_footprint_independence () =
  let m = Machine.create (Machine.abstract_config ~sb_capacity:2) in
  let mem = Machine.memory m in
  let x = Memory.alloc mem ~name:"x" ~init:0 in
  let y = Memory.alloc mem ~name:"y" ~init:0 in
  let t0 = Machine.spawn m ~name:"t0" (fun () -> Program.store x 1) in
  let t1 =
    Machine.spawn m ~name:"t1" (fun () ->
        ignore (Program.load x);
        ignore (Program.load y))
  in
  let indep = Machine.independent in
  let f_store = Machine.footprint m (Machine.Step t0) in
  let f_load_x = Machine.footprint m (Machine.Step t1) in
  (* a store step only enters the issuing thread's buffer — no shared
     address — so it commutes with the other thread's load even of the
     same cell (TSO in one line: the reordering lives in the drain) *)
  checkb "buffered store || load of same cell" true (indep f_store f_load_x);
  checkb "independence is symmetric" true
    (indep f_load_x f_store = indep f_store f_load_x);
  (* transitions of the same thread never commute *)
  checkb "same thread is dependent" false (indep f_store f_store);
  ignore (Machine.apply m (Machine.Step t0)) (* x=1 now queued in t0's SB *);
  let f_drain = Machine.footprint m (Machine.Drain (t0, 0)) in
  let f_load_x = Machine.footprint m (Machine.Step t1) in
  (* the drain is the memory write of x: it must not commute with a load
     of x... *)
  checkb "drain x || load x" false (indep f_drain f_load_x);
  checkb "dependence is symmetric" false (indep f_load_x f_drain);
  checki "drain footprint writes x" (Addr.to_index x)
    (Machine.footprint_write f_drain);
  ignore (Machine.apply m (Machine.Step t1)) (* t1 consumed its load of x *);
  let f_load_y = Machine.footprint m (Machine.Step t1) in
  (* ...but it commutes with a load of a different cell *)
  checkb "drain x || load y" true (indep f_drain f_load_y)

let test_footprint_rmw_and_flush () =
  (* CAS reads and writes its cell, so two CASes on the same cell conflict
     write/write, and a drain of that cell conflicts with either *)
  let m = Machine.create (Machine.abstract_config ~sb_capacity:2) in
  let mem = Machine.memory m in
  let x = Memory.alloc mem ~name:"x" ~init:0 in
  let t0 = Machine.spawn m ~name:"t0" (fun () -> Program.store x 1) in
  let t1 =
    Machine.spawn m ~name:"t1" (fun () ->
        ignore (Program.cas x ~expect:0 ~replace:2))
  in
  let t2 =
    Machine.spawn m ~name:"t2" (fun () ->
        ignore (Program.cas x ~expect:0 ~replace:3))
  in
  let f_cas1 = Machine.footprint m (Machine.Step t1) in
  let f_cas2 = Machine.footprint m (Machine.Step t2) in
  checkb "cas x || cas x" false (Machine.independent f_cas1 f_cas2);
  checki "cas reads x" (Addr.to_index x) (Machine.footprint_read f_cas1);
  checki "cas writes x" (Addr.to_index x) (Machine.footprint_write f_cas1);
  ignore (Machine.apply m (Machine.Step t0));
  let f_drain = Machine.footprint m (Machine.Drain (t0, 0)) in
  checkb "drain x || cas x" false (Machine.independent f_drain f_cas1);
  (* realistic model: a drain stages into B, and the flush out of B carries
     the memory write — both claim the address *)
  let m2 = Machine.create (Machine.realistic_config ~sb_capacity:2 ~coalesce:false) in
  let mem2 = Machine.memory m2 in
  let a = Memory.alloc mem2 ~name:"a" ~init:0 in
  let b = Memory.alloc mem2 ~name:"b" ~init:0 in
  let u0 = Machine.spawn m2 ~name:"u0" (fun () -> Program.store a 1) in
  let u1 =
    Machine.spawn m2 ~name:"u1" (fun () ->
        ignore (Program.load a);
        ignore (Program.load b))
  in
  ignore (Machine.apply m2 (Machine.Step u0));
  let f_stage = Machine.footprint m2 (Machine.Drain (u0, 0)) in
  checki "staging drain claims the write" (Addr.to_index a)
    (Machine.footprint_write f_stage);
  ignore (Machine.apply m2 (Machine.Drain (u0, 0))) (* a=1 staged in B *);
  let f_flush = Machine.footprint m2 (Machine.Flush u0) in
  let f_load_a = Machine.footprint m2 (Machine.Step u1) in
  checkb "flush a || load a" false (Machine.independent f_flush f_load_a);
  ignore (Machine.apply m2 (Machine.Step u1));
  let f_load_b = Machine.footprint m2 (Machine.Step u1) in
  checkb "flush a || load b" true (Machine.independent f_flush f_load_b)

(* ------------------------------------------------------------------ *)
(* Snapshot / restore                                                  *)
(* ------------------------------------------------------------------ *)

(* A deterministic two-thread instance with enough variety to exercise the
   whole snapshot payload: buffered stores, a load response, a CAS. *)
let snap_mk () =
  let m = Machine.create (Machine.abstract_config ~sb_capacity:2) in
  let mem = Machine.memory m in
  let x = Memory.alloc mem ~name:"x" ~init:0 in
  let y = Memory.alloc mem ~name:"y" ~init:0 in
  let _ =
    Machine.spawn m ~name:"t0" (fun () ->
        Program.store x 1;
        let v = Program.load y in
        Program.store x (v + 2))
  in
  let _ =
    Machine.spawn m ~name:"t1" (fun () ->
        Program.store y 7;
        ignore (Program.cas x ~expect:0 ~replace:9))
  in
  Machine.set_record_responses m true;
  m

let rec drive m n =
  if n > 0 then
    match Machine.enabled m with
    | [] -> ()
    | tr :: _ ->
        ignore (Machine.apply m tr);
        drive m (n - 1)

let quiesce m = drive m max_int

let test_snapshot_restore_fingerprint () =
  let m1 = snap_mk () in
  drive m1 5;
  let fp = Machine.fingerprint m1 in
  let snap = Machine.snapshot_create () in
  Machine.snapshot m1 snap;
  (* the snapshot must share nothing with the source: driving the source
     on must not disturb what was captured *)
  quiesce m1;
  checkb "source moved past the captured state" true
    (Machine.fingerprint m1 <> fp);
  let m2 = snap_mk () in
  Machine.restore_into snap m2;
  checki "restored fingerprint equals the captured one" fp
    (Machine.fingerprint m2);
  checkb "restored machine keeps recording" true (Machine.record_responses m2);
  (* the restored continuations are live: the same deterministic schedule
     converges to the same final state as the source *)
  quiesce m2;
  checki "restored machine converges with the source" (Machine.fingerprint m1)
    (Machine.fingerprint m2);
  (* and the snapshot also shares nothing with machines it was restored
     into: a second restore lands on the captured state again *)
  let m3 = snap_mk () in
  Machine.restore_into snap m3;
  checki "second restore from the same snapshot" fp (Machine.fingerprint m3)

let test_snapshot_restore_listeners () =
  (* the machine.mli contract: listeners attached to the restore target
     survive the restore, but the fast-forward itself is silent — no event
     is emitted for the replayed prefix, and a Trace attached before the
     restore records only what runs afterwards *)
  let m1 = snap_mk () in
  drive m1 5;
  let snap = Machine.snapshot_create () in
  Machine.snapshot m1 snap;
  let m2 = snap_mk () in
  let trace = Trace.attach m2 in
  let events = ref 0 in
  Machine.on_event m2 (fun _ -> incr events);
  Machine.restore_into snap m2;
  checki "fast-forward emits no event" 0 !events;
  checkb "trace saw nothing during the restore" true
    (Trace.entries trace = []);
  (* the listeners were not detached: the first post-restore transition
     reaches both of them *)
  (match Machine.enabled m2 with
  | [] -> Alcotest.fail "restored machine should not be quiescent"
  | tr :: _ -> ignore (Machine.apply m2 tr));
  checkb "listener fires after the restore" true (!events > 0);
  checkb "trace records post-restore transitions" true
    (Trace.entries trace <> [])

let test_snapshot_preconditions () =
  (* recording must start before the first instruction *)
  let m = snap_mk () in
  drive m 1;
  (try
     Machine.set_record_responses m true;
     (* already recording: toggling on again is a no-op, so force the
        error path via a non-recording machine below *)
     ()
   with Invalid_argument _ -> Alcotest.fail "re-enabling while recording");
  let plain = Machine.create (Machine.abstract_config ~sb_capacity:2) in
  let mem = Machine.memory plain in
  let x = Memory.alloc mem ~name:"x" ~init:0 in
  let tid = Machine.spawn plain ~name:"t" (fun () -> Program.store x 1) in
  ignore (Machine.apply plain (Machine.Step tid));
  (try
     Machine.set_record_responses plain true;
     Alcotest.fail "enabling recording mid-run must raise"
   with Invalid_argument _ -> ());
  (* snapshotting a non-recording machine must raise *)
  let snap = Machine.snapshot_create () in
  (try
     Machine.snapshot plain snap;
     Alcotest.fail "snapshot of a non-recording machine must raise"
   with Invalid_argument _ -> ());
  (* restoring onto a driven machine must raise *)
  let src = snap_mk () in
  drive src 3;
  Machine.snapshot src snap;
  let used = snap_mk () in
  drive used 1;
  try
    Machine.restore_into snap used;
    Alcotest.fail "restore onto a driven machine must raise"
  with Invalid_argument _ -> ()

(* ------------------------------------------------------------------ *)
(* PSO (the §10 future-work model)                                     *)
(* ------------------------------------------------------------------ *)

(* The work-stealing publication idiom: store the task, then bump the tail.
   TSO orders the two stores for free; PSO does not, so a thief can observe
   the new tail before the task — unless a fence sits between the stores. *)
let publication_instance ~config ~fenced () =
  let m = Machine.create config in
  let mem = Machine.memory m in
  let task = Memory.alloc mem ~name:"task" ~init:(-1) in
  let tail = Memory.alloc mem ~name:"tail" ~init:0 in
  let seen = ref None in
  let _ =
    Machine.spawn m ~name:"worker" (fun () ->
        Program.store task 7;
        if fenced then Program.fence ();
        Program.store tail 1)
  in
  let _ =
    Machine.spawn m ~name:"thief" (fun () ->
        if Program.load tail = 1 then seen := Some (Program.load task))
  in
  let check () =
    match !seen with
    | Some v when v <> 7 -> Error (Printf.sprintf "stale task %d published" v)
    | _ -> Ok ()
  in
  { Explore.machine = m; check }

let test_pso_breaks_publication () =
  let st =
    Explore.search
      ~mk:(publication_instance ~config:(Machine.pso_config ~sb_capacity:4) ~fenced:false)
      ()
  in
  checkb "PSO reorders the publication stores" true (st.Explore.failures <> [])

let test_pso_fence_restores_publication () =
  let st =
    Explore.search
      ~mk:(publication_instance ~config:(Machine.pso_config ~sb_capacity:4) ~fenced:true)
      ()
  in
  checkb "a store-store fence fixes it" true (st.Explore.failures = []);
  checki "search exhausted" 0 st.Explore.truncated

let test_tso_orders_publication_for_free () =
  let st =
    Explore.search
      ~mk:
        (publication_instance ~config:(Machine.abstract_config ~sb_capacity:4)
           ~fenced:false)
      ()
  in
  checkb "TSO's FIFO buffer orders the stores without a fence" true
    (st.Explore.failures = [])

let test_pso_mp_allowed () =
  (* message passing, forbidden under TSO, becomes observable under PSO *)
  let mk config () =
    let m = Machine.create config in
    let mem = Machine.memory m in
    let data = Memory.alloc mem ~name:"data" ~init:0 in
    let flag = Memory.alloc mem ~name:"flag" ~init:0 in
    let f = ref (-1) and d = ref (-1) in
    let _ =
      Machine.spawn m ~name:"w" (fun () ->
          Program.store data 1;
          Program.store flag 1)
    in
    let _ =
      Machine.spawn m ~name:"r" (fun () ->
          f := Program.load flag;
          d := Program.load data)
    in
    let check () = if !f = 1 && !d = 0 then Error "mp observed" else Ok () in
    { Explore.machine = m; check }
  in
  let pso = Explore.search ~mk:(mk (Machine.pso_config ~sb_capacity:4)) () in
  checkb "MP observable under PSO" true (pso.Explore.failures <> []);
  let tso = Explore.search ~mk:(mk (Machine.abstract_config ~sb_capacity:4)) () in
  checkb "MP forbidden under TSO" true (tso.Explore.failures = [])

let test_pso_forwarding_still_works () =
  let m = Machine.create (Machine.pso_config ~sb_capacity:4) in
  let mem = Machine.memory m in
  let x = Memory.alloc mem ~name:"x" ~init:0 in
  let y = Memory.alloc mem ~name:"y" ~init:0 in
  let got = ref (-1) in
  let tid =
    Machine.spawn m ~name:"t" (fun () ->
        Program.store x 1;
        Program.store y 2;
        Program.store x 3;
        got := Program.load x)
  in
  for _ = 1 to 3 do
    ignore (Machine.apply m (Machine.Step tid))
  done;
  (* drain y's lane only: x's stores stay buffered and must still forward *)
  ignore (Machine.apply m (Machine.Drain (tid, Addr.to_index y)));
  ignore (Machine.apply m (Machine.Step tid));
  checki "newest same-address store forwards under PSO" 3 !got;
  checki "y drained out of order" 2 (Memory.get mem y);
  checki "x not yet in memory" 0 (Memory.get mem x)


(* ------------------------------------------------------------------ *)
(* Trace                                                               *)
(* ------------------------------------------------------------------ *)

let test_trace_records_and_renders () =
  let m = Machine.create (Machine.abstract_config ~sb_capacity:2) in
  let mem = Machine.memory m in
  let x = Memory.alloc mem ~name:"x" ~init:0 in
  let trace = Trace.attach m in
  let t0 = Machine.spawn m ~name:"alpha" (fun () -> Program.store x 5) in
  let t1 = Machine.spawn m ~name:"beta" (fun () -> ignore (Program.load x)) in
  ignore (Machine.apply m (Machine.Step t0));
  ignore (Machine.apply m (Machine.Step t1));
  ignore (Machine.apply m (Machine.Drain (t0, 0)));
  checki "three applies recorded (plus dones)" 5 (Trace.length trace);
  let s = Trace.render trace in
  let contains needle =
    let ln = String.length needle and ls = String.length s in
    let rec go i = i + ln <= ls && (String.sub s i ln = needle || go (i + 1)) in
    go 0
  in
  checkb "thread names in header" true (contains "alpha" && contains "beta");
  checkb "store rendered" true (contains "store x := 5");
  checkb "drain rendered" true (contains "~ drain x=5");
  Trace.clear trace;
  checki "cleared" 0 (Trace.length trace)

let test_trace_last_filter () =
  let m = Machine.create (Machine.abstract_config ~sb_capacity:4) in
  let mem = Machine.memory m in
  let x = Memory.alloc mem ~name:"x" ~init:0 in
  let trace = Trace.attach m in
  let tid =
    Machine.spawn m ~name:"t" (fun () ->
        for i = 1 to 4 do
          Program.store x i
        done)
  in
  for _ = 1 to 4 do
    ignore (Machine.apply m (Machine.Step tid))
  done;
  let full = Trace.render trace in
  let last2 = Trace.render ~last:2 trace in
  checkb "filtered is shorter" true (String.length last2 < String.length full)


(* ------------------------------------------------------------------ *)
(* Differential testing against the reference enumerator               *)
(* ------------------------------------------------------------------ *)

let op_gen ~cells =
  let open QCheck.Gen in
  frequency
    [
      (3, map (fun a -> Reference.Load a) (int_bound (cells - 1)));
      ( 4,
        map2 (fun a v -> Reference.Store (a, v)) (int_bound (cells - 1))
          (int_range 1 3) );
      (1, return Reference.Fence);
      ( 1,
        map3
          (fun a e r -> Reference.Cas (a, e, r))
          (int_bound (cells - 1))
          (int_bound 2) (int_range 1 3) );
    ]

let program_gen ~cells ~threads ~max_ops =
  QCheck.Gen.(
    array_size (return threads) (list_size (int_range 1 max_ops) (op_gen ~cells)))

let differential_prop =
  QCheck.Test.make
    ~name:"machine outcome set = independent reference enumerator" ~count:60
    (QCheck.make
       ~print:(fun p ->
         String.concat " || "
           (Array.to_list
              (Array.map
                 (fun ops ->
                   String.concat "; "
                     (List.map
                        (function
                          | Reference.Load a -> Printf.sprintf "r(%d)" a
                          | Reference.Store (a, v) -> Printf.sprintf "w(%d,%d)" a v
                          | Reference.Fence -> "fence"
                          | Reference.Cas (a, e, r) ->
                              Printf.sprintf "cas(%d,%d,%d)" a e r)
                        ops))
                 p)))
       (program_gen ~cells:2 ~threads:2 ~max_ops:3))
    (fun program ->
      let cells = 2 and sb_capacity = 2 in
      let reference = Reference.outcomes ~cells ~sb_capacity program in
      let machine = Reference.machine_outcomes ~cells ~sb_capacity program in
      Reference.Outcome_set.equal reference machine)

let test_differential_sb_example () =
  (* the SB litmus expressed through the differential harness: the weak
     outcome must be in both sets *)
  let program =
    [|
      [ Reference.Store (0, 1); Reference.Load 1 ];
      [ Reference.Store (1, 1); Reference.Load 0 ];
    |]
  in
  let outcomes = Reference.outcomes ~cells:2 ~sb_capacity:2 program in
  let weak = { Reference.reads = [ 0; 0 ]; memory = [ 1; 1 ] } in
  checkb "weak outcome enumerated" true
    (Reference.Outcome_set.mem weak outcomes);
  let machine = Reference.machine_outcomes ~cells:2 ~sb_capacity:2 program in
  checkb "sets agree" true (Reference.Outcome_set.equal outcomes machine);
  (* and with fences both implementations lose exactly the weak outcomes *)
  let fenced =
    [|
      [ Reference.Store (0, 1); Reference.Fence; Reference.Load 1 ];
      [ Reference.Store (1, 1); Reference.Fence; Reference.Load 0 ];
    |]
  in
  let f_ref = Reference.outcomes ~cells:2 ~sb_capacity:2 fenced in
  checkb "fences forbid the weak outcome" true
    (not (Reference.Outcome_set.mem weak f_ref));
  let f_m = Reference.machine_outcomes ~cells:2 ~sb_capacity:2 fenced in
  checkb "fenced sets agree" true (Reference.Outcome_set.equal f_ref f_m)

let test_differential_capacity_matters () =
  (* with capacity 1, a thread's second store forces its first to drain, so
     fewer weak behaviours survive; both implementations must agree anyway *)
  let program =
    [|
      [ Reference.Store (0, 1); Reference.Store (1, 1); Reference.Load 1 ];
      [ Reference.Store (1, 2); Reference.Load 0 ];
    |]
  in
  List.iter
    (fun sb_capacity ->
      let r = Reference.outcomes ~cells:2 ~sb_capacity program in
      let m = Reference.machine_outcomes ~cells:2 ~sb_capacity program in
      checkb
        (Printf.sprintf "agree at capacity %d" sb_capacity)
        true
        (Reference.Outcome_set.equal r m))
    [ 1; 2; 3 ]


(* ------------------------------------------------------------------ *)
(* API corners                                                         *)
(* ------------------------------------------------------------------ *)

let test_machine_introspection () =
  let m = Machine.create (Machine.abstract_config ~sb_capacity:3) in
  let mem = Machine.memory m in
  let x = Memory.alloc mem ~name:"x" ~init:0 in
  let tid =
    Machine.spawn m ~name:"alpha" (fun () ->
        Program.store x 1;
        Program.store x 2)
  in
  check Alcotest.string "thread name" "alpha" (Machine.thread_name m tid);
  checki "one thread" 1 (Machine.thread_count m);
  checki "nothing buffered yet" 0 (Machine.buffered_stores m tid);
  ignore (Machine.apply m (Machine.Step tid));
  ignore (Machine.apply m (Machine.Step tid));
  checki "two buffered stores" 2 (Machine.buffered_stores m tid);
  checkb "not quiescent with buffered stores" true (not (Machine.quiescent m));
  checkb "done but not quiescent" true (Machine.thread_done m tid);
  check (Alcotest.option Alcotest.string) "no pending request when done" None
    (Machine.pending_request m tid);
  let fp1 = Machine.fingerprint m in
  ignore (Machine.apply m (Machine.Drain (tid, 0)));
  checkb "fingerprint tracks drains" true (fp1 <> Machine.fingerprint m);
  ignore (Machine.apply m (Machine.Drain (tid, 0)));
  checkb "quiescent after drains" true (Machine.quiescent m);
  checki "final memory" 2 (Memory.get mem x)

let test_program_describe () =
  let open Program in
  check Alcotest.string "load" "load @3" (describe (Req_load (Addr.of_index 3)));
  check Alcotest.string "store" "store @1 := 9" (describe (Req_store (Addr.of_index 1, 9)));
  check Alcotest.string "cas" "cas @0 (1 -> 2)" (describe (Req_cas (Addr.of_index 0, 1, 2)));
  check Alcotest.string "fence" "fence" (describe Req_fence);
  check Alcotest.string "pause" "pause" (describe Req_pause)

let test_timing_max_steps_outcome () =
  let m = Machine.create (Machine.abstract_config ~sb_capacity:2) in
  let mem = Machine.memory m in
  let x = Memory.alloc mem ~name:"x" ~init:0 in
  let _ =
    Machine.spawn m ~name:"spinner" (fun () ->
        while Program.load x = 0 do
          Program.spin_pause ()
        done)
  in
  let r = Timing.run ~max_steps:500 m costs in
  checkb "max steps surfaces" true (r.Timing.outcome = Sched.Max_steps)

let test_weighted_zero_drain_bias () =
  (* drain_weight 0: drains only happen when they are the sole choice, so
     reordering is maximal, yet runs still terminate *)
  let m = Machine.create (Machine.abstract_config ~sb_capacity:2) in
  let mem = Machine.memory m in
  let x = Memory.alloc mem ~name:"x" ~init:0 in
  let _ =
    Machine.spawn m ~name:"t" (fun () ->
        for i = 1 to 10 do
          Program.store x i
        done)
  in
  let rng = Random.State.make [| 4 |] in
  (match Sched.run m (Sched.weighted rng ~drain_weight:0.0) with
  | Sched.Quiescent -> ()
  | _ -> Alcotest.fail "must still quiesce");
  checki "all stores landed" 10 (Memory.get mem x)

let test_round_robin_policy_covers () =
  (* round robin visits every enabled transition class over time *)
  let m = Machine.create (Machine.abstract_config ~sb_capacity:4) in
  let mem = Machine.memory m in
  let x = Memory.alloc mem ~name:"x" ~init:0 in
  for t = 0 to 1 do
    ignore
      (Machine.spawn m
         ~name:(Printf.sprintf "t%d" t)
         (fun () -> Program.store x ((10 * t) + 1)))
  done;
  match Sched.run m (Sched.round_robin ()) with
  | Sched.Quiescent -> ()
  | _ -> Alcotest.fail "round robin must finish"

let () =
  Alcotest.run "tso"
    [
      ( "memory",
        [
          Alcotest.test_case "alloc and rw" `Quick test_memory_alloc;
          Alcotest.test_case "arrays" `Quick test_memory_array;
          Alcotest.test_case "growth" `Quick test_memory_growth;
          Alcotest.test_case "out of bounds" `Quick test_memory_oob;
          Alcotest.test_case "names on demand" `Quick test_memory_names_on_demand;
        ] );
      ( "store-buffer",
        [
          Alcotest.test_case "fifo drain + forwarding" `Quick test_sb_fifo;
          Alcotest.test_case "capacity" `Quick test_sb_capacity;
          Alcotest.test_case "egress B" `Quick test_sb_egress;
          Alcotest.test_case "same-address coalescing" `Quick test_sb_coalescing;
          Alcotest.test_case "no cross-address coalescing" `Quick
            test_sb_no_cross_address_coalescing;
          Alcotest.test_case "lookup: queue shadows egress" `Quick
            test_sb_lookup_shadows_egress;
          Alcotest.test_case "PSO drain lanes are stable" `Quick
            test_sb_pso_lanes_stable;
          QCheck_alcotest.to_alcotest sb_model_prop;
          QCheck_alcotest.to_alcotest sb_ring_differential_prop;
        ] );
      ( "machine",
        [
          Alcotest.test_case "SB litmus weak outcome reachable" `Quick
            test_sb_litmus_weak_outcome_reachable;
          Alcotest.test_case "SB litmus fenced = SC" `Quick
            test_sb_litmus_fenced_is_sc;
          Alcotest.test_case "enabledness rules" `Quick test_machine_enabledness;
          Alcotest.test_case "store-to-load forwarding" `Quick
            test_machine_forwarding;
          Alcotest.test_case "event stream" `Quick test_machine_events;
          Alcotest.test_case "listener order" `Quick test_machine_event_order;
          Alcotest.test_case "fingerprint covers control state" `Quick
            test_fingerprint_covers_control_state;
          Alcotest.test_case "fingerprint splits egress from queue" `Quick
            test_fingerprint_distinguishes_egress;
          Alcotest.test_case "rmw atomicity" `Quick test_machine_rmw_atomicity;
          Alcotest.test_case "load step allocation budget" `Quick
            test_machine_load_step_words;
        ] );
      ( "sched",
        [
          Alcotest.test_case "record/replay round-trip" `Quick
            test_sched_replay_roundtrip;
          Alcotest.test_case "max-steps on livelock" `Quick
            test_sched_deadlock_detection;
        ] );
      ( "timing",
        [
          Alcotest.test_case "pure work" `Quick test_timing_work_only;
          Alcotest.test_case "fence stall" `Quick test_timing_fence_stall;
          Alcotest.test_case "no fence, no stall" `Quick
            test_timing_no_fence_no_stall;
          Alcotest.test_case "deterministic" `Quick test_timing_deterministic;
          Alcotest.test_case "instruction stats" `Quick test_timing_stats;
          Alcotest.test_case "concurrent domains are isolated" `Quick
            test_timing_domain_isolation;
          Alcotest.test_case "sharded sink byte-identical to plain" `Quick
            test_timing_sharded_sink_byte_identical;
        ] );
      ( "explore",
        [
          Alcotest.test_case "failure replay" `Quick test_explore_replay_failure;
          Alcotest.test_case "preemption bound" `Quick
            test_explore_counts_preemptions;
          Alcotest.test_case "memoization equivalence" `Quick
            test_explore_memo_equivalence;
        ] );
      ( "footprint",
        [
          Alcotest.test_case "independence of loads, stores, drains" `Quick
            test_footprint_independence;
          Alcotest.test_case "rmw and flush dependence" `Quick
            test_footprint_rmw_and_flush;
        ] );
      ( "snapshot",
        [
          Alcotest.test_case "restore reproduces the fingerprint" `Quick
            test_snapshot_restore_fingerprint;
          Alcotest.test_case "preconditions raise" `Quick
            test_snapshot_preconditions;
          Alcotest.test_case "listeners survive, fast-forward is silent"
            `Quick test_snapshot_restore_listeners;
        ] );
      ( "api-corners",
        [
          Alcotest.test_case "machine introspection" `Quick
            test_machine_introspection;
          Alcotest.test_case "request descriptions" `Quick test_program_describe;
          Alcotest.test_case "timing max-steps" `Quick test_timing_max_steps_outcome;
          Alcotest.test_case "zero drain bias" `Quick test_weighted_zero_drain_bias;
          Alcotest.test_case "round robin coverage" `Quick
            test_round_robin_policy_covers;
        ] );
      ( "differential",
        [
          QCheck_alcotest.to_alcotest differential_prop;
          Alcotest.test_case "SB through the harness" `Quick
            test_differential_sb_example;
          Alcotest.test_case "capacity sensitivity" `Quick
            test_differential_capacity_matters;
        ] );
      ( "trace",
        [
          Alcotest.test_case "records and renders" `Quick
            test_trace_records_and_renders;
          Alcotest.test_case "last filter" `Quick test_trace_last_filter;
        ] );
      ( "pso",
        [
          Alcotest.test_case "PSO breaks put-publication" `Quick
            test_pso_breaks_publication;
          Alcotest.test_case "store-store fence restores it" `Quick
            test_pso_fence_restores_publication;
          Alcotest.test_case "TSO orders it for free" `Quick
            test_tso_orders_publication_for_free;
          Alcotest.test_case "MP: PSO allowed, TSO forbidden" `Quick
            test_pso_mp_allowed;
          Alcotest.test_case "forwarding under PSO" `Quick
            test_pso_forwarding_still_works;
        ] );
    ]
