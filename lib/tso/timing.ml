type cost_model = {
  load_cost : int;
  store_cost : int;
  rmw_cost : int;
  fence_cost : int;
  drain_latency : int;
  pause_cost : int;
}

let default_costs =
  {
    load_cost = 1;
    store_cost = 1;
    rmw_cost = 24;
    fence_cost = 24;
    drain_latency = 16;
    pause_cost = 4;
  }

type thread_stats = {
  finish_time : int;
  instructions : int;
  loads : int;
  stores : int;
  rmws : int;
  fences : int;
  fence_stall : int;
  work_cycles : int;
}

type report = {
  makespan : int;
  outcome : Sched.outcome;
  steps : int;
  threads : thread_stats array;
}

type core = {
  mutable clock : int;
  mutable drain_free : int;  (* when the drain engine can start its next write *)
  mutable buffer_emptied_at : int;  (* time of the drain that last emptied the buffer *)
  (* completion times of buffered stores, oldest first: a ring of
     [sb_capacity] slots, one per store-buffer entry *)
  issue_times : int array;
  mutable issue_head : int;
  mutable issue_len : int;
  store_ids : int Queue.t;  (* trace ids of buffered stores, parallel to issue_times *)
  mutable store_was_blocked : bool;  (* pending store has waited on a full buffer *)
  mutable instructions : int;
  mutable loads : int;
  mutable stores : int;
  mutable rmws : int;
  mutable fences : int;
  mutable fence_stall : int;
  mutable work_cycles : int;
}

(* Simulated "now", threaded through the run instead of a module-global ref:
   each run owns (or is given) its clock, so timed runs in different domains
   cannot corrupt each other's notion of time. *)
type clock = { mutable now : int }

let clock () = { now = 0 }
let now c = c.now

let push_issue c time =
  let cap = Array.length c.issue_times in
  let i = c.issue_head + c.issue_len in
  c.issue_times.(if i >= cap then i - cap else i) <- time;
  c.issue_len <- c.issue_len + 1

let drop_issue c =
  let i = c.issue_head + 1 in
  c.issue_head <- (if i >= Array.length c.issue_times then 0 else i);
  c.issue_len <- c.issue_len - 1

let run ?(max_steps = 50_000_000) ?clock:clk ?sink ?shards ?tracer
    ?(trace_pid = 0) m costs =
  (match Machine.config m with
  | { buffer_model = Store_buffer.Abstract; _ } -> ()
  | _ -> invalid_arg "Timing.run: requires the Abstract buffer model");
  let clk = match clk with Some c -> c | None -> { now = 0 } in
  let n = Machine.thread_count m in
  let sb_capacity = (Machine.config m).sb_capacity in
  (* One knob for counter collection: attaching the sink here also turns on
     the machine-level counters (loads/stores/occupancy/...); this function
     adds the stall attribution the machine cannot see. With [shards], each
     simulated thread accumulates into its own shard and the batched merge
     below (this run's quiescence point) folds them into the root sink, so
     the reported totals are byte-identical to an unsharded run. *)
  (match sink, shards with
  | Some s, Some sh -> Machine.set_sharded_sink m s sh
  | Some s, None -> Machine.set_sink m s
  | None, _ -> ());
  (* Stall attribution goes to the stalled thread's shard (or the root
     sink when unsharded). *)
  let stall_sink tid s =
    match shards with Some sh -> Telemetry.Shards.shard sh tid | None -> s
  in
  (match tracer with
  | None -> ()
  | Some tr ->
      for tid = 0 to n - 1 do
        Telemetry.Chrome_trace.set_thread_name tr ~pid:trace_pid ~tid
          (Machine.thread_name m tid)
      done);
  let next_store_id = ref 0 in
  let cores =
    Array.init n (fun _ ->
        {
          clock = 0;
          drain_free = 0;
          buffer_emptied_at = 0;
          issue_times = Array.make sb_capacity 0;
          issue_head = 0;
          issue_len = 0;
          store_ids = Queue.create ();
          store_was_blocked = false;
          instructions = 0;
          loads = 0;
          stores = 0;
          rmws = 0;
          fences = 0;
          fence_stall = 0;
          work_cycles = 0;
        })
  in
  (* [-1] encodes "no event" below, so the selection loop handles ints only
     (no option/tuple allocation per simulated event). *)
  let next_drain_time tid =
    let c = cores.(tid) in
    if c.issue_len = 0 then -1
    else
      Int.max c.drain_free c.issue_times.(c.issue_head) + costs.drain_latency
  in
  (* Time at which the instruction pending on [tid] can execute, or -1 if
     it must wait for a drain (full buffer / fence / RMW). *)
  let feasible_time tid =
    let c = cores.(tid) in
    match Machine.pending_class m tid with
    | Machine.C_done -> -1
    | Machine.C_load | Machine.C_work | Machine.C_free -> c.clock
    | Machine.C_store ->
        if Machine.store_blocked m tid then begin
          c.store_was_blocked <- true;
          -1
        end
        else c.clock
    | Machine.C_rmw | Machine.C_fence ->
        if c.issue_len = 0 then Int.max c.clock c.buffer_emptied_at else -1
  in
  let steps = ref 0 in
  let outcome = ref Sched.Quiescent in
  let best_time = ref (-1) in
  let best_kind = ref 0 in
  let best_tid = ref 0 in
  let better time kind tid =
    !best_time < 0
    || time < !best_time
    || time = !best_time
       && (kind < !best_kind || (kind = !best_kind && tid < !best_tid))
  in
  (try
     while not (Machine.quiescent m) do
       if !steps >= max_steps then begin
         outcome := Sched.Max_steps;
         raise Exit
       end;
       (* Select the lexicographically least (time, kind, tid) event; drains
          (kind 0) beat instructions on ties so a load at time t sees every
          store that reached memory by t. *)
       best_time := -1;
       for tid = 0 to n - 1 do
         let dt = next_drain_time tid in
         if dt >= 0 && better dt 0 tid then begin
           best_time := dt;
           best_kind := 0;
           best_tid := tid
         end;
         let ft = feasible_time tid in
         if ft >= 0 && better ft 1 tid then begin
           best_time := ft;
           best_kind := 1;
           best_tid := tid
         end
       done;
       (if !best_time < 0 then begin
          outcome := Sched.Deadlock;
          raise Exit
        end
        else if !best_kind = 0 then begin
          (* drain *)
          let time = !best_time in
          let tid = !best_tid in
          clk.now <- time;
          let c = cores.(tid) in
          Machine.apply m (Machine.drain_transition m tid);
          drop_issue c;
          c.drain_free <- time;
          if c.issue_len = 0 then c.buffer_emptied_at <- time;
          match tracer with
          | None -> ()
          | Some tr ->
              let id = Queue.pop c.store_ids in
              Telemetry.Chrome_trace.async_end tr ~name:"sb-store" ~cat:"sb"
                ~pid:trace_pid ~tid ~ts:time ~id ();
              Telemetry.Chrome_trace.counter tr ~name:"sb-entries" ~cat:"sb"
                ~pid:trace_pid ~tid ~ts:time
                ~values:[ ("entries", c.issue_len) ]
                ()
        end
        else begin
          let time = !best_time in
          let tid = !best_tid in
          clk.now <- time;
          let c = cores.(tid) in
          (* read before [apply] consumes the instruction *)
          let cls = Machine.pending_class m tid in
          let work = Machine.pending_work m tid in
          (* Grab the description before [apply] consumes the instruction;
             only when tracing — it allocates a string per instruction. *)
          let descr =
            match tracer with
            | None -> None
            | Some _ -> Machine.pending_request m tid
          in
          let clock_before = c.clock in
          Machine.apply m (Machine.step_transition m tid);
          c.instructions <- c.instructions + 1;
          (match cls with
          | Machine.C_load ->
              c.loads <- c.loads + 1;
              c.clock <- time + costs.load_cost
          | Machine.C_store ->
              c.stores <- c.stores + 1;
              c.clock <- time + costs.store_cost;
              push_issue c c.clock;
              (* If the store sat on a full buffer, the wait ended when the
                 drain engine freed a slot at [drain_free]. *)
              if c.store_was_blocked then begin
                c.store_was_blocked <- false;
                match sink with
                | None -> ()
                | Some s ->
                    let s = stall_sink tid s in
                    s.Telemetry.Sink.drain_stall_cycles <-
                      s.Telemetry.Sink.drain_stall_cycles
                      + Int.max 0 (c.drain_free - clock_before)
              end
          | Machine.C_rmw ->
              c.rmws <- c.rmws + 1;
              c.fence_stall <- c.fence_stall + (time - clock_before);
              c.clock <- time + costs.rmw_cost
          | Machine.C_fence ->
              c.fences <- c.fences + 1;
              c.fence_stall <- c.fence_stall + (time - clock_before);
              c.clock <- time + costs.fence_cost
          | Machine.C_work ->
              c.work_cycles <- c.work_cycles + work;
              c.clock <- time + work
          | Machine.C_free -> c.clock <- time + costs.pause_cost
          | Machine.C_done -> assert false);
          (match cls, sink with
          | (Machine.C_rmw | Machine.C_fence), Some s ->
              let s = stall_sink tid s in
              s.Telemetry.Sink.fence_stall_cycles <-
                s.Telemetry.Sink.fence_stall_cycles + (time - clock_before)
          | _ -> ());
          match tracer with
          | None -> ()
          | Some tr ->
              let stall = time - clock_before in
              (match cls with
              | (Machine.C_rmw | Machine.C_fence) when stall > 0 ->
                  Telemetry.Chrome_trace.complete tr ~name:"fence-stall"
                    ~cat:"stall" ~pid:trace_pid ~tid ~ts:clock_before
                    ~dur:stall ()
              | _ -> ());
              let name =
                match descr with Some d -> d | None -> "instr"
              in
              let cat =
                match cls with
                | Machine.C_load -> "load"
                | Machine.C_store -> "store"
                | Machine.C_rmw -> "rmw"
                | Machine.C_fence -> "fence"
                | Machine.C_work -> "work"
                | Machine.C_free -> "free"
                | Machine.C_done -> assert false
              in
              Telemetry.Chrome_trace.complete tr ~name ~cat ~pid:trace_pid
                ~tid ~ts:time
                ~dur:(Int.max 0 (c.clock - time))
                ();
              match cls with
              | Machine.C_store ->
                  let id = !next_store_id in
                  incr next_store_id;
                  Queue.push id c.store_ids;
                  Telemetry.Chrome_trace.async_begin tr ~name:"sb-store"
                    ~cat:"sb" ~pid:trace_pid ~tid ~ts:time ~id ();
                  Telemetry.Chrome_trace.counter tr ~name:"sb-entries"
                    ~cat:"sb" ~pid:trace_pid ~tid ~ts:time
                    ~values:[ ("entries", c.issue_len) ]
                    ()
              | _ -> ()
        end);
       incr steps
     done
   with Exit -> ());
  (* Quiescence point: no simulated thread is running, so the batched
     shard merge is safe and the root sink now carries the run's totals. *)
  (match sink, shards with
  | Some s, Some sh -> Telemetry.Shards.merge ~into:s sh
  | _ -> ());
  let threads =
    Array.map
      (fun c ->
        {
          finish_time = c.clock;
          instructions = c.instructions;
          loads = c.loads;
          stores = c.stores;
          rmws = c.rmws;
          fences = c.fences;
          fence_stall = c.fence_stall;
          work_cycles = c.work_cycles;
        })
      cores
  in
  let makespan = Array.fold_left (fun acc c -> Int.max acc c.clock) 0 cores in
  { makespan; outcome = !outcome; steps = !steps; threads }
