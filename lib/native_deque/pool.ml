(* Work-stealing runtime over the native deques.

   The shape follows the paper's discipline (and Rito & Paulino's
   low-synchronization scheduler): the owner path is as close to
   synchronization-free as OCaml's SC atomics allow — a worker pushes and
   pops its own deque with no lock and no CAS on the common path — and all
   coordination lives on the cold paths: the steal path (CAS / the THE
   conflict lock), the external-submission injector (mutex FIFO), and the
   parking lot (mutex + condition, entered only after a full failed hunt).

   The per-task path touches no word another domain writes: each slot's
   counters live in one padded record and two padded single-writer
   atomics, and there is no pool-wide task counter.

   Correctness invariants, each of which an earlier version violated:

   - Counting: a task is counted in its spawner's [spawned] before it is
     pushed, and in its runner's [finished] after its body (and after
     every other record of it). External [spawn]/[submit] and shutdown's
     drain use the one shared pair [ext_spawned]/[ext_finished].
     [in_flight] is a two-pass sum — every [finished] first, then every
     [spawned]. The counters only grow and a task's spawn precedes its
     finish, so finishes read <= finishes at the midpoint <= spawns at the
     midpoint <= spawns read; equal sums prove the pool was quiescent
     between the two passes. The sum is taken only after a failed hunt.

   - Exceptions: a task that raises must still be counted as finished
     (otherwise [parallel_run] waits forever for a count that can never
     balance) and must not kill its worker domain. The first failure is
     captured (with its backtrace) and re-raised at the join point.

   - Single-owner push: only the domain that owns a deque may push to it.
     Non-worker domains submit through [injector]; in debug mode every
     push asserts the caller is the recorded owner.

   - Parking: a worker sleeps only while [pending] (the deque sizes plus
     the injector size) is 0. Every push ends with an SC store (the deque
     tail, or the injector size) before the pusher reads [sleepers], and
     the parker increments [sleepers] before it reads the sizes, so the
     store-buffering argument (both sides SC atomics) rules out lost
     wakeups.

   - Coordinator wake: the coordinator sets [coord_waiting] before it
     tests its park predicate ([pending = 0] and not quiescent). Any
     domain whose hunt fails while the flag is set re-tests quiescence
     and, if it holds, clears the flag and broadcasts. Take the finish
     that is last in the SC order: if it came before the flag was set,
     the coordinator's predicate sees quiescence and it does not sleep;
     if after, its domain sees the flag on its next failed hunt and its
     quiescence test sees every finish. So when two domains finish the
     last two tasks at once, at least one of them sees both finishes.

   - Shutdown first drains all queued work (it used to drop it), then
     stops and joins the workers; it is idempotent. *)

type task = unit -> unit

type backend = Chase_lev_deques | The_deques
type victim_policy = Random_victim | Round_robin_victim

(* What [submit] does when the injector already holds [injector_capacity]
   cells: refuse the task (open-system loss) or spin until a worker makes
   room (open-system queueing delay). *)
type backpressure = Drop | Block

type worker_stats = {
  mutable spawns : int;
  mutable tasks_run : int;
  mutable tasks_stolen : int;
  mutable injector_runs : int;
  mutable steal_attempts : int;
  mutable steals : int;
  mutable take_empties : int;
  mutable steal_empties : int;
  mutable steal_aborts : int;
  mutable parks : int;
}

let stats_equal a b =
  a.spawns = b.spawns && a.tasks_run = b.tasks_run
  && a.tasks_stolen = b.tasks_stolen
  && a.injector_runs = b.injector_runs
  && a.steal_attempts = b.steal_attempts
  && a.steals = b.steals
  && a.take_empties = b.take_empties
  && a.steal_empties = b.steal_empties
  && a.steal_aborts = b.steal_aborts
  && a.parks = b.parks

(* [id]/[parent] are flight-recorder task identities (-1 when the recorder
   is off): [parent] is the id of the task whose body called [spawn], which
   is what lets the reconstructor walk steal ancestries.

   [arr_ns]/[inj_ns] are monotonic-ns stamps (0 when neither telemetry nor
   attribution is on). Inject is when the cell entered a queue, which is
   also where the spawn-to-completion latency of [~telemetry] starts;
   arrival is when the producer first wanted the task in (before any
   [submit] backpressure spin). With attribution the executor adds the
   dequeue and completion stamps, yielding the three-stage split qwait
   (arrival to inject), dispatch (inject to dequeue) and service (dequeue
   to completion). *)
type cell = { f : task; id : int; parent : int; arr_ns : int; inj_ns : int }

(* One slot's state, written only by the domain that holds the slot.
   [spawned]/[finished] are the task counters of the termination and
   [in_flight] protocol (see the head of this file); they double as the
   slot's [spawns]/[tasks_run] statistics. The record itself is padded
   ([Padded.copy]) so the per-task writes of two slots never share a
   cache line. [current] is the id of the task being executed (-1 idle),
   read by nested [spawn]s to name their parent. *)
type slot = {
  spawned : int Atomic.t;
  finished : int Atomic.t;
  mutable current : int;
  mutable tasks_stolen : int;
  mutable injector_runs : int;
  mutable steal_attempts : int;
  mutable steals : int;
  mutable take_empties : int;
  mutable steal_empties : int;
  mutable steal_aborts : int;
  mutable parks : int;
}

let slot_create () =
  Padded.copy
    {
      spawned = Padded.atomic 0;
      finished = Padded.atomic 0;
      current = -1;
      tasks_stolen = 0;
      injector_runs = 0;
      steal_attempts = 0;
      steals = 0;
      take_empties = 0;
      steal_empties = 0;
      steal_aborts = 0;
      parks = 0;
    }

let stats_of_slot (s : slot) : worker_stats =
  {
    spawns = Atomic.get s.spawned;
    tasks_run = Atomic.get s.finished;
    tasks_stolen = s.tasks_stolen;
    injector_runs = s.injector_runs;
    steal_attempts = s.steal_attempts;
    steals = s.steals;
    take_empties = s.take_empties;
    steal_empties = s.steal_empties;
    steal_aborts = s.steal_aborts;
    parks = s.parks;
  }

type deque = Cl of cell Chase_lev.t | The of cell The_queue.t

type t = {
  deques : deque array;  (* slot 0: the coordinator; slots 1..n: workers *)
  owners : int array;  (* Domain id owning each deque; -1 when unclaimed *)
  injector : cell Injector.t;
  injector_capacity : int;  (* soft bound enforced by [submit] only *)
  injector_drops : int Atomic.t;  (* submissions refused under Drop *)
  ext_spawned : int Atomic.t;  (* external spawn/submit, padded *)
  ext_finished : int Atomic.t;  (* shutdown's drain, padded *)
  coord_waiting : bool Atomic.t;  (* the coordinator is about to park *)
  stop : bool Atomic.t;
  error : (exn * Printexc.raw_backtrace) option Atomic.t;
  mutable domains : unit Domain.t list;
  worker_id : int option Domain.DLS.key;
  policy : victim_policy;
  steal_half : bool;
  debug : bool;
  telemetry : bool;
  attribution : bool;
  window_ns : int;  (* windowed-ring geometry, attribution only *)
  window_slots : int;
  lock : Mutex.t;
  cond : Condition.t;
  sleepers : int Atomic.t;  (* padded: read by every push *)
  slots : slot array;
  latencies : Telemetry.Histogram.t array;  (* per worker, telemetry only *)
  (* per-slot stage histograms (ns) and rotating sojourn windows, written
     only by the owning domain (attribution only) *)
  stage_qwait : Telemetry.Histogram.t array;
  stage_dispatch : Telemetry.Histogram.t array;
  stage_service : Telemetry.Histogram.t array;
  sojourn_windows : Telemetry.Windowed.t array;
  recorder : Telemetry.Flight_recorder.t option;
  next_task_id : int Atomic.t;
  running : bool Atomic.t;  (* a parallel_run is in progress *)
  shut : bool Atomic.t;
  mutable drainer : int;
      (* the domain running shutdown's drain, -1 outside it; written only
         by that domain. Other domains read it unsynchronised in [spawn]
         after [shut] is set; any value they see is -1 or the drainer's
         id, never their own, so they are refused either way *)
}

let spin_rounds = 32

module FR = Telemetry.Flight_recorder

(* [arrived] backdates the arrival stamp for submissions that waited out
   a backpressure spin; 0 (the default) means "arrived right now". *)
let make_cell pool ~parent ?(arrived = 0) f =
  let inj_ns =
    if pool.telemetry || pool.attribution then Telemetry.Clock.now_ns ()
    else 0
  in
  let arr_ns = if arrived > 0 then arrived else inj_ns in
  match pool.recorder with
  | None -> { f; id = -1; parent = -1; arr_ns; inj_ns }
  | Some _ ->
      {
        f;
        id = Atomic.fetch_and_add pool.next_task_id 1;
        parent;
        arr_ns;
        inj_ns;
      }

(* ------------------------------------------------------------------ *)
(* Parking lot                                                         *)
(* ------------------------------------------------------------------ *)

let wake_all pool =
  if Atomic.get pool.sleepers > 0 then begin
    Mutex.lock pool.lock;
    Condition.broadcast pool.cond;
    Mutex.unlock pool.lock
  end

(* The no-lost-wakeup argument: the parker publishes [sleepers] (atomic
   increment) before testing the predicate; the waker publishes the state
   change (a deque tail or the injector size, [stop], a [finished]
   counter) before reading [sleepers]. Under OCaml's SC atomics at least
   one side observes the other, so either the parker sees the new state
   and refuses to sleep, or the waker sees the sleeper and broadcasts (and
   the broadcast cannot be missed: the parker holds the mutex from its
   predicate test until [Condition.wait] releases it). *)
let park pool me ~should_sleep =
  Mutex.lock pool.lock;
  Atomic.incr pool.sleepers;
  if should_sleep () then begin
    let sl = pool.slots.(me) in
    sl.parks <- sl.parks + 1;
    (match pool.recorder with
    | Some r -> FR.record r ~slot:me FR.Park ~task:FR.no_task ~arg:FR.no_arg
    | None -> ());
    while should_sleep () do
      Condition.wait pool.cond pool.lock
    done;
    match pool.recorder with
    | Some r -> FR.record r ~slot:me FR.Unpark ~task:FR.no_task ~arg:FR.no_arg
    | None -> ()
  end;
  Atomic.decr pool.sleepers;
  Mutex.unlock pool.lock

(* ------------------------------------------------------------------ *)
(* Counting                                                            *)
(* ------------------------------------------------------------------ *)

(* Cells sitting in some queue. Each size is a racy snapshot that can read
   one short only while an awake domain is taking that element. *)
let pending pool =
  let size = function Cl q -> Chase_lev.size q | The q -> The_queue.size q in
  let n = ref (Injector.size pool.injector) in
  for i = 0 to Array.length pool.deques - 1 do
    n := !n + size pool.deques.(i)
  done;
  !n

(* Tasks spawned and not yet finished: the two-pass sum of the head of
   this file, all [finished] counters before any [spawned] counter. It
   never reads below the true count at the midpoint of the two passes,
   and 0 proves quiescence there. *)
let in_flight pool =
  let fin = ref (Atomic.get pool.ext_finished) in
  for i = 0 to Array.length pool.slots - 1 do
    fin := !fin + Atomic.get pool.slots.(i).finished
  done;
  let spw = ref (Atomic.get pool.ext_spawned) in
  for i = 0 to Array.length pool.slots - 1 do
    spw := !spw + Atomic.get pool.slots.(i).spawned
  done;
  !spw - !fin

(* After a failed hunt: if the coordinator is parking and the pool is
   quiescent, wake it. The flag is cleared by whoever broadcasts, so the
   domains still hunting do not queue up on the mutex the waking
   coordinator needs. *)
let wake_coordinator_if_done pool =
  if
    Atomic.get pool.coord_waiting
    && in_flight pool = 0
    && Atomic.compare_and_set pool.coord_waiting true false
  then wake_all pool

(* ------------------------------------------------------------------ *)
(* Deque dispatch                                                      *)
(* ------------------------------------------------------------------ *)

let assert_owner pool me =
  if pool.debug then begin
    let self = (Domain.self () :> int) in
    let owner = pool.owners.(me) in
    if owner <> self then
      invalid_arg
        (Printf.sprintf
           "Pool: single-owner violation: deque %d is owned by domain %d \
            but domain %d pushed to it"
           me owner self)
  end

let push_own pool me cell =
  assert_owner pool me;
  match pool.deques.(me) with
  | Cl q -> Chase_lev.push q cell
  | The q -> (
      (* THE is fixed-capacity; overflow spills to the unbounded injector
         rather than raising into the middle of a task *)
      try The_queue.push q cell
      with Failure _ -> Injector.push pool.injector cell)

let pop_own pool me =
  match pool.deques.(me) with
  | Cl q -> Chase_lev.pop q
  | The q -> The_queue.pop q

(* [me < 0] means the caller owns no deque (shutdown's drain): batched
   steals are disabled because the surplus could not be re-pushed
   anywhere the caller owns. The detailed outcome feeds the contention
   counters: [`Empty] is a mistargeted hunt, [`Abort] a live conflict. *)
let steal_from pool me victim =
  match pool.deques.(victim) with
  | Cl q -> Chase_lev.steal_detail q
  | The q ->
      if pool.steal_half && me >= 0 then
        match The_queue.steal_half q with
        | [] -> `Empty
        | c :: rest ->
            (* the surplus moves to our own deque; between the two it is
               in no queue, so a worker may have parked on [pending = 0]
               meanwhile — wake it now that the cells are stealable *)
            if rest <> [] then begin
              List.iter (fun c -> push_own pool me c) rest;
              wake_all pool
            end;
            `Task c
      else The_queue.steal_detail q

(* ------------------------------------------------------------------ *)
(* Task execution                                                      *)
(* ------------------------------------------------------------------ *)

let record_error pool e bt =
  ignore (Atomic.compare_and_set pool.error None (Some (e, bt)))

(* The [finished] bump is unconditional: a raising task counts as finished
   (its failure is captured for the join point), so the run can terminate
   and report instead of spinning forever. It is also the last write: a
   domain that sees the pool quiescent sees every record of every task.
   [current] is set for the duration of the task body so that nested
   [spawn]s can name their parent. *)
let exec_cell pool me cell =
  let sl = pool.slots.(me) in
  sl.current <- cell.id;
  let deq_ns = if pool.attribution then Telemetry.Clock.now_ns () else 0 in
  (try cell.f ()
   with e ->
     let bt = Printexc.get_raw_backtrace () in
     record_error pool e bt);
  sl.current <- -1;
  if pool.attribution || pool.telemetry then begin
    (* all the stamps read the same monotonic clock, and this slot's
       histograms/ring are single-writer, so no lock is needed *)
    let fin = Telemetry.Clock.now_ns () in
    if pool.attribution then begin
      Telemetry.Histogram.observe pool.stage_qwait.(me)
        (cell.inj_ns - cell.arr_ns);
      Telemetry.Histogram.observe pool.stage_dispatch.(me)
        (deq_ns - cell.inj_ns);
      Telemetry.Histogram.observe pool.stage_service.(me) (fin - deq_ns);
      Telemetry.Windowed.observe pool.sojourn_windows.(me) ~now:fin
        (fin - cell.arr_ns)
    end;
    if pool.telemetry then
      Telemetry.Histogram.observe pool.latencies.(me) (fin - cell.inj_ns)
  end;
  Atomic.incr sl.finished

let pick_victim pool me rng rr =
  let n = Array.length pool.deques in
  match pool.policy with
  | Random_victim ->
      let v = Random.State.int rng (n - 1) in
      if v >= me then v + 1 else v
  | Round_robin_victim ->
      rr := (!rr + 1) mod n;
      if !rr = me then rr := (!rr + 1) mod n;
      !rr

(* A Run event is recorded at dequeue time (execution follows immediately
   in the worker loop), with the provenance in [arg] — that pairing with
   the task's Spawn/Inject record is the whole lineage story. *)
let record_run pool me cell ~arg =
  match pool.recorder with
  | Some r -> FR.record r ~slot:me FR.Run ~task:cell.id ~arg
  | None -> ()

(* One full hunt: own deque, then the injector, then one steal attempt
   per other deque. *)
let find_task pool me rng rr =
  let st = pool.slots.(me) in
  match pop_own pool me with
  | Some c ->
      record_run pool me c ~arg:FR.origin_pop;
      Some c
  | None -> (
      st.take_empties <- st.take_empties + 1;
      match Injector.pop pool.injector with
      | Some c ->
          st.injector_runs <- st.injector_runs + 1;
          record_run pool me c ~arg:FR.origin_inject;
          Some c
      | None ->
          let n = Array.length pool.deques in
          let found = ref None in
          let attempts = ref 0 in
          while Option.is_none !found && !attempts < n - 1 do
            incr attempts;
            st.steal_attempts <- st.steal_attempts + 1;
            let victim = pick_victim pool me rng rr in
            (match steal_from pool me victim with
            | `Task c ->
                st.steals <- st.steals + 1;
                st.tasks_stolen <- st.tasks_stolen + 1;
                (match pool.recorder with
                | Some r ->
                    FR.record r ~slot:me FR.Steal ~task:c.id ~arg:victim
                | None -> ());
                record_run pool me c ~arg:victim;
                found := Some c
            | `Empty ->
                st.steal_empties <- st.steal_empties + 1;
                Domain.cpu_relax ()
            | `Abort ->
                st.steal_aborts <- st.steal_aborts + 1;
                (match pool.recorder with
                | Some r ->
                    FR.record r ~slot:me FR.Steal_abort ~task:FR.no_task
                      ~arg:victim
                | None -> ());
                Domain.cpu_relax ())
          done;
          !found)

(* ------------------------------------------------------------------ *)
(* Workers                                                             *)
(* ------------------------------------------------------------------ *)

let worker_loop pool me =
  Domain.DLS.set pool.worker_id (Some me);
  pool.owners.(me) <- (Domain.self () :> int);
  let rng = Random.State.make [| 0x9e3779b9; me |] in
  let rr = ref me in
  let spins = ref 0 in
  while not (Atomic.get pool.stop) do
    match find_task pool me rng rr with
    | Some cell ->
        spins := 0;
        exec_cell pool me cell
    | None ->
        wake_coordinator_if_done pool;
        incr spins;
        if !spins < spin_rounds then Domain.cpu_relax ()
        else begin
          spins := 0;
          park pool me ~should_sleep:(fun () ->
              (not (Atomic.get pool.stop)) && pending pool = 0)
        end
  done

(* ------------------------------------------------------------------ *)
(* API                                                                 *)
(* ------------------------------------------------------------------ *)

let create ?domains ?(backend = Chase_lev_deques) ?(policy = Random_victim)
    ?(steal_half = false) ?(telemetry = false) ?(attribution = false)
    ?(window_ns = 100_000_000) ?(window_slots = 16) ?(debug = false)
    ?(queue_capacity = 1 lsl 13) ?(injector_capacity = max_int)
    ?(flight = false) ?(flight_capacity = 16384) () =
  if injector_capacity < 1 then
    invalid_arg "Pool.create: injector_capacity must be >= 1";
  if attribution && window_ns < 1 then
    invalid_arg "Pool.create: window_ns must be >= 1";
  if steal_half && backend <> The_deques then
    invalid_arg "Pool.create: steal_half requires the THE backend";
  let n =
    match domains with
    | Some d -> max 1 d
    | None -> max 1 (Domain.recommended_domain_count () - 1)
  in
  let mk_deque () =
    match backend with
    | Chase_lev_deques -> Cl (Chase_lev.create ~capacity:64 ())
    | The_deques -> The (The_queue.create ~capacity:queue_capacity ())
  in
  let worker_id = Domain.DLS.new_key (fun () -> None) in
  (* One record, created once and shared with every worker: [domains] is a
     mutable field filled in below, so the workers, the coordinator and
     [shutdown] all see the same state (the previous [{ pool with domains }]
     copy handed the workers a record whose domain list stayed []). *)
  let pool =
    {
      deques = Array.init (n + 1) (fun _ -> mk_deque ());
      owners = Array.make (n + 1) (-1);
      injector = Injector.create ();
      injector_capacity;
      injector_drops = Atomic.make 0;
      ext_spawned = Padded.atomic 0;
      ext_finished = Padded.atomic 0;
      coord_waiting = Atomic.make false;
      stop = Atomic.make false;
      error = Atomic.make None;
      domains = [];
      worker_id;
      policy;
      steal_half;
      debug;
      telemetry;
      attribution;
      window_ns;
      window_slots;
      lock = Mutex.create ();
      cond = Condition.create ();
      sleepers = Padded.atomic 0;
      slots = Array.init (n + 1) (fun _ -> slot_create ());
      latencies = Array.init (n + 1) (fun _ -> Telemetry.Histogram.create ());
      stage_qwait = Array.init (n + 1) (fun _ -> Telemetry.Histogram.create ());
      stage_dispatch =
        Array.init (n + 1) (fun _ -> Telemetry.Histogram.create ());
      stage_service =
        Array.init (n + 1) (fun _ -> Telemetry.Histogram.create ());
      sojourn_windows =
        Array.init (n + 1) (fun _ ->
            Telemetry.Windowed.create ~slots:window_slots ~width:window_ns ());
      recorder =
        (if flight then
           Some (FR.create ~capacity:flight_capacity ~slots:(n + 1) ())
         else None);
      next_task_id = Atomic.make 0;
      running = Atomic.make false;
      shut = Atomic.make false;
      drainer = -1;
    }
  in
  pool.domains <-
    List.init n (fun i -> Domain.spawn (fun () -> worker_loop pool (i + 1)));
  pool

(* The spawn is counted before the push, so a task is never finished
   before it is counted (the in-flight sum relies on it), and the push's
   SC tail store comes before the [sleepers] read in [wake_all]. Once the
   pool is shut, only task bodies may spawn: those on pool domains, and
   those [shutdown]'s own drain runs; their children run before the drain
   ends, since a running parent keeps the in-flight count above zero. *)
let spawn pool f =
  (match Domain.DLS.get pool.worker_id with
  | Some me ->
      let sl = pool.slots.(me) in
      let cell = make_cell pool ~parent:sl.current f in
      Atomic.incr sl.spawned;
      (* The Spawn event lands before the push: the cell must be on record
         before a thief can emit the matching Steal/Run. *)
      (match pool.recorder with
      | Some r -> FR.record r ~slot:me FR.Spawn ~task:cell.id ~arg:cell.parent
      | None -> ());
      push_own pool me cell
  | None ->
      if Atomic.get pool.shut && pool.drainer <> (Domain.self () :> int) then
        invalid_arg "Pool.spawn: pool is shut down";
      (* not a pool domain: Chase-Lev push is single-owner, so external
         submissions go through the MPMC injector *)
      let cell = make_cell pool ~parent:(-1) f in
      Atomic.incr pool.ext_spawned;
      (match pool.recorder with
      | Some r -> FR.record_external r FR.Inject ~task:cell.id ~arg:FR.no_arg
      | None -> ());
      Injector.push pool.injector cell);
  wake_all pool

(* External submission under the injector bound. [spawn] is the closed-
   system door and never refuses work (a worker body must be able to fork
   unconditionally); [submit] is the open-system front door, where load
   the pool cannot absorb has to be shed or delayed somewhere, and that
   somewhere is here. The bound is soft: concurrent submitters race the
   size check, so the depth can transiently exceed capacity by the number
   of racing callers — fine for backpressure, whose job is to stop an
   unbounded queue, not to enforce an exact high-water mark. *)
let inject ?arrived pool f =
  let cell = make_cell pool ~parent:(-1) ?arrived f in
  Atomic.incr pool.ext_spawned;
  (match pool.recorder with
  | Some r -> FR.record_external r FR.Inject ~task:cell.id ~arg:FR.no_arg
  | None -> ());
  Injector.push pool.injector cell;
  wake_all pool

let submit ?(policy = Block) pool f =
  if Atomic.get pool.shut then invalid_arg "Pool.submit: pool is shut down";
  (* arrival is stamped before the capacity check: a Block spin is queueing
     delay the request experiences, so it belongs to the qwait stage *)
  let arrived = if pool.attribution then Telemetry.Clock.now_ns () else 0 in
  if Injector.size pool.injector < pool.injector_capacity then begin
    inject ~arrived pool f;
    true
  end
  else
    match policy with
    | Drop ->
        Atomic.incr pool.injector_drops;
        false
    | Block ->
        while Injector.size pool.injector >= pool.injector_capacity do
          Domain.cpu_relax ()
        done;
        inject ~arrived pool f;
        true

let raise_pending_error pool =
  match Atomic.exchange pool.error None with
  | Some (e, bt) -> Printexc.raise_with_backtrace e bt
  | None -> ()

let parallel_run pool tasks =
  if Atomic.get pool.shut then
    invalid_arg "Pool.parallel_run: pool is shut down";
  if not (Atomic.compare_and_set pool.running false true) then
    invalid_arg "Pool.parallel_run: not reentrant";
  (* claim the coordinator slot for the calling domain *)
  Domain.DLS.set pool.worker_id (Some 0);
  pool.owners.(0) <- (Domain.self () :> int);
  List.iter (fun f -> spawn pool f) tasks;
  let rng = Random.State.make [| 0xab1e |] in
  let rr = ref 0 in
  (* the in-flight sum is taken only after a failed hunt *)
  let rec go spins =
    match find_task pool 0 rng rr with
    | Some cell ->
        exec_cell pool 0 cell;
        go 0
    | None ->
        if in_flight pool > 0 then
          if spins < spin_rounds then begin
            Domain.cpu_relax ();
            go (spins + 1)
          end
          else begin
            Atomic.set pool.coord_waiting true;
            park pool 0 ~should_sleep:(fun () ->
                pending pool = 0 && in_flight pool > 0);
            Atomic.set pool.coord_waiting false;
            go 0
          end
  in
  go 0;
  (* release the coordinator slot: spawns from this domain outside a
     parallel_run go through the injector like any other external caller *)
  Domain.DLS.set pool.worker_id None;
  pool.owners.(0) <- -1;
  Atomic.set pool.running false;
  raise_pending_error pool

(* Shutdown's drain: the caller owns no deque, so it may only consume the
   injector and steal — both safe from any domain. *)
let drain_find pool rr =
  match Injector.pop pool.injector with
  | Some c ->
      (match pool.recorder with
      | Some r -> FR.record_external r FR.Run ~task:c.id ~arg:FR.origin_inject
      | None -> ());
      Some c
  | None ->
      let n = Array.length pool.deques in
      let found = ref None in
      let attempts = ref 0 in
      while Option.is_none !found && !attempts < n do
        incr attempts;
        rr := (!rr + 1) mod n;
        (match steal_from pool (-1) !rr with
        | `Task c ->
            (match pool.recorder with
            | Some r -> FR.record_external r FR.Run ~task:c.id ~arg:!rr
            | None -> ());
            found := Some c
        | `Empty | `Abort -> ())
      done;
      !found

let shutdown pool =
  if Atomic.compare_and_set pool.shut false true then begin
    (* Drain before stopping: queued tasks are executed, not dropped. The
       caller helps from outside (injector + steals) while the workers
       keep running; [in_flight] reaching zero means every spawned task
       has finished. This loop is off the task path, so it sums the
       counters on every turn. *)
    let rr = ref 0 in
    pool.drainer <- (Domain.self () :> int);
    while in_flight pool > 0 do
      match drain_find pool rr with
      | Some cell ->
          (try cell.f ()
           with e -> record_error pool e (Printexc.get_raw_backtrace ()));
          Atomic.incr pool.ext_finished
      | None -> Domain.cpu_relax ()
    done;
    pool.drainer <- -1;
    (* the drain may have run the last task of a concurrent parallel_run *)
    wake_coordinator_if_done pool;
    Atomic.set pool.stop true;
    wake_all pool;
    List.iter Domain.join pool.domains;
    pool.domains <- [];
    raise_pending_error pool
  end

let worker_count pool = Array.length pool.deques - 1
let injector_depth pool = Injector.size pool.injector
let sleeper_count pool = Atomic.get pool.sleepers
let injector_drops pool = Atomic.get pool.injector_drops

(* Stable-read snapshot of one slot's counters: copy, re-copy, and accept
   only when two successive copies agree (the writer was quiet in between,
   so the copy is a consistent cut of that slot's history). The writer is
   never slowed down — all the cost is on the reader, bounded by [tries]:
   under sustained writes the last copy is returned, torn by at most the
   events in flight during the final copy. See pool.mli for the precise
   tolerance statement. *)
let scrape_slot pool i =
  let rec go prev tries =
    let cur = stats_of_slot pool.slots.(i) in
    if tries = 0 || stats_equal prev cur then cur else go cur (tries - 1)
  in
  go (stats_of_slot pool.slots.(i)) 3

type snapshot = {
  slot_stats : worker_stats array;
  slot_latencies : Telemetry.Histogram.t array;
  slot_qwait : Telemetry.Histogram.t array;
  slot_dispatch : Telemetry.Histogram.t array;
  slot_service : Telemetry.Histogram.t array;
  snap_windows : Telemetry.Windowed.t;
  snap_pending : int;
  snap_in_flight : int;
  snap_sleepers : int;
  snap_injector : int;
  snap_injector_drops : int;
}

let copy_hists a =
  Array.map
    (fun l ->
      let h = Telemetry.Histogram.create () in
      Telemetry.Histogram.merge ~into:h l;
      h)
    a

(* Merged non-draining view of the per-slot sojourn rings: snapshot each
   slot's ring (safe against its writer), then fold the copies — the
   claim rule makes the fold independent of slot order. *)
let merged_windows pool =
  let acc =
    Telemetry.Windowed.create ~slots:pool.window_slots ~width:pool.window_ns
      ()
  in
  Array.iter
    (fun w ->
      Telemetry.Windowed.merge ~into:acc (Telemetry.Windowed.snapshot w))
    pool.sojourn_windows;
  acc

let scrape pool =
  {
    slot_stats = Array.init (Array.length pool.slots) (scrape_slot pool);
    slot_latencies = copy_hists pool.latencies;
    slot_qwait = copy_hists pool.stage_qwait;
    slot_dispatch = copy_hists pool.stage_dispatch;
    slot_service = copy_hists pool.stage_service;
    snap_windows = merged_windows pool;
    snap_pending = pending pool;
    snap_in_flight = in_flight pool;
    snap_sleepers = Atomic.get pool.sleepers;
    snap_injector = Injector.size pool.injector;
    snap_injector_drops = Atomic.get pool.injector_drops;
  }

let worker_stats pool =
  Array.init (Array.length pool.slots) (scrape_slot pool)

let flight pool = pool.recorder

let tasks_run pool =
  Array.fold_left (fun acc sl -> acc + Atomic.get sl.finished) 0 pool.slots

let latency pool =
  let h = Telemetry.Histogram.create () in
  Array.iter (fun l -> Telemetry.Histogram.merge ~into:h l) pool.latencies;
  h

let merge_all a =
  let h = Telemetry.Histogram.create () in
  Array.iter (fun l -> Telemetry.Histogram.merge ~into:h l) a;
  h

let stage_hists pool =
  ( merge_all pool.stage_qwait,
    merge_all pool.stage_dispatch,
    merge_all pool.stage_service )

let windowed_sojourn pool = merged_windows pool

let fold_into_sink pool sink =
  Array.iter
    (fun sl ->
      let st = stats_of_slot sl in
      sink.Telemetry.Sink.puts <- sink.Telemetry.Sink.puts + st.spawns;
      sink.Telemetry.Sink.tasks_run <-
        sink.Telemetry.Sink.tasks_run + st.tasks_run;
      sink.Telemetry.Sink.tasks_stolen <-
        sink.Telemetry.Sink.tasks_stolen + st.tasks_stolen;
      sink.Telemetry.Sink.steal_attempts <-
        sink.Telemetry.Sink.steal_attempts + st.steal_attempts;
      sink.Telemetry.Sink.steals <- sink.Telemetry.Sink.steals + st.steals;
      sink.Telemetry.Sink.take_empties <-
        sink.Telemetry.Sink.take_empties + st.take_empties;
      sink.Telemetry.Sink.steal_empties <-
        sink.Telemetry.Sink.steal_empties + st.steal_empties;
      sink.Telemetry.Sink.steal_aborts <-
        sink.Telemetry.Sink.steal_aborts + st.steal_aborts;
      sink.Telemetry.Sink.parks <- sink.Telemetry.Sink.parks + st.parks)
    pool.slots

let fib pool n =
  let acc = Atomic.make 0 in
  let rec task n () =
    if n < 2 then ignore (Atomic.fetch_and_add acc n)
    else begin
      spawn pool (task (n - 1));
      spawn pool (task (n - 2))
    end
  in
  parallel_run pool [ task n ];
  Atomic.get acc
