type instance = {
  machine : Machine.t;
  check : unit -> (unit, string) result;
}

type stats = {
  runs : int;
  truncated : int;
  deadlocks : int;
  pruned : int;
  memo_hits : int;
  sleep_skips : int;
  peak_depth : int;
  covered : float;
  failures : (int list * string) list;
}

(* [stats_of_acc] already reverses both the failure list (sighting order)
   and, via [Prefix.to_list], leaves each choice sequence root-first, so
   the replay orientation is the stored one. *)
let failures_in_replay_order s = s.failures

let memo_hit_rate s =
  let visits = s.runs + s.memo_hits in
  if visits = 0 then 0.0 else float_of_int s.memo_hits /. float_of_int visits

(* The unit performing a transition, for preemption accounting. Drains and
   flushes belong to the memory subsystem and never count as preemptions. *)
type unit_id = U_thread of int | U_memory

let unit_of = function
  | Machine.Step t -> U_thread t
  | Machine.Drain _ | Machine.Flush _ -> U_memory

exception Stop

(* Partial-order reduction for busy-wait loops: a pause/label step is a pure
   no-op that commutes with every other transition, so exploring it is only
   useful once nothing else can move. Without this, a spinlock's
   cas-fail/pause cycle revisits the same machine state forever. The reduced
   list is the choice universe for BOTH search and replay, so recorded
   indices stay meaningful. *)
let is_noop m = function
  | Machine.Step t -> (
      match Machine.pending_class m t with
      | Machine.C_free -> true
      | _ -> false)
  | Machine.Drain _ | Machine.Flush _ -> false

let next_choices m =
  let ts = Machine.enabled m in
  match List.filter (fun t -> not (is_noop m t)) ts with
  | [] -> ts
  | productive -> productive

(* Same reduction over a reusable buffer: refill it with the enabled set,
   then compact out the no-ops in place (keeping order) unless everything is
   a no-op. This is the search's per-node choice computation, so it must
   yield exactly the same sequence as [next_choices]. *)
let choices_into m buf =
  let n = Machine.enabled_into m buf in
  let productive = ref 0 in
  for i = 0 to n - 1 do
    if not (is_noop m (Machine.tbuf_get buf i)) then incr productive
  done;
  if !productive = 0 || !productive = n then n
  else begin
    let j = ref 0 in
    for i = 0 to n - 1 do
      let tr = Machine.tbuf_get buf i in
      if not (is_noop m tr) then begin
        Machine.tbuf_set buf !j tr;
        incr j
      end
    done;
    Machine.tbuf_truncate buf !j;
    !j
  end

(* FNV-style mixing, as in {!Machine.fingerprint}; used to fold a sleep
   set into the memoization key. *)
let fnv_prime = 0x100000001b3
let[@inline] mix h k = (h lxor k) * fnv_prime

(* {2 Sleep sets}

   Sleep-set partial-order reduction (Godefroid). After a branch node's
   child [tr] has been fully explored, every execution from a later sibling
   that schedules only transitions independent of [tr] before eventually
   firing [tr] is a commuted copy of one already explored under [tr] — so
   [tr] is put to sleep for the later siblings and skipped wherever it
   stays asleep. A sleeping transition wakes (is dropped) as soon as a
   dependent transition fires; since any transition of the same thread is
   dependent, a sleeping transition's footprint (taken when it went to
   sleep) stays valid for as long as it sleeps.

   Interaction with the bounds (DESIGN.md §10):
   - the depth bound is commutation-invariant (reordering preserves length),
     so truncated subtrees still justify sleep insertion;
   - the preemption count is NOT commutation-invariant, so under a CHESS
     bound a sibling only enters the sleep set if its subtree was explored
     without a single preemption prune or memo hit (a memo hit hides
     whether the earlier visit pruned) — otherwise some execution the
     sleeping transition is supposed to cover may have been cut;
   - with memoization, the sleep set is folded into the cache key, so a
     state is only pruned against a previous visit that had the same
     reductions applied. *)
type sleep_entry = { sl_tr : Machine.transition; sl_fp : Machine.footprint }

let sleep_mem sleep tr = List.exists (fun e -> e.sl_tr = tr) sleep
let sleep_filter sleep fp =
  List.filter (fun e -> Machine.independent e.sl_fp fp) sleep

let tr_hash = function
  | Machine.Step t -> mix 0x57 t
  | Machine.Drain (t, l) -> mix (mix 0xD5 t) l
  | Machine.Flush t -> mix 0xF1 t

(* Order-independent (xor-folded): a sleep set is a set. *)
let sleep_hash sleep =
  List.fold_left (fun h e -> h lxor tr_hash e.sl_tr) 0 sleep

(* {2 Source-DPOR}

   Dynamic partial-order reduction (Flanagan-Godefroid, with the source-set
   refinement): instead of enumerating every child of a branch node, start
   from ONE choice and let the execution itself demand the others. While an
   event executes, it is checked against the last accesses to the addresses
   it touches; each such earlier access by a different thread that is not
   already ordered before it by happens-before is a reversible race, and the
   reversal is requested by planting a backtrack point at the branch node
   where the earlier access was chosen. A node therefore only explores the
   choices some observed race demanded — on programs whose threads touch
   disjoint data this collapses the tree to a single interleaving.

   The happens-before relation is tracked with per-thread vector clocks over
   the footprint relation ({!Machine.footprint} / {!Machine.independent}).
   Footprints already encode the store-buffer split: a [Step] of a store
   touches no shared address (it only fills the private buffer) while the
   matching [Drain]/[Flush] carries the write — so a buffered store races
   with a concurrent load only when its drain does, exactly the TSO-aware
   independence the reduction needs. A thread and its buffer share one
   clock index: footprints of the same thread are always dependent
   (program order / FIFO order), matching [Machine.independent].

   Two sources of internal nondeterminism make this coarser than textbook
   DPOR over thread ids alone, and both are handled by treating "all
   choices of a unit at a node" as one schedulable entity: a thread may
   offer [Step]/[Drain]/[Flush] alternatives at the same node (which of
   them runs is not resolved by scheduling the thread), so the initial
   selection and every planted backtrack point take ALL of the unit's
   choice indices together.

   Composition (the same discipline as sleep sets, DESIGN.md §13):
   - a subtree cut by the CHESS bound or pruned by a memo hit may hide the
     race that would have demanded a sibling, so an unclean child degrades
     its node to full enumeration ([nd_all]) — under a preemption bound or
     memoization the reduction is best-effort but the bounded verdict is
     preserved;
   - sleep sets compose unchanged: a demanded-but-sleeping choice is a
     commuted copy of an explored one and is skipped with the usual
     accounting, and explored children enter the running sleep set under
     the usual clean-subtree rule. *)

(* A branch node's demand bookkeeping, shared by every mode: a child is
   explored once it is demanded, in index order. Plain and sleep-set search
   demand every child from the start ([nd_all]); a DPOR node starts from
   one unit's choices and grows its backtrack set as races are sighted. *)
type node = {
  nd_units : int array;  (** footprint thread of each choice index (DPOR) *)
  nd_backtrack : bool array;
  nd_done : bool array;
  mutable nd_all : bool;
      (** every child demanded: not DPOR, or degraded to full enumeration
          (bound prune / memo hit below, or no backtrack-set member was
          available for a demanded reversal) *)
}

(* Per-address access summary: the last write (its event index and clock)
   and the reads since it (their indices and joined clock). Records are
   immutable so backtracking restores by keeping the old record. *)
type dpor_addr = {
  a_widx : int;
  a_wclock : int array;
  a_reads : int list;
  a_rclock : int array;
}

type dpor_undo = {
  u_proc : int;
  u_pclock : int array;
  u_read : (int * dpor_addr) option;
  u_write : (int * dpor_addr) option;
}

type dpor = {
  d_bottom : int array;  (** all -1; shared and never mutated *)
  d_pclock : int array array;  (** clock of each thread's last event *)
  d_addrs : (int, dpor_addr) Hashtbl.t;
  mutable d_units : int array;  (** executing thread of the event at depth *)
  mutable d_nodes : node option array;  (** branch node at depth *)
  mutable d_undo : dpor_undo option array;
}

let dpor_create ~nthreads =
  let n = max nthreads 1 in
  let bottom = Array.make n (-1) in
  {
    d_bottom = bottom;
    d_pclock = Array.make n bottom;
    d_addrs = Hashtbl.create 64;
    d_units = [||];
    d_nodes = [||];
    d_undo = [||];
  }

let dpor_depth_room ds depth =
  let n = Array.length ds.d_units in
  if depth >= n then begin
    let m = max (depth + 1) (max 16 (2 * n)) in
    let units = Array.make m (-1) in
    Array.blit ds.d_units 0 units 0 n;
    ds.d_units <- units;
    let nodes = Array.make m None in
    Array.blit ds.d_nodes 0 nodes 0 n;
    ds.d_nodes <- nodes;
    let undo = Array.make m None in
    Array.blit ds.d_undo 0 undo 0 n;
    ds.d_undo <- undo
  end

let dpor_addr ds a =
  match Hashtbl.find_opt ds.d_addrs a with
  | Some e -> e
  | None ->
      { a_widx = -1; a_wclock = ds.d_bottom; a_reads = []; a_rclock = ds.d_bottom }

let[@inline] dpor_join dst src =
  for i = 0 to Array.length dst - 1 do
    if src.(i) > dst.(i) then dst.(i) <- src.(i)
  done

(* Request the reversal of a race between the event at branch node [i] and
   the event thread [p] is about to execute ([pc] = p's clock BEFORE it).
   E is the set of threads with a choice at [i] that either are [p] or ran
   an event after [i] that happens-before p's event (any of them reaches
   the race from node [i]); if a member of E is already scheduled there,
   nothing is needed; else one member's choices are planted (all of its
   indices — internal nondeterminism); else nothing in the node's choice
   universe can reach the race and the node degrades to full enumeration. *)
let dpor_plant ds i ~p ~pc =
  match ds.d_nodes.(i) with
  | None -> () (* singleton node: its only choice already runs *)
  | Some node ->
      if not node.nd_all then begin
        let n = Array.length node.nd_units in
        let in_e q = q = p || pc.(q) > i in
        let covered = ref false in
        for j = 0 to n - 1 do
          if
            (node.nd_backtrack.(j) || node.nd_done.(j))
            && in_e node.nd_units.(j)
          then covered := true
        done;
        if not !covered then begin
          let chosen = ref (-1) in
          for j = n - 1 downto 0 do
            let q = node.nd_units.(j) in
            if q = p || (!chosen < 0 && in_e q) then chosen := q
          done;
          if !chosen >= 0 then begin
            let c = !chosen in
            Array.iteri
              (fun j q -> if q = c then node.nd_backtrack.(j) <- true)
              node.nd_units
          end
          else node.nd_all <- true
        end
      end

(* Record the event at [depth] with footprint [fp]: detect races against
   the per-address indices (planting reversals), advance the executing
   thread's clock, and update the address records — remembering enough to
   undo on backtrack. Must run on the pre-state footprint, before
   [Machine.apply]. *)
let dpor_push ds depth fp =
  dpor_depth_room ds depth;
  let p = Machine.footprint_tid fp in
  let r = Machine.footprint_read fp and w = Machine.footprint_write fp in
  let pc = ds.d_pclock.(p) in
  let plant i =
    if i >= 0 && ds.d_units.(i) <> p && pc.(ds.d_units.(i)) < i then
      dpor_plant ds i ~p ~pc
  in
  let er = if r >= 0 then Some (dpor_addr ds r) else None in
  let ew = if w >= 0 then Some (dpor_addr ds w) else None in
  (match er with Some e -> plant e.a_widx | None -> ());
  (match ew with
  | Some e ->
      if w <> r then plant e.a_widx;
      List.iter plant e.a_reads
  | None -> ());
  let c = Array.copy pc in
  c.(p) <- depth;
  (match er with Some e -> dpor_join c e.a_wclock | None -> ());
  (match ew with
  | Some e ->
      dpor_join c e.a_wclock;
      dpor_join c e.a_rclock
  | None -> ());
  let u_read =
    match er with
    | Some e when r <> w ->
        let rc = Array.copy e.a_rclock in
        dpor_join rc c;
        Hashtbl.replace ds.d_addrs r
          { e with a_reads = depth :: e.a_reads; a_rclock = rc };
        Some (r, e)
    | _ -> None
  in
  let u_write =
    match ew with
    | Some e ->
        Hashtbl.replace ds.d_addrs w
          { a_widx = depth; a_wclock = c; a_reads = []; a_rclock = ds.d_bottom };
        Some (w, e)
    | None -> None
  in
  ds.d_undo.(depth) <- Some { u_proc = p; u_pclock = pc; u_read; u_write };
  ds.d_units.(depth) <- p;
  ds.d_pclock.(p) <- c

let dpor_pop ds depth =
  match ds.d_undo.(depth) with
  | None -> ()
  | Some u ->
      ds.d_undo.(depth) <- None;
      ds.d_pclock.(u.u_proc) <- u.u_pclock;
      (match u.u_read with
      | Some (a, e) -> Hashtbl.replace ds.d_addrs a e
      | None -> ());
      (match u.u_write with
      | Some (a, e) -> Hashtbl.replace ds.d_addrs a e
      | None -> ())

(* One enabled-set buffer per search depth, grown on demand: the DFS at
   depth [d] iterates its siblings from buffer [d] while the recursion
   below uses deeper buffers, so no buffer is ever clobbered while live. *)
type pool = { mutable bufs : Machine.tbuf array }

let pool_create () = { bufs = [||] }

let pool_get pool depth =
  let n = Array.length pool.bufs in
  if depth >= n then begin
    let grown = Array.make (max (depth + 1) (max 16 (2 * n))) (Machine.tbuf_create ()) in
    Array.blit pool.bufs 0 grown 0 n;
    for i = n to Array.length grown - 1 do
      grown.(i) <- Machine.tbuf_create ()
    done;
    pool.bufs <- grown
  end;
  pool.bufs.(depth)

(* Likewise one machine snapshot per branch depth: the scratch stays live
   while the node iterates its siblings, and deeper branch nodes use deeper
   slots. Reusing the slots means steady-state capture allocates nothing. *)
type spool = { mutable snaps : Machine.snapshot array }

let spool_create () = { snaps = [||] }

let spool_get spool depth =
  let n = Array.length spool.snaps in
  if depth >= n then begin
    let grown =
      Array.make (max (depth + 1) (max 16 (2 * n))) (Machine.snapshot_create ())
    in
    Array.blit spool.snaps 0 grown 0 n;
    for i = n to Array.length grown - 1 do
      grown.(i) <- Machine.snapshot_create ()
    done;
    spool.snaps <- grown
  end;
  spool.snaps.(depth)

(* Growable array-backed choice prefix. Alongside each choice index we keep
   the chosen transition itself: transitions are plain values (thread ids
   and lane numbers), so a sibling replay can re-apply them directly instead
   of recomputing the choice universe at every step — replay is one
   [Machine.apply] per step, O(depth) total where the list-based
   representation cost O(depth^2). *)
module Prefix = struct
  type t = {
    mutable idx : int array;
    mutable trs : Machine.transition array;
    mutable len : int;
  }

  let dummy = Machine.Step (-1)
  let create () = { idx = Array.make 64 0; trs = Array.make 64 dummy; len = 0 }

  let copy p =
    { idx = Array.copy p.idx; trs = Array.copy p.trs; len = p.len }

  let push p i tr =
    let n = p.len in
    if n = Array.length p.idx then begin
      let idx = Array.make (2 * n) 0 in
      let trs = Array.make (2 * n) dummy in
      Array.blit p.idx 0 idx 0 n;
      Array.blit p.trs 0 trs 0 n;
      p.idx <- idx;
      p.trs <- trs
    end;
    p.idx.(n) <- i;
    p.trs.(n) <- tr;
    p.len <- n + 1

  let pop p =
    assert (p.len > 0);
    p.len <- p.len - 1

  let to_list p = Array.to_list (Array.sub p.idx 0 p.len)

  (* Incremental replay: re-apply the recorded transitions on a fresh
     instance. The path was valid when recorded and the machine is
     deterministic, so no enabledness recomputation is needed. *)
  let replay ~mk p =
    let inst = mk () in
    for k = 0 to p.len - 1 do
      Machine.apply inst.machine p.trs.(k)
    done;
    inst
end


(* Mutable per-search accumulators. Failures are prepended (newest first)
   and reversed once at the end, fixing the former O(n^2)
   [failures := !failures @ [...]] pattern. *)
type acc = {
  mutable runs : int;
  mutable truncated : int;
  mutable deadlocks : int;
  mutable pruned : int;
  mutable memo_hits : int;
  mutable sleep_skips : int;
  mutable peak_depth : int;
  mutable covered : float;
  mutable failures_rev : (int list * string) list;
  mutable failure_count : int;
}

let make_acc () =
  {
    runs = 0;
    truncated = 0;
    deadlocks = 0;
    pruned = 0;
    memo_hits = 0;
    sleep_skips = 0;
    peak_depth = 0;
    covered = 0.0;
    failures_rev = [];
    failure_count = 0;
  }

let stats_of_acc a =
  {
    runs = a.runs;
    truncated = a.truncated;
    deadlocks = a.deadlocks;
    pruned = a.pruned;
    memo_hits = a.memo_hits;
    sleep_skips = a.sleep_skips;
    peak_depth = a.peak_depth;
    covered = min 1.0 a.covered;
    failures = List.rev a.failures_rev;
  }

(* The partial-order reduction a search applies: none, sleep sets, or
   source-DPOR, which always runs on top of sleep sets. A search's
   configuration holds a [unit reduction]; each task's context holds its
   own DPOR state. *)
type 'd reduction = Plain | Sleep | Dpor of 'd

(* What one search fixes for all of its tasks. The visited-state cache is a
   {!Memo_store} — file-less for [~memo:true] — whose lookups are safe from
   every domain of a parallel search. Pruning a revisit is only sound if
   the earlier exploration had at least as much remaining budget (depth
   and preemptions); the store keeps that Pareto frontier per
   fingerprint. *)
type cfg = {
  mk : unit -> instance;
  max_depth : int;
  preemption_bound : int option;
  max_failures : int;
  memo : Memo_store.t option;
  reduction : unit reduction;
  snapshots : bool;
      (** sibling exploration by snapshot/restore; [false] falls back to
          prefix replay (the differential oracle) *)
  on_run : acc -> unit;  (** called once per completed run; may raise {!Stop} *)
  stopped : bool Atomic.t;
      (** set when any task of the search ended on {!Stop}, whoever raised
          it: the search is then interrupted, not complete *)
}

type ctx = {
  cfg : cfg;
  acc : acc;
  reduction : dpor reduction;
  pool : pool;  (** per-depth enabled-set buffers for the in-place DFS *)
  spool : spool;  (** per-depth snapshot scratch *)
  mutable mass : float;
      (** Knuth-style tree-mass register: the probability mass of the
          subtree [walk] is about to enter. The root carries 1.0; an n-ary
          branch splits its mass evenly among its children. Every way a
          subtree is disposed of without recursing — leaf, deadlock, depth
          truncation, memo hit, sleep skip, bound prune, DPOR
          never-demanded sibling — credits its mass to [acc.covered], so
          covered sums to exactly 1.0 over a completed search and the
          covered fraction of an interrupted one estimates the fraction of
          the tree explored (and [runs /. covered] its total size). The
          caller sets this field immediately before each [walk] call;
          [walk] reads it once on entry. *)
}

(* Each context gets fresh DPOR state: in a parallel search, races between
   a task's subtree and its prefix need no tracking because every frontier
   split node enumerates all of its children (the unreduced sound
   baseline), so the reversals those races would demand are explored
   anyway. *)
let ctx_create cfg inst =
  {
    cfg;
    acc = make_acc ();
    reduction =
      (match cfg.reduction with
      | Plain -> Plain
      | Sleep -> Sleep
      | Dpor () ->
          Dpor (dpor_create ~nthreads:(Machine.thread_count inst.machine)));
    pool = pool_create ();
    spool = spool_create ();
    mass = 1.0;
  }

(* Account a disposed-of subtree's mass as covered. *)
let credit ctx mass = ctx.acc.covered <- ctx.acc.covered +. mass

let sleep_skip ctx m =
  ctx.acc.sleep_skips <- ctx.acc.sleep_skips + 1;
  match Machine.sink m with
  | None -> ()
  | Some s ->
      s.Telemetry.Sink.por_sleep_skips <- s.Telemetry.Sink.por_sleep_skips + 1

let fail ctx prefix msg =
  if ctx.acc.failure_count < ctx.cfg.max_failures then begin
    ctx.acc.failures_rev <- (Prefix.to_list prefix, msg) :: ctx.acc.failures_rev;
    ctx.acc.failure_count <- ctx.acc.failure_count + 1
  end

(* The CHESS cost of scheduling [tr] at the node whose choices are in [buf]
   (switching away from a thread that is still enabled costs one
   preemption), or -1 if that would exceed the bound. Without a bound the
   preemption count is never read, so nothing is counted. *)
let child_cost ctx ~last_unit ~preemptions buf tr =
  match ctx.cfg.preemption_bound with
  | None -> 0
  | Some b ->
      let cost =
        match (last_unit, unit_of tr) with
        | Some (U_thread a), U_thread b when a <> b ->
            let n = Machine.tbuf_length buf in
            let rec still_enabled i =
              i < n
              && ((match Machine.tbuf_get buf i with
                  | Machine.Step t -> t = a
                  | Machine.Drain _ | Machine.Flush _ -> false)
                 || still_enabled (i + 1))
            in
            if still_enabled 0 then 1 else 0
        | _ -> 0
      in
      if preemptions + cost <= b then cost else -1

(* Memory-subsystem transitions do not change whose turn it is. *)
let step_unit last_unit tr =
  match unit_of tr with U_memory -> last_unit | u -> Some u

let memo_hit ctx m depth preemptions sleep =
  match ctx.cfg.memo with
  | None -> false
  | Some store ->
      let preempt_rem =
        match ctx.cfg.preemption_bound with
        | None -> max_int
        | Some b -> b - preemptions
      in
      let fp = Machine.fingerprint m in
      (* The sleep set is part of the key: a visit with a different sleep
         set explores a different reduced subtree. *)
      let key =
        match ctx.reduction with
        | Plain -> fp
        | Sleep | Dpor _ -> mix fp (sleep_hash sleep)
      in
      Memo_store.seen store key
        ~depth_rem:(ctx.cfg.max_depth - depth)
        ~preempt_rem

(* {2 The node-expansion core}

   [walk] enters a node: it settles what ends there (memo hit, completed
   run, deadlock, depth truncation, a forced step that is asleep) and takes
   forced (singleton-choice) steps in place until it reaches a branch node,
   which it hands to [branch] together with the node's mass (the node's
   choices are in the pool buffer of its depth). [prefix] holds the choices
   that reached the node; [last_unit]/[preemptions] summarise the prefix
   for the CHESS bound; [sleep] is the sleep set the node inherited (always
   [[]] under [Plain]). On return the prefix and the DPOR state are
   restored. The sequential search passes {!branch}, which explores the
   children; the parallel frontier passes a [branch] that turns them into
   tasks. *)
let rec walk ctx inst prefix depth last_unit preemptions sleep branch =
  let m = inst.machine in
  (* This node's subtree mass, staged by the caller (1.0 at the root). The
     register is clobbered by deeper recursion, so it is read exactly once,
     here. *)
  let mass = ctx.mass in
  if depth > ctx.acc.peak_depth then ctx.acc.peak_depth <- depth;
  if memo_hit ctx m depth preemptions sleep then begin
    ctx.acc.memo_hits <- ctx.acc.memo_hits + 1;
    credit ctx mass
  end
  else begin
    (* Depth [depth]'s buffer stays live while this node iterates its
       children; the recursion below only touches deeper buffers. *)
    let buf = pool_get ctx.pool depth in
    let n = choices_into m buf in
    if n = 0 then begin
      credit ctx mass;
      if Machine.quiescent m then begin
        match inst.check () with Ok () -> () | Error msg -> fail ctx prefix msg
      end
      else begin
        ctx.acc.deadlocks <- ctx.acc.deadlocks + 1;
        fail ctx prefix "deadlock"
      end;
      ctx.cfg.on_run ctx.acc
    end
    else if depth >= ctx.cfg.max_depth then begin
      credit ctx mass;
      ctx.acc.truncated <- ctx.acc.truncated + 1;
      ctx.cfg.on_run ctx.acc
    end
    else if n > 1 then
      branch ctx inst prefix depth last_unit preemptions sleep mass
    else begin
      let tr = Machine.tbuf_get buf 0 in
      if sleep_mem sleep tr then begin
        (* The whole continuation is a commuted copy of an explored one:
           backtrack without completing (or counting) a run — this silent
           cut is where the run reduction comes from. *)
        credit ctx mass;
        sleep_skip ctx m
      end
      else begin
        let sleep =
          match ctx.reduction with
          | Dpor ds ->
              (* A forced step still participates in race detection and
                 happens-before; the node itself offers no reversal. *)
              let fp = Machine.footprint m tr in
              dpor_depth_room ds depth;
              ds.d_nodes.(depth) <- None;
              dpor_push ds depth fp;
              sleep_filter sleep fp
          | Plain | Sleep -> (
              match sleep with
              | [] -> []
              | _ -> sleep_filter sleep (Machine.footprint m tr))
        in
        Machine.apply m tr;
        Prefix.push prefix 0 tr;
        ctx.mass <- mass;
        walk ctx inst prefix (depth + 1) (step_unit last_unit tr) preemptions
          sleep branch;
        Prefix.pop prefix;
        match ctx.reduction with Dpor ds -> dpor_pop ds depth | _ -> ()
      end
    end
  end

(* The one child loop of a branch node, whatever the mode. Demanded
   children are taken in index order (see {!node}). Each is classified:
   asleep (a commuted copy of an explored sibling's subtree), cut by the
   CHESS bound, or explored by [explore i tr cost child_sleep], which
   returns whether the child's subtree was clean — no bound prune or memo
   hit below it. Every child carries an equal share [cmass] of the node's
   mass however it is disposed of. An explored child enters the running
   sleep set for its later siblings; under a CHESS bound only if clean,
   since the preemption count is not commutation-invariant (DESIGN.md
   §10). An unclean child degrades a DPOR node to full enumeration: the
   cut subtree, or the cached visit, may have sighted races this path
   never replays (DESIGN.md §13). *)
let children ctx m buf fps node ~last_unit ~preemptions ~sleep ~cmass explore =
  let por = match ctx.reduction with Plain -> false | Sleep | Dpor _ -> true in
  let n = Array.length node.nd_done in
  let sleep_now = ref sleep in
  let rec next j =
    if j >= n then -1
    else if (not node.nd_done.(j)) && (node.nd_all || node.nd_backtrack.(j))
    then j
    else next (j + 1)
  in
  let rec loop () =
    match next 0 with
    | -1 -> ()
    | i ->
        node.nd_done.(i) <- true;
        let tr = Machine.tbuf_get buf i in
        (if sleep_mem !sleep_now tr then begin
           credit ctx cmass;
           sleep_skip ctx m
         end
         else
           let cost = child_cost ctx ~last_unit ~preemptions buf tr in
           if cost < 0 then begin
             credit ctx cmass;
             ctx.acc.pruned <- ctx.acc.pruned + 1;
             (* the bound cut a demanded child; races below it are
                unknown, so enumerate as the bounded search does *)
             node.nd_all <- true
           end
           else begin
             let child_sleep =
               if por then sleep_filter !sleep_now fps.(i) else []
             in
             let clean = explore i tr cost child_sleep in
             if por && (clean || ctx.cfg.preemption_bound = None) then
               sleep_now := { sl_tr = tr; sl_fp = fps.(i) } :: !sleep_now;
             if not clean then node.nd_all <- true
           end);
        loop ()
  in
  loop ();
  (* Siblings no race ever demanded are covered by the source-set
     reduction — their subtrees are commuted copies of explored ones.
     Credit their share so [covered] still sums to 1. *)
  Array.iter (fun d -> if not d then credit ctx cmass) node.nd_done

(* Footprints are a function of the machine state at this node (a drain's
   target address is the current buffer head), so they are taken for every
   child before the first child advances the machine. *)
let footprints ctx m buf n =
  match ctx.reduction with
  | Plain -> [||]
  | Sleep | Dpor _ ->
      Array.init n (fun i -> Machine.footprint m (Machine.tbuf_get buf i))

let enumerate n =
  {
    nd_units = [||];
    nd_backtrack = [||];
    nd_done = Array.make n false;
    nd_all = true;
  }

(* The sequential branch node. The first explored child advances [inst] in
   place; later ones restore this node's snapshot onto a fresh instance
   (or replay the prefix from the root). *)
let rec branch ctx inst prefix depth last_unit preemptions sleep mass =
  let m = inst.machine in
  let buf = pool_get ctx.pool depth in
  let n = Machine.tbuf_length buf in
  let fps = footprints ctx m buf n in
  let node =
    match ctx.reduction with
    | Plain | Sleep -> enumerate n
    | Dpor ds ->
        (* Source-DPOR node: explore one unit's choices — those of the
           first awake child — then whatever the races observed below
           demand. If every choice is asleep, every child is a commuted
           copy of an explored execution: enumerate them to skip them. *)
        let node =
          {
            nd_units = Array.map Machine.footprint_tid fps;
            nd_backtrack = Array.make n false;
            nd_done = Array.make n false;
            nd_all = false;
          }
        in
        let rec first_awake i =
          if i >= n then -1
          else if sleep_mem sleep (Machine.tbuf_get buf i) then
            first_awake (i + 1)
          else i
        in
        (match first_awake 0 with
        | -1 -> node.nd_all <- true
        | i ->
            let u0 = node.nd_units.(i) in
            Array.iteri
              (fun j q -> if q = u0 then node.nd_backtrack.(j) <- true)
              node.nd_units);
        dpor_depth_room ds depth;
        ds.d_nodes.(depth) <- Some node;
        node
  in
  (* Capture this node's state once, before the first child mutates it —
     but only if more than one child can be explored: one that is awake
     and within the bound. The running sleep set only grows, so no other
     child is ever explored. *)
  let snap =
    if not ctx.cfg.snapshots then None
    else begin
      let live = ref 0 in
      for i = 0 to n - 1 do
        let tr = Machine.tbuf_get buf i in
        if
          (not (sleep_mem sleep tr))
          && child_cost ctx ~last_unit ~preemptions buf tr >= 0
        then incr live
      done;
      if !live > 1 then begin
        let s = spool_get ctx.spool depth in
        Machine.snapshot m s;
        Some s
      end
      else None
    end
  in
  let cmass = mass /. float_of_int n in
  let in_place = ref true in
  children ctx m buf fps node ~last_unit ~preemptions ~sleep ~cmass
    (fun i tr cost child_sleep ->
      let pruned0 = ctx.acc.pruned and memo0 = ctx.acc.memo_hits in
      Prefix.push prefix i tr;
      (match ctx.reduction with
      | Dpor ds -> dpor_push ds depth fps.(i)
      | Plain | Sleep -> ());
      let inst' =
        if !in_place then begin
          in_place := false;
          Machine.apply m tr;
          inst
        end
        else
          match snap with
          | Some s ->
              let inst' = ctx.cfg.mk () in
              Machine.restore_into s inst'.machine;
              Machine.apply inst'.machine tr;
              inst'
          | None -> Prefix.replay ~mk:ctx.cfg.mk prefix
      in
      ctx.mass <- cmass;
      walk ctx inst' prefix (depth + 1) (step_unit last_unit tr)
        (preemptions + cost) child_sleep branch;
      Prefix.pop prefix;
      (match ctx.reduction with
      | Dpor ds -> dpor_pop ds depth
      | Plain | Sleep -> ());
      ctx.acc.pruned = pruned0 && ctx.acc.memo_hits = memo0);
  match ctx.reduction with
  | Dpor ds -> ds.d_nodes.(depth) <- None
  | Plain | Sleep -> ()

(* {2 Tasks}

   A pending subtree: the prefix that reaches it, the CHESS summary of that
   prefix, the sleep set it inherited and its share of the tree mass. The
   sequential search is the root task run to completion; the parallel
   frontier expands tasks one branching level at a time and runs the rest
   like the sequential search. *)
type task = {
  prefix : Prefix.t;
  depth : int;
  last_unit : unit_id option;
  preemptions : int;
  sleep : sleep_entry list;
  mass : float;
}

let root_task () =
  {
    prefix = Prefix.create ();
    depth = 0;
    last_unit = None;
    preemptions = 0;
    sleep = [];
    mass = 1.0;
  }

type item = Settled of acc | Subtree of task

let start cfg task branch =
  let inst = Prefix.replay ~mk:cfg.mk task.prefix in
  let ctx = ctx_create cfg inst in
  ctx.mass <- task.mass;
  (try
     walk ctx inst task.prefix task.depth task.last_unit task.preemptions
       task.sleep branch
   with Stop -> Atomic.set cfg.stopped true);
  ctx.acc

let run_task cfg task = start cfg task branch

(* Expand a task by one branching level: walk its forced steps and turn the
   children of the first branch node into subtree tasks, in index order.
   The split node enumerates all of its children. A child's subtree outcome
   is not known here, so it counts as unclean: under a CHESS bound it does
   not enter the sleep set — verdicts are unaffected, but [runs] and
   [sleep_skips] can exceed the sequential search's. *)
let expand cfg task =
  let subtrees = ref [] in
  let split ctx inst prefix depth last_unit preemptions sleep mass =
    let m = inst.machine in
    let buf = pool_get ctx.pool depth in
    let n = Machine.tbuf_length buf in
    let cmass = mass /. float_of_int n in
    children ctx m buf (footprints ctx m buf n) (enumerate n) ~last_unit
      ~preemptions ~sleep ~cmass (fun i tr cost sleep ->
        Prefix.push prefix i tr;
        let prefix' = Prefix.copy prefix in
        Prefix.pop prefix;
        subtrees :=
          Subtree
            {
              prefix = prefix';
              depth = depth + 1;
              last_unit = step_unit last_unit tr;
              preemptions = preemptions + cost;
              sleep;
              mass = cmass;
            }
          :: !subtrees;
        false)
  in
  let acc = start cfg task split in
  Settled acc :: List.rev !subtrees

(* Every instance the snapshot-based search touches must record responses
   from birth (root, restore targets, and oracle replays alike), so the
   wrapper is applied to [mk] itself. *)
let recording_mk mk () =
  let inst = mk () in
  Machine.set_record_responses inst.machine true;
  inst

let config ~max_depth ~preemption_bound ~max_failures ~memo ~por ~dpor
    ~memo_store ~snapshots ~mk ~on_run =
  {
    mk = (if snapshots then recording_mk mk else mk);
    max_depth;
    preemption_bound;
    max_failures;
    memo =
      (match memo_store with
      | Some _ -> memo_store
      | None -> if memo then Some (Memo_store.in_memory ()) else None);
    reduction = (if dpor then Dpor () else if por then Sleep else Plain);
    snapshots;
    on_run;
    stopped = Atomic.make false;
  }

let finish cfg acc =
  let completed = not (Atomic.get cfg.stopped) in
  (* A completed search covered the whole tree by construction; snap the
     float accumulation to the exact answer. *)
  if completed then acc.covered <- 1.0;
  let st = stats_of_acc acc in
  match cfg.memo with
  | None -> st
  | Some store ->
      (* Warm runs may sight nothing live (everything memoized): the
         stored failure set keeps the verdict; only completed searches
         are merged back (a partial failure set is not the
         configuration's). A file-less store stores nothing. *)
      let failures =
        Memo_store.merge_failures store ~max_failures:cfg.max_failures
          st.failures
      in
      if completed then begin
        match Memo_store.commit store ~failures with
        | Ok () -> ()
        | Error e -> failwith ("memo store commit failed: " ^ e)
      end;
      { st with failures }

let default_max_depth = 400

let search ?(max_depth = default_max_depth) ?(max_runs = 200_000)
    ?(preemption_bound = None) ?(max_failures = 5) ?(memo = false)
    ?(por = false) ?(dpor = false) ?memo_store ?(snapshots = true) ?on_progress
    ?(progress_every = 4096) ~mk () =
  let progress_every = max 1 progress_every in
  let on_run a =
    a.runs <- a.runs + 1;
    (match on_progress with
    | Some f when a.runs mod progress_every = 0 -> f (stats_of_acc a)
    | _ -> ());
    if a.runs >= max_runs then raise Stop
  in
  let cfg =
    config ~max_depth ~preemption_bound ~max_failures ~memo ~por ~dpor
      ~memo_store ~snapshots ~mk ~on_run
  in
  finish cfg (run_task cfg (root_task ()))

let replay_choices ?(max_steps = max_int) ~mk steps =
  let inst = mk () in
  let m = inst.machine in
  (* One reusable buffer; [choices_into] yields exactly the sequence
     [next_choices] would, so recorded indices keep their meaning — but
     each step is O(enabled set) instead of the former List.nth/List.length
     O(n²)-over-the-run pattern. *)
  let buf = Machine.tbuf_create () in
  List.iter
    (fun i ->
      let n = choices_into m buf in
      if n = 0 then invalid_arg "Explore.replay_choices: run ended early";
      if i < 0 || i >= n then
        invalid_arg "Explore.replay_choices: bad choice index";
      Machine.apply m (Machine.tbuf_get buf i))
    steps;
  (* Drive any forced suffix to quiescence. The greedy always-transition-0
     policy can livelock from states only a truncated candidate reaches
     (spin loop on a never-scheduled peer), hence the budget. *)
  let rec finish budget =
    if Machine.enabled_into m buf > 0 then begin
      if budget = 0 then
        invalid_arg "Explore.replay_choices: suffix exceeded max_steps";
      Machine.apply m (Machine.tbuf_get buf 0);
      finish (budget - 1)
    end
  in
  finish max_steps;
  inst.check ()

module Internal = struct
  type nonrec acc = acc = {
    mutable runs : int;
    mutable truncated : int;
    mutable deadlocks : int;
    mutable pruned : int;
    mutable memo_hits : int;
    mutable sleep_skips : int;
    mutable peak_depth : int;
    mutable covered : float;
    mutable failures_rev : (int list * string) list;
    mutable failure_count : int;
  }

  let make_acc = make_acc

  type nonrec cfg = cfg
  type nonrec task = task
  type nonrec item = item = Settled of acc | Subtree of task

  let config = config
  let root_task = root_task
  let expand = expand
  let run_task = run_task
  let finish = finish
  let recording_mk = recording_mk
end
