(** Multicore bounded model checking: {!Explore.search} fanned out across
    OCaml 5 [Domain]s over a work-stealing frontier.

    The choice tree is split into a dynamic frontier of subtree tasks,
    scheduled by one of the repository's own Chase–Lev deques per domain
    (the checker work-steals, like the queues it checks): a claimed task
    with split budget left is expanded by one branching level (walking
    forced steps in place) and its children are pushed on the expanding
    domain's deque; idle domains steal round-robin. The root carries
    [ceil(log2 (4 * jobs))] levels of split budget, so the tree fans out
    to at least ~4 subtrees per domain. Splits and leaves both run the
    {e same} node-expansion core as {!Explore.search}
    ([Explore.Internal]): a split walks forced steps and classifies the
    first branch node's children with the sequential child loop, and a
    leaf is a sequential search of its subtree.

    Determinism: every outcome is recorded at its position in the task
    tree, and the merge is a lexicographic walk of that tree — independent
    of which domain ran what in which order. With the run budget not
    binding, merged statistics and failure traces are byte-identical to a
    sequential search. When the budget does bind, the parallel search may
    explore slightly more than the sequential one before stopping (the
    budget is shared through an atomic counter); the merge reports
    {e everything} that was explored, so [runs] may slightly exceed
    [max_runs]. Merged failures keep {!Explore.stats.failures}'s
    orientation contract (sighting order, root-first choice sequences).

    Memoization ([memo = true]) uses a single file-less {!Memo_store.t}
    shared by all domains (sharded by fingerprint, one mutex per shard), so
    interleavings that converge across subtree boundaries are still pruned.
    Verdicts are unchanged, but [runs]/[memo_hits] become schedule-dependent
    — whichever domain reaches a state first records it — so memoized
    parallel statistics are {e not} byte-identical to the sequential
    memoized search (non-memoized parallel search remains deterministic).
    [memo_store] behaves like {!Explore.search}'s: lookups are safe from
    every domain, and the store commits once, after the merge, only if the
    search ran to completion.

    Sleep-set POR ([por = true]) travels with the frontier: each subtree
    task carries the sleep set it inherited, and frontier expansion runs
    the sequential child loop, with its skip/filter/insert rules. With no
    preemption bound the parallel POR statistics stay byte-identical to the
    sequential POR search. Under a CHESS bound the sequential rule inserts
    a sibling into the sleep set only after seeing its subtree's outcome,
    which frontier expansion cannot know, so expansion inserts nothing at
    its branch nodes: verdicts are identical, but [runs]/[sleep_skips] may
    exceed the sequential POR search's.

    Source-DPOR ([dpor = true]) runs inside each subtree task with fresh
    per-task race-tracking state; frontier split nodes enumerate {e all}
    their children (the unreduced sound baseline), which also covers every
    reversal a race between a task's subtree and its prefix could demand.
    Verdicts and failure sets match the sequential [dpor] search; [runs]
    may exceed it (the split nodes give up their share of the reduction).

    Snapshot-based sibling exploration ([snapshots], default [true]) works
    unchanged inside each domain: every frontier task replays its prefix
    once and the search below it restores siblings from per-depth snapshot
    scratch. *)

type progress = {
  tasks_done : int;  (** frontier tasks fully processed (splits + leaves) *)
  tasks_total : int;  (** frontier tasks created so far (grows dynamically) *)
  total_runs : int;  (** completed runs across all domains *)
  domains : int;  (** worker domains in use *)
  covered : float;
      (** live Knuth covered-mass estimate in [0, 1] (see
          {!Explore.stats.covered}); in parallel mode each frontier task
          credits its share only when it retires, so the estimate moves in
          task-sized steps (the split budget guarantees at least ~4 tasks
          per domain) *)
}

type frontier_stats = {
  fr_domains : int;
  fr_tasks : int;  (** tasks processed (splits + leaves) *)
  fr_splits : int;  (** tasks expanded rather than explored *)
  fr_steals : int;  (** successful steals across all domains *)
  fr_steal_attempts : int;  (** steal probes, successful or not *)
  fr_runs_per_domain : int array;  (** completed runs per domain *)
  fr_tasks_per_domain : int array;  (** tasks processed per domain *)
}
(** How the work-stealing frontier distributed the search. For [jobs = 1]
    (or the sequential fallback) this is the trivial single-domain record. *)

val search :
  ?max_depth:int ->
  ?max_runs:int ->
  ?preemption_bound:int option ->
  ?max_failures:int ->
  ?memo:bool ->
  ?por:bool ->
  ?dpor:bool ->
  ?memo_store:Memo_store.t ->
  ?snapshots:bool ->
  ?jobs:int ->
  ?sink:Telemetry.Sink.t ->
  ?on_progress:(progress -> unit) ->
  ?progress_every:int ->
  mk:(unit -> Explore.instance) ->
  unit ->
  Explore.stats
(** Same bounds and defaults as {!Explore.search}. [jobs] defaults to
    [Domain.recommended_domain_count ()]; [jobs = 1] falls back to the
    sequential search. [mk] must be safe to call from multiple domains
    (each call builds a fresh, unshared instance — true of every instance
    builder in this repository). [sink], if given, receives the frontier
    counters ([frontier_tasks]/[frontier_steals]/[frontier_steal_attempts])
    once the search completes.

    [on_progress] is invoked only on the domain that called [search] (the
    callback need not be thread-safe), roughly every [progress_every]
    (default 4096) globally completed runs; the snapshot's counters are
    read from shared atomics so they cover all domains' work. *)

val frontier_to_sink : frontier_stats -> Telemetry.Sink.t -> unit
(** Add the frontier counters ([frontier_tasks], [frontier_steals],
    [frontier_steal_attempts]) into a telemetry sink. *)

val search_with_frontier :
  ?max_depth:int ->
  ?max_runs:int ->
  ?preemption_bound:int option ->
  ?max_failures:int ->
  ?memo:bool ->
  ?por:bool ->
  ?dpor:bool ->
  ?memo_store:Memo_store.t ->
  ?snapshots:bool ->
  ?jobs:int ->
  ?on_progress:(progress -> unit) ->
  ?progress_every:int ->
  mk:(unit -> Explore.instance) ->
  unit ->
  Explore.stats * frontier_stats
(** {!search} plus the frontier distribution record, for callers that
    report work-stealing behaviour ([--metrics], the benchmark suite). *)
