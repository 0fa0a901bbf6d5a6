(** A real (non-simulated) Chase–Lev work-stealing deque on OCaml 5 Atomics,
    usable with [Domain]-based parallelism.

    This is the library's directly-adoptable artifact. Note what it cannot
    be: a fence-free FF-CL. The OCaml memory model exposes no store buffers
    and no relaxed atomics, every [Atomic] access is fully fenced, so the
    paper's optimisation is inexpressible here — which is exactly why the
    reproduction runs on the simulated bounded-TSO machine (DESIGN.md §1).
    The simulator's Chase-Lev and this one share the same logic, connecting
    the simulated algorithms to runnable code.

    Single owner: [push]/[pop] must be called from the owning domain only;
    [steal] is safe from any domain.

    Slots are a plain ['a option array]. The owner's SC store of [tail]
    publishes each slot write, and the SC store of the buffer pointer
    publishes a grown buffer, so no slot needs an [Atomic] of its own.
    Slots are never cleared, by [pop] or by [steal]: once a thief's head CAS
    succeeds, the owner may wrap around and refill that physical slot, and a
    clear issued after the CAS could erase the new element. A slot keeps its
    last element reachable until it is overwritten. *)

type 'a t

val create : ?capacity:int -> unit -> 'a t
(** [capacity] is rounded up to a power of two; the deque grows by doubling
    when full. *)

val push : 'a t -> 'a -> unit
(** Owner: enqueue at the tail. *)

val pop : 'a t -> 'a option
(** Owner: dequeue from the tail; [None] when empty. *)

val steal : 'a t -> 'a option
(** Any domain: dequeue from the head; [None] when empty or lost a race. *)

val steal_detail : 'a t -> [ `Task of 'a | `Empty | `Abort ]
(** Like {!steal} but distinguishes the two [None] cases, in the simulated
    queues' outcome vocabulary: [`Empty] when [head >= tail] at the read,
    [`Abort] when the head CAS lost a race with the owner or another
    thief. *)

val steal_retry : 'a t -> 'a option
(** Like {!steal} but retries CAS races until it gets an element or sees an
    empty queue. *)

val size : 'a t -> int
(** Snapshot of [tail - head]; racy, for monitoring only. *)
