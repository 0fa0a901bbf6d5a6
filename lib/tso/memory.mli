(** The shared memory of the abstract TSO machine.

    Memory is a flat array of integer cells. Cells are allocated with a
    symbolic name so traces and error messages can refer to variables the way
    the paper does ([H], [T], [tasks\[3\]], ...). All reads and writes to
    memory are performed by {!Machine} when it applies transitions; algorithm
    code never touches memory directly (it goes through the {!Program}
    effects). *)

type t

val create : unit -> t

val alloc : t -> name:string -> init:int -> Addr.t
(** Allocate one named cell. *)

val alloc_array : t -> name:string -> len:int -> init:int -> Addr.t
(** Allocate [len] contiguous cells named [name[0]] ... [name[len-1]];
    returns the address of element 0. The memory keeps one name per
    allocation, so this costs a fill of [len] cells and no string per
    element. *)

val get : t -> Addr.t -> int
val set : t -> Addr.t -> int -> unit

val size : t -> int
(** Number of allocated cells. *)

val name : t -> Addr.t -> string
(** Symbolic name of a cell, for tracing: the allocation's [name] for a
    scalar, [name[i]] for element [i] of an array. Formatted on each call
    (a binary search over the allocations), so keep it off hot paths. *)

val snapshot : t -> int array
(** Copy of the current contents (used by the explorer to compare states and
    by tests to assert final memory). *)

val blit_to : t -> int array -> unit
(** Copy the contents into the first {!size} slots of an existing array
    (the allocation-free capture {!Machine.snapshot} uses).
    @raise Invalid_argument if the destination is shorter than {!size}. *)

val restore_from : t -> int array -> len:int -> unit
(** Overwrite the contents with the first [len] values of [src]; the cell
    layout (names, allocation order) is untouched. Used by
    {!Machine.restore_into}. @raise Invalid_argument if [len <> size t]. *)

val cell : t -> int -> int
(** Contents of cell [i] (0 ≤ i < {!size}) without copying — the
    allocation-free read {!Machine.fingerprint} folds over. *)

val pp : Format.formatter -> t -> unit
