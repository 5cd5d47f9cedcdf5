(** Index-tracked run queue: a pick-min-(clock, tid) step as a binary
    min-heap of packed integer keys.

    {!Machine} no longer uses it: its scheduler picks from a winner tree
    over the threads' keys and caches the runner-up's key
    (docs/SIMULATOR.md §7).  The module stays only for EunoBench's
    [sim.sched_push_pop_ns] micro and its unit tests, until the next
    benchmark change points that micro at the machine's own yield path
    and retires both.

    {b Complexity:} [push] and [pop] are O(log ready-threads); peeking the
    minimum is O(1).  No allocation per operation (the backing array grows
    geometrically and is reused).

    {b Determinism:} keys pack [clock] into the high bits and [tid] into
    the low {!tid_bits} bits, so integer comparison is exactly the
    lexicographic (clock, tid) order, ties included (smallest tid wins).
    A caller whose keys can go stale (a parked thread's clock advanced by
    an attacker's abort-penalty charge) revalidates on pop and re-pushes;
    since clocks only increase, stale keys are underestimates and never
    hide the true minimum. *)

type t

val tid_bits : int
(** Low bits of a packed key holding the tid; clocks must stay below
    [2^(63 - tid_bits)], far beyond any simulated run. *)

val pack : clock:int -> tid:int -> int
val tid_of : int -> int
val clock_of : int -> int

val create : capacity:int -> t
(** An empty queue sized for [capacity] threads (grows if exceeded). *)

val clear : t -> unit
val is_empty : t -> bool
val length : t -> int

val push : t -> clock:int -> tid:int -> unit

val peek : t -> int
(** The smallest packed key, not removed.
    @raise Invalid_argument when empty. *)

val pop : t -> int
(** Remove and return the smallest packed key.  @raise Invalid_argument
    when empty. *)
