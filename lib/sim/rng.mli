(** Deterministic SplitMix64 PRNG.

    All simulator randomness (scheduling jitter, workload generation, the
    Eunomia write scheduler) flows through explicitly seeded instances so
    that every experiment replays exactly.

    {b Complexity:} {!next}, {!int}, {!float} and {!bool} are a handful
    of integer multiplies/shifts on an unboxed 64-bit state.  All but
    {!float} (whose result is a boxed float) allocate nothing.  The
    machine draws once per transactional access, so an instruction that
    neither yields nor aborts stays allocation-free.

    {b Determinism:} the sequence is a pure function of the seed; the
    simulator never consults host entropy, time, or address layout. *)

type t

val create : int -> t
(** Seeded generator. *)

val next : t -> int
(** Uniform non-negative 62-bit integer. *)

val int : t -> int -> int
(** [int t b] is uniform in [\[0, b)]. Raises [Invalid_argument] if [b <= 0]. *)

val float : t -> float
(** Uniform in [\[0, 1)]. *)

val bool : t -> bool

val split : t -> t
(** Independent child generator. *)
