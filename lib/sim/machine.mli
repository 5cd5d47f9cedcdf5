(** The simulated multicore: deterministic discrete-event execution of
    coroutine "hardware threads" with Intel-RTM transactional semantics.
    A thread runs its instructions as direct calls ({!Insn}) and parks in
    the scheduler only when another thread must run next.

    Conflict detection is eager and requester-wins at 64-byte-line
    granularity: a coherence request from the running thread dooms the
    transactional holder of the line, matching TSX behaviour.  Stores inside
    transactions are buffered and applied at commit; a doomed transaction
    sees {!Eff.Txn_abort} at its next instruction.  Non-transactional
    accesses participate in conflict detection (strong atomicity).

    Given a seed, a run is bit-for-bit reproducible regardless of host
    parallelism.

    {b Complexity:} the access path is flat-array only — line ownership
    ({!Line_table}), last-writer sockets, warmth caches and the per-thread
    transaction arena ({!Txn}) are all indexed by line or address with no
    hashing and no per-access allocation; aborts clear transaction state in
    O(1) by epoch bump.  The scheduler picks from a winner tree over the
    threads' keys: the minimum is its root, a park or an abort charge
    rewrites one leaf-to-root path in O(log threads) with no allocation,
    and the pick caches the smallest key among the others.  A yielding
    thread's handler picks and resumes the next thread itself, with no
    scheduler loop.  Run-ahead keeps the current thread executing,
    with no fiber switch, while its (clock, tid) key stays below that
    cached key, one compare per instruction; single-threaded runs never
    yield.  An instruction allocates nothing unless its thread yields or
    aborts.  See docs/SIMULATOR.md "Fast paths".

    {b Determinism:} threads are resumed strictly in (clock, tid) order;
    ties go to the smallest tid; victim dooming iterates reader tids in
    ascending order; all randomness (spurious aborts, thread-local jitter)
    comes from per-thread SplitMix64 streams derived from the seed.  The
    determinism test suite replays recorded seed-42 traces byte-for-byte
    to pin this down. *)

type t

val create :
  threads:int ->
  seed:int ->
  cost:Cost.t ->
  mem:Euno_mem.Memory.t ->
  map:Euno_mem.Linemap.t ->
  alloc:Euno_mem.Alloc.t ->
  t
(** A machine with [threads] hardware threads (max 62), interleaved evenly
    across [cost.sockets] sockets. *)

val run : t -> (int -> unit) -> unit
(** [run m body] executes [body tid] on every thread to completion.  Thread
    code may only interact with simulated state through {!Api}.  Re-raises
    the first thread failure, after cleaning up its transaction, with the
    backtrace of where the thread raised it; an exception raised while
    interpreting an instruction (e.g. [xend] outside a transaction) leaves
    at once, without entering the thread.
    [run] makes [m] this domain's running machine for {!Insn} and restores
    the previous one on every exit, so a run nested inside another
    machine's thread (a {!run_single} preload, say) hands it back.  A
    machine is single-shot: create a fresh one per measurement phase. *)

val run_single :
  ?seed:int ->
  ?cost:Cost.t ->
  mem:Euno_mem.Memory.t ->
  map:Euno_mem.Linemap.t ->
  alloc:Euno_mem.Alloc.t ->
  (unit -> 'a) ->
  'a
(** Run a one-thread machine and return the body's result.  Used for
    preloading trees and for unit tests. *)

(** {2 Instructions}

    The implementation behind {!Api}, which thread code calls; see there
    for what each instruction does.  An instruction is a direct call,
    interpreted on the calling thread's own stack against the machine
    whose {!run} is active on this domain.  The thread parks — one private
    effect back into the scheduler — only when it must: after every
    instruction while anything is hooked (see below), and otherwise
    exactly when it is no longer the unique (clock, tid) minimum of the
    ready threads.  A doom or pending exception is raised at the
    instruction that caused it when the thread keeps running, exactly as
    the scheduler would deliver it on resumption.  An exception raised
    while interpreting an instruction leaves {!run} at once, without
    entering the thread.

    {b Complexity:} an instruction that neither yields nor aborts
    allocates nothing; a yield allocates the parked continuation and one
    block.  Each call raises [Invalid_argument] naming it when no machine
    is running on the domain. *)

module Insn : sig
  val read : int -> int
  val write : int -> int -> unit
  val cas : int -> expected:int -> desired:int -> bool
  val faa : int -> int -> int
  val work : int -> unit
  val xbegin : unit -> unit
  val xend : unit -> unit
  val xabort : int -> unit
  val xtest : unit -> bool
  val tid : unit -> int
  val clock : unit -> int
  val rand : int -> int
  val alloc : kind:Euno_mem.Linemap.kind -> words:int -> int
  val free : kind:Euno_mem.Linemap.kind -> addr:int -> words:int -> unit

  val reclassify :
    from_kind:Euno_mem.Linemap.kind ->
    to_kind:Euno_mem.Linemap.kind ->
    words:int ->
    unit

  val op_key : int -> unit
  val op_done : unit -> unit
  val count : int -> int -> unit
  val untracked_read : int -> int
  val untracked_write : int -> int -> unit
  val san_note : Sev.note -> unit
end

(** {2 Observation and control}

    Subscribers, the crash point, sampling, the fault injector and the
    explorer all sit behind one bit.  Until one of them is installed the
    access path and the scheduler test that bit and nothing else, and no
    event is built.  Once it is set every hook is consulted, and the
    inert defaults of the ones not installed compute the same values as
    skipping them would, so installing one mechanism never changes what
    another observes. *)

val subscribe : t -> (Sev.event -> unit) -> unit
(** Deliver every machine event ({!Sev.event}) to [f], after the
    subscribers already installed.  A run can be traced ([Trace.push])
    and sanitized ([Euno_san.San.hook]) at once.  Subscribers observe
    counters and protocol announcements only — they must not (and cannot,
    through this interface) perturb simulated state.  There is no
    unsubscribe: a machine is single-shot.  Call before {!run}. *)

exception Crashed of { at_cycle : int }
(** The whole simulated process died (see {!set_crash}).  Escapes {!run};
    the machine's memory, line map, allocator, clocks and counters remain
    inspectable — they model the durable / post-mortem state recovery
    starts from. *)

val set_crash : t -> at_cycle:int -> unit
(** Arm a whole-process crash: the first time the scheduler's minimum
    thread clock reaches [at_cycle], every thread dies at once and {!run}
    raises {!Crashed}.  In-flight transactions are rolled back with RTM
    failure atomicity (buffered writes discarded, transactional
    allocations undone, no abort penalty charged), but parked thread
    continuations are dropped without unwinding — no handler or finalizer
    runs, so held advisory/fallback locks and half-applied plain writes
    are abandoned in simulated memory for recovery to deal with.  The
    default ([max_int]) never fires, so uncrashed runs are
    byte-identical.  Call before {!run}. *)

(** {2 Fault injection}

    Deterministic fault hooks the machine consults at well-defined points.
    Every hook is a pure function of [(tid, clock)] — never of host state —
    so a fixed seed plus a fixed injector reproduces the same faults at the
    same simulated instants on every run.  [Euno_fault.Plan] compiles a
    declarative fault plan into one of these records. *)

type injector = {
  inj_spurious : tid:int -> clock:int -> int;
      (** extra spurious-abort probability (per million transactional
          accesses) on top of [Cost.spurious_per_million]: models an
          interrupt / GC storm *)
  inj_capacity : tid:int -> clock:int -> (int * int) option;
      (** [Some (rs, ws)] overrides the read/write-set line capacities
          while active (an SMT sibling stealing cache); [None] = nominal *)
  inj_preempt : tid:int -> clock:int -> int;
      (** absolute clock the thread is descheduled until; values [<= clock]
          mean runnable.  A preempted transaction aborts first (context
          switches kill RTM transactions). *)
  inj_lock_stall : tid:int -> clock:int -> int;
      (** extra stall cycles charged immediately after a successful
          non-transactional acquisition of a [Lock]-kind word: preemption
          while holding the fallback lock *)
  inj_skew : tid:int -> clock:int -> int;
      (** per-mille slowdown applied to every cycle charge on the thread
          (clock skew / DVFS); [0] = nominal *)
  inj_alloc_fail : tid:int -> clock:int -> in_txn:bool -> bool;
      (** allocation at this instant fails: aborts the enclosing
          transaction with [Abort.Alloc_fault], or raises
          [Euno_mem.Alloc.Alloc_failure] in plain code.  [in_txn] lets a
          plan fail only transactional allocations (safely rolled back)
          while fallback-path allocations still succeed. *)
}

val no_injector : injector
(** Every hook inert; the default for every machine. *)

val set_injector : t -> injector -> unit
(** Install fault hooks.  Call before {!run}. *)

val set_explorer : t -> (tid:int -> point:Explore.point -> int) -> unit
(** Install a schedule-exploration policy consultation; see {!Explore}.
    {!run}'s scheduler step then picks threads with an exploration scan
    instead of the default winner-tree pick: after every interpreted
    instruction the hook is asked whether the thread that just ran should
    be parked for the returned number of scheduler picks (0 = keep it
    schedulable), letting other ready threads overtake it.  Parked
    threads are force-released when every runnable thread is parked, so
    exploration cannot deadlock the machine, and an overtaken thread's
    clock is bumped forward so recorded timestamps never contradict
    execution order.  Each
    park is announced as an [Injected "explore-park:<span>"] event.  With
    no explorer installed (the default) the machine never consults
    {!Explore}; with [Explore.hook policy] the run is still fully
    deterministic — the schedule is a pure function of (machine seed,
    policy spec, policy seed).  Call before {!run}. *)

val n_threads : t -> int
val memory : t -> Euno_mem.Memory.t
val linemap : t -> Euno_mem.Linemap.t
val allocator : t -> Euno_mem.Alloc.t
val cost : t -> Cost.t

val elapsed : t -> int
(** Max thread clock = simulated wall-clock cycles of the run. *)

val n_user_counters : int

val register_user_counters : owner:string -> (int * string) list -> unit
(** Claim user-counter indices for [owner], naming each.  The registry is
    host-side and domain-local: modules that bump counters through
    {!Api.count} register their indices at module-initialization time (on
    the main domain, before any pool worker spawns — workers inherit a
    copy), and a claim that collides with a different owner's (or renames
    an existing index) raises [Invalid_argument] — two telemetry streams
    can no longer silently alias one counter.  Re-registering an
    identical claim is a no-op, and a registration made on one domain is
    invisible to every other, so parallel campaign cells cannot trip each
    other's collision check. *)

val user_counter_names : unit -> (int * string) list
(** Every registered [(index, name)], ascending by index. *)

val user_counter_owner : int -> string option
(** The owner that registered [idx], if any. *)

(** Per-thread (or aggregated) statistics of a run. *)
type snapshot = {
  s_ops : int;  (** benchmark operations completed (Op_done) *)
  s_commits : int;  (** committed transactions *)
  s_aborts : int array;  (** per {!Abort.index} bucket *)
  s_conflict_kinds : int array;
      (** conflict aborts by the {!Euno_mem.Alloc.kind_index} of the
          conflicting line *)
  s_wasted_cycles : int;  (** cycles spent in aborted transactions *)
  s_committed_cycles : int;
  s_accesses : int;
      (** interpreted accesses (memory, atomic, RTM, allocator): the
          instruction-count proxy *)
  s_user : int array;
  s_clock : int;
}

val snapshot_thread : t -> int -> snapshot
val aggregate : t -> snapshot
val total_aborts : snapshot -> int

val set_sampling : t -> window:int -> unit
(** Record a cumulative aggregate {!type-snapshot} every [window] simulated
    cycles (plus one final partial window when the run ends).  The sample
    is taken when the scheduler's minimum thread clock crosses the
    boundary, so it reflects the machine state at that simulated instant;
    sampling reads counters only and never perturbs the run.  Must be
    called before {!run}. *)

val samples : t -> (int * snapshot) list
(** [(window_end_clock, cumulative aggregate)] pairs, oldest first; empty
    unless {!set_sampling} was enabled.  Diff consecutive snapshots for
    per-window rates. *)
