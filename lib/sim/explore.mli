(** Schedule-exploration policies for EunoCheck.

    The default scheduler executes the one canonical min-(clock, tid)
    interleaving per seed.  An exploration policy perturbs it: installed
    with {!Machine.set_explorer}, it becomes the pick function of the
    machine's scheduler loop, which after every interpreted effect
    consults the policy.  The policy may {e park} the thread that just ran
    for a number of scheduler picks, letting other ready threads overtake
    it.  Forced context switches at transaction and lock boundaries open
    exactly the windows where fast-path/fallback atomicity bugs hide.

    {b Complexity:} one consultation is O(1) for the random policies and
    O(|preemptions|) for {!Replay}; policy state is a few words plus the
    per-thread counters.

    {b Determinism:} a policy's decisions are a pure function of its spec,
    its seed and the consultation stream — never of host state — so a
    (policy, seed) pair names one schedule.  The preemptions it fired
    ({!fired}) replay the identical run under {!Replay}, which is what the
    counterexample shrinker in [Euno_harness.Check_run] relies on.  With
    no explorer installed the loop uses its heap pick and never consults
    this module, so golden traces stay byte-identical. *)

(** Where in the instruction stream a consultation happens.  Every
    interpreted effect is at least a {!Step}; protocol-relevant effects
    are tagged more precisely. *)
type point =
  | Step  (** any interpreted effect *)
  | Xbegin  (** a transaction just started *)
  | Xcommit  (** a transaction just committed *)
  | Xabort
      (** an abort was just delivered or explicitly raised: the
          retry/fallback path begins here *)
  | Lock_acquire
      (** successful non-transactional CAS taking a [Lock]-kind word *)
  | Atomic_rmw
      (** successful non-transactional CAS/FAA on any other word (e.g. a
          Masstree embedded version lock) *)

val point_to_string : point -> string

val point_of_string : string -> point
(** Raises [Invalid_argument] on unknown names. *)

val sync_points : point list
(** All protocol boundaries: every point kind except {!Step}. *)

(** One fired preemption: thread [p_tid] was parked for [p_span] scheduler
    picks at its [p_at]-th consultation ([p_point] records what kind of
    point that was).  The (tid, consultation-index) key is stable across
    runs of the same program, which makes preemption lists replayable. *)
type preemption = { p_tid : int; p_at : int; p_point : point; p_span : int }

val preemption_to_string : preemption -> string
(** ["tid@at:point*span"], parsed back by {!preemption_of_string}. *)

val preemption_of_string : string -> preemption

type spec =
  | Min_clock  (** never deviate: the canonical schedule (control) *)
  | Random_walk of { per_1024 : int; span : int }
      (** park with probability [per_1024/1024] at every consultation, for
          a uniform span in [\[1, span\]] *)
  | Pct of { depth : int; span : int; horizon : int }
      (** PCT-style: [depth] consultation indices drawn uniformly from
          [\[0, horizon)]; the thread consulted there parks for [span] *)
  | Targeted of { per_1024 : int; span : int; points : point list }
      (** park only at the listed point kinds *)
  | Replay of preemption list
      (** fire exactly these preemptions; reproduction and shrinking *)

val spec_to_string : spec -> string
(** Compact descriptor (["walk:per=64,span=256"], ["replay:2@5:xbegin*64"]
    …) embedded in repro commands; inverse of {!spec_of_string}. *)

val spec_of_string : string -> spec
(** Raises [Invalid_argument] on malformed descriptors. *)

type t

val create : ?seed:int -> spec -> t
(** A fresh policy instance.  All randomness comes from a SplitMix64
    stream derived from [seed] (default 1). *)

val spec : t -> spec

val hook : t -> tid:int -> point:point -> int
(** One consultation; returns the park span ([0] = stay schedulable).
    Called by the machine after every interpreted effect of a
    still-runnable thread, in execution order — the per-thread and global
    consultation counters advance on every call.  Pass this (partially
    applied) to {!Machine.set_explorer}. *)

val fired : t -> preemption list
(** Preemptions fired so far, oldest first.  Replaying them with
    {!Replay} under the same seedless machine setup reproduces the
    identical schedule. *)
