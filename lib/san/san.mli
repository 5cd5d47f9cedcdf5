(** EunoSan: deterministic race / lock-discipline / atomicity checking
    over the simulated machine's semantic-event stream.

    A checker consumes {!Euno_sim.Sev.event}s (subscribe {!hook} with
    {!Euno_sim.Machine.subscribe}) and runs four analyses:

    - a FastTrack-style vector-clock data-race detector over plain
      (non-transactional) accesses, with happens-before edges from lock
      release→acquire, barrier episodes, transaction commits and
      sequential thread incarnations;
    - an Eraser-style lock-discipline checker: locks still held when an
      operation or thread finishes, releases by non-owners, and
      lock-order cycles;
    - a strong-atomicity / transaction-hygiene checker: untracked
      accesses overlapping another thread's live transaction footprint,
      and unbalanced xbegin/xend;
    - an escaped-abort detector: [Txn_abort] deliveries outside
      [Htm.attempt] and threads dying with an uncaught abort.

    {b Determinism:} the event stream is emitted in execution order by a
    deterministic machine, and the checker is pure state over that
    stream, so findings are bit-for-bit reproducible for a fixed seed.

    Known limits (see [docs/SANITIZER.md]): happens-before from aborted
    transactions is dropped (sound, loses detection power), line vector
    clocks survive address reuse (same direction), and barrier episodes
    reuse one vector clock (late departers may over-synchronize). *)

(** Diagnostic classes. *)
type kind =
  | Race  (** conflicting plain accesses with no happens-before edge *)
  | Lock_leak  (** lock still held at operation or thread exit *)
  | Bad_release  (** release of a lock the thread does not hold *)
  | Lock_cycle  (** cycle in the observed lock-acquisition order *)
  | Atomicity
      (** untracked access overlapping a live transaction's footprint *)
  | Txn_unbalanced  (** xbegin without commit/abort (or vice versa) *)
  | Escaped_abort  (** abort delivered or propagated outside Htm.attempt *)

val kind_name : kind -> string

type finding = {
  f_kind : kind;
  f_subject : string;  (** dedup key within the kind: what is implicated *)
  f_tid : int;  (** thread observing the defect *)
  f_clock : int;  (** simulated cycle of the observation *)
  f_detail : string;  (** human-readable one-liner *)
}

type summary = {
  events : int;  (** events consumed *)
  findings : finding list;  (** deduplicated, capped, in discovery order *)
  total : int;  (** deduplicated findings before the cap *)
}

type t

val create : ?max_findings:int -> unit -> t
(** Fresh checker.  [max_findings] caps the retained list (default 200);
    deduplicated findings past the cap are still counted in [total]. *)

val hook : t -> Euno_sim.Sev.event -> unit
(** Feed one event; pass [hook t] to {!Euno_sim.Machine.subscribe}.
    Conflict and injected-fault events are trace-only: the checker neither
    counts nor analyses them. *)

val finish : t -> summary
(** Run end-of-stream analyses (lock-order cycles) and summarize.  The
    checker may keep consuming events afterwards, but findings already
    reported are not re-reported. *)
