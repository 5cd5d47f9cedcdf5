(** Event tracing for the simulated machine.

    A bounded ring of the transaction lifecycle events of the machine's
    {!Sev} stream (begin, commit, abort, conflict, completed operation,
    injected fault).  Subscribe {!push} with {!Machine.subscribe}; the ring
    drops every other event, and tracing never perturbs simulated results.

    {b Complexity:} with nothing subscribed the machine tests one bit per
    emission site and builds no event; the ring stores events in a fixed
    circular buffer (O(1) per event, oldest overwritten).

    {b Determinism:} events carry simulated clocks and tids only.  The
    recorded seed-42 streams in [test/golden/] are compared byte-for-byte
    against {!event_to_json} output by the determinism suite, which is how
    engine refactors prove they preserved behavior. *)

val lifecycle : Sev.event -> bool
(** True for the six bodies the ring keeps: [Txn_begin], [Txn_commit],
    [Txn_aborted], [Conflict], [Op_exit] and [Injected]. *)

val event_to_string : Sev.event -> string
(** One human-readable line.  Raises [Invalid_argument] unless
    {!lifecycle}. *)

type ring

val ring : capacity:int -> ring
(** Retains the most recent [capacity] lifecycle events. *)

val push : ring -> Sev.event -> unit
(** Keep the event if {!lifecycle}; ignore it otherwise. *)

val total : ring -> int
(** Lifecycle events ever pushed (including evicted ones). *)

val events : ring -> Sev.event list
(** Retained events, oldest first. *)

val to_strings : ring -> string list

val for_thread : ring -> int -> Sev.event list
(** Retained events involving one thread (as owner, attacker or victim). *)

(** {2 Machine-readable exports} *)

val event_to_json : Sev.event -> Euno_stats.Json.t
(** One JSON object with an ["ev"] tag.  Raises [Invalid_argument] unless
    {!lifecycle}. *)

val to_jsonl : ring -> string list
(** One compact JSON document per retained event, oldest first. *)

val export_jsonl : ring -> out_channel -> unit
(** Write {!to_jsonl} lines to a channel. *)

val chrome_trace : ring -> Euno_stats.Json.t
(** The retained ring as a Chrome [trace_event] document (loadable in
    chrome://tracing or Perfetto): every transaction is a duration slice
    from xbegin to commit/abort, conflicts and completed ops are instant
    events.  Timestamps are simulated cycles. *)
