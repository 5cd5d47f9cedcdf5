(** Per-thread RTM transaction state, as a reusable arena.

    Eager conflict detection (ownership acquired at access time through
    the machine's {!Line_table}), lazy versioning (stores buffered until
    commit) — the combination used by Intel TSX, where the L1 cache holds
    speculative state and the coherence protocol detects conflicts as
    they happen.

    {b Complexity:} one arena is created per hardware thread and reused
    for every transaction it runs.  {!reset} is O(1) — it bumps an epoch
    stamp that invalidates the buffered-write table wholesale — and no
    operation allocates on the access path (backing arrays grow
    geometrically and are kept).  {!buffer_write}, {!is_buffered} and
    {!buffered} are O(1) expected (open addressing at ≤ 50% load);
    {!iter_lines}, {!release} and {!iter_writes} are linear in the
    lines/stores actually touched.  Only the [iter_*] functions take a
    closure, and {!buffered_value} boxes an option: the machine uses the
    closure-free forms.

    {b Determinism:} the buffered-write table hashes addresses with a
    fixed multiplicative constant — never host-dependent state — so
    iteration and probe order are identical on every run.  Commit replay
    order is the recorded first-write program order, not table order. *)

type t

val create : tid:int -> t
(** A fresh arena; call once per hardware thread. *)

val reset : t -> start_clock:int -> unit
(** Start a new transaction in this arena.  O(1): previous state is
    discarded by epoch bump and log truncation, not traversal. *)

val tid : t -> int
val start_clock : t -> int

val reads : t -> int
(** Distinct lines in the read set (for capacity accounting). *)

val written : t -> int
(** Distinct lines in the write set. *)

val note_read : t -> int -> unit
(** Count a line newly added to the read set and log it for release.
    The caller (the machine) owns the membership test — a line is "new"
    when its reader bit in the Line_table is clear. *)

val note_write : t -> int -> unit

val buffer_write : t -> int -> int -> unit
(** [buffer_write t addr v]: record a speculative store; applied only at
    commit.  Last value per address wins. *)

val is_buffered : t -> int -> bool
(** Has this transaction written [addr]?  O(1) expected, no allocation. *)

val buffered : t -> int -> int
(** The speculative value this transaction wrote to [addr]
    (read-own-writes).  Only meaningful when {!is_buffered} holds; the
    pair lets the machine's access path avoid boxing an option. *)

val buffered_value : t -> int -> int option
(** [Some (buffered t addr)] when {!is_buffered}, else [None], in one
    probe. *)

val iter_lines : t -> (int -> unit) -> unit
(** Every line this transaction claimed in the Line_table, in claim
    order.  A read-then-written line appears twice; release is
    idempotent so this is harmless. *)

val release : t -> Line_table.t -> unit
(** Drop this transaction's claim on every line of {!iter_lines}, without
    allocating. *)

val write_count : t -> int
(** Distinct addresses buffered. *)

val write_addr : t -> int -> int
(** [write_addr t i] is the [i]-th buffered address in first-write
    program order, [0 <= i < write_count t]: commit replay without a
    closure. *)

val iter_writes : t -> (int -> int -> unit) -> unit
(** Buffered writes, first-write program order, final value per address. *)

val record_alloc : t -> Euno_mem.Linemap.kind -> int -> int -> unit
val record_free : t -> Euno_mem.Linemap.kind -> int -> int -> unit

val record_reclassify :
  t -> Euno_mem.Linemap.kind -> Euno_mem.Linemap.kind -> int -> unit

val allocs : t -> (Euno_mem.Linemap.kind * int * int) list
(** Allocations made inside the transaction, newest first (rolled back on
    abort). *)

val frees : t -> (Euno_mem.Linemap.kind * int * int) list
(** Frees deferred to commit, newest first. *)

val reclassifies :
  t -> (Euno_mem.Linemap.kind * Euno_mem.Linemap.kind * int) list
(** Allocator reclassifications to revert on abort, newest first. *)
