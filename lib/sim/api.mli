(** Instruction set of a simulated hardware thread.

    Everything that runs on the {!Machine} — tree operations, locks,
    workload loops — uses these calls exclusively.  Each is a direct call
    into the machine running on this domain ({!Machine.Insn}), which
    interprets it on the calling thread's own stack: it charges cycles,
    subjects the access to RTM conflict detection, and returns.  The
    thread parks in the scheduler only when another thread must run next,
    or after every instruction while the run is observed.

    {b Complexity:} interpretation is O(1) per access (flat-array lookups,
    see {!Machine}).  An instruction allocates nothing unless the thread
    yields (a parked continuation) or aborts (the {!Eff.Txn_abort}
    exception).  Calling any of these with no machine running on the
    domain raises [Invalid_argument] naming the call.

    {b Determinism:} these are the only doors to simulated state.  Thread
    code that sticks to them (and {!rand} rather than host randomness) is
    replayed bit-for-bit by the deterministic scheduler. *)

val read : int -> int
(** Load the word at an address. *)

val write : int -> int -> unit
(** Store a word. *)

val cas : int -> expected:int -> desired:int -> bool
(** Atomic compare-and-swap; true on success. *)

val faa : int -> int -> int
(** Atomic fetch-and-add; returns the previous value. *)

val work : int -> unit
(** Consume ALU cycles (models off-memory computation). *)

val xbegin : unit -> unit
(** Start an RTM transaction.  Aborts surface as {!Eff.Txn_abort} raised at
    some later instruction; use the [Euno_htm] wrappers rather than calling
    this directly. *)

val xend : unit -> unit
(** Commit.  Always succeeds under eager conflict detection. *)

val xabort : int -> unit
(** Explicit abort with an imm8 code (delivered at the next instruction). *)

val xtest : unit -> bool
(** Inside a transaction? *)

val tid : unit -> int
val clock : unit -> int

val rand : int -> int
(** Deterministic per-thread uniform value in [\[0, bound)]. *)

val alloc : kind:Euno_mem.Linemap.kind -> words:int -> int
(** Allocate simulated memory (rolled back if the transaction aborts). *)

val free : kind:Euno_mem.Linemap.kind -> addr:int -> words:int -> unit
(** Free simulated memory (deferred to commit inside a transaction). *)

val reclassify :
  from_kind:Euno_mem.Linemap.kind ->
  to_kind:Euno_mem.Linemap.kind ->
  words:int ->
  unit
(** Move allocator accounting between kinds (reverted if the enclosing
    transaction aborts); pairs with {!Euno_mem.Linemap.set_range}
    re-tagging. *)

val op_key : int -> unit
(** Declare the key targeted by the current operation, enabling the paper's
    true/false conflict classification. *)

val op_done : unit -> unit
(** Mark one benchmark operation complete. *)

val count : int -> int -> unit
(** Bump a per-thread user counter (see {!Machine.n_user_counters}). *)

val untracked_read : int -> int
(** Statistics access: no coherence traffic, no conflicts. *)

val untracked_write : int -> int -> unit

val san_note : Sev.note -> unit
(** Announce a synchronization-protocol event to the sanitizer.  No-op
    (not even an instruction) unless {!Sev.armed}; call sites should
    still test [Sev.armed ()] first so disabled runs never allocate the
    note.  Never charges simulated cycles. *)
