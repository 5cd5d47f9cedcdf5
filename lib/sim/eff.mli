(** The two names thread code shares with the machine.

    Every memory access, atomic instruction and RTM primitive is a direct
    call through {!Api} into {!Machine.Insn}, interpreted on the calling
    thread's stack; no instruction is an effect.  The machine's own
    effects (a thread yielding to the scheduler, an interpretation error
    escaping the thread) are private to {!Machine}.  What remains here is
    the abort exception and the null pointer.

    {b Complexity:} nothing here runs per instruction; an instruction
    that neither yields nor aborts allocates nothing (see {!Machine.Insn}).

    {b Determinism:} {!Txn_abort} is raised at the instruction the
    scheduler's (clock, tid) order fixes, never by host state. *)

exception Txn_abort of Abort.code
(** Delivered into a transaction body when the hardware aborts it; only
    the [Euno_htm] wrappers should catch it. *)

val null : int
(** The null simulated pointer (address 0). *)
