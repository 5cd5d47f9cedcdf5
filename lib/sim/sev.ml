(* The machine's event vocabulary.

   The machine interprets every memory access, atomic, RTM primitive and
   lock operation; while anything is subscribed (Machine.subscribe) it
   delivers each of them — plus transaction lifecycle points, conflicts,
   injected faults and protocol announcements performed by the sync
   libraries via {!Api.san_note} — to its subscribers as one of the events
   below.  The Trace ring and the EunoSan checkers are two such
   subscribers.  Everything here is inert by default: [enabled] is the
   arming flag for announcements, whose call sites test it before building
   a note, and the machine builds no event while nothing is hooked, so an
   unobserved run is byte-identical to an observed one. *)

(* Which protocol a lock announcement belongs to.  The id paired with a
   kind is the lock's representative simulated address (for [Slot], the
   CCM line base shifted to make room for the slot index), so (kind, id)
   is collision-free across protocols. *)
type lock_kind =
  | Spin (* Euno_sync.Spinlock, incl. the HTM fallback lock *)
  | Ticket (* Euno_sync.Ticketlock *)
  | Seq_writer (* Euno_sync.Seqlock writer side *)
  | Slot (* a CCM per-slot advisory lock *)
  | Version (* a Masstree embedded node-version lock *)

(* Announcements performed by instrumented synchronization code.  These
   travel through the {!Eff.San_note} effect so the machine can stamp
   them with the announcing thread's tid and clock. *)
type note =
  | Acquire of lock_kind * int (* kind, lock id; after the lock is won *)
  | Release of lock_kind * int (* kind, lock id; after the lock is free *)
  | Publish of lock_kind * int
    (* one-way happens-before transfer into a lock the announcer does NOT
       hold: everything it did so far is ordered before any later holder.
       Used when data is initialized under one lock but later protected by
       another (Masstree root growth).  Ignored by the lock-discipline
       checker — no lock changes hands. *)
  | Barrier_arrive of int (* barrier id, before waiting *)
  | Barrier_depart of int (* barrier id, after the episode completes *)
  | Attempt_enter (* Htm.attempt entered *)
  | Attempt_exit (* Htm.attempt exited (any path) *)
  | Opt_enter (* optimistic read section begins (seqlock/OLC reader) *)
  | Opt_exit (* optimistic read section validated or abandoned *)

(* One machine-level event.  [tid]/[clock] are of the thread the event
   happened on (for aborts: the victim, at the instant it was doomed; for
   conflicts: the attacker, at its coherence request). *)
type event = { tid : int; clock : int; body : body }

and body =
  | Plain_read of { addr : int; kind : Euno_mem.Linemap.kind }
  | Plain_write of { addr : int; kind : Euno_mem.Linemap.kind }
  | Txn_line_read of int (* line id entering the live read set *)
  | Txn_line_write of int (* line id entering the live write set *)
  | Txn_begin
  | Txn_commit of { reads : int; writes : int } (* read/write-set sizes *)
  | Txn_aborted of Abort.code
  | Conflict of { victim : int; line : int; kind : Euno_mem.Linemap.kind }
      (* the attacker dooms [victim]'s transaction on [line] *)
  | Injected of string (* a fault-injection or exploration action fired *)
  | Unsafe_read of int (* untracked access: addr, no coherence *)
  | Unsafe_write of int
  | Alloc_done of { addr : int; words : int }
  | Free_done of { addr : int; words : int }
  | Op_exit of int (* one benchmark operation retired (Op_done): its key *)
  | Thread_exit of { failed : bool; aborted : bool }
      (* [aborted]: the thread died with an uncaught {!Eff.Txn_abort} —
         an abort escaped the Htm wrappers *)
  | Note of note

(* ---------- arming ---------- *)

(* True only inside a sanitizer session.  Host-side flag shared by every
   machine of the arming domain (including preload machines, whose hook
   stays uninstalled): announcement sites in simulated code test it
   before performing the San_note effect, so ordinary runs never even
   allocate a note.  Domain-local so a sanitizer cell running on one
   pool worker cannot arm the instrumentation of a plain cell running
   concurrently on another. *)
let enabled : bool Domain_ref.t = Domain_ref.create (fun () -> false)

let armed () = Domain_ref.get enabled
let set_armed v = Domain_ref.set enabled v

(* ---------- intentionally-racy words ---------- *)

(* Words that are racy by design (e.g. the CCM adaptive-mode hint word,
   written and read plainly from concurrent operations on purpose).  The
   registry is host state, not simulated state, so marks survive the
   preload-machine / measurement-machine boundary.  Only consulted by the
   race detector; reset at the start of each sanitizer session so marks
   never leak across address reuse between sessions.  Domain-local like
   the arming flag: each pool worker's sessions mark into their own
   table. *)
let racy : (int, unit) Hashtbl.t Domain_ref.t =
  Domain_ref.create (fun () -> Hashtbl.create 64)

let mark_racy addr = if armed () then Hashtbl.replace (Domain_ref.get racy) addr ()
let is_racy addr = Hashtbl.mem (Domain_ref.get racy) addr
let reset_racy () = Hashtbl.reset (Domain_ref.get racy)
