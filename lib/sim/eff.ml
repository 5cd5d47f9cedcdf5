(* The two names thread code shares with the machine.

   Instructions are direct calls (Api → Machine.Insn), not effects: the
   machine's only effects are private to it.  What remains here is the
   exception a transaction body sees when the hardware aborts it, and the
   null simulated pointer. *)

exception Txn_abort of Abort.code
(* Delivered into a transaction body when the hardware aborts it.  User code
   must not catch it except via Htm wrappers, which retry or fall back. *)

let null = 0 (* the null simulated pointer *)
