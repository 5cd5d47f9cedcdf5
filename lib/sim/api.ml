(* Instruction set of a simulated thread: direct calls into the machine
   running on this domain (Machine.Insn), interpreted on the thread's own
   stack.  All code that runs "on" the machine (trees, locks, workloads)
   is written against this module. *)

include Machine.Insn
