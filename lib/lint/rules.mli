(** The EunoLint rule set: five AST-level checks over the repo's own
    invariants (see docs/LINT.md for the catalog and the historical bug
    behind each rule).

    {b Complexity} O(AST nodes) per file per rule; the lock-paths rule
    adds a per-file fixpoint over let-bindings to learn release-wrapper
    closures (e.g. [let leave () = Spinlock.release ...]).
    {b Determinism} pure function of the parsed sources; findings carry
    source locations only, never wall-clock or environment state. *)

type finding = {
  file : string;  (** path as given on the command line *)
  line : int;  (** 1-based *)
  col : int;  (** 0-based, matching compiler convention *)
  rule : string;  (** one of {!rule_names} *)
  msg : string;
}

type file_unit = {
  fu_path : string;
  fu_ast : Parsetree.structure;
  fu_sim_pragma : bool;
      (** [(* euno-lint: scope sim *)] present — forces the file into
          every path-scoped rule's scope (fixture corpus support) *)
}

val rule_names : string list
(** All rule-ids a finding or suppression may name, including the
    engine's own [suppression] rule (malformed directives). *)

val run : file_unit list -> finding list
(** All raw findings over the file set, unsorted and unsuppressed.
    The cross-file rule (counter ownership collisions) sees the whole
    set at once, so lint the tree in one invocation. *)
