(** EunoLint: source-level static analysis of the repo's concurrency and
    determinism conventions.

    The dynamic layers (EunoSan, EunoCheck, EunoDura) catch invariant
    violations only on schedules that actually run; this lint enforces
    the statically-checkable shapes — lock release on every exit path,
    release notes before unlocking stores, counter-registry ownership,
    determinism hygiene, domain-shared state — on every build.
    See docs/LINT.md for the rule catalog.

    {b Complexity} O(source bytes + AST nodes) per file.
    {b Determinism} output is a pure function of the file contents and
    the (sorted) path list; two runs over the same tree render
    byte-identical reports. *)

type suppressed = {
  s_finding : Rules.finding;
  s_reason : string;  (** from the matching allow directive *)
}

type outcome = {
  findings : Rules.finding list;  (** active findings, sorted *)
  suppressed : suppressed list;  (** allow-matched findings, sorted *)
  files_scanned : int;
}

val rule_names : string list
(** Rule-id vocabulary, including the engine's own [suppression] rule. *)

val expand_paths : string list -> (string list, string) result
(** Directories expand recursively to their [.ml] files in sorted
    order; [_build], [.git] and [lint_fixtures] directories are skipped
    during expansion (explicitly-listed files are always taken).
    [Error] names a path that does not exist. *)

val run_files : (string * string) list -> (outcome, string) result
(** [run_files [(path, source); ...]] parses and lints the given
    sources.  [Error] carries a parse failure message (file + location).
    Suppression directives with a reason cancel same-line/next-line
    findings of the named rule; malformed directives surface as
    [suppression] findings. *)

val run_paths : string list -> (outcome, string) result
(** [expand_paths] + file reads + {!run_files}. *)
