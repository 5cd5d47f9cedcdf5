(** Machine-readable telemetry: the schema-versioned JSON wire format.

    The figure CLI ([euno_repro <fig> --json out.json --snapshots
    out.jsonl]), the campaign drivers, [euno_lint] and the bench driver
    ([BENCH_results.json]) write these records so perf trajectories and
    figure shapes can be diffed and plotted rather than eyeballed from the
    ASCII tables.  Every document and every JSONL line carries
    [schema_version].

    This is the only module that knows the format.  Each record kind is
    declared once, as an ordered list of typed fields (JSON name, type,
    whether it may be absent, closed vocabulary, and how to read it from
    the OCaml value); {!record} and {!validate_record} are both derived
    from that declaration. *)

module Json = Euno_stats.Json

val schema_version : int
(** Version stamped on (and required of) every record.  Currently 1. *)

(** {1 Record kinds} *)

(** One perf-gate probe: [name], the [strategy] and [capacity_model] it
    ran under, [metric] (unit and better-direction, e.g. ["ns_per_call"]
    lower-is-better or ["sim_ops_per_wall_sec"] higher-is-better) and
    [value].  Re-exported as {!Perf_gate.probe}. *)
type probe = {
  p_name : string;
  p_strategy : string;
  p_capacity_model : string;
  p_metric : string;
  p_value : float;
}

(** The closed set of record kinds, indexed by the value each one
    serializes.  The discriminator and the declaration lookup are
    exhaustive matches on it, so a kind without a declaration does not
    compile. *)
type _ kind =
  | Result : Runner.result kind
      (** one run: throughput, abort classes, wasted cycles, latency
          percentiles, memory footprint and the embedded window series *)
  | Window : (Runner.result * Runner.window) kind
      (** one sampling window of a run, self-describing for JSONL *)
  | Sweep : (string * float * Runner.result) kind
      (** one strategy-sweep cell: figure, theta and the run *)
  | San : San_run.outcome kind  (** the EunoSan verdict of one run *)
  | Check : Check_run.outcome kind
      (** one EunoCheck campaign cell; a nested [violation] object (with
          the shrunk counterexample's sizes and repro line) is present
          exactly when [violations] is non-zero *)
  | Chaos : Chaos.outcome kind  (** one tree's fault-injection campaign *)
  | Recovery : Dura_run.cell kind  (** one crash-recovery cell *)
  | Perf : probe kind  (** one perf-gate probe *)
  | Micro : (string * float) kind  (** one micro timing: name, ns/call *)
  | Lint : (Eunolint.Rules.finding * string option) kind
      (** one EunoLint finding and, when an allow-directive muted it, the
          directive's reason; the rule-id must be in
          {!Eunolint.Lint.rule_names}, and [reason] is present exactly
          when [suppressed] is true *)

type any_kind = Kind : 'a kind -> any_kind

val kinds : any_kind list
(** Every kind, as {!validate_record} looks them up by name. *)

val kind_name : 'a kind -> string
(** The ["record"] discriminator. *)

val required_fields : 'a kind -> string list
(** The kind's declared top-level fields that may not be absent, in
    emission order (the header's [schema_version] and ["record"] are not
    included). *)

(** {1 Emitting} *)

val record : ?experiment:string -> ?run:int -> 'a kind -> 'a -> Json.t
(** One record: [schema_version], the ["record"] discriminator, then
    [experiment] and [run] if given, then the kind's declared fields in
    order.  [run] is the record's position in the experiment's run
    sequence, which is how sweep points (e.g. fig1's thetas) are told
    apart downstream. *)

val result_to_json : ?experiment:string -> ?run:int -> Runner.result -> Json.t
(** [record Result]. *)

val snapshot_lines : ?experiment:string -> ?run:int -> Runner.result -> Json.t list
(** One ["window"] record per sampling window (for JSONL export); empty
    when the run had no [snapshot_window]. *)

val document : experiment:string -> Json.t list -> Json.t
(** Wrap records in the top-level schema-versioned document. *)

val write_file : string -> Json.t -> unit
(** Pretty-print one document to [path]. *)

val write_jsonl : string -> Json.t list -> unit
(** One compact JSON value per line. *)

(** {1 Validation}

    Checks our own output against the declarations: every declared field
    must be present (unless optional) with its declared JSON type and,
    for closed vocabularies, a known value; nested objects are checked
    the same way.  Undeclared extra fields are accepted.  Used by
    [euno_schema_check], the CI smoke checks and the round-trip tests. *)

val validate_record : Json.t -> (unit, string) result
(** Look up the kind by its ["record"] discriminator and check the
    header and the kind's declaration. *)

val validate_document : Json.t -> (unit, string) result
(** The document header, then {!validate_record} on every record. *)

(** {1 Collection}

    The collector observes {!Runner.on_result}, so every run — whichever
    figure helper produced it — lands in the flushed document. *)

val start_collecting : unit -> unit
val collected : unit -> Runner.result list
val stop_collecting : unit -> unit

val flush_collected :
  experiment:string -> ?json:string -> ?snapshots:string -> unit -> unit
(** Write everything collected since {!start_collecting}: [json] gets the
    full document, [snapshots] the windowed series as JSONL. *)
