(* Machine-readable telemetry: the schema-versioned JSON wire format.

   Everything the ASCII tables print is derived from the campaign
   results; this module is their durable counterpart — the binaries and
   the bench driver write these records so perf trajectories and figure
   shapes can be diffed, gated and plotted instead of eyeballed.  The
   schema is deliberately flat (one object per record, snake_case keys)
   and carries [schema_version] on every document and every JSONL line so
   downstream consumers can evolve with it.

   This is the only module that knows the format.  Each record kind is
   declared once, as an ordered list of typed fields; the emitter maps a
   declaration over a value and the validator walks the same declaration
   over parsed JSON, so the two cannot drift apart. *)

module Json = Euno_stats.Json
module Abort = Euno_sim.Abort
module Cost = Euno_sim.Cost
module Htm = Euno_htm.Htm
module San = Euno_san.San
module Checker = Euno_dura.Checker

let schema_version = 1

(* ---------- field declarations ---------- *)

(* One field of a record of type ['a]: its JSON name, its JSON type, and
   how the emitter reads it from the value.  The validator reads only the
   name and the type. *)
type 'a field =
  | Int of string * ('a -> int)
  | Num of string * ('a -> float)
  | Str of string * ('a -> string)
  | Bool of string * ('a -> bool)
  | Enum of string * string list * ('a -> string)
      (* a string from a closed vocabulary *)
  | Obj of string * 'a field list  (* nested object over the same value *)
  | Objs : string * 'b field list * ('a -> 'b list) -> 'a field
      (* list of objects, one per element *)
  | Any_obj of string * ('a -> Json.t)
      (* opaque object: its keys are data, not schema *)
  | Any_list of string * ('a -> Json.t)
      (* opaque list, e.g. a fault plan's own codec *)
  | Opt : ('a -> 'b option) * 'b field -> 'a field  (* absent on [None] *)
  | On : ('a -> 'b) * 'b field -> 'a field  (* a field of a component *)

let rec name_of : type a. a field -> string = function
  | Int (name, _) | Num (name, _) | Str (name, _) | Bool (name, _) -> name
  | Enum (name, _, _) | Obj (name, _) | Objs (name, _, _) -> name
  | Any_obj (name, _) | Any_list (name, _) -> name
  | Opt (_, f) -> name_of f
  | On (_, f) -> name_of f

let rec optional : type a. a field -> bool = function
  | Opt _ -> true
  | On (_, f) -> optional f
  | _ -> false

(* The emitter: each field is consed onto the members that follow it, or
   left out when absent. *)
let rec members : type a.
    a field list -> a -> (string * Json.t) list -> (string * Json.t) list =
 fun fields v rest ->
  match fields with
  | [] -> rest
  | f :: fields -> emit f v (members fields v rest)

and emit : type a.
    a field -> a -> (string * Json.t) list -> (string * Json.t) list =
 fun f v rest ->
  match f with
  | Int (name, get) -> (name, Json.Int (get v)) :: rest
  | Num (name, get) -> (name, Json.Float (get v)) :: rest
  | Str (name, get) | Enum (name, _, get) -> (name, Json.Str (get v)) :: rest
  | Bool (name, get) -> (name, Json.Bool (get v)) :: rest
  | Obj (name, fields) -> (name, Json.Obj (members fields v [])) :: rest
  | Objs (name, fields, get) ->
      let obj x = Json.Obj (members fields x []) in
      (name, Json.List (List.map obj (get v))) :: rest
  | Any_obj (name, get) | Any_list (name, get) -> (name, get v) :: rest
  | Opt (get, f) -> (
      match get v with Some x -> emit f x rest | None -> rest)
  | On (get, f) -> emit f (get v) rest

(* Fields of a component, read through [get]. *)
let on get fields = List.map (fun f -> On (get, f)) fields

(* Records that describe a run carry the fallback strategy and capacity
   model it was executed under; both must be names the binaries actually
   accept, so a sweep writing a typo'd cell fails schema check instead of
   silently partitioning downstream plots. *)
let strategy get = Enum ("strategy", Htm.strategy_names, get)
let capacity_model get = Enum ("capacity_model", Cost.capacity_model_names, get)

let abort_classes values =
  Json.Obj
    (List.init (Array.length values) (fun i ->
         (Abort.class_name i, values.(i))))

(* ---------- record declarations ---------- *)

(* Declarations are built on each use rather than held in module-level
   values: held ones stay live among the simulator's own data and pin
   major-heap pools, which raised the median peak heap of EunoBench's
   72-cell campaign-grid workload by about 10% over ten seeds.  Built on
   demand, they are collected like any other short-lived value. *)

let window_aborts_total w = Array.fold_left ( + ) 0 w.Runner.w_aborts

let window_fields () =
  [
    Int ("window_start", fun w -> w.Runner.w_start);
    Int ("window_end", fun w -> w.Runner.w_end);
    Int ("ops", fun w -> w.Runner.w_ops);
    Int ("commits", fun w -> w.Runner.w_commits);
    Int ("aborts_total", window_aborts_total);
    Any_obj ("aborts", fun w ->
        abort_classes (Array.map (fun v -> Json.Int v) w.Runner.w_aborts));
    Num ("aborts_per_op", fun w ->
        float_of_int (window_aborts_total w)
        /. float_of_int (max 1 w.Runner.w_ops));
    Int ("fallbacks", fun w -> w.Runner.w_fallbacks);
    Int ("lock_wait_cycles", fun w -> w.Runner.w_lock_wait_cycles);
    Int ("wasted_cycles", fun w -> w.Runner.w_wasted_cycles);
    Int ("accesses", fun w -> w.Runner.w_accesses);
  ]

let snapshots get =
  Objs ("snapshots", window_fields (), fun v ->
      Runner.windows_of_snapshots (get v))

let result_fields () =
  [
    Str ("tree", fun r -> r.Runner.r_name);
    strategy (fun r -> r.Runner.r_strategy);
    capacity_model (fun r -> r.Runner.r_capacity_model);
    Int ("threads", fun r -> r.Runner.r_threads);
    Int ("ops", fun r -> r.Runner.r_ops);
    Int ("cycles", fun r -> r.Runner.r_cycles);
    Num ("mops", fun r -> r.Runner.r_mops);
    Num ("aborts_per_op", fun r -> r.Runner.r_aborts_per_op);
    Any_obj ("abort_classes", fun r ->
        abort_classes
          (Array.map (fun v -> Json.Float v) r.Runner.r_abort_classes));
    Num ("commits_per_op", fun r -> r.Runner.r_commits_per_op);
    Num ("wasted_pct", fun r -> r.Runner.r_wasted_pct);
    Num ("fallbacks_per_op", fun r -> r.Runner.r_fallbacks_per_op);
    Num ("retries_per_op", fun r -> r.Runner.r_retries_per_op);
    Num ("lock_wait_pct", fun r -> r.Runner.r_lock_wait_pct);
    Num ("consistency_retries_per_op", fun r ->
        r.Runner.r_consistency_retries_per_op);
    Num ("watchdog_trips_per_op", fun r -> r.Runner.r_watchdog_trips_per_op);
    Num ("starvation_backoffs_per_op", fun r ->
        r.Runner.r_starvation_backoffs_per_op);
    Num ("convoy_events_per_op", fun r -> r.Runner.r_convoy_events_per_op);
    Num ("fast_path_wins_per_op", fun r -> r.Runner.r_fast_path_wins_per_op);
    Num ("middle_path_wins_per_op", fun r ->
        r.Runner.r_middle_path_wins_per_op);
    Num ("software_path_wins_per_op", fun r ->
        r.Runner.r_software_path_wins_per_op);
    Num ("helped_ops_per_op", fun r -> r.Runner.r_helped_ops_per_op);
    Num ("instr_per_op", fun r -> r.Runner.r_instr_per_op);
    Int ("lat_p50", fun r -> r.Runner.r_lat_p50);
    Int ("lat_p99", fun r -> r.Runner.r_lat_p99);
    Obj
      ( "mem",
        [
          Int ("preload_bytes", fun r -> r.Runner.r_mem_preload_bytes);
          Int ("live_bytes", fun r -> r.Runner.r_mem_live_bytes);
          Int ("reserved_peak_bytes", fun r ->
              r.Runner.r_mem_reserved_peak_bytes);
          Int ("lock_bytes", fun r -> r.Runner.r_mem_lock_bytes);
        ] );
    snapshots (fun r -> r.Runner.r_snapshots);
  ]

(* One JSONL line per window of one run, self-describing (tree, threads)
   so lines from different runs can be concatenated and still grouped
   downstream. *)
let window_record_fields () =
  Str ("tree", fun (r, _) -> r.Runner.r_name)
  :: Int ("threads", fun (r, _) -> r.Runner.r_threads)
  :: on snd (window_fields ())

(* A strategy-sweep campaign cell: the figure cell coordinates (figure,
   tree, theta, threads) crossed with the strategy x capacity-model
   matrix, flattened to the metrics the per-figure comparison tables
   read. *)
let sweep_fields () =
  let cell = on (fun (_, _, r) -> r) in
  (Str ("figure", fun (figure, _, _) -> figure)
   :: cell
        [
          Str ("tree", fun r -> r.Runner.r_name);
          strategy (fun r -> r.Runner.r_strategy);
          capacity_model (fun r -> r.Runner.r_capacity_model);
          Int ("threads", fun r -> r.Runner.r_threads);
        ])
  @ Num ("theta", fun (_, theta, _) -> theta)
    :: cell
         [
           Int ("ops", fun r -> r.Runner.r_ops);
           Num ("mops", fun r -> r.Runner.r_mops);
           Num ("aborts_per_op", fun r -> r.Runner.r_aborts_per_op);
           Num ("commits_per_op", fun r -> r.Runner.r_commits_per_op);
           Num ("wasted_pct", fun r -> r.Runner.r_wasted_pct);
           Num ("fallbacks_per_op", fun r -> r.Runner.r_fallbacks_per_op);
           Num ("lock_wait_pct", fun r -> r.Runner.r_lock_wait_pct);
           Num ("fast_path_wins_per_op", fun r ->
               r.Runner.r_fast_path_wins_per_op);
           Num ("middle_path_wins_per_op", fun r ->
               r.Runner.r_middle_path_wins_per_op);
           Num ("software_path_wins_per_op", fun r ->
               r.Runner.r_software_path_wins_per_op);
           Num ("helped_ops_per_op", fun r -> r.Runner.r_helped_ops_per_op);
         ]

(* The EunoSan verdict of one sanitized run; findings are capped by the
   sanitizer, [findings_total] is not. *)
let san_fields () =
  [
    Str ("tree", fun o -> o.San_run.o_tree);
    Str ("workload", fun o -> o.San_run.o_workload);
    strategy (fun o -> o.San_run.o_strategy);
    capacity_model (fun o -> o.San_run.o_capacity_model);
    Int ("threads", fun o -> o.San_run.o_threads);
    Int ("seed", fun o -> o.San_run.o_seed);
    Int ("events", fun o -> o.San_run.o_summary.San.events);
    Int ("findings_total", fun o -> o.San_run.o_summary.San.total);
    Objs
      ( "findings",
        [
          Str ("kind", fun f -> San.kind_name f.San.f_kind);
          Str ("subject", fun f -> f.San.f_subject);
          Int ("tid", fun f -> f.San.f_tid);
          Int ("clock", fun f -> f.San.f_clock);
          Str ("detail", fun f -> f.San.f_detail);
        ],
        fun o -> o.San_run.o_summary.San.findings );
  ]

(* One EunoCheck campaign cell: the exploration budget spent and, on a
   violation, the counterexample sizes before/after shrinking plus the
   one-line repro descriptor. *)
let check_fields () =
  let config = on (fun o -> o.Check_run.o_config) in
  config
    [
      Str ("tree", fun c -> Kv.kind_name c.Check_run.tree);
      Str ("mix", fun c -> c.Check_run.mix);
      Str ("dist", fun c -> c.Check_run.dist);
      Str ("mutation", fun c -> c.Check_run.mutation);
      strategy (fun c -> Htm.strategy_name c.Check_run.strategy);
      capacity_model (fun _ -> Cost.default.Cost.capacity.Cost.cm_name);
      Int ("threads", fun c -> c.Check_run.threads);
      Int ("seed", fun c -> c.Check_run.seed);
    ]
  @ [
      Str ("policy", fun o -> o.Check_run.o_policy);
      Int ("runs", fun o -> o.Check_run.o_runs);
      Int ("events", fun o -> o.Check_run.o_events);
      Int ("violations", fun o ->
          if o.Check_run.o_violation = None then 0 else 1);
      Opt
        ( (fun o -> o.Check_run.o_violation),
          Obj
            ( "violation",
              [
                Int ("preemptions_fired", fun v ->
                    List.length v.Check_run.v_fired);
                Int ("preemptions_minimized", fun v ->
                    List.length v.Check_run.v_minimized);
                Int ("core_events", fun v -> List.length v.Check_run.v_core);
                Str ("repro", fun v -> v.Check_run.v_repro);
              ] ) );
    ]

let chaos_fields () =
  [
    Str ("tree", fun o -> o.Chaos.o_name);
    Int ("threads", fun o -> o.Chaos.o_threads);
    Int ("seed", fun o -> o.Chaos.o_seed);
    Int ("horizon_cycles", fun o -> o.Chaos.o_horizon);
    Any_list ("plan", fun o -> Euno_fault.Plan.to_json o.Chaos.o_plan);
    Int ("ops", fun o -> o.Chaos.o_ops);
    Int ("failed_ops", fun o -> o.Chaos.o_failed_ops);
    Int ("cycles", fun o -> o.Chaos.o_cycles);
    Num ("mops", fun o -> o.Chaos.o_mops);
    Num ("mops_clean", fun o -> o.Chaos.o_mops_clean);
    Num ("mops_fault", fun o -> o.Chaos.o_mops_fault);
    Num ("mops_after", fun o -> o.Chaos.o_mops_after);
    (* recovery_cycles stays an int in both verdicts: for Unrecovered it
       is the saturated observation horizon, and [recovered] says which
       reading applies. *)
    Int ("recovery_cycles", fun o ->
        match o.Chaos.o_recovery with
        | Chaos.Recovered c | Chaos.Unrecovered c -> c);
    Bool ("recovered", fun o ->
        match o.Chaos.o_recovery with
        | Chaos.Recovered _ -> true
        | Chaos.Unrecovered _ -> false);
    Int ("invariant_violations", fun o -> o.Chaos.o_invariant_violations);
    Int ("model_mismatches", fun o -> o.Chaos.o_model_mismatches);
    Int ("checkpoints", fun o -> o.Chaos.o_checkpoints);
    Any_obj ("aborts", fun o ->
        abort_classes (Array.map (fun v -> Json.Int v) o.Chaos.o_aborts));
    Obj
      ( "degradation",
        [
          Int ("fallbacks", fun o -> o.Chaos.o_fallbacks);
          Int ("watchdog_trips", fun o -> o.Chaos.o_watchdog_trips);
          Int ("starvation_backoffs", fun o -> o.Chaos.o_starvation_backoffs);
          Int ("convoy_events", fun o -> o.Chaos.o_convoy_events);
        ] );
    snapshots (fun o -> o.Chaos.o_snapshots);
  ]

(* One crash cell: the durability state at the crash (snapshot / log
   positions, lost suffix), the recovery work actually done (replayed /
   re-run / stuck ops, cycles vs. the linear bound) and the checker's
   verdict. *)
let recovery_fields () =
  [
    Str ("tree", fun c -> c.Dura_run.d_name);
    Int ("threads", fun c -> c.Dura_run.d_threads);
    Int ("seed", fun c -> c.Dura_run.d_seed);
    Int ("horizon_cycles", fun c -> c.Dura_run.d_horizon);
    Any_list ("plan", fun c -> Euno_fault.Plan.to_json c.Dura_run.d_plan);
    Bool ("crashed", fun c -> c.Dura_run.d_crashed);
    Int ("crash_cycle", fun c -> c.Dura_run.d_crash_cycle);
    Str ("restore_mode", fun c ->
        Dura_run.restore_mode_name c.Dura_run.d_restore);
    Int ("ops", fun c -> c.Dura_run.d_ops);
    Int ("failed_ops", fun c -> c.Dura_run.d_failed_ops);
    Int ("snapshots_taken", fun c -> c.Dura_run.d_snapshots_taken);
    Int ("snapshot_lsn", fun c -> c.Dura_run.d_snapshot_lsn);
    Int ("log_len", fun c -> c.Dura_run.d_log_len);
    Int ("flushed_lsn", fun c -> c.Dura_run.d_flushed_lsn);
    Int ("lost_suffix", fun c -> c.Dura_run.d_lost);
    Int ("replayed", fun c -> c.Dura_run.d_replayed);
    Int ("rerun", fun c -> c.Dura_run.d_rerun);
    Int ("swept_locks", fun c -> c.Dura_run.d_swept_locks);
    Int ("stuck_recovery_ops", fun c -> c.Dura_run.d_stuck_ops);
    Int ("recovery_cycles", fun c -> c.Dura_run.d_recovery_cycles);
    Int ("work_bound_cycles", fun c -> c.Dura_run.d_work_bound);
    Bool ("recovered", fun c -> Checker.clean c.Dura_run.d_findings);
    Int ("findings_total", fun c -> List.length c.Dura_run.d_findings);
    Objs
      ( "findings",
        [
          Str ("kind", fun f -> Checker.kind_name f.Checker.f_kind);
          Str ("detail", fun f -> f.Checker.f_detail);
        ],
        fun c -> c.Dura_run.d_findings );
  ]

type probe = {
  p_name : string;
  p_strategy : string;
  p_capacity_model : string;
  p_metric : string;
  p_value : float;
}

let perf_fields () =
  [
    Str ("name", fun p -> p.p_name);
    strategy (fun p -> p.p_strategy);
    capacity_model (fun p -> p.p_capacity_model);
    Str ("metric", fun p -> p.p_metric);
    Num ("value", fun p -> p.p_value);
  ]

let micro_fields () =
  [ Str ("name", fst); Num ("ns_per_call", snd) ]

(* One EunoLint finding: the rule-id is a closed vocabulary, so drift
   between the engine and the schema is itself a schema error. *)
let lint_fields () =
  on fst
    [
      Str ("file", fun f -> f.Eunolint.Rules.file);
      Int ("line", fun f -> f.Eunolint.Rules.line);
      Int ("col", fun f -> f.Eunolint.Rules.col);
      Enum ("rule", Eunolint.Lint.rule_names, fun f -> f.Eunolint.Rules.rule);
      Str ("msg", fun f -> f.Eunolint.Rules.msg);
    ]
  @ [
      Bool ("suppressed", fun (_, reason) -> reason <> None);
      Opt (snd, Str ("reason", Fun.id));
    ]

(* ---------- record kinds ---------- *)

type _ kind =
  | Result : Runner.result kind
  | Window : (Runner.result * Runner.window) kind
  | Sweep : (string * float * Runner.result) kind
  | San : San_run.outcome kind
  | Check : Check_run.outcome kind
  | Chaos : Chaos.outcome kind
  | Recovery : Dura_run.cell kind
  | Perf : probe kind
  | Micro : (string * float) kind
  | Lint : (Eunolint.Rules.finding * string option) kind

type any_kind = Kind : 'a kind -> any_kind

(* The lookup from a parsed record's discriminator to its kind. *)
let kinds =
  [
    Kind Result;
    Kind Window;
    Kind Sweep;
    Kind San;
    Kind Check;
    Kind Chaos;
    Kind Recovery;
    Kind Perf;
    Kind Micro;
    Kind Lint;
  ]

let kind_name : type a. a kind -> string = function
  | Result -> "result"
  | Window -> "window"
  | Sweep -> "sweep"
  | San -> "san"
  | Check -> "check"
  | Chaos -> "chaos"
  | Recovery -> "recovery"
  | Perf -> "perf"
  | Micro -> "micro"
  | Lint -> "lint"

let fields_of : type a. a kind -> a field list = function
  | Result -> result_fields ()
  | Window -> window_record_fields ()
  | Sweep -> sweep_fields ()
  | San -> san_fields ()
  | Check -> check_fields ()
  | Chaos -> chaos_fields ()
  | Recovery -> recovery_fields ()
  | Perf -> perf_fields ()
  | Micro -> micro_fields ()
  | Lint -> lint_fields ()

let required_fields kind =
  List.filter_map
    (fun f -> if optional f then None else Some (name_of f))
    (fields_of kind)

(* ---------- emitting ---------- *)

(* The header every record starts with, after [schema_version] and the
   ["record"] discriminator: experiment/run context when given. *)
let header_fields () =
  [ Opt (fst, Str ("experiment", Fun.id)); Opt (snd, Int ("run", Fun.id)) ]

let record ?experiment ?run kind v =
  Json.Obj
    (("schema_version", Json.Int schema_version)
    :: ("record", Json.Str (kind_name kind))
    :: members (header_fields ()) (experiment, run)
         (members (fields_of kind) v []))

let result_to_json ?experiment ?run r = record ?experiment ?run Result r

let snapshot_lines ?experiment ?run r =
  List.map
    (fun w -> record ?experiment ?run Window (r, w))
    (Runner.windows_of_snapshots r.Runner.r_snapshots)

let document_fields () =
  [
    Str ("generator", fun _ -> "euno-repro");
    Str ("experiment", fst);
    Any_list ("records", fun (_, records) -> Json.List records);
  ]

let document ~experiment records =
  Json.Obj
    (("schema_version", Json.Int schema_version)
    :: members (document_fields ()) (experiment, records) [])

let write_file path json =
  let oc = open_out path in
  output_string oc (Json.to_string ~pretty:true json);
  output_char oc '\n';
  close_out oc

let write_jsonl path lines =
  let oc = open_out path in
  List.iter
    (fun json ->
      output_string oc (Json.to_string json);
      output_char oc '\n')
    lines;
  close_out oc

(* ---------- validation ---------- *)

(* Field-presence/type validation of our own output: cheap enough for CI
   smoke checks and round-trip tests, strict enough to catch a renamed or
   dropped field before a downstream plotting script does.  Undeclared
   extra fields are accepted. *)

let ( let* ) r f = match r with Ok () -> f () | Error _ as e -> e

let rec all check = function
  | [] -> Ok ()
  | x :: rest ->
      let* () = check x in
      all check rest

let wrong_type name = Error (Printf.sprintf "field '%s' has wrong type" name)

let rec walk : type a. a field list -> Json.t -> (unit, string) result =
 fun fields obj -> all (fun f -> walk_field f obj) fields

and walk_field : type a. a field -> Json.t -> (unit, string) result =
 fun f obj ->
  let name = name_of f in
  match Json.member name obj with
  | None ->
      if optional f then Ok ()
      else Error (Printf.sprintf "missing field '%s'" name)
  | Some v -> check_value f name v

and check_value : type a. a field -> string -> Json.t -> (unit, string) result
    =
 fun f name v ->
  match (f, v) with
  | Opt (_, f), _ -> check_value f name v
  | On (_, f), _ -> check_value f name v
  | Int _, Json.Int _
  | Num _, (Json.Int _ | Json.Float _)
  | Str _, Json.Str _
  | Bool _, Json.Bool _
  | Any_obj _, Json.Obj _
  | Any_list _, Json.List _ ->
      Ok ()
  | Enum (_, vocab, _), Json.Str s ->
      if List.mem s vocab then Ok ()
      else Error (Printf.sprintf "field '%s' has unknown value '%s'" name s)
  | Obj (_, fields), Json.Obj _ -> walk fields v
  | Objs (_, fields, _), Json.List vs ->
      all
        (fun v ->
          match v with Json.Obj _ -> walk fields v | _ -> wrong_type name)
        vs
  | _ -> wrong_type name

let check_version obj =
  match Json.member "schema_version" obj with
  | Some (Json.Int v) when v = schema_version -> Ok ()
  | Some (Json.Int v) ->
      Error (Printf.sprintf "schema_version %d, expected %d" v schema_version)
  | _ -> Error "missing schema_version"

(* The two rules a field list cannot state: an optional field that must
   be present exactly when another field says so. *)
let cross_field_rule : type a. a kind -> Json.t -> (unit, string) result =
 fun kind obj ->
  let present_exactly_when name cond ~otherwise =
    match (cond, Json.member name obj) with
    | true, None -> Error (Printf.sprintf "missing field '%s'" name)
    | false, Some _ ->
        Error (Printf.sprintf "field '%s' present although %s" name otherwise)
    | _ -> Ok ()
  in
  match kind with
  | Check ->
      present_exactly_when "violation"
        (Json.member "violations" obj <> Some (Json.Int 0))
        ~otherwise:"violations = 0"
  | Lint ->
      present_exactly_when "reason"
        (Json.member "suppressed" obj = Some (Json.Bool true))
        ~otherwise:"suppressed is false"
  | _ -> Ok ()

let validate_record obj =
  match Json.member "record" obj with
  | Some (Json.Str name) -> (
      match List.find_opt (fun (Kind k) -> kind_name k = name) kinds with
      | None -> Error (Printf.sprintf "unknown record type '%s'" name)
      | Some (Kind kind) ->
          let* () = check_version obj in
          let* () = walk (header_fields ()) obj in
          let* () = walk (fields_of kind) obj in
          cross_field_rule kind obj)
  | _ -> Error "missing record type"

let validate_document json =
  let* () = check_version json in
  let* () = walk (document_fields ()) json in
  match Json.member "records" json with
  | Some (Json.List records) -> all validate_record records
  | _ -> Ok ()

(* ---------- collection ---------- *)

(* The collector observes Runner.on_result, so every run — whatever figure
   helper or ad-hoc path produced it — lands in the document.  Both the
   collector slot and the observer it installs are domain-local: a pool
   worker that needs local collection gets its own, and the main domain's
   document only ever contains results delivered on the main domain (its
   own runs plus the pool's canonical-order replay). *)
type collector = { mutable results : Runner.result list (* newest first *) }

let active : collector option Euno_sim.Domain_ref.t =
  Euno_sim.Domain_ref.create (fun () -> None)

let start_collecting () =
  let c = { results = [] } in
  Euno_sim.Domain_ref.set active (Some c);
  Euno_sim.Domain_ref.set Runner.on_result
    (Some (fun r -> c.results <- r :: c.results))

let collected () =
  match Euno_sim.Domain_ref.get active with
  | Some c -> List.rev c.results
  | None -> []

let stop_collecting () =
  Euno_sim.Domain_ref.set active None;
  Euno_sim.Domain_ref.set Runner.on_result None

(* Write everything collected since [start_collecting]:
   [json] gets the full schema-versioned document, [snapshots] gets the
   windowed time series as JSONL (one line per window per run). *)
let flush_collected ~experiment ?json ?snapshots () =
  let results = collected () in
  (match json with
  | Some path ->
      write_file path
        (document ~experiment
           (List.mapi (fun i r -> result_to_json ~experiment ~run:i r) results))
  | None -> ());
  match snapshots with
  | Some path ->
      write_jsonl path
        (List.concat_map
           (fun (i, r) -> snapshot_lines ~experiment ~run:i r)
           (List.mapi (fun i r -> (i, r)) results))
  | None -> ()
