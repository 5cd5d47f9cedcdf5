(* Tests of the telemetry schema as a whole.

   The round trip drives every record kind from inside: one real record
   per kind, printed, parsed back and validated, then stripped of each
   required field in turn, which must be rejected.

   The corpus under schema_corpus/ pins the validator from outside:
   valid/ holds one real document per record kind (trimmed), invalid/
   holds copies of those with exactly one edit each — a dropped field, a
   wrong type, an unknown value, a broken header or a broken cross-field
   rule.  Every invalid entry must be rejected, and for the reason its
   name gives: an entry is named KIND.FIELD.EDIT.json and the rejection
   message must name FIELD. *)

module Report = Euno_harness.Report
module Runner = Euno_harness.Runner
module Kv = Euno_harness.Kv
module San_run = Euno_harness.San_run
module Check_run = Euno_harness.Check_run
module Chaos = Euno_harness.Chaos
module Dura_run = Euno_harness.Dura_run
module Checker = Euno_dura.Checker
module San = Euno_san.San
module Sev = Euno_sim.Sev
module Json = Euno_stats.Json

(* ---------- round trip over every kind ---------- *)

let run =
  lazy
    (Runner.run Kv.Htm_bptree
       {
         Runner.default_workload with
         Runner.dist = Euno_workload.Dist.Zipfian 0.8;
         key_space = 1 lsl 10;
       }
       {
         Runner.default_setup with
         Runner.threads = 4;
         ops_per_thread = 150;
         snapshot_window = Some 1000;
         sanitize = true;
       })

(* A sanitizer summary with one finding: a release nobody acquired. *)
let san_summary_with_finding () =
  let c = San.create () in
  San.hook c
    { Sev.tid = 0; clock = 1; body = Sev.Note (Sev.Release (Sev.Ticket, 9)) };
  San.finish c

let lint_finding =
  {
    Eunolint.Rules.file = "lib/sim/machine.ml";
    line = 12;
    col = 4;
    rule = "determinism";
    msg = "wall-clock read in the simulated world";
  }

(* Real values of each kind, covering both sides of every optional
   field.  The match is exhaustive: a new kind needs samples here. *)
let samples : type a. a Report.kind -> a list = function
  | Report.Result -> [ Lazy.force run ]
  | Report.Window ->
      let r = Lazy.force run in
      [ (r, List.hd (Runner.windows_of_snapshots r.Runner.r_snapshots)) ]
  | Report.Sweep -> [ ("fig1", 0.8, Lazy.force run) ]
  | Report.San ->
      let r = Lazy.force run in
      let o =
        {
          San_run.o_tree = r.Runner.r_name;
          o_workload = "zipf-0.80";
          o_strategy = r.Runner.r_strategy;
          o_capacity_model = r.Runner.r_capacity_model;
          o_threads = r.Runner.r_threads;
          o_seed = 42;
          o_summary = Option.get r.Runner.r_san;
        }
      in
      [ o; { o with San_run.o_summary = san_summary_with_finding () } ]
  | Report.Check ->
      let base = Check_run.base_config Kv.Htm_bptree in
      [
        Check_run.hunt ~budget:1 base;
        Check_run.hunt
          {
            base with
            Check_run.mutation = "htm-skip-subscription";
            seed = 42;
          };
      ]
  | Report.Chaos ->
      [
        Chaos.run_campaign Kv.Htm_bptree
          {
            Chaos.default_config with
            Chaos.threads = 4;
            ops_per_thread = 80;
            key_space = 512;
            checkpoints = 2;
            windows = 10;
          };
      ]
  | Report.Recovery ->
      let c =
        Dura_run.run_campaign Kv.Htm_bptree
          {
            Dura_run.quick_config with
            Dura_run.threads = 4;
            ops_per_thread = 200;
            key_space = 512;
            checkpoints = 2;
          }
      in
      let lost = { Checker.f_kind = Checker.Lost_ack; f_detail = "key 12" } in
      [ c; { c with Dura_run.d_findings = [ lost ] } ]
  | Report.Perf ->
      [
        {
          Report.p_name = "bptree-htm:zipf-0.99";
          p_strategy = "lockfree";
          p_capacity_model = "limited-read";
          p_metric = "sim_ops_per_wall_sec";
          p_value = 1.5e6;
        };
      ]
  | Report.Micro -> [ ("sim.effect_floor", 12.5) ]
  | Report.Lint -> [ (lint_finding, None); (lint_finding, Some "a reason") ]

let without name = function
  | Json.Obj fields -> Json.Obj (List.filter (fun (k, _) -> k <> name) fields)
  | j -> j

let round_trip kind () =
  let values = samples kind in
  Alcotest.(check bool) "has samples" true (values <> []);
  List.iter
    (fun v ->
      let record = Report.record ~experiment:"test" ~run:0 kind v in
      let parsed =
        match Json.of_string (Json.to_string ~pretty:true record) with
        | Ok j -> j
        | Error e -> Alcotest.failf "reparse failed: %s" e
      in
      Alcotest.(check string)
        "parse is the inverse of print" (Json.to_string record)
        (Json.to_string parsed);
      (match Report.validate_record parsed with
      | Ok () -> ()
      | Error e -> Alcotest.failf "record rejected: %s" e);
      List.iter
        (fun name ->
          match Report.validate_record (without name parsed) with
          | Error _ -> ()
          | Ok () -> Alcotest.failf "accepted a record without '%s'" name)
        (Report.required_fields kind))
    values

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let corpus dir =
  let dir = Filename.concat "schema_corpus" dir in
  Sys.readdir dir |> Array.to_list
  |> List.filter (fun f -> Filename.check_suffix f ".json")
  |> List.sort String.compare
  |> List.map (fun f ->
         match Json.of_string (read_file (Filename.concat dir f)) with
         | Ok json -> (f, json)
         | Error e -> Alcotest.failf "%s: parse error: %s" f e)

let test_valid_accepted () =
  let entries = corpus "valid" in
  Alcotest.(check bool) "corpus has valid entries" true (entries <> []);
  List.iter
    (fun (f, json) ->
      match Report.validate_document json with
      | Ok () -> ()
      | Error e -> Alcotest.failf "%s rejected: %s" f e)
    entries

let test_malformed_rejected () =
  let entries = corpus "invalid" in
  Alcotest.(check bool) "corpus has malformed entries" true (entries <> []);
  List.iter
    (fun (f, json) ->
      let field =
        match String.split_on_char '.' f with
        | [ _kind; field; _edit; "json" ] -> field
        | _ -> Alcotest.failf "%s: expected KIND.FIELD.EDIT.json" f
      in
      match Report.validate_document json with
      | Ok () -> Alcotest.failf "%s accepted" f
      | Error e ->
          if not (Util.contains ~sub:field e) then
            Alcotest.failf "%s rejected for another reason: %s" f e)
    entries

let suite =
  List.map
    (fun (Report.Kind kind) ->
      Alcotest.test_case
        ("round-trip: " ^ Report.kind_name kind)
        `Quick (round_trip kind))
    Report.kinds
  @ [
      Alcotest.test_case "schema corpus: valid accepted" `Quick
        test_valid_accepted;
      Alcotest.test_case "schema corpus: malformed rejected" `Quick
        test_malformed_rejected;
    ]
