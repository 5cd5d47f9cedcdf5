(* Determinism regressions: the engine must reproduce the recorded golden
   outputs byte for byte.

   The fixtures under test/golden/ were recorded before the fast-path
   engine rewrite (flat versioned read/write sets, array line table,
   indexed scheduler), so these tests prove the optimized engine is
   observationally identical: same trace-event stream, same abort-cause
   accounting, same clocks.  To re-record after an *intentional* semantic
   change: dune exec test/gen_golden.exe -- test/golden *)

open Util

let read_lines path =
  let ic = open_in path in
  let rec go acc =
    match input_line ic with
    | line -> go (line :: acc)
    | exception End_of_file ->
        close_in ic;
        List.rev acc
  in
  go []

let check_identical name expected actual =
  check_int
    (Printf.sprintf "%s: line count" name)
    (List.length expected) (List.length actual);
  List.iteri
    (fun i (e, a) ->
      if e <> a then
        Alcotest.failf "%s: first divergence at line %d:\n  golden:   %s\n  measured: %s"
          name (i + 1) e a)
    (List.combine expected actual)

let scenario_case (name, scenario) =
  Alcotest.test_case name `Slow (fun () ->
      let out = scenario ~traced:true in
      let golden file = read_lines (Filename.concat "golden" file) in
      check_identical
        (name ^ " trace")
        (golden (Golden_scenarios.trace_file name))
        out.Golden_scenarios.trace;
      check_identical
        (name ^ " summary")
        (golden (Golden_scenarios.summary_file name))
        out.Golden_scenarios.summary)

(* Two in-process runs of the same scenario must also agree with each
   other (no hidden host state, e.g. physical hashing or GC effects). *)
let rerun_stable () =
  let name, scenario = List.hd Golden_scenarios.all in
  let a = scenario ~traced:true in
  let b = scenario ~traced:true in
  check_identical (name ^ " rerun trace") a.Golden_scenarios.trace
    b.Golden_scenarios.trace;
  check_identical (name ^ " rerun summary") a.Golden_scenarios.summary
    b.Golden_scenarios.summary

(* The same scenario with nothing subscribed must account exactly
   as the traced run recorded: observation never perturbs the run. *)
let untraced_case (name, scenario) =
  Alcotest.test_case (name ^ " untraced") `Slow (fun () ->
      let golden =
        read_lines (Filename.concat "golden" (Golden_scenarios.summary_file name))
      in
      check_identical (name ^ " untraced summary") golden
        (scenario ~traced:false).Golden_scenarios.summary)

let suite =
  List.map scenario_case Golden_scenarios.all
  @ List.map untraced_case Golden_scenarios.all
  @ [ Alcotest.test_case "rerun is bit-stable" `Quick rerun_stable ]
