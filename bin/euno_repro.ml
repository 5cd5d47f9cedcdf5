(* Command-line entry point: regenerate any figure of the paper, or run
   one of the chaos / san / check / crash campaigns.

     euno_repro fig8                    # paper-scale defaults
     euno_repro fig10 --quick          # smoke-test scale
     euno_repro all --keys 15 --ops 5000 --threads 20 --seed 7
     euno_repro check --mutations      # hunt the seeded atomicity bugs
     euno_repro check --repro 'tree=…' # replay one counterexample
*)

let () = Printexc.record_backtrace true

open Cmdliner
module Figures = Euno_harness.Figures
module Report = Euno_harness.Report
module Htm = Euno_htm.Htm
module Cost = Euno_sim.Cost

let experiment =
  (* "chaos", "san", "check" and "crash" are not figures: the
     fault-injection campaign, the sanitizer sweep, the
     linearizability-checking campaign and the crash-recovery campaign
     are handled by their own drivers below. *)
  let names =
    List.map fst Figures.by_name @ [ "chaos"; "san"; "check"; "crash" ]
  in
  let doc =
    Printf.sprintf "Experiment to run: one of %s." (String.concat ", " names)
  in
  Arg.(
    required
    & pos 0 (some (enum (List.map (fun n -> (n, n)) names))) None
    & info [] ~docv:"EXPERIMENT" ~doc)

let quick =
  Arg.(value & flag & info [ "quick" ] ~doc:"Small smoke-test scale.")

let keys_log2 =
  Arg.(
    value
    & opt (some int) None
    & info [ "keys" ] ~docv:"LOG2"
        ~doc:"Key-space size as a power of two (default 16, i.e. 64Ki keys).")

let ops =
  Arg.(
    value
    & opt (some int) None
    & info [ "ops" ] ~docv:"N" ~doc:"Operations per simulated thread.")

let max_threads =
  Arg.(
    value
    & opt (some int) None
    & info [ "threads" ] ~docv:"N" ~doc:"Cap on simulated thread counts (max 20).")

let seed =
  Arg.(value & opt int 42 & info [ "seed" ] ~docv:"SEED" ~doc:"Simulation seed.")

let charts =
  Arg.(
    value & flag
    & info [ "charts" ] ~doc:"Render ASCII charts after the tables.")

let csv =
  Arg.(
    value
    & opt (some string) None
    & info [ "csv" ] ~docv:"DIR"
        ~doc:"Also write every table to DIR/<name>.csv.")

let json =
  Arg.(
    value
    & opt (some string) None
    & info [ "json" ] ~docv:"PATH"
        ~doc:
          "Write every run's result as a schema-versioned JSON document to \
           $(docv).")

let snapshots =
  Arg.(
    value
    & opt (some string) None
    & info [ "snapshots" ] ~docv:"PATH"
        ~doc:
          "Write windowed counter time series (one JSON object per sampling \
           window per run) to $(docv) as JSONL.  Implies periodic sampling; \
           see $(b,--window).")

let window =
  Arg.(
    value
    & opt (some int) None
    & info [ "window" ] ~docv:"CYCLES"
        ~doc:
          "Counter sampling window in simulated cycles (default 2000 when \
           $(b,--snapshots) or $(b,--json) is given).")

let strategy =
  let strat_conv =
    Arg.enum (List.map (fun s -> (Htm.strategy_name s, s)) Htm.all_strategies)
  in
  let doc =
    Printf.sprintf
      "HTM fallback strategy for every run: one of %s.  Default: the trees' \
       own elision policy.  For $(b,san) and $(b,check) this restricts the \
       sweep to the named strategy instead of covering all of them."
      (String.concat ", " Htm.strategy_names)
  in
  Arg.(value & opt (some strat_conv) None & info [ "strategy" ] ~docv:"STRATEGY" ~doc)

let capacity =
  let cap_conv = Arg.enum Cost.capacity_models in
  let doc =
    Printf.sprintf
      "Capacity/conflict model of the simulated RTM: one of %s (default \
       nominal).  For $(b,san) this restricts the sweep to the named model."
      (String.concat ", " Cost.capacity_model_names)
  in
  Arg.(value & opt (some cap_conv) None & info [ "capacity" ] ~docv:"MODEL" ~doc)

let domains =
  Arg.(
    value
    & opt (some int) None
    & info [ "domains" ] ~docv:"N"
        ~doc:
          "Fan independent campaign cells across $(docv) worker domains.  \
           Output is byte-identical to the sequential run at any value.  \
           Default: the EUNO_DOMAINS environment variable, else 1 \
           (sequential).")

let mutations =
  Arg.(
    value & flag
    & info [ "mutations" ]
        ~doc:
          "For $(b,check): hunt the seeded Testonly atomicity bugs instead of \
           sweeping the clean trees; non-zero exit if one survives \
           undetected.  For $(b,crash): validate the recovery checker \
           against the three seeded recovery mutants instead of running the \
           tree campaign; non-zero exit unless every mutant is caught with \
           the expected finding kind and the unmutated system is clean on \
           the same cell.")

let repro =
  Arg.(
    value
    & opt (some string) None
    & info [ "repro" ] ~docv:"DESCRIPTOR"
        ~doc:
          "For $(b,check): replay one counterexample descriptor (the \
           $(b,repro:) line a violation prints) and exit 0 iff it \
           reproduces.")

let usage_error msg =
  prerr_endline ("euno_repro: " ^ msg);
  exit 2

(* Write a campaign's records as one document when --json asked for it. *)
let write_document ~experiment json records =
  match json with
  | Some path ->
      Report.write_file path (Report.document ~experiment records);
      Printf.printf "wrote %s\n%!" path
  | None -> ()

(* Crash-recovery campaign: for each tree, calibrate a fault-free
   horizon, kill the machine mid-run, then restore the latest
   epoch-consistent snapshot, replay the durable log suffix and re-run
   the lost suffix; the recovery checker validates the result.
   Deterministic per (plan, seed).  Non-zero exit on any finding. *)
let run_crash quick keys_log2 ops max_threads seed json mutations domains =
  let module Dura_run = Euno_harness.Dura_run in
  if mutations then begin
    print_endline
      "Recovery-mutation validation: skip-fallback-log, skip-lock-reset, \
       snapshot-while-pinned";
    let outs = Dura_run.run_mutants ~base_seed:seed () in
    Dura_run.print_mutants outs;
    if
      not
        (List.for_all
           (fun o -> o.Dura_run.m_caught && o.Dura_run.m_clean_on_fixed)
           outs)
    then exit 1
  end
  else begin
    let base =
      if quick then Dura_run.quick_config else Dura_run.default_config
    in
    let cfg =
      {
        base with
        Dura_run.seed;
        key_space =
          (match keys_log2 with
          | Some k -> 1 lsl k
          | None -> base.Dura_run.key_space);
        ops_per_thread =
          Option.value ops ~default:base.Dura_run.ops_per_thread;
        threads =
          min 20 (Option.value max_threads ~default:base.Dura_run.threads);
      }
    in
    print_endline
      "Crash campaign: epoch-consistent snapshots + committed-op log; power \
       failure mid-run, then restore / replay / re-run and check";
    let cells = Dura_run.run_all ~domains cfg in
    Dura_run.print_cells cells;
    write_document ~experiment:"crash" json
      (List.map (Report.record ~experiment:"crash" Report.Recovery) cells);
    if List.exists (fun c -> c.Dura_run.d_findings <> []) cells then exit 1
  end

(* Fault-injection campaign over the four trees: calibrate, inject,
   validate, report phase throughputs and recovery time.  Deterministic
   for a fixed seed, so two runs of the same command produce identical
   JSON. *)
let run_chaos quick keys_log2 ops max_threads seed json domains =
  let module Chaos = Euno_harness.Chaos in
  let base = if quick then Chaos.quick_config else Chaos.default_config in
  let cfg =
    {
      base with
      Chaos.seed;
      key_space =
        (match keys_log2 with
        | Some k -> 1 lsl k
        | None -> base.Chaos.key_space);
      ops_per_thread = Option.value ops ~default:base.Chaos.ops_per_thread;
      threads = min 20 (Option.value max_threads ~default:base.Chaos.threads);
    }
  in
  print_endline
    "Chaos campaign: spurious storm, capacity squeeze, preemption, \
     lock-holder stall, clock skew, alloc pressure";
  let outs = Chaos.run_all ~domains cfg in
  Chaos.print_outcomes outs;
  write_document ~experiment:"chaos" json
    (List.map (Report.record ~experiment:"chaos" Report.Chaos) outs)

(* EunoSan lint sweep: every tree under zipf 0.2/0.8/0.99 plus the chaos
   campaign, sanitizer armed.  Non-zero exit when anything is flagged. *)
let run_san quick seed json strategy capacity domains =
  let module San_run = Euno_harness.San_run in
  print_endline
    "EunoSan sweep: race / lockset / atomicity / txn-hygiene lint over all \
     trees";
  let outs =
    San_run.run ~quick ~seed
      ?strategies:(Option.map (fun s -> [ s ]) strategy)
      ?capacities:(Option.map (fun c -> [ c ]) capacity)
      ~domains ()
  in
  San_run.print stdout outs;
  write_document ~experiment:"san" json
    (List.mapi (fun run o -> Report.record ~experiment:"san" ~run Report.San o)
       outs);
  if not (San_run.clean outs) then exit 1

(* Replay one EunoCheck counterexample descriptor: exit 0 exactly when
   the run is again non-linearizable. *)
let replay_check descriptor =
  let module Check_run = Euno_harness.Check_run in
  let module History = Euno_harness.History in
  let config, policy =
    match Check_run.repro_of_string descriptor with
    | parsed -> parsed
    | exception Invalid_argument msg ->
        usage_error ("bad --repro descriptor: " ^ msg)
  in
  Printf.printf "replaying %s\n%!" (Check_run.config_to_string config);
  let x = Check_run.execute config ~policy in
  match x.Check_run.x_verdict with
  | History.Illegal core ->
      Printf.printf "REPRODUCED: non-linearizable core\n%s\n"
        (History.to_string core)
  | History.Linearizable _ ->
      Printf.printf "did not reproduce: %d events linearizable\n"
        x.Check_run.x_events;
      exit 1

(* EunoCheck sweep: adversarial schedule exploration plus linearizability
   checking over every tree.  Non-zero exit on any non-linearizable
   history — which here would be a real tree (or checker) bug, since the
   Testonly mutations stay off.  With --mutations the expectation is
   inverted: each seeded Testonly bug is hunted on the tree and strategy
   it lives in, and one that survives undetected is the failure. *)
let run_check quick seed json strategy mutations domains =
  let module Check_run = Euno_harness.Check_run in
  let outs =
    if mutations then begin
      print_endline
        "EunoCheck mutation campaign: every seeded Testonly bug must surface \
         as a non-linearizable history";
      Check_run.hunt_mutations ~seed ~domains ()
    end
    else begin
      print_endline
        "EunoCheck sweep: adversarial schedule exploration + \
         linearizability checking over all trees";
      Check_run.sweep ~quick ~seed
        ?strategies:(Option.map (fun s -> [ s ]) strategy)
        ~domains ()
    end
  in
  Check_run.print stdout outs;
  write_document ~experiment:"check" json
    (List.mapi
       (fun run o -> Report.record ~experiment:"check" ~run Report.Check o)
       outs);
  let failed =
    if mutations then begin
      let missed = List.filter (fun o -> o.Check_run.o_violation = None) outs in
      List.iter
        (fun o ->
          Printf.printf "MISSED: mutation %s survived %d runs undetected\n"
            o.Check_run.o_config.Check_run.mutation o.Check_run.o_runs)
        missed;
      missed <> []
    end
    else not (Check_run.clean outs)
  in
  if failed then exit 1

let run_experiment name quick keys_log2 ops max_threads seed charts csv json
    snapshots window strategy capacity mutations repro domains =
  if mutations && name <> "check" && name <> "crash" then
    usage_error "--mutations applies to check and crash only";
  if repro <> None && name <> "check" then
    usage_error "--repro applies to check only";
  (* Explicit --domains wins over the EUNO_DOMAINS environment knob. *)
  let domains =
    match domains with
    | Some d ->
        if d < 1 then usage_error "--domains must be at least 1";
        d
    | None -> (
        match Euno_harness.Pool.default_domains () with
        | d -> d
        | exception Invalid_argument msg -> usage_error msg)
  in
  if name = "san" then run_san quick seed json strategy capacity domains
  else if name = "check" then
    match repro with
    | Some descriptor -> replay_check descriptor
    | None -> run_check quick seed json strategy mutations domains
  else if name = "chaos" then
    run_chaos quick keys_log2 ops max_threads seed json domains
  else if name = "crash" then
    run_crash quick keys_log2 ops max_threads seed json mutations domains
  else begin
  (match csv with
  | Some dir ->
      if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
      Figures.csv_dir := Some dir
  | None -> ());
  (match window with
  | Some w when w < 1 -> usage_error "--window must be at least 1 cycle"
  | _ -> ());
  let telemetry = json <> None || snapshots <> None in
  let base = if quick then Figures.quick_scale else Figures.default_scale in
  let scale =
    {
      Figures.key_space =
        (match keys_log2 with
        | Some k -> 1 lsl k
        | None -> base.Figures.key_space);
      ops_per_thread = Option.value ops ~default:base.Figures.ops_per_thread;
      max_threads =
        min 20 (Option.value max_threads ~default:base.Figures.max_threads);
      seed;
      charts;
      snapshot_window =
        (match window with
        | Some w -> Some w
        | None -> if telemetry then Some 2000 else None);
      strategy;
      capacity;
    }
  in
  if telemetry then Report.start_collecting ();
  let f = List.assoc name Figures.by_name in
  f ~domains scale;
  if telemetry then begin
    (* strategy-sweep's own per-cell "sweep" records are the document the
       campaign is about; the generic per-run "result" records would bury
       them, so the sweep document replaces them (snapshots still flow). *)
    if name = "strategy-sweep" then begin
      Report.flush_collected ~experiment:name ?snapshots ();
      match json with
      | Some path ->
          Report.write_file path
            (Report.document ~experiment:name (Figures.sweep_records ()))
      | None -> ()
    end
    else Report.flush_collected ~experiment:name ?json ?snapshots ();
    Report.stop_collecting ();
    (match json with
    | Some path -> Printf.printf "wrote %s\n%!" path
    | None -> ());
    match snapshots with
    | Some path -> Printf.printf "wrote %s\n%!" path
    | None -> ()
  end
  end

let cmd =
  let doc =
    "Reproduce the evaluation of 'Eunomia: Scaling Concurrent Search Trees \
     under Contention Using HTM' (PPoPP'17) on a simulated RTM multicore."
  in
  Cmd.v
    (Cmd.info "euno_repro" ~version:"1.0.0" ~doc)
    Term.(
      const run_experiment $ experiment $ quick $ keys_log2 $ ops $ max_threads
      $ seed $ charts $ csv $ json $ snapshots $ window $ strategy $ capacity
      $ mutations $ repro $ domains)

let () = exit (Cmd.eval cmd)
