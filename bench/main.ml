(* Benchmark entry point, in two parts:

   1. Bechamel micro-benchmarks of the building blocks (host-side cost of
      the simulator and of each substrate's hot path), one Test.make per
      component.
   2. The full paper reproduction: every figure of the evaluation section
      and the Section 5.7 memory analysis, printed as tables
      (Euno_harness.Figures).

     dune exec bench/main.exe             # micro + all figures (~20 min)
     dune exec bench/main.exe -- --quick  # smoke-test scale
     dune exec bench/main.exe -- --micro-only
     dune exec bench/main.exe -- --figures-only
*)

open Bechamel
open Toolkit
module Memory = Euno_mem.Memory
module Linemap = Euno_mem.Linemap
module Alloc = Euno_mem.Alloc
module Machine = Euno_sim.Machine
module Api = Euno_sim.Api
module Rng = Euno_sim.Rng
module Dist = Euno_workload.Dist
module Htm = Euno_htm.Htm
module Ccm = Euno_ccm.Ccm
module Bptree = Euno_bptree.Bptree
module Euno = Eunomia.Euno_tree
module Masstree = Euno_masstree.Masstree

(* ---------- worlds reused across micro-benchmark iterations ---------- *)

type world = { mem : Memory.t; map : Linemap.t; alloc : Alloc.t }

let fresh_world () =
  let mem = Memory.create () in
  let map = Linemap.create () in
  let alloc = Alloc.create mem map in
  { mem; map; alloc }

let on_machine w f =
  Machine.run_single ~mem:w.mem ~map:w.map ~alloc:w.alloc f

(* Batched tree-operation benchmark: host nanoseconds per 100 simulated
   operations (one machine instantiation amortized across the batch). *)
let tree_op_bench name ~build ~op =
  let w = fresh_world () in
  let tree = on_machine w (fun () -> build w) in
  let counter = ref 0 in
  Test.make ~name:(name ^ " x100")
    (Staged.stage (fun () ->
         on_machine w (fun () ->
             for _ = 1 to 100 do
               incr counter;
               op tree !counter
             done)))

let micro_tests () =
  let simple name f = Test.make ~name (Staged.stage f) in
  [
    (* raw simulator effect dispatch *)
    (let w = fresh_world () in
     let addr = Alloc.alloc w.alloc ~kind:Linemap.Scratch ~words:8 in
     simple "sim: 100 read/write effects" (fun () ->
         on_machine w (fun () ->
             for i = 0 to 49 do
               Api.write addr i;
               ignore (Api.read addr)
             done)));
    (let w = fresh_world () in
     let lock = on_machine w (fun () -> Htm.alloc_lock ()) in
     let addr = Alloc.alloc w.alloc ~kind:Linemap.Scratch ~words:8 in
     simple "htm: one-write elided txn x100" (fun () ->
         on_machine w (fun () ->
             for _ = 1 to 100 do
               Htm.atomic ~lock (fun () -> Api.write addr 1)
             done)));
    (let rng = Rng.create 1 in
     simple "rng: splitmix64 draw" (fun () -> ignore (Rng.next rng)));
    (let d = Dist.create (Dist.Zipfian 0.99) ~n:1_000_000 ~seed:3 in
     simple "workload: zipfian(0.99) sample" (fun () -> ignore (Dist.next d)));
    (let d = Dist.create (Dist.Self_similar 0.2) ~n:1_000_000 ~seed:4 in
     simple "workload: self-similar sample" (fun () -> ignore (Dist.next d)));
    tree_op_bench "bptree: sequential put"
      ~build:(fun w -> Bptree.create ~fanout:16 ~map:w.map ())
      ~op:(fun t i -> Bptree.put t (i * 7919 mod 100_000) i);
    tree_op_bench "bptree: sequential get"
      ~build:(fun w ->
        let t = Bptree.create ~fanout:16 ~map:w.map () in
        for k = 0 to 9_999 do
          Bptree.put t k k
        done;
        t)
      ~op:(fun t i -> ignore (Bptree.get t (i mod 10_000)));
    tree_op_bench "euno: sequential put"
      ~build:(fun w -> Euno.create ~cfg:Eunomia.Config.default ~map:w.map ())
      ~op:(fun t i -> Euno.put t (i * 7919 mod 100_000) i);
    tree_op_bench "euno: sequential get"
      ~build:(fun w ->
        let t = Euno.create ~cfg:Eunomia.Config.default ~map:w.map () in
        for k = 0 to 9_999 do
          Euno.put t k k
        done;
        t)
      ~op:(fun t i -> ignore (Euno.get t (i mod 10_000)));
    tree_op_bench "masstree: sequential get"
      ~build:(fun w ->
        let t = Masstree.create ~fanout:16 ~map:w.map () in
        for k = 0 to 9_999 do
          Masstree.put t k k
        done;
        t)
      ~op:(fun t i -> ignore (Masstree.get t (i mod 10_000)));
    (let w = fresh_world () in
     let c =
       on_machine w (fun () ->
           let base = Alloc.alloc w.alloc ~kind:Linemap.Lock ~words:8 in
           Ccm.make ~base ~mode_addr:(base + 7) ~capacity:15)
     in
     simple "ccm: lock+mark+unlock slot x100" (fun () ->
         on_machine w (fun () ->
             for _ = 1 to 100 do
               let slot = Ccm.hash c 12345 in
               Ccm.lock_slot c slot;
               ignore (Ccm.marked c slot);
               Ccm.unlock_slot c slot
             done)));
  ]

(* Runs every micro-benchmark and returns [(name, host ns/call)] for the
   machine-readable BENCH_results.json record stream. *)
let run_micro () =
  print_endline "== Micro-benchmarks (host ns per simulated call) ==";
  let instances = Instance.[ monotonic_clock ] in
  let cfg =
    Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.5) ~kde:(Some 1000) ()
  in
  let estimates = ref [] in
  List.iter
    (fun test ->
      let results = Benchmark.all cfg instances test in
      let ols =
        Analyze.all
          (Analyze.ols ~bootstrap:0 ~r_square:true
             ~predictors:[| Measure.run |])
          Instance.monotonic_clock results
      in
      Hashtbl.iter
        (fun name result ->
          match Analyze.OLS.estimates result with
          | Some [ est ] ->
              Printf.printf "  %-36s %10.0f ns/call\n%!" name est;
              estimates := (name, est) :: !estimates
          | Some _ | None -> Printf.printf "  %-36s (no estimate)\n%!" name)
        ols)
    (micro_tests ());
  print_newline ();
  List.rev !estimates

(* ---------- perf-regression probes ---------- *)

(* Fixed-scale engine-throughput probes for the perf gate
   (bin/euno_perf_check): simulated tree operations per host wall-second,
   one probe per (tree, zipfian theta), plus the engine micro timings.
   The scale is deliberately independent of --quick so every
   BENCH_results.json is comparable against the committed
   bench/baseline.json; wall time covers the whole run (world build,
   preload, measurement), making the probe an end-to-end engine-cost
   proxy rather than a paper metric. *)

let perf_trees =
  [
    ("bptree-htm", Euno_harness.Kv.Htm_bptree);
    ("euno", Euno_harness.Kv.Euno Eunomia.Config.default);
    ("masstree", Euno_harness.Kv.Masstree);
  ]

let perf_thetas = [ 0.2; 0.8; 0.99 ]

(* Micro timings that double as perf probes: the two engine hot paths the
   fast-path work targets. *)
let perf_micro_names =
  [ "sim: 100 read/write effects"; "htm: one-write elided txn x100" ]

(* One probe: (name, strategy name, capacity-model name, ops/wall-sec). *)
let perf_probe ~tname ~kind ~theta ~policy ~capacity ~name_fmt =
  let workload =
    {
      Euno_harness.Runner.default_workload with
      dist = Euno_workload.Dist.Zipfian theta;
      key_space = 16_384;
    }
  in
  let setup =
    {
      Euno_harness.Runner.default_setup with
      threads = 4;
      ops_per_thread = 5_000;
      seed = 7;
      cost = Euno_sim.Cost.with_capacity Euno_sim.Cost.default capacity;
      policy;
      check_after = false;
    }
  in
  let t0 = Unix.gettimeofday () in
  let r = Euno_harness.Runner.run kind workload setup in
  let dt = Unix.gettimeofday () -. t0 in
  let ops_per_sec = float_of_int r.Euno_harness.Runner.r_ops /. dt in
  let name = name_fmt tname theta in
  Printf.printf "  %-44s %12.0f ops/s\n%!" name ops_per_sec;
  (name, r.Euno_harness.Runner.r_strategy, r.r_capacity_model, ops_per_sec)

let run_perf () =
  print_endline "== Perf probes (simulated ops per host wall-second) ==";
  (* The historical grid: every tree x theta under the default policy
     (elision) and nominal capacity, names unchanged so old baselines
     stay comparable. *)
  let default_grid =
    List.concat_map
      (fun (tname, kind) ->
        List.map
          (fun theta ->
            perf_probe ~tname ~kind ~theta ~policy:None
              ~capacity:Euno_sim.Cost.nominal
              ~name_fmt:(Printf.sprintf "tree:%s:zipf-%.2f"))
          perf_thetas)
      perf_trees
  in
  (* The (strategy x capacity-model) sweep on the HTM-heaviest tree at
     mid contention: one probe per combination, so a fallback-strategy or
     capacity-model regression cannot hide behind the default cell. *)
  let sweep_grid =
    List.concat_map
      (fun strategy ->
        List.map
          (fun (_, capacity) ->
            perf_probe ~tname:"bptree-htm" ~kind:Euno_harness.Kv.Htm_bptree
              ~theta:0.8
              ~policy:(Some { Htm.default_policy with Htm.strategy })
              ~capacity
              ~name_fmt:(fun tname theta ->
                Printf.sprintf "sweep:%s:zipf-%.2f:%s:%s" tname theta
                  (Htm.strategy_name strategy)
                  capacity.Euno_sim.Cost.cm_name))
          Euno_sim.Cost.capacity_models)
      Htm.all_strategies
  in
  print_newline ();
  default_grid @ sweep_grid

(* Campaign-runner probe: end-to-end host cost of a campaign cell (world
   build, preload, run, merge) through the Pool executor's sequential
   path, over a fixed 9-cell grid.  Guards the pool plumbing and the
   domain-local state conversions (Sev, counters, collectors) against
   host-side regressions that the per-op probes amortize away.  Fixed
   scale, independent of --quick, like the other perf probes. *)
let run_campaign_probe () =
  let cells =
    List.concat_map
      (fun (_, kind) -> List.map (fun theta -> (kind, theta)) perf_thetas)
      perf_trees
  in
  let workload theta =
    {
      Euno_harness.Runner.default_workload with
      dist = Euno_workload.Dist.Zipfian theta;
      key_space = 4_096;
    }
  in
  let setup =
    {
      Euno_harness.Runner.default_setup with
      threads = 4;
      ops_per_thread = 1_000;
      seed = 7;
      check_after = false;
    }
  in
  let t0 = Unix.gettimeofday () in
  let rs =
    Euno_harness.Pool.map ~domains:1
      (fun (kind, theta) ->
        (Euno_harness.Runner.run kind (workload theta) setup)
          .Euno_harness.Runner.r_ops)
      cells
  in
  let dt = Unix.gettimeofday () -. t0 in
  ignore (List.fold_left ( + ) 0 rs);
  let v = float_of_int (List.length cells) /. dt in
  let name = "campaign:quick-grid" in
  Printf.printf "  %-44s %12.2f cells/s\n\n%!" name v;
  (name, "elision", "nominal", v)

(* ---------- figure reproduction ---------- *)

let run_figures ?domains scale =
  print_endline "== Paper reproduction: every figure of the evaluation ==";
  Printf.printf
    "(key space %d, %d ops/thread, up to %d simulated threads, seed %d)\n\n%!"
    scale.Euno_harness.Figures.key_space
    scale.Euno_harness.Figures.ops_per_thread
    scale.Euno_harness.Figures.max_threads scale.Euno_harness.Figures.seed;
  Euno_harness.Figures.all ?domains scale

(* ---------- machine-readable output ---------- *)

module Json = Euno_stats.Json
module Report = Euno_harness.Report

let micro_record (name, ns) =
  Json.Obj
    [
      ("schema_version", Json.Int Report.schema_version);
      ("record", Json.Str "micro");
      ("name", Json.Str name);
      ("ns_per_call", Json.Float ns);
    ]

let perf_record ~metric (name, strategy, capacity_model, value) =
  Euno_harness.Perf_gate.probe_to_json
    {
      Euno_harness.Perf_gate.p_name = name;
      p_strategy = strategy;
      p_capacity_model = capacity_model;
      p_metric = metric;
      p_value = value;
    }

let () =
  let quick = Array.exists (( = ) "--quick") Sys.argv in
  let micro_only = Array.exists (( = ) "--micro-only") Sys.argv in
  let figures_only = Array.exists (( = ) "--figures-only") Sys.argv in
  (* A value-taking flag given as the last argument is a usage error, not
     an absent flag: silently falling back to the default would write
     results somewhere the caller did not ask for. *)
  let flag_value name =
    let n = Array.length Sys.argv in
    let rec find i =
      if i >= n then None
      else if Sys.argv.(i) <> name then find (i + 1)
      else if i + 1 < n then Some Sys.argv.(i + 1)
      else begin
        Printf.eprintf
          "bench: %s needs a value\n\
           usage: main.exe [--quick] [--micro-only | --figures-only] [--json \
           PATH] [--domains N]\n"
          name;
        exit 2
      end
    in
    find 1
  in
  let json_path =
    Option.value (flag_value "--json") ~default:"BENCH_results.json"
  in
  (* Parallelizes the deterministic figures phase only; the wall-clock
     micro/perf probes always run sequentially on the main domain. *)
  let domains =
    match flag_value "--domains" with
    | None -> None
    | Some s -> (
        match int_of_string_opt s with
        | Some d when d >= 1 -> Some d
        | _ ->
            prerr_endline "bench: --domains must be a positive integer";
            exit 2)
  in
  (* Surface a malformed EUNO_DOMAINS as a usage error up front, not an
     uncaught exception from inside the figures phase. *)
  (if domains = None then
     match Euno_harness.Pool.default_domains () with
     | _ -> ()
     | exception Invalid_argument msg ->
         prerr_endline ("bench: " ^ msg);
         exit 2);
  let scale =
    if quick then Euno_harness.Figures.quick_scale
    else Euno_harness.Figures.default_scale
  in
  let micro = if not figures_only then run_micro () else [] in
  let perf =
    if figures_only then []
    else
      List.map (perf_record ~metric:"sim_ops_per_wall_sec") (run_perf ())
      @ [
          perf_record ~metric:"campaign_cells_per_wall_sec"
            (run_campaign_probe ());
        ]
      @ List.filter_map
          (fun (n, ns) ->
            if List.mem n perf_micro_names then
              Some
                (perf_record ~metric:"ns_per_call"
                   ("micro:" ^ n, "elision", "nominal", ns))
            else None)
          micro
  in
  Report.start_collecting ();
  if not micro_only then run_figures ?domains scale;
  let records =
    List.map micro_record micro
    @ perf
    @ List.mapi
        (fun i r -> Report.result_to_json ~run:i r)
        (Report.collected ())
  in
  Report.stop_collecting ();
  Report.write_file json_path (Report.document ~experiment:"bench" records);
  Printf.printf "wrote %s (%d records, schema v%d)\n%!" json_path
    (List.length records) Report.schema_version
