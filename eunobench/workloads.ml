(* The four workloads, their trials, and repeated runs of them.

   A trial builds a fresh simulated world, preloads it, runs the measured
   phase, reduces the machine counters and emits a record, timing each
   phase on the host.  Everything the benchmark drives is a public
   function of the program's libraries; the op streams are generated here,
   from the seed, before any timed phase starts. *)

module Machine = Euno_sim.Machine
module Api = Euno_sim.Api
module Cost = Euno_sim.Cost
module Memory = Euno_mem.Memory
module Linemap = Euno_mem.Linemap
module Alloc = Euno_mem.Alloc
module Dist = Euno_workload.Dist
module Opgen = Euno_workload.Opgen
module Htm = Euno_htm.Htm
module Kv = Euno_harness.Kv
module Runner = Euno_harness.Runner
module Pool = Euno_harness.Pool
module Report = Euno_harness.Report
module Json = Euno_stats.Json
module Summary = Euno_stats.Summary

(* One tree under one op stream per simulated thread. *)
type single = {
  kind : Kv.kind;
  dist : Dist.spec;
  get_pct : int;  (** the rest are puts *)
  threads : int;
  ops_per_thread : int;
  key_space : int;
}

(* The campaign path: [Runner.run] over every tree x strategy x capacity
   model x theta cell. *)
type grid = { g_threads : int; g_ops_per_thread : int; g_key_space : int }

type shape = Single of single | Grid of grid
type t = { name : string; shape : shape }

(* [smoke] shrinks every workload to a size the test suite can afford
   while keeping its shape: the same trees, distributions and cells. *)
let all ~smoke =
  let pick full small = if smoke then small else full in
  let hot kind =
    Single
      {
        kind;
        dist = Dist.Zipfian 0.99;
        get_pct = 50;
        threads = pick 16 4;
        ops_per_thread = pick 10_000 300;
        key_space = pick 65_536 1024;
      }
  in
  [
    { name = "hot-htm"; shape = hot Kv.Htm_bptree };
    { name = "hot-euno"; shape = hot (Kv.Euno Eunomia.Config.default) };
    {
      name = "uniform-large";
      shape =
        Single
          {
            kind = Kv.Masstree;
            dist = Dist.Uniform;
            get_pct = 95;
            threads = pick 4 2;
            ops_per_thread = pick 50_000 500;
            key_space = pick (1 lsl 20) 4096;
          };
    };
    {
      name = "campaign-grid";
      shape =
        Grid
          {
            g_threads = pick 8 2;
            g_ops_per_thread = pick 500 20;
            g_key_space = pick 4096 256;
          };
    };
  ]

let find ~smoke name = List.find_opt (fun w -> w.name = name) (all ~smoke)
let names = List.map (fun w -> w.name) (all ~smoke:false)

let sim_threads w =
  match w.shape with Single s -> s.threads | Grid g -> g.g_threads

(* ---------- inputs ---------- *)

(* The preloaded 90% of the key space: the hash selection [Runner.run]
   makes at its default preload, so single-run workloads start from the
   tree shape the campaign cells start from. *)
let preloaded key =
  let h = key * 0x9E3779B1 in
  (h lxor (h lsr 13)) land 1023 * 1000 / 1024 < 900

let records key_space =
  List.filter_map
    (fun k -> if preloaded k then Some (k, k) else None)
    (List.init key_space Fun.id)

let generate ~seed s =
  let mix = Opgen.read_write ~get_pct:s.get_pct in
  let stream tid =
    let dist =
      Dist.create s.dist ~n:s.key_space ~seed:((seed * 7919) + (tid * 131) + 1)
    in
    let gen = Opgen.create ~dist ~mix ~seed:((seed * 104729) + tid) () in
    let keys = Array.make s.ops_per_thread 0 in
    let vals = Array.make s.ops_per_thread Verify.get in
    for i = 0 to s.ops_per_thread - 1 do
      match Opgen.next gen with
      | Opgen.Get k -> keys.(i) <- k
      | Opgen.Put (k, _) ->
          keys.(i) <- k;
          vals.(i) <- Verify.encode ~tid ~i
      | Opgen.Scan _ | Opgen.Delete _ | Opgen.Rmw _ ->
          invalid_arg "Workloads.generate: a get/put mix produced another op"
    done;
    (keys, vals)
  in
  let streams = Array.init s.threads stream in
  { Verify.keys = Array.map fst streams; vals = Array.map snd streams }

(* ---------- simulated results ---------- *)

(* Machine counters summed over a run (or over the cells of a campaign),
   in counts, so ratios are taken once over the whole run. *)
type counts = {
  ops : float;
  accesses : float;
  commits : float;
  aborts : float array;  (** by [Abort.index] *)
  wasted : float;  (** cycles in aborted transactions or fallback queueing *)
  lock_wait : float;
  cpu : float;  (** threads x elapsed cycles *)
  fallbacks : float;
  retries : float;
  fast_path_wins : float;
  middle_path_wins : float;
  software_path_wins : float;
  helped_ops : float;
  consistency_retries : float;
  live_mb : float;
  lock_mb : float;
  reserved_peak_mb : float;
}

let mb bytes = float_of_int bytes /. 1048576.0

let counts_of_machine m alloc =
  let s = Machine.aggregate m in
  let u i = float_of_int s.Machine.s_user.(i) in
  let lock_wait = u Htm.Counter.lock_wait_cycles in
  let kind_bytes k f = f (Alloc.stats_of_kind alloc k) * Memory.word_bytes in
  {
    ops = float_of_int s.Machine.s_ops;
    accesses = float_of_int s.Machine.s_accesses;
    commits = float_of_int s.Machine.s_commits;
    aborts = Array.map float_of_int s.Machine.s_aborts;
    wasted = float_of_int s.Machine.s_wasted_cycles +. lock_wait;
    lock_wait;
    cpu =
      float_of_int (Machine.n_threads m)
      *. float_of_int (max 1 (Machine.elapsed m));
    fallbacks = u Htm.Counter.fallbacks;
    retries = u Htm.Counter.retries;
    fast_path_wins = u Htm.Counter.fast_path_wins;
    middle_path_wins = u Htm.Counter.middle_path_wins;
    software_path_wins = u Htm.Counter.software_path_wins;
    helped_ops = u Htm.Counter.helped_ops;
    consistency_retries = u Eunomia.Euno_tree.Counter.consistency_retries;
    live_mb = mb (Alloc.live_bytes alloc);
    lock_mb = mb (kind_bytes Linemap.Lock (fun st -> st.Alloc.live_words));
    reserved_peak_mb =
      mb (kind_bytes Linemap.Reserved (fun st -> st.Alloc.peak_words));
  }

(* [Runner.result] reports per-op rates; scale them back to counts. *)
let counts_of_result (r : Runner.result) =
  let ops = float_of_int r.r_ops in
  let cpu = float_of_int r.r_threads *. float_of_int (max 1 r.r_cycles) in
  let n x = x *. ops in
  {
    ops;
    accesses = n r.r_instr_per_op;
    commits = n r.r_commits_per_op;
    aborts = Array.map n r.r_abort_classes;
    wasted = r.r_wasted_pct /. 100.0 *. cpu;
    lock_wait = r.r_lock_wait_pct /. 100.0 *. cpu;
    cpu;
    fallbacks = n r.r_fallbacks_per_op;
    retries = n r.r_retries_per_op;
    fast_path_wins = n r.r_fast_path_wins_per_op;
    middle_path_wins = n r.r_middle_path_wins_per_op;
    software_path_wins = n r.r_software_path_wins_per_op;
    helped_ops = n r.r_helped_ops_per_op;
    consistency_retries = n r.r_consistency_retries_per_op;
    live_mb = mb r.r_mem_live_bytes;
    lock_mb = mb r.r_mem_lock_bytes;
    reserved_peak_mb = mb r.r_mem_reserved_peak_bytes;
  }

(* Sums counts; memory footprints take the largest cell's. *)
let add_counts a b =
  {
    ops = a.ops +. b.ops;
    accesses = a.accesses +. b.accesses;
    commits = a.commits +. b.commits;
    aborts = Array.map2 ( +. ) a.aborts b.aborts;
    wasted = a.wasted +. b.wasted;
    lock_wait = a.lock_wait +. b.lock_wait;
    cpu = a.cpu +. b.cpu;
    fallbacks = a.fallbacks +. b.fallbacks;
    retries = a.retries +. b.retries;
    fast_path_wins = a.fast_path_wins +. b.fast_path_wins;
    middle_path_wins = a.middle_path_wins +. b.middle_path_wins;
    software_path_wins = a.software_path_wins +. b.software_path_wins;
    helped_ops = a.helped_ops +. b.helped_ops;
    consistency_retries = a.consistency_retries +. b.consistency_retries;
    live_mb = Float.max a.live_mb b.live_mb;
    lock_mb = Float.max a.lock_mb b.lock_mb;
    reserved_peak_mb = Float.max a.reserved_peak_mb b.reserved_peak_mb;
  }

(* Simulated results: a pure function of the seed and the program. *)
type sim = {
  mops : float;
  lat_p50 : float;
  lat_p99 : float;
  lat_tail : float;
  tail_label : string;  (** which percentile [lat_tail] is, and over what *)
  counts : counts;
  digest : string;  (** ops, cycles and abort vector, printable *)
}

let digest_hex sim = Digest.to_hex (Digest.string sim.digest)

(* ---------- host-timed trials ---------- *)

type trial = {
  setup_s : float;
  measure_s : float;
  reduce_s : float;
  emit_s : float;
  wall_s : float;
  sim_ops : int;  (** simulated ops attempted *)
  failed : int;  (** ops that raised or returned a wrong result *)
  alloc_words : float;  (** minor-heap words allocated while measuring *)
  promoted_words : float;
  major_collections : int;
  sim : sim;
}

let timed f =
  let t0 = Spans.now_s () in
  let x = f () in
  (x, Spans.now_s () -. t0)

let world () =
  let mem = Memory.create () in
  let map = Linemap.create () in
  (mem, map, Alloc.create mem map)

let fanout = 16

(* The calls [Runner.run] makes before its measured phase: a fresh world,
   the preload records, and the tree built on a frictionless one-thread
   machine. *)
let setup ~seed ?policy ~key_space kind =
  Spans.span "setup" @@ fun () ->
  let ((mem, map, alloc) as w) = Spans.span "world" world in
  let records = Spans.span "records" (fun () -> records key_space) in
  let kv =
    Spans.span "kv_build" (fun () ->
        Machine.run_single ~seed ~cost:Cost.unit_costs ~mem ~map ~alloc
          (fun () -> Kv.build ?policy ~records kind ~fanout ~map))
  in
  (w, kv)

(* Per-op client cost charged before each op, as [Runner.run] does. *)
let client_work = 25

(* A closed-loop client: each simulated thread issues its next op only
   when the previous one has returned. *)
let client (ops : Verify.ops) kv results lat tid =
  let keys = ops.keys.(tid) and vals = ops.vals.(tid) in
  let res = results.(tid) and lat = lat.(tid) in
  for i = 0 to Array.length keys - 1 do
    Api.work client_work;
    let t0 = Api.clock () in
    let k = keys.(i) and v = vals.(i) in
    (match
       if v = Verify.get then
         match kv.Kv.get k with None -> Verify.absent | Some x -> x
       else begin
         kv.Kv.put k v;
         Verify.put_done
       end
     with
    | r -> res.(i) <- r
    | exception (Euno_sim.Eff.Txn_abort _ as e) -> raise e
    | exception _ -> res.(i) <- Verify.raised);
    lat.(i) <- Api.clock () - t0;
    Api.op_done ()
  done

let tail_percentiles = [ 99.99; 99.9; 99.0; 90.0 ]

(* p50, p99 and the highest percentile with at least ten samples beyond
   it, from every op's simulated latency. *)
let latency lat =
  let all = Array.concat (Array.to_list lat) in
  let n = Array.length all in
  let s = Summary.of_array (Array.map float_of_int all) in
  let pct p = float_of_int (Summary.percentile_int s p) in
  let tail =
    Option.value ~default:50.0
      (List.find_opt
         (fun p -> float_of_int n *. (100.0 -. p) /. 100.0 >= 10.0)
         tail_percentiles)
  in
  (pct 50.0, pct 99.0, pct tail, Printf.sprintf "p%g, n=%d" tail n)

let scan_chunk = 256

(* The tree image in ascending key order, by chunked scans so the whole
   image is never held at once. *)
let iter_image kv f =
  let rec from k =
    let chunk = kv.Kv.scan ~from:k ~count:scan_chunk in
    let last = List.fold_left (fun _ (k, v) -> f k v; k) k chunk in
    if List.length chunk = scan_chunk then from (last + 1)
  in
  from 0

let verify_single ~seed s ops results (mem, map, alloc) kv =
  let n_preloaded = List.length (records s.key_space) in
  Verify.gets ops ~preloaded ~results
  + Machine.run_single ~seed ~cost:Cost.unit_costs ~mem ~map ~alloc (fun () ->
        let bad = Verify.final ops ~preloaded ~n_preloaded (iter_image kv) in
        match kv.Kv.check () with
        | () -> bad
        | exception e ->
            Printf.eprintf "Kv.check failed: %s\n%!" (Printexc.to_string e);
            bad + 1)

let abort_digest aborts =
  String.concat "," (List.map string_of_int (Array.to_list aborts))

let single_trial ~seed s =
  Spans.span "trial" @@ fun () ->
  let ops, results, lat =
    Spans.span "generate" (fun () ->
        let buf v =
          Array.init s.threads (fun _ -> Array.make s.ops_per_thread v)
        in
        (generate ~seed s, buf Verify.put_done, buf 0))
  in
  let ((((_, _, alloc) as w), kv), setup_s) =
    timed (fun () -> setup ~seed ~key_space:s.key_space s.kind)
  in
  let (m, gc), measure_s =
    timed (fun () ->
        Spans.span "measure" (fun () ->
            let g0 = Spans.gc_now () in
            let mem, map, alloc = w in
            let m =
              Spans.span "machine_create" (fun () ->
                  Machine.create ~threads:s.threads ~seed ~cost:Cost.default
                    ~mem ~map ~alloc)
            in
            Spans.span "machine_run" (fun () ->
                Machine.run m (client ops kv results lat));
            (m, Spans.gc_diff g0 (Spans.gc_now ()))))
  in
  Gc.full_major ();
  let sim, reduce_s =
    timed (fun () ->
        Spans.span "reduce" (fun () ->
            let counts =
              Spans.span "aggregate" (fun () -> counts_of_machine m alloc)
            in
            let p50, p99, tail, tail_label =
              Spans.span "latency" (fun () -> latency lat)
            in
            let ops = int_of_float counts.ops and cycles = Machine.elapsed m in
            {
              mops = Cost.mops Cost.default ~ops ~cycles;
              lat_p50 = p50;
              lat_p99 = p99;
              lat_tail = tail;
              tail_label;
              counts;
              digest =
                Printf.sprintf "ops=%d cycles=%d aborts=%s" ops cycles
                  (abort_digest (Machine.aggregate m).Machine.s_aborts);
            }))
  in
  let (), emit_s =
    timed (fun () ->
        Spans.span "emit" (fun () ->
            ignore
              (Json.to_string
                 (Json.Obj
                    [
                      ("mops", Json.Float sim.mops);
                      ("lat_p50", Json.Float sim.lat_p50);
                      ("lat_p99", Json.Float sim.lat_p99);
                      ("digest", Json.Str sim.digest);
                    ]))))
  in
  let failed =
    Spans.span "verify" (fun () -> verify_single ~seed s ops results w kv)
  in
  {
    setup_s;
    measure_s;
    reduce_s;
    emit_s;
    wall_s = setup_s +. measure_s +. reduce_s +. emit_s;
    sim_ops = s.threads * s.ops_per_thread;
    failed;
    alloc_words = gc.Spans.minor_words;
    promoted_words = gc.Spans.promoted_words;
    major_collections = gc.Spans.major_collections;
    sim;
  }

(* Every tree x fallback strategy x capacity model x theta. *)
let grid_cells =
  List.concat_map
    (fun kind ->
      List.concat_map
        (fun strategy ->
          List.concat_map
            (fun (_, cm) ->
              List.map (fun theta -> (kind, strategy, cm, theta)) [ 0.5; 0.99 ])
            Cost.capacity_models)
        Htm.all_strategies)
    Kv.all_kinds

let grid_trial ~seed g =
  Spans.span "trial" @@ fun () ->
  let cells =
    Spans.span "generate" (fun () ->
        List.map
          (fun (kind, strategy, cm, theta) ->
            ( kind,
              {
                Runner.default_workload with
                dist = Dist.Zipfian theta;
                key_space = g.g_key_space;
              },
              {
                Runner.default_setup with
                threads = g.g_threads;
                ops_per_thread = g.g_ops_per_thread;
                seed;
                cost = Cost.with_capacity Cost.default cm;
                policy = Some { Htm.default_policy with strategy };
                check_after = true;
              } ))
          grid_cells)
  in
  (* Set-up is timed by a pre-pass making the calls each cell's
     [Runner.run] makes before measuring; it is not part of [wall_s]. *)
  let (), setup_s =
    timed (fun () ->
        List.iter
          (fun (kind, _, (st : Runner.setup)) ->
            ignore
              (setup ~seed ?policy:st.policy ~key_space:g.g_key_space kind))
          cells)
  in
  let (results, gc), measure_s =
    timed (fun () ->
        Spans.span "measure" (fun () ->
            let g0 = Spans.gc_now () in
            let rs =
              Pool.map ~domains:1
                (fun (kind, wl, st) ->
                  Spans.span "runner.run" (fun () ->
                      match Runner.run kind wl st with
                      | r -> Some r
                      | exception e ->
                          Printf.eprintf "campaign-grid: a cell raised %s\n%!"
                            (Printexc.to_string e);
                          None))
                cells
            in
            (rs, Spans.gc_diff g0 (Spans.gc_now ()))))
  in
  Gc.full_major ();
  let ok = List.filter_map Fun.id results in
  if ok = [] then failwith "campaign-grid: every cell raised";
  let sim, reduce_s =
    timed (fun () ->
        Spans.span "reduce" (fun () ->
            (* Geometric means over cells: a per-cell median jumps between
               the clusters the trees form, while the geometric mean moves
               with every cell. *)
            let geomean f =
              exp
                (List.fold_left (fun a r -> a +. log (f r)) 0.0 ok
                /. float_of_int (List.length ok))
            in
            let lat f = geomean (fun r -> float_of_int (f r)) in
            {
              mops = geomean (fun (r : Runner.result) -> r.r_mops);
              lat_p50 = lat (fun r -> r.r_lat_p50);
              lat_p99 = lat (fun r -> r.r_lat_p99);
              lat_tail =
                List.fold_left
                  (fun acc (r : Runner.result) ->
                    Float.max acc (float_of_int r.r_lat_p99))
                  0.0 ok;
              tail_label =
                Printf.sprintf "largest per-cell p99, n=%d cells"
                  (List.length ok);
              counts =
                List.fold_left
                  (fun acc r -> add_counts acc (counts_of_result r))
                  (counts_of_result (List.hd ok))
                  (List.tl ok);
              digest =
                String.concat ";"
                  (List.map
                     (fun (r : Runner.result) ->
                       Printf.sprintf "%d/%d/%s" r.r_ops r.r_cycles
                         (String.concat ","
                            (List.map (Printf.sprintf "%h")
                               (Array.to_list r.r_abort_classes))))
                     ok);
            }))
  in
  let valid, emit_s =
    timed (fun () ->
        Spans.span "emit" (fun () ->
            let records =
              List.mapi
                (fun run r ->
                  Spans.span "emit.cell" (fun () ->
                      Report.result_to_json ~experiment:"campaign-grid" ~run r))
                ok
            in
            let doc = Report.document ~experiment:"campaign-grid" records in
            ignore (Json.to_string doc);
            Report.validate_document doc = Ok ()))
  in
  let cell_ops = g.g_threads * g.g_ops_per_thread in
  let sim_ops = cell_ops * List.length cells in
  let failed =
    Spans.span "verify" (fun () ->
        if not valid then sim_ops
        else
          List.fold_left
            (fun acc r ->
              match r with
              | Some (r : Runner.result) when r.r_ops = cell_ops -> acc
              | Some _ | None -> acc + cell_ops)
            0 results)
  in
  {
    setup_s;
    measure_s;
    reduce_s;
    emit_s;
    wall_s = measure_s +. reduce_s +. emit_s;
    sim_ops;
    failed;
    alloc_words = gc.Spans.minor_words;
    promoted_words = gc.Spans.promoted_words;
    major_collections = gc.Spans.major_collections;
    sim;
  }

(* Each trial starts from a freshly collected heap, and each measured
   phase is followed by a full collection (outside the timed regions), so
   [peak_heap_mb] reflects the largest phase's need rather than when the
   GC happened to finish a cycle. *)
let trial ~seed w =
  Gc.full_major ();
  match w.shape with
  | Single s -> single_trial ~seed s
  | Grid g -> grid_trial ~seed g

(* ---------- repeated runs ---------- *)

(* [Trials n] measures exactly [n] trials; [Seconds s] keeps measuring
   until [s] seconds of trials have passed, and at least three. *)
type plan = Trials of int | Seconds of float

type run = {
  workload : t;
  seed : int;
  warmup : trial;  (** run first and discarded from host metrics *)
  trials : trial list;
  peak_heap_mb : float;  (** the process's peak major heap so far *)
}

let peak_heap_mb () =
  float_of_int ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8))
  /. 1048576.0

let run ~seed ~plan w =
  let warmup = trial ~seed w in
  let rec go acc n spent =
    let more =
      match plan with
      | Trials k -> n < k
      | Seconds s -> n < 3 || (spent < s && n < 100)
    in
    if not more then List.rev acc
    else
      let t, dt = timed (fun () -> trial ~seed w) in
      go (t :: acc) (n + 1) (spent +. dt)
  in
  let trials = go [] 0 0.0 in
  { workload = w; seed; warmup; trials; peak_heap_mb = peak_heap_mb () }

let all_trials r = r.warmup :: r.trials
let attempted r = List.fold_left (fun n t -> n + t.sim_ops) 0 (all_trials r)

(* Wrong results plus, when a trial's simulated results differ from the
   warm-up's, every op of that trial: the simulation must be a pure
   function of the seed. *)
let failed r =
  List.fold_left
    (fun n t ->
      n + t.failed
      + if t.sim.digest = r.warmup.sim.digest then 0 else t.sim_ops)
    0 (all_trials r)
