(* Experiment driver: builds a tree, preloads the key space, runs a
   YCSB-style measurement phase on N simulated threads, and reduces the
   machine counters to the quantities the paper's figures report. *)

module Machine = Euno_sim.Machine
module Cost = Euno_sim.Cost
module Api = Euno_sim.Api
module Abort = Euno_sim.Abort
module Rng = Euno_sim.Rng
module Memory = Euno_mem.Memory
module Linemap = Euno_mem.Linemap
module Alloc = Euno_mem.Alloc
module Dist = Euno_workload.Dist
module Opgen = Euno_workload.Opgen

type workload = {
  dist : Dist.spec;
  mix : Opgen.mix;
  key_space : int;
  preload_permille : int; (* fraction of the key space preloaded, 0..1000 *)
  scan_len : int;
  scrambled : bool; (* hash ranks over the key space (YCSB scrambled) *)
  partitioned : bool;
    (* interleave-partition the key space across threads (thread t only
       touches keys = t mod threads): the paper's Figure 2 methodology for
       estimating the same-record share — true conflicts become
       impossible while hot keys stay adjacent *)
}

let default_workload =
  {
    dist = Dist.Zipfian 0.5;
    mix = Opgen.ycsb_default;
    key_space = 1 lsl 16;
    preload_permille = 900;
    scan_len = 16;
    scrambled = false;
    partitioned = false;
  }

type setup = {
  threads : int;
  ops_per_thread : int;
  seed : int;
  cost : Cost.t;
  fanout : int;
  policy : Euno_htm.Htm.policy option; (* None: each tree's own default *)
  check_after : bool; (* validate invariants when the run ends *)
  snapshot_window : int option;
    (* record cumulative machine counters every N simulated cycles,
       exposing collapse dynamics (lemming ignition, theta sweeps) as a
       time series in [r_snapshots] *)
  fault_plan : Euno_fault.Plan.t;
    (* deterministic fault injections compiled into the machine's hooks
       before the measurement phase; [] (the default) = no faults *)
  sanitize : bool;
    (* arm EunoSan for the measurement phase: the machine streams semantic
       events into a checker and the findings land in [r_san].  Slower and
       schedule-perturbing (announcement notes enter the event stream), so
       never combine with golden-trace or perf measurements *)
}

let default_setup =
  {
    threads = 16;
    ops_per_thread = 2000;
    seed = 42;
    cost = Cost.default;
    fanout = 16;
    policy = None;
    check_after = false;
    snapshot_window = None;
    fault_plan = [];
    sanitize = false;
  }

type result = {
  r_name : string;
  r_strategy : string;
    (* Htm.strategy_name of the fallback strategy the run's policy selects
       (setup.policy, or the trees' default when None) *)
  r_capacity_model : string; (* Cost.capacity.cm_name of the run's machine *)
  r_threads : int;
  r_ops : int;
  r_cycles : int;
  r_mops : float;
  r_aborts_per_op : float;
  r_abort_classes : float array; (* per op, indexed by Abort.index *)
  r_commits_per_op : float;
  r_wasted_pct : float; (* CPU cycles burnt in aborted transactions *)
  r_fallbacks_per_op : float;
  r_retries_per_op : float;
  r_lock_wait_pct : float; (* CPU time queueing on the fallback lock *)
  r_consistency_retries_per_op : float;
  r_watchdog_trips_per_op : float; (* polite waits cut short by the watchdog *)
  r_starvation_backoffs_per_op : float;
  r_convoy_events_per_op : float; (* fallback entries at convoy depth *)
  r_fast_path_wins_per_op : float; (* template strategies: unsubscribed commits *)
  r_middle_path_wins_per_op : float; (* template strategies: subscribed commits *)
  r_software_path_wins_per_op : float; (* lockfree: descriptor-served ops *)
  r_helped_ops_per_op : float; (* lockfree: descriptors applied for others *)
  r_instr_per_op : float; (* interpreted accesses: instruction proxy *)
  r_lat_p50 : int; (* per-op latency percentiles, simulated cycles *)
  r_lat_p99 : int;
  r_mem_preload_bytes : int; (* live bytes right after preload *)
  r_mem_live_bytes : int; (* live bytes after the measured run *)
  r_mem_reserved_peak_bytes : int;
  r_mem_lock_bytes : int; (* CCM + lock lines *)
  r_snapshots : (int * Machine.snapshot) list;
    (* cumulative aggregate counters at each sampled window boundary
       (oldest first); empty unless setup.snapshot_window was set *)
  r_san : Euno_san.San.summary option;
    (* sanitizer verdict; Some only when setup.sanitize was set *)
}

(* Observers (the Report telemetry collector) subscribe here; called with
   every completed result, including each run of [run_many].  Domain-local
   so each pool worker observes exactly its own cells; the pool replays
   worker-observed results into the main domain's observer in canonical
   cell order. *)
let on_result : (result -> unit) option Euno_sim.Domain_ref.t =
  Euno_sim.Domain_ref.create (fun () -> None)

let is_power_of_two n = n land (n - 1) = 0

(* Preloaded keys are a hash-scattered subset of the key space, so the
   fresh keys the measurement phase inserts are interleaved among existing
   records: every leaf keeps receiving occasional inserts (splits stay
   exercised) and no region of the tree becomes an artificial insert
   funnel. *)
let preloaded ~permille ~key_space:_ key =
  let h = key * 0x9E3779B1 in
  (h lxor (h lsr 13)) land 1023 * 1000 / 1024 < permille

(* Per-operation client-side cost: key generation and request dispatch. *)
let client_work = 25

(* Keys a partitioned-mode scan visits: [len] consecutive ranks of the
   thread's own interleaved stride (rank r -> key r*threads + tid), capped
   at the partition end.  A plain [Kv.scan] over consecutive keys would
   cross partition boundaries and read other threads' records — quietly
   reintroducing the same-record conflicts the Figure 2 methodology's
   partitioning exists to rule out. *)
let partition_scan_keys ~key_space ~threads ~tid ~from ~len =
  if threads < 1 then invalid_arg "Runner.partition_scan_keys: threads < 1";
  let n = key_space / threads in
  let from = min from (max 0 (n - 1)) in
  List.init (max 0 (min len (n - from))) (fun i -> ((from + i) * threads) + tid)

let run kind workload setup =
  if not (is_power_of_two workload.key_space) then
    invalid_arg "Runner.run: key_space must be a power of two";
  (* Arm the sanitizer before the preload: benign-race registrations
     (Sev.mark_racy) happen while trees are built, and the host registry
     carries them into the measurement machine, the only one the checker
     subscribes to.  Disarmed on every exit path so an aborted run
     cannot leak arming into later (golden-trace) runs. *)
  let san = if setup.sanitize then Some (Euno_san.San.create ()) else None in
  if setup.sanitize then begin
    Euno_sim.Sev.set_armed true;
    Euno_sim.Sev.reset_racy ()
  end;
  Fun.protect ~finally:(fun () ->
      if setup.sanitize then begin
        Euno_sim.Sev.set_armed false;
        Euno_sim.Sev.reset_racy ()
      end)
  @@ fun () ->
  let mem = Memory.create () in
  let map = Linemap.create () in
  let alloc = Alloc.create mem map in
  (* Build and bulk-load on a frictionless single-thread machine: the
     paper's load phase is not part of the measurement. *)
  let records =
    List.filter_map
      (fun key ->
        if
          preloaded ~permille:workload.preload_permille
            ~key_space:workload.key_space key
        then Some (key, key)
        else None)
      (List.init workload.key_space (fun k -> k))
  in
  let kv =
    Machine.run_single ~seed:setup.seed ~cost:Cost.unit_costs ~mem ~map ~alloc
      (fun () ->
        Kv.build ?policy:setup.policy ~records kind ~fanout:setup.fanout ~map)
  in
  let mem_preload = Alloc.live_bytes alloc in
  let m =
    Machine.create ~threads:setup.threads ~seed:setup.seed ~cost:setup.cost
      ~mem ~map ~alloc
  in
  let latencies =
    Array.init setup.threads (fun _ -> Array.make setup.ops_per_thread 0)
  in
  if setup.fault_plan <> [] then
    Machine.set_injector m (Euno_fault.Plan.to_injector setup.fault_plan);
  (match setup.snapshot_window with
  | Some window -> Machine.set_sampling m ~window
  | None -> ());
  (match san with
  | Some checker -> Machine.subscribe m (Euno_san.San.hook checker)
  | None -> ());
  Machine.run m (fun tid ->
      let n =
        if workload.partitioned then workload.key_space / setup.threads
        else workload.key_space
      in
      let remap k = if workload.partitioned then (k * setup.threads) + tid else k in
      let dist =
        Dist.create ~scrambled:workload.scrambled workload.dist ~n
          ~seed:((setup.seed * 7919) + (tid * 131) + 1)
      in
      let gen =
        Opgen.create ~scan_len:workload.scan_len ~dist ~mix:workload.mix
          ~seed:((setup.seed * 104729) + tid) ()
      in
      for i = 0 to setup.ops_per_thread - 1 do
        Api.work client_work;
        let t0 = Api.clock () in
        (try
          match Opgen.next gen with
        | Opgen.Get k -> ignore (kv.Kv.get (remap k))
        | Opgen.Put (k, v) ->
            kv.Kv.put (remap k) v;
            (* the recency frontier, for Latest-distributed workloads *)
            Dist.advance dist
        | Opgen.Scan (k, len) ->
            if workload.partitioned then
              (* Range scans must not leave the thread's stride (see
                 partition_scan_keys); visit the same number of records as
                 a consecutive scan would, as point reads. *)
              List.iter
                (fun key -> ignore (kv.Kv.get key))
                (partition_scan_keys ~key_space:workload.key_space
                   ~threads:setup.threads ~tid ~from:k ~len)
            else ignore (kv.Kv.scan ~from:(remap k) ~count:len)
        | Opgen.Delete k -> ignore (kv.Kv.delete (remap k))
        | Opgen.Rmw (k, v) ->
            let k = remap k in
            let prev = Option.value ~default:0 (kv.Kv.get k) in
            kv.Kv.put k (prev + v)
        with
        | (Euno_htm.Htm.Stuck_fallback _ | Alloc.Alloc_failure)
          when setup.fault_plan <> [] ->
            (* Injected faults may defeat an operation gracefully (the
               chaos driver counts these the same way); the structure is
               untouched, so just move on to the next op. *)
            ());
        latencies.(tid).(i) <- Api.clock () - t0;
        Api.op_done ()
      done);
  if setup.check_after then
    Machine.run_single ~seed:setup.seed ~cost:Cost.unit_costs ~mem ~map ~alloc
      kv.Kv.check;
  let s = Machine.aggregate m in
  let lat =
    (* One percentile definition repo-wide: Summary's interpolated ranks
       (the previous ad-hoc nearest-rank pick was off by one for small
       samples and disagreed with Summary.percentile). *)
    let all = Array.concat (Array.to_list latencies) in
    let summ = Euno_stats.Summary.of_array (Array.map float_of_int all) in
    ( Euno_stats.Summary.percentile_int summ 50.0,
      Euno_stats.Summary.percentile_int summ 99.0 )
  in
  let ops = s.Machine.s_ops in
  let fops = float_of_int (max 1 ops) in
  let cycles = Machine.elapsed m in
  let total_cycles =
    (* total CPU time = sum of thread clocks; wasted% is relative to it *)
    float_of_int setup.threads *. float_of_int (max 1 cycles)
  in
  let result =
  {
    r_name = kv.Kv.name;
    r_strategy =
      Euno_htm.Htm.strategy_name
        (Option.value ~default:Euno_htm.Htm.default_policy setup.policy)
          .Euno_htm.Htm.strategy;
    r_capacity_model = setup.cost.Cost.capacity.Cost.cm_name;
    r_threads = setup.threads;
    r_ops = ops;
    r_cycles = cycles;
    r_mops = Cost.mops setup.cost ~ops ~cycles;
    r_aborts_per_op = float_of_int (Machine.total_aborts s) /. fops;
    r_abort_classes =
      Array.map (fun a -> float_of_int a /. fops) s.Machine.s_aborts;
    r_commits_per_op = float_of_int s.Machine.s_commits /. fops;
    r_wasted_pct =
      100.0
      *. float_of_int
           (s.Machine.s_wasted_cycles
           + s.Machine.s_user.(Euno_htm.Htm.Counter.lock_wait_cycles))
      /. total_cycles;
    r_lock_wait_pct =
      100.0
      *. float_of_int s.Machine.s_user.(Euno_htm.Htm.Counter.lock_wait_cycles)
      /. total_cycles;
    r_fallbacks_per_op =
      float_of_int s.Machine.s_user.(Euno_htm.Htm.Counter.fallbacks) /. fops;
    r_retries_per_op =
      float_of_int s.Machine.s_user.(Euno_htm.Htm.Counter.retries) /. fops;
    r_consistency_retries_per_op =
      float_of_int
        s.Machine.s_user.(Eunomia.Euno_tree.Counter.consistency_retries)
      /. fops;
    r_watchdog_trips_per_op =
      float_of_int s.Machine.s_user.(Euno_htm.Htm.Counter.watchdog_trips)
      /. fops;
    r_starvation_backoffs_per_op =
      float_of_int s.Machine.s_user.(Euno_htm.Htm.Counter.starvation_backoffs)
      /. fops;
    r_convoy_events_per_op =
      float_of_int s.Machine.s_user.(Euno_htm.Htm.Counter.convoy_events)
      /. fops;
    r_fast_path_wins_per_op =
      float_of_int s.Machine.s_user.(Euno_htm.Htm.Counter.fast_path_wins)
      /. fops;
    r_middle_path_wins_per_op =
      float_of_int s.Machine.s_user.(Euno_htm.Htm.Counter.middle_path_wins)
      /. fops;
    r_software_path_wins_per_op =
      float_of_int s.Machine.s_user.(Euno_htm.Htm.Counter.software_path_wins)
      /. fops;
    r_helped_ops_per_op =
      float_of_int s.Machine.s_user.(Euno_htm.Htm.Counter.helped_ops) /. fops;
    r_instr_per_op = float_of_int s.Machine.s_accesses /. fops;
    r_lat_p50 = fst lat;
    r_lat_p99 = snd lat;
    r_mem_preload_bytes = mem_preload;
    r_mem_live_bytes = Alloc.live_bytes alloc;
    r_mem_reserved_peak_bytes =
      (Alloc.stats_of_kind alloc Linemap.Reserved).Alloc.peak_words
      * Memory.word_bytes;
    r_mem_lock_bytes =
      (Alloc.stats_of_kind alloc Linemap.Lock).Alloc.live_words
      * Memory.word_bytes;
    r_snapshots = Machine.samples m;
    r_san = Option.map Euno_san.San.finish san;
  }
  in
  (match Euno_sim.Domain_ref.get on_result with
  | Some observe -> observe result
  | None -> ());
  result

(* Repeat a run over several seeds and summarize throughput variation
   (deterministic per seed, so this measures schedule sensitivity, the
   simulator's analogue of run-to-run noise). *)
type aggregate = {
  a_runs : result list;
  a_mean_mops : float;
  a_stddev_mops : float;
  a_min_mops : float;
  a_max_mops : float;
}

let run_many ?(seeds = 5) kind workload setup =
  if seeds < 1 then invalid_arg "Runner.run_many: seeds < 1";
  let runs =
    List.init seeds (fun i ->
        run kind workload { setup with seed = setup.seed + (i * 7919) })
  in
  let s = Euno_stats.Summary.create () in
  List.iter (fun r -> Euno_stats.Summary.add s r.r_mops) runs;
  {
    a_runs = runs;
    a_mean_mops = Euno_stats.Summary.mean s;
    a_stddev_mops = Euno_stats.Summary.stddev s;
    a_min_mops = Euno_stats.Summary.min_value s;
    a_max_mops = Euno_stats.Summary.max_value s;
  }

(* Aborts attributed to the paper's Figure 2 taxonomy. *)
let class_true r = r.r_abort_classes.(Abort.index (Abort.Conflict Abort.True_conflict))
let class_false_record r =
  r.r_abort_classes.(Abort.index (Abort.Conflict Abort.False_record))
let class_false_meta r =
  r.r_abort_classes.(Abort.index (Abort.Conflict Abort.False_metadata))

let class_subscription r =
  r.r_abort_classes.(Abort.index (Abort.Conflict Abort.Subscription))

let class_other r =
  r.r_aborts_per_op -. class_true r -. class_false_record r
  -. class_false_meta r -. class_subscription r
