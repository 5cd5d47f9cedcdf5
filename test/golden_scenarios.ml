(* Canonical seed-42 scenarios whose full trace-event stream and abort
   accounting are recorded as golden fixtures (test/golden/).  The
   determinism suite replays them and requires byte-identical output, so
   any engine change that alters scheduling, conflict detection, abort
   classification or cycle charging is caught — this is the contract the
   fast-path optimizations must preserve. *)

module Memory = Euno_mem.Memory
module Linemap = Euno_mem.Linemap
module Alloc = Euno_mem.Alloc
module Machine = Euno_sim.Machine
module Cost = Euno_sim.Cost
module Api = Euno_sim.Api
module Abort = Euno_sim.Abort
module Trace = Euno_sim.Trace
module Explore = Euno_sim.Explore
module Plan = Euno_fault.Plan
module Json = Euno_stats.Json
module Kv = Euno_harness.Kv

let seed = 42

(* One scenario = (trace JSONL lines, summary lines), both deterministic.
   A scenario is configured up to its [()] and run by passing [~traced];
   an untraced run subscribes nothing and returns an empty trace, and its
   summary must still equal the traced run's. *)
type output = { trace : string list; summary : string list }

(* Record the machine's trace-event stream as JSON lines, oldest first. *)
let record_trace m ~traced =
  let trace = ref [] in
  if traced then
    Machine.subscribe m (fun e ->
        if Trace.lifecycle e then
          trace := Json.to_string (Trace.event_to_json e) :: !trace);
  fun () -> List.rev !trace

let summarize m threads =
  let agg = Machine.aggregate m in
  let lines = ref [] in
  let add fmt = Printf.ksprintf (fun s -> lines := s :: !lines) fmt in
  add "ops=%d" agg.Machine.s_ops;
  add "commits=%d" agg.Machine.s_commits;
  Array.iteri
    (fun i n -> add "abort:%s=%d" (Abort.class_name i) n)
    agg.Machine.s_aborts;
  Array.iteri
    (fun i n -> add "conflict_kind:%d=%d" i n)
    agg.Machine.s_conflict_kinds;
  add "wasted_cycles=%d" agg.Machine.s_wasted_cycles;
  add "committed_cycles=%d" agg.Machine.s_committed_cycles;
  add "accesses=%d" agg.Machine.s_accesses;
  add "clock=%d" agg.Machine.s_clock;
  for tid = 0 to threads - 1 do
    let t = Machine.snapshot_thread m tid in
    add "thread%d: ops=%d commits=%d aborts=%d clock=%d" tid t.Machine.s_ops
      t.Machine.s_commits (Machine.total_aborts t) t.Machine.s_clock
  done;
  List.rev !lines

(* A contended mixed workload on one tree kind: every thread hammers a
   small key space with gets/puts/deletes/scans.  Preload happens off the
   record on a frictionless single-thread machine sharing the same world,
   exactly like Runner's load phase. *)
let tree_scenario ?(plan = []) kind ~threads ~ops ~key_space () ~traced =
  let mem = Memory.create () in
  let map = Linemap.create () in
  let alloc = Alloc.create mem map in
  let kv =
    Machine.run_single ~seed:1 ~cost:Cost.unit_costs ~mem ~map ~alloc
      (fun () ->
        let kv = Kv.build kind ~fanout:8 ~map in
        for k = 0 to (key_space / 2) - 1 do
          kv.Kv.put (k * 2) (k * 2)
        done;
        kv)
  in
  let m = Machine.create ~threads ~seed ~cost:Cost.default ~mem ~map ~alloc in
  if plan <> [] then Machine.set_injector m (Plan.to_injector plan);
  let trace = record_trace m ~traced in
  Machine.run m (fun _tid ->
      for _ = 1 to ops do
        let key = Api.rand key_space in
        let op = Api.rand 100 in
        Api.op_key key;
        if op < 45 then ignore (kv.Kv.get key)
        else if op < 85 then kv.Kv.put key (op + key)
        else if op < 95 then ignore (kv.Kv.delete key)
        else ignore (kv.Kv.scan ~from:key ~count:4);
        Api.op_done ()
      done);
  { trace = trace (); summary = summarize m threads }

(* Raw engine exercise without any tree: plain and transactional accesses,
   CAS/FAA, allocation with rollback, an explicit abort, and cross-thread
   conflicts on a deliberately shared line. *)
let engine_scenario ?explore ~threads ~rounds () ~traced =
  let mem = Memory.create () in
  let map = Linemap.create () in
  let alloc = Alloc.create mem map in
  let shared =
    Machine.run_single ~seed:1 ~cost:Cost.unit_costs ~mem ~map ~alloc
      (fun () -> Api.alloc ~kind:Linemap.Scratch ~words:16)
  in
  let m = Machine.create ~threads ~seed ~cost:Cost.default ~mem ~map ~alloc in
  Option.iter
    (fun spec ->
      Machine.set_explorer m
        (Explore.hook (Explore.create ~seed (Explore.spec_of_string spec))))
    explore;
  let trace = record_trace m ~traced in
  Machine.run m (fun tid ->
      for round = 1 to rounds do
        Api.op_key round;
        (* plain accesses, including the shared contended line *)
        Api.write (shared + tid) (tid + round);
        ignore (Api.read shared);
        ignore (Api.cas shared ~expected:0 ~desired:tid);
        ignore (Api.faa (shared + 8) 1);
        (* a transaction touching private and shared words *)
        (try
           Api.xbegin ();
           let a = Api.alloc ~kind:Linemap.Record ~words:8 in
           Api.write a round;
           ignore (Api.read shared);
           Api.write (shared + 8 + (tid mod 8)) round;
           if round mod 7 = 0 then Api.xabort 3 else Api.xend ()
         with Euno_sim.Eff.Txn_abort _ -> ());
        Api.work 25;
        Api.op_done ()
      done);
  { trace = trace (); summary = summarize m threads }

(* Four of the injector's machine-level faults, in overlapping windows of
   the HTM-B+Tree scenario's ~100k-cycle run: a spurious storm, one thread
   descheduled, stalled fallback-lock holders and transactional
   allocation failures.  Each fires at least once at seed 42. *)
let fault_plan =
  let inj fault target from_cycle until_cycle =
    { Plan.fault; target; window = Plan.window ~from_cycle ~until_cycle }
  in
  [
    inj (Plan.Spurious_burst { extra_per_million = 50_000 }) Plan.All 5_000
      25_000;
    inj Plan.Preempt (Plan.Thread 1) 20_000 30_000;
    inj (Plan.Lock_holder_stall { stall = 1_500 }) Plan.All 5_000 40_000;
    inj Plan.Alloc_pressure Plan.All 25_000 80_000;
  ]

(* Fixture name -> generator.  Keep names filesystem-safe.  The first
   three run the heap scheduler with only a trace sink installed; the
   last two pin the exploration pick (park overlay, clock bump,
   explore-park events) and the fault-injection pre-step. *)
let all : (string * (traced:bool -> output)) list =
  [
    ( "engine_seed42",
      engine_scenario ~threads:4 ~rounds:40 () );
    ( "htm_bptree_seed42",
      tree_scenario Kv.Htm_bptree ~threads:4 ~ops:120 ~key_space:256 () );
    ( "euno_seed42",
      tree_scenario (Kv.Euno Eunomia.Config.full) ~threads:4 ~ops:120
        ~key_space:256 () );
    ( "engine_explore_seed42",
      engine_scenario ~explore:"walk:per=64,span=32" ~threads:4 ~rounds:40 ()
    );
    ( "htm_bptree_faults_seed42",
      tree_scenario ~plan:fault_plan Kv.Htm_bptree ~threads:4 ~ops:120
        ~key_space:256 () );
  ]

let trace_file name = name ^ ".trace.jsonl"
let summary_file name = name ^ ".summary.txt"
