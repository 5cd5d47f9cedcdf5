(* Per-layer host micro-benchmarks: bechamel timings of single calls into
   one layer each, in ns per call.  Calls that must run on a simulated
   thread are timed from inside a one-thread machine, so every iteration
   pays the real effect round trip and nothing else. *)

open Bechamel
module Machine = Euno_sim.Machine
module Api = Euno_sim.Api
module Sched = Euno_sim.Sched
module Line_table = Euno_sim.Line_table
module Txn = Euno_sim.Txn
module Memory = Euno_mem.Memory
module Linemap = Euno_mem.Linemap
module Alloc = Euno_mem.Alloc
module Dist = Euno_workload.Dist
module Opgen = Euno_workload.Opgen
module Htm = Euno_htm.Htm
module Ccm = Euno_ccm.Ccm
module Spinlock = Euno_sync.Spinlock
module Kv = Euno_harness.Kv
module Runner = Euno_harness.Runner
module Report = Euno_harness.Report
module Json = Euno_stats.Json

(* Host ns per call of [f], by bechamel's OLS fit over batched runs. *)
let time ~quota f =
  let cfg =
    Benchmark.cfg ~limit:1000 ~quota:(Time.second quota) ~kde:None
      ~stabilize:false ()
  in
  let clock = Toolkit.Instance.monotonic_clock in
  let results =
    Benchmark.all cfg [ clock ] (Test.make ~name:"micro" (Staged.stage f))
  in
  let ols =
    Analyze.all
      (Analyze.ols ~bootstrap:0 ~r_square:false ~predictors:[| Measure.run |])
      clock results
  in
  Hashtbl.fold
    (fun _ r acc ->
      match Analyze.OLS.estimates r with Some [ ns ] -> ns | _ -> acc)
    ols Float.nan

let on_machine f =
  let mem = Memory.create () in
  let map = Linemap.create () in
  let alloc = Alloc.create mem map in
  Machine.run_single ~mem ~map ~alloc (fun () -> f map)

let scratch () = Api.alloc ~kind:Linemap.Scratch ~words:8

type _ Effect.t += Floor : unit Effect.t

(* A bare perform+continue with a handler of the benchmark's own: the
   cost floor under every simulated instruction. *)
let effect_floor time =
  Effect.Deep.match_with
    (fun () -> time (fun () -> Effect.perform Floor))
    ()
    {
      retc = Fun.id;
      exnc = raise;
      effc =
        (fun (type a) (e : a Effect.t) ->
          match e with
          | Floor ->
              Some
                (fun (k : (a, _) Effect.Deep.continuation) ->
                  Effect.Deep.continue k ())
          | _ -> None);
    }

let tree_kinds =
  [
    ("htm-bptree", Kv.Htm_bptree);
    ("euno", Kv.Euno Eunomia.Config.default);
    ("masstree", Kv.Masstree);
    ("htm-masstree", Kv.Htm_masstree);
  ]

(* A preloaded 8 Ki-record tree: gets hit, puts update in place, so the
   tree keeps its shape however many iterations bechamel runs. *)
let tree_op kind op time =
  on_machine (fun map ->
      let kv =
        Kv.build
          ~records:(List.init 8192 (fun k -> (k, k)))
          kind ~fanout:16 ~map
      in
      let c = ref 0 in
      time (fun () ->
          incr c;
          op kv !c))

let sample_result =
  lazy
    (Runner.run Kv.Htm_bptree
       { Runner.default_workload with key_space = 256 }
       { Runner.default_setup with threads = 2; ops_per_thread = 50 })

(* (metric name, timing).  Each timing gets [time], which returns the ns
   per call of the thunk it is given. *)
let all : (string * (((unit -> unit) -> float) -> float)) list =
  [
    ("sim.effect_floor_ns", effect_floor);
    ( "sim.api_read_ns",
      fun time ->
        on_machine (fun _ ->
            let a = scratch () in
            time (fun () -> ignore (Api.read a))) );
    ( "sim.api_write_ns",
      fun time ->
        on_machine (fun _ ->
            let a = scratch () in
            time (fun () -> Api.write a 1)) );
    ( "sim.api_work_ns",
      fun time -> on_machine (fun _ -> time (fun () -> Api.work 1)) );
    ( "sim.sched_push_pop_ns",
      (* 16 ready threads taking turns, as on the hot workloads *)
      fun time ->
        let s = Sched.create ~capacity:16 in
        for tid = 0 to 15 do
          Sched.push s ~clock:tid ~tid
        done;
        time (fun () ->
            let k = Sched.pop s in
            Sched.push s
              ~clock:(Sched.clock_of k + 16)
              ~tid:(Sched.tid_of k)) );
    ( "sim.line_table_claim_release_ns",
      fun time ->
        let lt = Line_table.create () in
        time (fun () ->
            Line_table.add_reader lt 9 0;
            Line_table.set_writer lt 9 0;
            Line_table.remove_thread lt 9 0) );
    ( "sim.line_table_doom_scan_ns",
      fun time ->
        let lt = Line_table.create () in
        for tid = 0 to 15 do
          Line_table.add_reader lt 9 tid
        done;
        let acc = ref 0 in
        time (fun () ->
            Line_table.iter_readers_except lt 9 0 (fun r -> acc := !acc + r))
    );
    ( "sim.txn_cycle_ns",
      fun time ->
        let t = Txn.create ~tid:0 in
        time (fun () ->
            Txn.reset t ~start_clock:0;
            Txn.note_read t 3;
            Txn.note_write t 4;
            Txn.buffer_write t 32 1;
            ignore (Txn.buffered_value t 32);
            Txn.iter_writes t (fun _ _ -> ())) );
  ]
  @ List.map
      (fun strategy ->
        ( "htm.atomic_" ^ Htm.strategy_name strategy ^ "_ns",
          fun time ->
            on_machine (fun _ ->
                let policy = { Htm.default_policy with strategy } in
                let lock = Htm.alloc_lock ~policy () in
                let a = scratch () in
                time (fun () ->
                    Htm.atomic ~policy ~lock (fun () -> Api.write a 1))) ))
      Htm.all_strategies
  @ [
      ( "ccm.slot_cycle_ns",
        fun time ->
          on_machine (fun _ ->
              let base = Api.alloc ~kind:Linemap.Lock ~words:8 in
              let c = Ccm.make ~base ~mode_addr:(base + 7) ~capacity:15 in
              time (fun () ->
                  let slot = Ccm.hash c 12345 in
                  Ccm.lock_slot c slot;
                  ignore (Ccm.marked c slot);
                  Ccm.unlock_slot c slot)) );
      ( "sync.spinlock_acquire_release_ns",
        fun time ->
          on_machine (fun _ ->
              let l = Spinlock.alloc () in
              time (fun () ->
                  Spinlock.acquire l;
                  Spinlock.release l)) );
    ]
  @ List.concat_map
      (fun (tname, kind) ->
        [
          ( "tree." ^ tname ^ ".get_ns",
            tree_op kind (fun kv c -> ignore (kv.Kv.get (c land 8191))) );
          ( "tree." ^ tname ^ ".put_ns",
            tree_op kind (fun kv c -> kv.Kv.put (c * 7919 land 8191) c) );
        ])
      tree_kinds
  @ [
      ( "mem.memory_get_ns",
        fun time ->
          let mem = Memory.create () in
          Memory.set mem 4096 1;
          time (fun () -> ignore (Sys.opaque_identity (Memory.get mem 4096))) );
      ( "mem.memory_set_ns",
        fun time ->
          let mem = Memory.create () in
          time (fun () -> Memory.set mem 4096 7) );
      ( "mem.alloc_free_ns",
        fun time ->
          let mem = Memory.create () in
          let alloc = Alloc.create mem (Linemap.create ()) in
          time (fun () ->
              let addr = Alloc.alloc alloc ~kind:Linemap.Scratch ~words:8 in
              Alloc.free alloc ~kind:Linemap.Scratch ~addr ~words:8) );
      ( "harness.result_to_json_ns",
        fun time ->
          let r = Lazy.force sample_result in
          time (fun () ->
              ignore (Sys.opaque_identity (Report.result_to_json r))) );
      ( "stats.json_to_string_ns",
        fun time ->
          let j = Report.result_to_json (Lazy.force sample_result) in
          time (fun () -> ignore (Sys.opaque_identity (Json.to_string j))) );
      ( "workload.zipf_next_ns",
        fun time ->
          let d = Dist.create (Dist.Zipfian 0.99) ~n:65_536 ~seed:3 in
          time (fun () -> ignore (Sys.opaque_identity (Dist.next d))) );
      ( "workload.uniform_next_ns",
        fun time ->
          let d = Dist.create Dist.Uniform ~n:(1 lsl 20) ~seed:3 in
          time (fun () -> ignore (Sys.opaque_identity (Dist.next d))) );
      ( "workload.opgen_next_ns",
        fun time ->
          let dist = Dist.create (Dist.Zipfian 0.99) ~n:65_536 ~seed:3 in
          let g = Opgen.create ~dist ~mix:Opgen.ycsb_default ~seed:5 () in
          time (fun () -> ignore (Sys.opaque_identity (Opgen.next g))) );
    ]

let run ~quota = List.map (fun (name, m) -> (name, m (time ~quota))) all
