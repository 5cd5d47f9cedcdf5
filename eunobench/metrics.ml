(* Every metric the benchmark reports, with its unit and direction, and
   the tables and JSON it prints them in.  BENCHMARK.json lists the same
   names; the smoke test keeps the two in step. *)

module Json = Euno_stats.Json
module Abort = Euno_sim.Abort
open Workloads

type better = Lower | Higher
type metric = { name : string; unit : string; better : better }

let m name unit better = { name; unit; better }
let better_name = function Lower -> "lower" | Higher -> "higher"

(* ---------- end to end ---------- *)

(* Host values are taken over the measured trials; simulated values are
   identical in every trial, so the warm-up's stand for all. *)
let e2e (r : run) =
  let host f = Qstats.of_list (List.map f r.trials) in
  let exact v = Qstats.of_list [ v ] in
  let sim = r.warmup.sim in
  [
    ( m "sim_ops_per_wall_s" "1/s" Higher,
      host (fun t -> float_of_int t.sim_ops /. t.measure_s) );
    (m "wall_s" "s" Lower, host (fun t -> t.wall_s));
    (m "setup_s" "s" Lower, host (fun t -> t.setup_s));
    (m "peak_heap_mb" "MB" Lower, exact r.peak_heap_mb);
    ( m "alloc_words_per_op" "words/op" Lower,
      host (fun t -> t.alloc_words /. float_of_int t.sim_ops) );
    (m "sim_mops" "Mops/s" Higher, exact sim.mops);
    (m "sim_lat_p50_cycles" "cycles" Lower, exact sim.lat_p50);
    (m "sim_lat_p99_cycles" "cycles" Lower, exact sim.lat_p99);
    (m "sim_lat_p9999_cycles" "cycles" Lower, exact sim.lat_tail);
  ]

let failed_op_ratio r =
  float_of_int (failed r) /. float_of_int (max 1 (attempted r))

(* ---------- per layer ---------- *)

(* Machine and GC counts per simulated op, from one untraced trial. *)
let counts (t : trial) =
  let c = t.sim.counts in
  let per_op x = x /. c.ops in
  let abort code = c.aborts.(Abort.index code) in
  let all_aborts = Array.fold_left ( +. ) 0.0 c.aborts in
  let classified =
    [
      ("true", abort (Abort.Conflict Abort.True_conflict));
      ("false_record", abort (Abort.Conflict Abort.False_record));
      ("false_meta", abort (Abort.Conflict Abort.False_metadata));
      ("subscription", abort (Abort.Conflict Abort.Subscription));
      ("capacity", abort Abort.Capacity_read +. abort Abort.Capacity_write);
    ]
  in
  let other =
    all_aborts -. List.fold_left (fun a (_, n) -> a +. n) 0.0 classified
  in
  let attempts = c.commits +. all_aborts in
  [
    (m "sim.accesses_per_op" "1/op" Lower, per_op c.accesses);
    (m "sim.txn_attempts_per_op" "1/op" Lower, per_op attempts);
    ( m "sim.commit_ratio" "ratio" Higher,
      if attempts = 0.0 then 0.0 else c.commits /. attempts );
  ]
  @ List.map
      (fun (cls, n) ->
        (m ("sim.aborts_" ^ cls ^ "_per_op") "1/op" Lower, per_op n))
      (classified @ [ ("other", other) ])
  @ [
      (m "sim.wasted_cycle_pct" "%" Lower, 100.0 *. c.wasted /. c.cpu);
      (m "htm.fallbacks_per_op" "1/op" Lower, per_op c.fallbacks);
      (m "htm.retries_per_op" "1/op" Lower, per_op c.retries);
      (m "htm.fast_path_wins_per_op" "1/op" Higher, per_op c.fast_path_wins);
      ( m "htm.middle_path_wins_per_op" "1/op" Higher,
        per_op c.middle_path_wins );
      ( m "htm.software_path_wins_per_op" "1/op" Higher,
        per_op c.software_path_wins );
      (m "htm.helped_ops_per_op" "1/op" Higher, per_op c.helped_ops);
      (m "htm.lock_wait_pct" "%" Lower, 100.0 *. c.lock_wait /. c.cpu);
      ( m "eunomia.consistency_retries_per_op" "1/op" Lower,
        per_op c.consistency_retries );
      (m "mem.sim_live_mb" "MB" Lower, c.live_mb);
      (m "mem.sim_lock_mb" "MB" Lower, c.lock_mb);
      (m "mem.sim_reserved_peak_mb" "MB" Lower, c.reserved_peak_mb);
      ( m "gc.promoted_words_per_op" "words/op" Lower,
        t.promoted_words /. float_of_int t.sim_ops );
      ( m "gc.major_collections" "count" Lower,
        float_of_int t.major_collections );
    ]

let measured_ns_per_op (t : trial) =
  t.measure_s *. 1e9 /. float_of_int t.sim_ops

(* The measured phase's host ns/op estimated from counts x micro costs.
   Whatever the rows do not explain is reported as the remainder. *)
let estimate (t : trial) micros =
  let ns name = List.assoc name micros in
  let c = t.sim.counts in
  let per_op x = x /. c.ops in
  let aborts = Array.fold_left ( +. ) 0.0 c.aborts in
  let rows =
    [
      (* work, clock, clock and op_done around every op, in the client
         loops of this benchmark and of Runner.run alike *)
      ( "client loop: 4 non-access effects x api work",
        4.0,
        ns "sim.api_work_ns" );
      ( "effect dispatch: accesses x api read/write",
        per_op c.accesses,
        (ns "sim.api_read_ns" +. ns "sim.api_write_ns") /. 2.0 );
      ( "txn bookkeeping: attempts x txn cycle",
        per_op (c.commits +. aborts),
        ns "sim.txn_cycle_ns" );
      ( "conflict dooming: aborts x doom scan",
        per_op aborts,
        ns "sim.line_table_doom_scan_ns" );
    ]
  in
  let explained =
    List.fold_left (fun a (_, n, ns) -> a +. (n *. ns)) 0.0 rows
  in
  (rows, measured_ns_per_op t -. explained)

(* Host seconds per phase of the traced trial, from its spans. *)
let phases () =
  [
    ("harness.world_s", Spans.total "world");
    ("harness.preload_s", Spans.total "records" +. Spans.total "kv_build");
    ("harness.measure_s", Spans.total "measure");
    ("harness.reduce_s", Spans.total "reduce");
    ("harness.emit_s", Spans.total "emit");
  ]

let per_layer ~(untraced : trial) ~trace_overhead_pct ~micros =
  counts untraced
  @ List.map (fun (name, ns) -> (m name "ns" Lower, ns)) micros
  @ List.map (fun (name, s) -> (m name "s" Lower, s)) (phases ())
  @ [
      (m "harness.trace_overhead_pct" "%" Lower, trace_overhead_pct);
      (m "harness.measure_ns_per_op" "ns" Lower, measured_ns_per_op untraced);
      ( m "harness.unattributed_ns_per_op" "ns" Lower,
        snd (estimate untraced micros) );
    ]

(* ---------- output ---------- *)

let fmt v =
  if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.0f" v
  else Printf.sprintf "%.6g" v

let print_e2e (r : run) rows =
  Printf.printf "%-24s %-9s %12s %12s %12s %12s %12s %3s\n" "metric" "unit"
    "median" "q1" "q3" "min" "max" "n";
  List.iter
    (fun (mt, (s : Qstats.t)) ->
      Printf.printf "%-24s %-9s %12s %12s %12s %12s %12s %3d%s\n" mt.name
        mt.unit
        (fmt s.median) (fmt s.q1) (fmt s.q3) (fmt s.min) (fmt s.max) s.n
        (if mt.name = "sim_lat_p9999_cycles" then
           "  (" ^ r.warmup.sim.tail_label ^ ")"
         else ""))
    rows;
  Printf.printf "%-24s %-9s %12s  (%d of %d ops)\n" "failed_op_ratio" "ratio"
    (fmt (failed_op_ratio r)) (failed r) (attempted r);
  Printf.printf "sim_digest %s  %s\n"
    (Workloads.digest_hex r.warmup.sim)
    (let d = r.warmup.sim.digest in
     if String.length d > 120 then String.sub d 0 120 ^ "..." else d)

let print_per_layer rows =
  List.iter
    (fun (mt, v) -> Printf.printf "  %-38s %14s %s\n" mt.name (fmt v) mt.unit)
    rows

let print_estimate (t : trial) micros =
  let rows, remainder = estimate t micros in
  Printf.printf "measure-phase estimate (host ns per simulated op):\n";
  List.iter
    (fun (label, n, ns) ->
      Printf.printf "  %-44s %10.2f/op x %8.1f ns = %10.0f ns\n" label n ns
        (n *. ns))
    rows;
  Printf.printf "  %-44s %38.0f ns\n" "measured" (measured_ns_per_op t);
  Printf.printf "  %-44s %38.0f ns\n" "unattributed remainder" remainder

let print_self_times () =
  Printf.printf "traced spans (host seconds):\n  %-16s %6s %10s %10s\n" "span"
    "count" "total" "self";
  List.iter
    (fun (name, n, tot, self) ->
      Printf.printf "  %-16s %6d %10.4f %10.4f\n" name n tot self)
    (Spans.self_times ())

let value_json (mt, v) =
  (mt.name, Json.Obj [ ("value", Json.Float v); ("unit", Json.Str mt.unit) ])

(* The result line: the last line of standard output, one JSON object. *)
let result_line ~correct ~attempted ~failed values =
  Json.to_string
    (Json.Obj
       [
         ("correct", Json.Bool correct);
         ("attempted", Json.Int attempted);
         ("failed", Json.Int failed);
         ("metrics", Json.Obj (List.map value_json values));
       ])

let context ~seed ~trials =
  Json.Obj
    [
      ("seed", Json.Int seed);
      ("trials", Json.Str trials);
      ("ocaml_version", Json.Str Sys.ocaml_version);
      ( "recommended_domain_count",
        Json.Int (Domain.recommended_domain_count ()) );
      ("domains", Json.Int 1);
    ]

(* One workload's record in a --json document. *)
let run_json (r : run) rows =
  Json.Obj
    [
      ("workload", Json.Str r.workload.name);
      ("seed", Json.Int r.seed);
      ("sim_threads", Json.Int (sim_threads r.workload));
      ( "metrics",
        Json.Obj
          (List.map
             (fun (mt, s) ->
               ( mt.name,
                 Json.Obj
                   (("value", Json.Float s.Qstats.median)
                   :: ("unit", Json.Str mt.unit)
                   :: Qstats.json_fields s) ))
             rows) );
      ( "trials",
        Json.List
          (List.map
             (fun (t : trial) ->
               Json.Obj
                 [
                   ("setup_s", Json.Float t.setup_s);
                   ("measure_s", Json.Float t.measure_s);
                   ("reduce_s", Json.Float t.reduce_s);
                   ("emit_s", Json.Float t.emit_s);
                   ("wall_s", Json.Float t.wall_s);
                   ("alloc_words", Json.Float t.alloc_words);
                 ])
             r.trials) );
      ("failed_op_ratio", Json.Float (failed_op_ratio r));
      ("attempted", Json.Int (attempted r));
      ("failed", Json.Int (failed r));
      ("sim_digest", Json.Str (digest_hex r.warmup.sim));
      ("sim_digest_source", Json.Str r.warmup.sim.digest);
      ("sim_lat_tail", Json.Str r.warmup.sim.tail_label);
    ]
