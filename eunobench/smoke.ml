(* Smoke test of the benchmark at tiny sizes:
   - BENCHMARK.json names exactly the workloads and metrics the benchmark
     prints, with the same units and directions;
   - two runs of one seed give identical simulated metrics and digests;
   - the result checks catch a corrupted get result, a corrupted final
     value and a lost key;
   - quartiles match Python's statistics.quantiles, and --compare's
     verdicts follow its rules. *)

module Json = Euno_stats.Json
module Machine = Euno_sim.Machine
module Cost = Euno_sim.Cost
open Ebench

let failures = ref 0

let check what ok =
  if not ok then begin
    incr failures;
    Printf.printf "FAIL %s\n%!" what
  end

let benchmark =
  let text =
    In_channel.with_open_bin "../BENCHMARK.json" In_channel.input_all
  in
  match Json.of_string text with
  | Ok j -> j
  | Error e -> failwith ("BENCHMARK.json: " ^ e)

let entries key =
  Option.get (Option.bind (Json.member key benchmark) Json.as_list)

let str k e = Option.get (Option.bind (Json.member k e) Json.as_string)

(* (name, unit, better) of each metric BENCHMARK.json lists under [key]. *)
let declared key =
  List.map (fun e -> (str "name" e, str "unit" e, str "better" e)) (entries key)

(* The metrics of a printed result line, as (name, unit). *)
let printed line =
  match
    Option.bind (Result.to_option (Json.of_string line)) (Json.member "metrics")
  with
  | Some (Json.Obj ms) -> List.map (fun (name, v) -> (name, str "unit" v)) ms
  | _ -> []

(* The benchmark's own metric rows give the triples BENCHMARK.json lists
   under [key], and its printed result line exactly those names and
   units. *)
let matches key rows =
  let line = Metrics.result_line ~correct:true ~attempted:1 ~failed:0 rows in
  List.map
    (fun ((mt : Metrics.metric), _) ->
      (mt.name, mt.unit, Metrics.better_name mt.better))
    rows
  = declared key
  && printed line = List.map (fun (n, u, _) -> (n, u)) (declared key)

let () =
  check "quartiles of 1..10 are 2.75 / 5.5 / 8.25"
    (let s = Qstats.of_list (List.init 10 (fun i -> float_of_int (i + 1))) in
     (s.q1, s.median, s.q3) = (2.75, 5.5, 8.25));
  let bd = { Compare.name = "wall_s"; higher = false; bound = 0.1 } in
  let runs ms = List.map (fun m -> (m, m -. 1.0, m +. 1.0)) ms in
  let a = runs (List.init 10 (fun i -> 100.0 +. float_of_int (i mod 3))) in
  let verdict b = (fun (v, _, _) -> v) (Compare.judge bd a (runs b)) in
  check "compare: ten winning pairs improve"
    (verdict (List.init 10 (fun _ -> 90.0)) = "improved");
  check "compare: nine pairs cannot improve"
    (verdict (List.init 9 (fun _ -> 90.0)) = "no worse");
  check "compare: a median past the bound is worse"
    (verdict (List.init 10 (fun _ -> 120.0)) = "worse");
  check "compare: a spread wider than the bound is unresolved"
    (Compare.judge bd
       (runs [ 50.0; 100.0; 150.0; 200.0 ])
       (runs [ 180.0; 100.0; 150.0; 60.0 ])
     |> fun (v, _, _) -> v = "unresolved");
  check "BENCHMARK.json names the benchmark's workloads"
    (List.map (str "name") (entries "workloads") = Workloads.names);
  let micros = Micros.run ~quota:0.002 in
  check "every micro gives a finite time"
    (List.for_all (fun (_, ns) -> Float.is_finite ns && ns > 0.0) micros);
  List.iter
    (fun w ->
      let name = w.Workloads.name in
      let run () = Workloads.run ~seed:42 ~plan:(Workloads.Trials 1) w in
      let a = run () and b = run () in
      check (name ^ ": no failed ops")
        (Workloads.failed a = 0 && Workloads.failed b = 0);
      check (name ^ ": sim_digest repeats")
        (a.warmup.sim.digest = b.warmup.sim.digest);
      let sim (r : Workloads.run) =
        let s = r.warmup.sim in
        (s.mops, s.lat_p50, s.lat_p99, s.lat_tail)
      in
      check (name ^ ": simulated metrics repeat") (sim a = sim b);
      check
        (name ^ ": end-to-end metrics match BENCHMARK.json")
        (matches "end_to_end"
           (List.map (fun (mt, s) -> (mt, s.Qstats.median)) (Metrics.e2e a)));
      Spans.reset ();
      Spans.enabled := true;
      ignore (Workloads.trial ~seed:42 w);
      Spans.enabled := false;
      check
        (name ^ ": per-layer metrics match BENCHMARK.json")
        (matches "per_layer"
           (Metrics.per_layer ~untraced:(List.hd a.trials)
              ~trace_overhead_pct:0.0 ~micros)))
    (Workloads.all ~smoke:true)

(* Run one tiny single-run workload by hand, keep its raw results and
   final image, and check that corrupting either is caught. *)
let () =
  match (Option.get (Workloads.find ~smoke:true "hot-htm")).shape with
  | Workloads.Grid _ -> assert false
  | Workloads.Single s ->
      let seed = 7 in
      let ops = Workloads.generate ~seed s in
      let buf v =
        Array.init s.threads (fun _ -> Array.make s.ops_per_thread v)
      in
      let results = buf Verify.put_done and lat = buf 0 in
      let (mem, map, alloc), kv =
        Workloads.setup ~seed ~key_space:s.key_space s.kind
      in
      let m =
        Machine.create ~threads:s.threads ~seed ~cost:Cost.default ~mem ~map
          ~alloc
      in
      Machine.run m (Workloads.client ops kv results lat);
      let image =
        Machine.run_single ~mem ~map ~alloc (fun () ->
            let acc = ref [] in
            Workloads.iter_image kv (fun k v -> acc := (k, v) :: !acc);
            List.rev !acc)
      in
      let preloaded = Workloads.preloaded in
      let n_preloaded = List.length (Workloads.records s.key_space) in
      let final image =
        Verify.final ops ~preloaded ~n_preloaded (fun f ->
            List.iter (fun (k, v) -> f k v) image)
      in
      check "clean run passes the get check"
        (Verify.gets ops ~preloaded ~results = 0);
      check "clean run passes the final check" (final image = 0);
      (* the first op matching [p], in thread-major order *)
      let first p =
        let rec go t i =
          if p t i then (t, i)
          else if i + 1 < s.ops_per_thread then go t (i + 1)
          else go (t + 1) 0
        in
        go 0 0
      in
      let t, i =
        first (fun t i -> ops.vals.(t).(i) = Verify.get && results.(t).(i) >= 0)
      in
      let t', i' =
        first (fun t' i' ->
            ops.vals.(t').(i') <> Verify.get
            && ops.keys.(t').(i') <> ops.keys.(t).(i))
      in
      let bad = Array.map Array.copy results in
      (* a get that returns a value written to another key *)
      bad.(t).(i) <- ops.vals.(t').(i');
      check "a corrupted get result is caught"
        (Verify.gets ops ~preloaded ~results:bad > 0);
      (* a put key holding a value that is no thread's last put *)
      let put_key =
        fst (List.find (fun (k, v) -> v >= 1 lsl 32 && preloaded k) image)
      in
      let corrupt (k, v) = (k, if k = put_key then k + 1 else v) in
      check "a corrupted final value is caught"
        (final (List.map corrupt image) > 0);
      check "a lost key is caught" (final (List.tl image) > 0)

let () =
  if !failures > 0 then begin
    Printf.printf "%d smoke check(s) failed\n" !failures;
    exit 1
  end
  else print_endline "eunobench smoke: ok"
