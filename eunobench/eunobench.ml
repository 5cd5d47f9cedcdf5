(* EunoBench: the benchmark every performance claim is measured against.

     dune exec ./eunobench/eunobench.exe
     dune exec ./eunobench/eunobench.exe -- --workload hot-htm --seed 7 \
       --seconds 12 --trace 0
     dune exec ./eunobench/eunobench.exe -- --compare a1.json -- b1.json

   With --workload, one workload runs in this process: a discarded
   warm-up trial, then measured trials (5, or as many as --seconds
   allows, at least 3).  --trace 1 runs the traced pass instead: a
   warm-up, then untraced, traced and untraced trials, then the per-layer
   micros.  The last line of standard output is a JSON object with the
   fields correct, attempted, failed and metrics.

   Without --workload, each workload runs in a fresh child process, one
   after another, first untraced and then traced, and a summary follows.
   The exit code is 1 when any result is wrong, 2 on a usage error. *)

module Json = Euno_stats.Json
open Ebench

type opts = {
  seed : int;
  workload : string option;
  seconds : float option;
  trace : bool;
  trace_file : string option;
  json : string option;
}

let die fmt =
  Printf.ksprintf
    (fun s ->
      prerr_endline ("eunobench: " ^ s);
      exit 2)
    fmt

let takes_value =
  [ "--seed"; "--workload"; "--seconds"; "--trace"; "--trace-file"; "--json" ]

let rec parse o = function
  | [] -> o
  | [ flag ] when List.mem flag takes_value -> die "%s needs a value" flag
  | "--seed" :: v :: rest -> (
      match int_of_string_opt v with
      | Some seed when seed >= 0 -> parse { o with seed } rest
      | _ -> die "--seed must be a non-negative integer, not %S" v)
  | "--workload" :: v :: rest ->
      if List.mem v Workloads.names then parse { o with workload = Some v } rest
      else
        die "unknown workload %S (one of: %s)" v
          (String.concat ", " Workloads.names)
  | "--seconds" :: v :: rest -> (
      match float_of_string_opt v with
      | Some s when s > 0.0 -> parse { o with seconds = Some s } rest
      | _ -> die "--seconds must be a positive number, not %S" v)
  | "--trace" :: v :: rest -> (
      match v with
      | "0" -> parse { o with trace = false } rest
      | "1" -> parse { o with trace = true } rest
      | _ -> die "--trace takes 0 or 1, not %S" v)
  | "--trace-file" :: v :: rest ->
      parse { o with trace_file = Some v; trace = true } rest
  | "--json" :: v :: rest -> parse { o with json = Some v } rest
  | arg :: _ -> die "unknown argument %S" arg

let write_doc path ~seed ~trials workloads =
  Out_channel.with_open_bin path (fun oc ->
      output_string oc
        (Json.to_string ~pretty:true
           (Json.Obj
              [
                ("context", Metrics.context ~seed ~trials);
                ("workloads", Json.List workloads);
              ]));
      output_char oc '\n')

let detail_prefix = "detail: "

(* ---------- one workload, in this process ---------- *)

let untraced o w =
  let plan =
    match o.seconds with
    | Some s -> Workloads.Seconds s
    | None -> Workloads.Trials 5
  in
  Printf.printf
    "== %s (seed %d, closed loop: %d simulated threads on 1 domain) ==\n%!"
    w.Workloads.name o.seed (Workloads.sim_threads w);
  let r = Workloads.run ~seed:o.seed ~plan w in
  let rows = Metrics.e2e r in
  Printf.printf "1 warm-up + %d measured trials\n" (List.length r.trials);
  Metrics.print_e2e r rows;
  let detail = Metrics.run_json r rows in
  print_endline (detail_prefix ^ Json.to_string detail);
  Option.iter
    (fun path ->
      write_doc path ~seed:o.seed
        ~trials:(string_of_int (List.length r.trials))
        [ detail ])
    o.json;
  let failed = Workloads.failed r in
  print_endline
    (Metrics.result_line ~correct:(failed = 0)
       ~attempted:(Workloads.attempted r) ~failed
       (List.map (fun (mt, s) -> (mt, s.Qstats.median)) rows));
  failed = 0

let traced o w =
  Printf.printf "== %s traced pass (seed %d) ==\n%!" w.Workloads.name o.seed;
  let r = Workloads.run ~seed:o.seed ~plan:(Workloads.Trials 1) w in
  let untraced = List.hd r.trials in
  Spans.reset ();
  Spans.enabled := true;
  let traced =
    Fun.protect ~finally:(fun () -> Spans.enabled := false) (fun () ->
        Workloads.trial ~seed:o.seed w)
  in
  (* Untraced trials on both sides of the traced one, so slow drift of
     the host's speed does not read as tracing overhead. *)
  let after = Workloads.trial ~seed:o.seed w in
  let untraced_wall_s = (untraced.wall_s +. after.wall_s) /. 2.0 in
  let overhead_s = traced.wall_s -. untraced_wall_s in
  let micros = Micros.run ~quota:0.1 in
  let rows =
    Metrics.per_layer ~untraced
      ~trace_overhead_pct:(100.0 *. overhead_s /. untraced_wall_s)
      ~micros
  in
  Metrics.print_self_times ();
  Metrics.print_estimate untraced micros;
  Printf.printf
    "tracing overhead: traced %.4f s - untraced %.4f s = %+.4f s wall\n"
    traced.wall_s untraced_wall_s overhead_s;
  print_endline "per-layer metrics:";
  Metrics.print_per_layer rows;
  Option.iter
    (fun path ->
      Out_channel.with_open_bin path (fun oc ->
          output_string oc
            (Json.to_string (Spans.to_chrome ~process:w.Workloads.name)));
      Printf.printf "wrote %s (%d spans)\n" path (List.length (Spans.all ())))
    o.trace_file;
  let r = { r with trials = r.trials @ [ traced; after ] } in
  let detail =
    Json.Obj
      [
        ("workload", Json.Str w.Workloads.name);
        ("seed", Json.Int o.seed);
        ("per_layer", Json.Obj (List.map Metrics.value_json rows));
        ("trace_overhead_s", Json.Float overhead_s);
      ]
  in
  print_endline (detail_prefix ^ Json.to_string detail);
  Option.iter
    (fun path -> write_doc path ~seed:o.seed ~trials:"1 traced" [ detail ])
    o.json;
  let failed = Workloads.failed r in
  print_endline
    (Metrics.result_line ~correct:(failed = 0)
       ~attempted:(Workloads.attempted r) ~failed rows);
  failed = 0

(* ---------- every workload, one child process each ---------- *)

let child args =
  let exe = Sys.executable_name in
  let ic = Unix.open_process_args_in exe (Array.of_list (exe :: args)) in
  let detail = ref None in
  (try
     while true do
       let line = input_line ic in
       if String.starts_with ~prefix:detail_prefix line then
         let body =
           String.sub line (String.length detail_prefix)
             (String.length line - String.length detail_prefix)
         in
         detail := Result.to_option (Json.of_string body)
       else print_endline line
     done
   with End_of_file -> ());
  let ok = Unix.close_process_in ic = Unix.WEXITED 0 in
  (ok, !detail)

let all o =
  let common =
    [ "--seed"; string_of_int o.seed ]
    @ Option.fold ~none:[]
        ~some:(fun s -> [ "--seconds"; Printf.sprintf "%g" s ])
        o.seconds
  in
  let plain =
    List.map (fun w -> (w, child ([ "--workload"; w ] @ common))) Workloads.names
  in
  let traced =
    List.map
      (fun w ->
        let file =
          Option.fold ~none:[]
            ~some:(fun p ->
              [
                "--trace-file";
                Printf.sprintf "%s.%s.json" (Filename.remove_extension p) w;
              ])
            o.trace_file
        in
        (w, child ([ "--workload"; w; "--trace"; "1" ] @ common @ file)))
      Workloads.names
  in
  let rec at j = function
    | [] -> j
    | k :: ks -> at (Option.bind j (Json.member k)) ks
  in
  let show = function
    | Some (Json.Str s) ->
        if String.length s > 15 then String.sub s 0 12 ^ "..." else s
    | Some j -> Option.fold ~none:"-" ~some:Metrics.fmt (Json.as_float j)
    | None -> "-"
  in
  let metric_names =
    match List.find_map (fun (_, (_, d)) -> at d [ "metrics" ]) plain with
    | Some (Json.Obj ms) -> List.map fst ms
    | _ -> []
  in
  print_endline "== summary: medians over measured trials ==";
  Printf.printf "%-22s" "metric";
  List.iter (fun w -> Printf.printf " %15s" w) Workloads.names;
  print_newline ();
  List.iter
    (fun (name, runs, path) ->
      Printf.printf "%-22s" name;
      List.iter
        (fun (_, (_, d)) -> Printf.printf " %15s" (show (at d path)))
        runs;
      print_newline ())
    (List.map (fun n -> (n, plain, [ "metrics"; n; "value" ])) metric_names
    @ [
        ("failed_op_ratio", plain, [ "failed_op_ratio" ]);
        ("sim_digest", plain, [ "sim_digest" ]);
        ("trace_overhead_s", traced, [ "trace_overhead_s" ]);
      ]);
  let ok =
    List.for_all (fun (_, (ok, d)) -> ok && d <> None) (plain @ traced)
  in
  Option.iter
    (fun path ->
      let merged =
        List.map2
          (fun (_, (_, d)) (_, (_, t)) ->
            match (d, t) with
            | Some (Json.Obj fields), Some t ->
                Json.Obj
                  (fields
                  @ List.filter_map
                      (fun k -> Option.map (fun v -> (k, v)) (Json.member k t))
                      [ "per_layer"; "trace_overhead_s" ])
            | Some d, _ -> d
            | None, _ -> Json.Null)
          plain traced
      in
      write_doc path ~seed:o.seed
        ~trials:(Option.fold ~none:"5" ~some:(Printf.sprintf "%g s") o.seconds)
        merged;
      Printf.printf "wrote %s\n" path)
    o.json;
  Printf.printf "results %s\n"
    (if ok then "correct" else "WRONG: see the runs above");
  ok

let () =
  let args = List.tl (Array.to_list Sys.argv) in
  let ok =
    match args with
    | "--compare" :: rest -> (
        let rec split acc = function
          | "--" :: b -> (List.rev acc, b)
          | x :: xs -> split (x :: acc) xs
          | [] -> die "--compare needs A files, then --, then B files"
        in
        match split [] rest with
        | [], _ | _, [] -> die "--compare needs at least one file on each side"
        | a, b -> (
            match Compare.main ~benchmark:"BENCHMARK.json" a b with
            | ok -> ok
            | exception (Failure msg | Sys_error msg) -> die "%s" msg))
    | _ -> (
        let o =
          parse
            {
              seed = 42;
              workload = None;
              seconds = None;
              trace = false;
              trace_file = None;
              json = None;
            }
            args
        in
        match o.workload with
        | None -> all o
        | Some name -> (
            let w = Option.get (Workloads.find ~smoke:false name) in
            if o.trace then traced o w else untraced o w))
  in
  exit (if ok then 0 else 1)
