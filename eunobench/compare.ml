(* A/B comparison of --json documents: side A (the parent) against side B
   (the change), per workload and end-to-end metric, under the bounds
   BENCHMARK.json fixes.

   - improved: B wins at least nine tenths of the pairs (ties count for
     neither) and the medians differ by more than A's own spread;
   - unresolved: A's spread is wider than the bound, unless every B run
     reads better than every A run;
   - worse: B's median is worse than A's by more than the bound;
   - no worse: otherwise.

   A's spread is the interquartile distance of its per-run medians, or,
   with a single run, that run's interquartile distance over its
   trials. *)

module Json = Euno_stats.Json

let read_file path =
  In_channel.with_open_bin path In_channel.input_all

let parse path =
  match Json.of_string (read_file path) with
  | Ok j -> j
  | Error e -> failwith (path ^ ": " ^ e)

let field path key j =
  match Json.member key j with
  | Some v -> v
  | None -> failwith (Printf.sprintf "%s: missing %S" path key)

let num path key j =
  match Json.as_float (field path key j) with
  | Some v -> v
  | None -> failwith (Printf.sprintf "%s: %S is not a number" path key)

let list path key j =
  match Json.as_list (field path key j) with
  | Some l -> l
  | None -> failwith (Printf.sprintf "%s: %S is not a list" path key)

type bound = { name : string; higher : bool; bound : float }

let bounds path =
  let j = parse path in
  List.map
    (fun e ->
      {
        name = Option.get (Json.as_string (field path "name" e));
        higher = Json.as_string (field path "better" e) = Some "higher";
        bound = num path "bound" e;
      })
    (list path "end_to_end" j)

(* One document's runs: for each workload, its sim_digest and
   failed_op_ratio, and for each metric its (median, q1, q3). *)
let runs path =
  List.map
    (fun w ->
      let wname = Option.get (Json.as_string (field path "workload" w)) in
      let metrics =
        match Json.as_obj (field path "metrics" w) with
        | None -> []
        | Some ms ->
            List.map
              (fun (name, v) ->
                (name, (num path "value" v, num path "q1" v, num path "q3" v)))
              ms
      in
      ( wname,
        ( Json.as_string (field path "sim_digest" w),
          num path "failed_op_ratio" w,
          metrics ) ))
    (list path "workloads" (parse path))

let pct x = 100.0 *. x

(* Pairs needed before a gain may be claimed. *)
let min_pairs = 10

(* One run: its own trial quartiles; several: quartiles of their
   medians.  As (median, q1, q3). *)
let summary = function
  | [ q ] -> q
  | runs ->
      let s = Qstats.of_list (List.map (fun (m, _, _) -> m) runs) in
      (s.median, s.q1, s.q3)

(* The verdict on one metric, from each side's (median, q1, q3) runs,
   with B's pair wins and the number of pairs. *)
let judge bd va vb =
  let med = List.map (fun (m, _, _) -> m) in
  let ma, qa1, qa3 = summary va and mb, _, _ = summary vb in
  let better x y = if bd.higher then y > x else y < x in
  let rec zip xs ys =
    match (xs, ys) with x :: xs, y :: ys -> (x, y) :: zip xs ys | _ -> []
  in
  let pairs = zip (med va) (med vb) in
  let wins = List.length (List.filter (fun (x, y) -> better x y) pairs) in
  let n_pairs = List.length pairs in
  let spread = qa3 -. qa1 in
  let rel x = if ma = 0.0 then 0.0 else x /. Float.abs ma in
  let worse_by = rel (if bd.higher then ma -. mb else mb -. ma) in
  let all_b_better =
    List.for_all (fun y -> List.for_all (fun x -> better x y) (med va)) (med vb)
  in
  let verdict =
    if
      n_pairs >= min_pairs
      && float_of_int wins >= 0.9 *. float_of_int n_pairs
      && worse_by < 0.0
      && Float.abs (mb -. ma) > spread
    then "improved"
    else if rel spread > bd.bound && not all_b_better then "unresolved"
    else if worse_by > bd.bound then "worse"
    else "no worse"
  in
  (verdict, wins, n_pairs)

let main ~benchmark a_files b_files =
  let bs = bounds benchmark in
  let a = List.map runs a_files and b = List.map runs b_files in
  let workloads = List.sort_uniq compare (List.concat_map (List.map fst) a) in
  Printf.printf "A: %s\nB: %s\n\n" (String.concat " " a_files)
    (String.concat " " b_files);
  Printf.printf "%-14s %-22s %12s %23s %12s %23s %8s %7s  %s\n" "workload"
    "metric" "A median" "A q1..q3" "B median" "B q1..q3" "change" "wins"
    "verdict";
  let worse = ref 0 in
  List.iter
    (fun w ->
      let wa = List.filter_map (List.assoc_opt w) a in
      let wb = List.filter_map (List.assoc_opt w) b in
      List.iter
        (fun bd ->
          let side =
            List.filter_map (fun (_, _, ms) -> List.assoc_opt bd.name ms)
          in
          match (side wa, side wb) with
          | [], _ | _, [] -> ()
          | va, vb ->
              let verdict, wins, n_pairs = judge bd va vb in
              if verdict = "worse" then incr worse;
              let ma, qa1, qa3 = summary va and mb, qb1, qb3 = summary vb in
              Printf.printf
                "%-14s %-22s %12.6g %11.6g..%-10.6g %12.6g %11.6g..%-10.6g \
                 %+7.2f%% %3d/%-3d %s (bound %g%%)\n"
                w bd.name ma qa1 qa3 mb qb1 qb3
                (if ma = 0.0 then 0.0 else pct ((mb -. ma) /. Float.abs ma))
                wins n_pairs verdict (pct bd.bound))
        bs;
      let digests =
        List.sort_uniq compare (List.map (fun (d, _, _) -> d) (wa @ wb))
      in
      let failed =
        List.fold_left (fun m (_, f, _) -> Float.max m f) 0.0 (wa @ wb)
      in
      Printf.printf
        "%-14s sim_digest %s over %d runs; largest failed_op_ratio %g\n\n" w
        (if List.length digests = 1 then "identical" else "DIFFERS")
        (List.length wa + List.length wb)
        failed)
    workloads;
  !worse = 0
