(* Order statistics for repeated host measurements.

   Quartiles use the definition of Python's [statistics.quantiles(values,
   n=4)] (its default "exclusive" method), so every spread this benchmark
   prints can be recomputed independently from the raw trial values. *)

type t = {
  median : float;
  q1 : float;
  q3 : float;
  min : float;
  max : float;
  n : int;
}

let of_list xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  let n = Array.length a in
  if n = 0 then invalid_arg "Qstats.of_list: no values";
  let q i =
    if n = 1 then a.(0)
    else
      let m = n + 1 in
      let j = max 1 (min (n - 1) (i * m / 4)) in
      let delta = (i * m) - (j * 4) in
      ((a.(j - 1) *. float_of_int (4 - delta)) +. (a.(j) *. float_of_int delta))
      /. 4.0
  in
  { median = q 2; q1 = q 1; q3 = q 3; min = a.(0); max = a.(n - 1); n }

let median xs = (of_list xs).median

let json_fields s =
  Euno_stats.Json.
    [
      ("median", Float s.median);
      ("q1", Float s.q1);
      ("q3", Float s.q3);
      ("min", Float s.min);
      ("max", Float s.max);
      ("n", Int s.n);
    ]
