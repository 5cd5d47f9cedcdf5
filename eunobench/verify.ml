(* Result checks for the single-run workloads.

   Every value the benchmark writes names the put that wrote it: put [i]
   of simulated thread [t] stores [((t + 1) lsl 32) lor i].  Preloaded
   records hold their own key, which stays below [2^32] and so never
   collides with a put value.  A value read back can therefore be traced
   to the preload or to one put of the generated op streams. *)

(* Op streams: [keys.(t).(i)] is the key of thread [t]'s op [i];
   [vals.(t).(i)] the value it puts, or [get] for a read. *)
type ops = { keys : int array array; vals : int array array }

let get = -1

(* Get results, as recorded during the run. *)
let absent = -1
let raised = -2
let put_done = -3

let encode ~tid ~i = ((tid + 1) lsl 32) lor i

(* A get on [key] by thread [tid] at op [i] may return: nothing, if the key
   was not preloaded (there are no deletes); the preload value; or a value
   some put to [key] wrote, not later in [tid]'s own stream.  Once [tid]
   itself has put to [key], only a put's value will do. *)
let valid_get ops ~preloaded ~tid ~i ~key ~own_put_before r =
  if r = absent then not own_put_before && not (preloaded key)
  else if r < 0 then false
  else if r < 1 lsl 32 then not own_put_before && preloaded key && r = key
  else
    let t = (r lsr 32) - 1 and j = r land 0xFFFF_FFFF in
    t < Array.length ops.keys
    && j < Array.length ops.keys.(t)
    && ops.keys.(t).(j) = key
    && ops.vals.(t).(j) = r
    && (t <> tid || j < i)

(* Count of gets that returned a value no valid history explains, plus
   ops that raised. *)
let gets ops ~preloaded ~results =
  let bad = ref 0 in
  Array.iteri
    (fun tid keys ->
      let put_before = Hashtbl.create 256 in
      Array.iteri
        (fun i key ->
          let r = results.(tid).(i) in
          if r = raised then incr bad
          else if ops.vals.(tid).(i) <> get then
            Hashtbl.replace put_before key ()
          else
            let own_put_before = Hashtbl.mem put_before key in
            if not (valid_get ops ~preloaded ~tid ~i ~key ~own_put_before r)
            then incr bad)
        keys)
    ops.keys;
  !bad

(* Checks the tree image after the run, fed in ascending key order by
   [iter_image]: every put key holds some thread's last put to it, every
   preloaded key nobody put holds its preload value, and no key is
   missing, duplicated or invented.  Returns the number of violations. *)
let final ops ~preloaded ~n_preloaded iter_image =
  (* key -> each thread's last value put to it *)
  let last = Hashtbl.create 1024 in
  Array.iteri
    (fun tid keys ->
      let mine = Hashtbl.create 256 in
      Array.iteri
        (fun i key ->
          let v = ops.vals.(tid).(i) in
          if v <> get then Hashtbl.replace mine key v)
        keys;
      Hashtbl.iter
        (fun key v ->
          let prev = Option.value ~default:[] (Hashtbl.find_opt last key) in
          Hashtbl.replace last key (v :: prev))
        mine)
    ops.keys;
  let expected =
    Hashtbl.fold
      (fun key _ n -> if preloaded key then n else n + 1)
      last n_preloaded
  in
  let bad = ref 0 and seen = ref 0 and prev = ref min_int in
  iter_image (fun key v ->
      incr seen;
      if key <= !prev then incr bad;
      prev := key;
      let ok =
        match Hashtbl.find_opt last key with
        | Some vs -> List.mem v vs
        | None -> preloaded key && v = key
      in
      if not ok then incr bad);
  !bad + abs (expected - !seen)
