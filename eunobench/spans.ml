(* Host-time spans recorded from the benchmark's own code, around each call
   it makes into the program's layers.  Tracing is off except during the
   traced pass: [span] then costs one branch and one closure call.  Spans
   are kept in memory and written out when the pass ends, either as a
   self-time table or as Chrome trace_event JSON. *)

module Json = Euno_stats.Json

let now_s () = Int64.to_float (Monotonic_clock.now ()) *. 1e-9

type gc = {
  minor_words : float;
  promoted_words : float;
  major_words : float;
  minor_collections : int;
  major_collections : int;
}

type t = {
  id : int;
  parent : int;  (** 0 for a root span *)
  name : string;
  start_s : float;
  dur_s : float;
  gc : gc;  (** allocation and collections inside the span *)
}

let gc_now () =
  let minor_words, promoted_words, major_words = Gc.counters () in
  let s = Gc.quick_stat () in
  {
    minor_words;
    promoted_words;
    major_words;
    minor_collections = s.Gc.minor_collections;
    major_collections = s.Gc.major_collections;
  }

let gc_diff a b =
  {
    minor_words = b.minor_words -. a.minor_words;
    promoted_words = b.promoted_words -. a.promoted_words;
    major_words = b.major_words -. a.major_words;
    minor_collections = b.minor_collections - a.minor_collections;
    major_collections = b.major_collections - a.major_collections;
  }

(* The benchmark runs on one domain, so plain refs suffice. *)
let enabled = ref false
let recorded : t list ref = ref []
let stack = ref [ 0 ]
let next_id = ref 1

let reset () =
  recorded := [];
  stack := [ 0 ];
  next_id := 1

let span name f =
  if not !enabled then f ()
  else begin
    let id = !next_id in
    incr next_id;
    let parent = List.hd !stack in
    stack := id :: !stack;
    let g0 = gc_now () in
    let t0 = now_s () in
    Fun.protect f ~finally:(fun () ->
        let dur_s = now_s () -. t0 in
        let gc = gc_diff g0 (gc_now ()) in
        stack := List.tl !stack;
        recorded := { id; parent; name; start_s = t0; dur_s; gc } :: !recorded)
  end

(* Spans oldest first. *)
let all () = List.sort (fun a b -> compare a.start_s b.start_s) !recorded

(* Total duration of every span with this name. *)
let total name =
  List.fold_left
    (fun acc s -> if s.name = name then acc +. s.dur_s else acc)
    0.0 !recorded

(* Per span name, in first-seen order: (name, count, total s, self s).  A
   span's self time is its duration minus that of its children, which the
   benchmark always runs one after another. *)
let self_times () =
  let spans = all () in
  let child = Hashtbl.create 64 in
  List.iter
    (fun s ->
      let prev = Option.value ~default:0.0 (Hashtbl.find_opt child s.parent) in
      Hashtbl.replace child s.parent (prev +. s.dur_s))
    spans;
  let rows = Hashtbl.create 16 and order = ref [] in
  List.iter
    (fun s ->
      let self =
        s.dur_s -. Option.value ~default:0.0 (Hashtbl.find_opt child s.id)
      in
      match Hashtbl.find_opt rows s.name with
      | Some (n, tot, slf) ->
          Hashtbl.replace rows s.name (n + 1, tot +. s.dur_s, slf +. self)
      | None ->
          order := s.name :: !order;
          Hashtbl.replace rows s.name (1, s.dur_s, self))
    spans;
  List.rev_map
    (fun name ->
      let n, tot, slf = Hashtbl.find rows name in
      (name, n, tot, slf))
    !order

let to_chrome ~process =
  let origin =
    List.fold_left (fun acc s -> Float.min acc s.start_s) infinity !recorded
  in
  let us x = Json.Float (x *. 1e6) in
  let event s =
    Json.Obj
      [
        ("name", Json.Str s.name);
        ("cat", Json.Str "eunobench");
        ("ph", Json.Str "X");
        ("ts", us (s.start_s -. origin));
        ("dur", us s.dur_s);
        ("pid", Json.Int 1);
        ("tid", Json.Int 1);
        ( "args",
          Json.Obj
            [
              ("id", Json.Int s.id);
              ("parent", Json.Int s.parent);
              ("minor_words", Json.Float s.gc.minor_words);
              ("promoted_words", Json.Float s.gc.promoted_words);
              ("major_words", Json.Float s.gc.major_words);
              ("minor_collections", Json.Int s.gc.minor_collections);
              ("major_collections", Json.Int s.gc.major_collections);
            ] );
      ]
  in
  Json.Obj
    [
      ( "traceEvents",
        Json.List
          (Json.Obj
             [
               ("name", Json.Str "process_name");
               ("ph", Json.Str "M");
               ("pid", Json.Int 1);
               ("args", Json.Obj [ ("name", Json.Str process) ]);
             ]
          :: List.map event (all ())) );
      ("displayTimeUnit", Json.Str "ms");
    ]
