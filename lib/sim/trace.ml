(* Event tracing for the simulated machine: a bounded ring of the
   transaction lifecycle events of the machine's event stream (begin /
   commit / abort / conflict / completed op / injected fault) that answers
   the debugging question an HTM simulator always gets asked: "why did
   this transaction abort?".

   Subscribe [push ring] with Machine.subscribe.  The ring keeps only the
   six lifecycle bodies and drops per-access and protocol events, so
   tracing has zero effect on simulated results. *)

module Linemap = Euno_mem.Linemap

let lifecycle (e : Sev.event) =
  match e.body with
  | Sev.Txn_begin | Sev.Txn_commit _ | Sev.Txn_aborted _ | Sev.Conflict _
  | Sev.Op_exit _ | Sev.Injected _ ->
      true
  | _ -> false

let not_lifecycle fn = invalid_arg ("Trace." ^ fn ^ ": not a lifecycle event")

let event_to_string ({ tid; clock; body } : Sev.event) =
  let row fmt = Printf.sprintf ("[%10d] t%-2d " ^^ fmt) clock tid in
  match body with
  | Sev.Txn_begin -> row "xbegin"
  | Sev.Txn_commit { reads; writes } -> row "commit (rs=%d ws=%d)" reads writes
  | Sev.Txn_aborted code -> row "ABORT %s" (Abort.to_string code)
  | Sev.Conflict { victim; line; kind } ->
      row "dooms t%-2d on line %d (%s)" victim line (Linemap.kind_to_string kind)
  | Sev.Op_exit key -> row "op done (key %d)" key
  | Sev.Injected fault -> row "FAULT %s" fault
  | _ -> not_lifecycle "event_to_string"

(* Bounded ring buffer of the most recent lifecycle events. *)
type ring = {
  buf : Sev.event option array;
  mutable next : int;
  mutable total : int;
}

let ring ~capacity =
  if capacity < 1 then invalid_arg "Trace.ring: capacity < 1";
  { buf = Array.make capacity None; next = 0; total = 0 }

let push r e =
  if lifecycle e then begin
    r.buf.(r.next) <- Some e;
    r.next <- (r.next + 1) mod Array.length r.buf;
    r.total <- r.total + 1
  end

let total r = r.total

(* Oldest-first retained events. *)
let events r =
  let n = Array.length r.buf in
  let out = ref [] in
  for i = n - 1 downto 0 do
    match r.buf.((r.next + i) mod n) with
    | Some e -> out := e :: !out
    | None -> ()
  done;
  !out

let to_strings r = List.map event_to_string (events r)

(* ---------- machine-readable exports ---------- *)

module Json = Euno_stats.Json

let event_to_json ({ tid; clock; body } : Sev.event) =
  let ev name fields =
    Json.Obj
      (("ev", Json.Str name) :: ("tid", Json.Int tid)
      :: ("clock", Json.Int clock) :: fields)
  in
  match body with
  | Sev.Txn_begin -> ev "xbegin" []
  | Sev.Txn_commit { reads; writes } ->
      ev "commit" [ ("reads", Json.Int reads); ("writes", Json.Int writes) ]
  | Sev.Txn_aborted code ->
      ev "abort"
        [
          ("class", Json.Str (Abort.class_name (Abort.index code)));
          ("code", Json.Str (Abort.to_string code));
        ]
  | Sev.Conflict { victim; line; kind } ->
      (* attacker first and clock last: the layout the golden fixtures
         record *)
      Json.Obj
        [
          ("ev", Json.Str "conflict");
          ("attacker", Json.Int tid);
          ("victim", Json.Int victim);
          ("line", Json.Int line);
          ("kind", Json.Str (Linemap.kind_to_string kind));
          ("clock", Json.Int clock);
        ]
  | Sev.Op_exit key -> ev "op_done" [ ("key", Json.Int key) ]
  | Sev.Injected fault -> ev "injected" [ ("fault", Json.Str fault) ]
  | _ -> not_lifecycle "event_to_json"

(* One compact JSON document per retained event, oldest first: cat-able
   into any JSONL pipeline. *)
let to_jsonl r = List.map (fun e -> Json.to_string (event_to_json e)) (events r)

let export_jsonl r oc =
  List.iter
    (fun line ->
      output_string oc line;
      output_char oc '\n')
    (to_jsonl r)

(* Chrome trace_event format (chrome://tracing, Perfetto): each
   transaction becomes a complete ("X") duration slice from its xbegin to
   its commit or abort, conflicts become instant events on the attacker's
   row, and op completions become instants on the owner's row.  Timestamps
   are simulated cycles reported through the "ts"/"dur" microsecond
   fields: absolute units don't matter for inspection, ordering does. *)
let chrome_trace r =
  let open_tx = Hashtbl.create 16 in
  let slices = ref [] in
  let emit json = slices := json :: !slices in
  let common ~name ~ph ~tid ~ts extra =
    Json.Obj
      ([
         ("name", Json.Str name);
         ("ph", Json.Str ph);
         ("pid", Json.Int 0);
         ("tid", Json.Int tid);
         ("ts", Json.Int ts);
       ]
      @ extra)
  in
  let close_tx tid clock ~name args =
    match Hashtbl.find_opt open_tx tid with
    | None -> ()
    | Some start ->
        Hashtbl.remove open_tx tid;
        emit
          (common ~name ~ph:"X" ~tid ~ts:start
             [ ("dur", Json.Int (max 1 (clock - start))); ("args", args) ])
  in
  let instant ~name ~tid ~ts args =
    emit
      (common ~name ~ph:"i" ~tid ~ts
         [ ("s", Json.Str "t"); ("args", Json.Obj args) ])
  in
  List.iter
    (fun ({ tid; clock; body } : Sev.event) ->
      match body with
      | Sev.Txn_begin -> Hashtbl.replace open_tx tid clock
      | Sev.Txn_commit { reads; writes } ->
          close_tx tid clock ~name:"txn:commit"
            (Json.Obj [ ("reads", Json.Int reads); ("writes", Json.Int writes) ])
      | Sev.Txn_aborted code ->
          close_tx tid clock ~name:"txn:abort"
            (Json.Obj
               [ ("class", Json.Str (Abort.class_name (Abort.index code))) ])
      | Sev.Conflict { victim; line; kind } ->
          instant ~name:"conflict" ~tid ~ts:clock
            [
              ("victim", Json.Int victim);
              ("line", Json.Int line);
              ("kind", Json.Str (Linemap.kind_to_string kind));
            ]
      | Sev.Op_exit key ->
          instant ~name:"op" ~tid ~ts:clock [ ("key", Json.Int key) ]
      | Sev.Injected fault ->
          instant ~name:"fault" ~tid ~ts:clock [ ("fault", Json.Str fault) ]
      | _ -> ())
    (events r);
  Json.Obj
    [
      ("traceEvents", Json.List (List.rev !slices));
      ("displayTimeUnit", Json.Str "ns");
    ]

(* Events selected by thread (as owner, attacker or victim), oldest
   first. *)
let for_thread r tid =
  List.filter
    (fun (e : Sev.event) ->
      e.tid = tid
      || match e.body with Sev.Conflict c -> c.victim = tid | _ -> false)
    (events r)
