(* Schedule-exploration policies for EunoCheck.

   The machine's default scheduler always resumes the ready thread with the
   smallest (clock, tid) — one canonical interleaving per seed.  An
   exploration policy perturbs that order: after every interpreted instruction
   the machine asks the policy whether the thread that just ran should be
   *parked* (descheduled) for a number of scheduler picks, letting other
   ready threads overtake it.  Forced context switches at the right
   instants open exactly the windows where fast-path/fallback atomicity
   bugs hide (a fallback holder parked between its read and its write, an
   optimistic reader parked between validation and use).

   Every policy is a pure function of its own state and a SplitMix64
   stream derived from the seed, so a (policy, seed) pair names one
   schedule: running it twice replays the identical interleaving, and the
   preemptions it fired can be replayed verbatim (and shrunk) with
   [Replay].  Policies never see or mutate machine state — the hook input
   is only (tid, point kind), the output only a park span. *)

type point =
  | Step (* any interpreted instruction *)
  | Xbegin
  | Xcommit
  | Xabort (* explicit or delivered abort: the retry/fallback path begins *)
  | Lock_acquire (* successful non-transactional CAS on a Lock-kind word *)
  | Atomic_rmw (* successful non-transactional CAS/FAA elsewhere *)

let point_to_string = function
  | Step -> "step"
  | Xbegin -> "xbegin"
  | Xcommit -> "xcommit"
  | Xabort -> "xabort"
  | Lock_acquire -> "lock"
  | Atomic_rmw -> "rmw"

let point_of_string = function
  | "step" -> Step
  | "xbegin" -> Xbegin
  | "xcommit" -> Xcommit
  | "xabort" -> Xabort
  | "lock" -> Lock_acquire
  | "rmw" -> Atomic_rmw
  | s -> invalid_arg ("Explore.point_of_string: " ^ s)

(* All points a policy may target; [sync_points] excludes the per-instruction
   [Step] so a targeted policy only fires at protocol boundaries. *)
let sync_points = [ Xbegin; Xcommit; Xabort; Lock_acquire; Atomic_rmw ]

type preemption = {
  p_tid : int;
  p_at : int; (* per-thread consultation index the preemption fired at *)
  p_point : point; (* point kind observed there (informational) *)
  p_span : int; (* scheduler picks the thread stayed parked for *)
}

let preemption_to_string p =
  Printf.sprintf "%d@%d:%s*%d" p.p_tid p.p_at (point_to_string p.p_point)
    p.p_span

let preemption_of_string s =
  match String.split_on_char '@' s with
  | [ tid; rest ] -> (
      match String.split_on_char ':' rest with
      | [ at; rest ] -> (
          match String.split_on_char '*' rest with
          | [ pt; span ] ->
              {
                p_tid = int_of_string tid;
                p_at = int_of_string at;
                p_point = point_of_string pt;
                p_span = int_of_string span;
              }
          | _ -> invalid_arg ("Explore.preemption_of_string: " ^ s))
      | _ -> invalid_arg ("Explore.preemption_of_string: " ^ s))
  | _ -> invalid_arg ("Explore.preemption_of_string: " ^ s)

type spec =
  | Min_clock
      (* never deviate: the canonical schedule (useful as a control) *)
  | Random_walk of { per_1024 : int; span : int }
      (* at every consultation, park with probability per_1024/1024 for a
         uniform span in [1, span] *)
  | Pct of { depth : int; span : int; horizon : int }
      (* PCT-style: [depth] global consultation indices are drawn uniformly
         from [0, horizon); whichever thread is consulted at one of those
         indices is parked for exactly [span] picks *)
  | Targeted of { per_1024 : int; span : int; points : point list }
      (* park only at the listed point kinds, with probability
         per_1024/1024, for a uniform span in [1, span] *)
  | Replay of preemption list
      (* fire exactly the listed preemptions, keyed by (tid, per-thread
         consultation index); used for reproduction and shrinking *)

let spec_to_string = function
  | Min_clock -> "min-clock"
  | Random_walk { per_1024; span } ->
      Printf.sprintf "walk:per=%d,span=%d" per_1024 span
  | Pct { depth; span; horizon } ->
      Printf.sprintf "pct:depth=%d,span=%d,horizon=%d" depth span horizon
  | Targeted { per_1024; span; points } ->
      Printf.sprintf "targeted:per=%d,span=%d,points=%s" per_1024 span
        (String.concat "+" (List.map point_to_string points))
  | Replay [] -> "replay:"
  | Replay ps ->
      "replay:" ^ String.concat "," (List.map preemption_to_string ps)

(* "key=value" fields after the policy tag, comma-separated. *)
let parse_fields tag s =
  List.map
    (fun field ->
      match String.index_opt field '=' with
      | Some i ->
          ( String.sub field 0 i,
            String.sub field (i + 1) (String.length field - i - 1) )
      | None -> invalid_arg (Printf.sprintf "Explore.spec_of_string: %s:%s" tag s))
    (String.split_on_char ',' s)

let spec_of_string s =
  let tag, rest =
    match String.index_opt s ':' with
    | Some i ->
        (String.sub s 0 i, String.sub s (i + 1) (String.length s - i - 1))
    | None -> (s, "")
  in
  let field fields name =
    match List.assoc_opt name fields with
    | Some v -> int_of_string v
    | None ->
        invalid_arg
          (Printf.sprintf "Explore.spec_of_string: %s missing %s" tag name)
  in
  match tag with
  | "min-clock" -> Min_clock
  | "walk" ->
      let f = parse_fields tag rest in
      Random_walk { per_1024 = field f "per"; span = field f "span" }
  | "pct" ->
      let f = parse_fields tag rest in
      Pct
        {
          depth = field f "depth";
          span = field f "span";
          horizon = field f "horizon";
        }
  | "targeted" ->
      let f = parse_fields tag rest in
      let points =
        match List.assoc_opt "points" f with
        | None | Some "" -> sync_points
        | Some ps ->
            List.map point_of_string (String.split_on_char '+' ps)
      in
      Targeted { per_1024 = field f "per"; span = field f "span"; points }
  | "replay" ->
      if rest = "" then Replay []
      else
        Replay
          (List.map preemption_of_string (String.split_on_char ',' rest))
  | _ -> invalid_arg ("Explore.spec_of_string: unknown policy " ^ s)

type t = {
  spec : spec;
  rng : Rng.t;
  counts : int array; (* per-tid consultation counters *)
  mutable global : int; (* total consultations, for Pct change points *)
  pct_points : int array; (* sorted ascending; empty unless Pct *)
  mutable pct_next : int; (* index of the next unfired Pct change point *)
  mutable fired : preemption list; (* newest first *)
}

let create ?(seed = 1) spec =
  let rng = Rng.create (seed * 2 + 0x9e3779b9) in
  let pct_points =
    match spec with
    | Pct { depth; horizon; _ } ->
        if depth < 0 || horizon < 1 then
          invalid_arg "Explore.create: Pct needs depth >= 0, horizon >= 1";
        let a = Array.init depth (fun _ -> Rng.int rng horizon) in
        Array.sort compare a;
        a
    | _ -> [| |]
  in
  {
    spec;
    rng;
    counts = Array.make Line_table.max_threads 0;
    global = 0;
    pct_points;
    pct_next = 0;
    fired = [];
  }

let fired t = List.rev t.fired

let spec t = t.spec

(* One consultation: called by the machine after every interpreted instruction
   of a still-runnable thread.  Returns the park span (0 = keep the thread
   schedulable).  Must be called in execution order — the per-thread and
   global counters advance on every call, so decisions are a pure function
   of the consultation stream. *)
let hook t ~tid ~point =
  let at = t.counts.(tid) in
  t.counts.(tid) <- at + 1;
  let g = t.global in
  t.global <- g + 1;
  let span =
    match t.spec with
    | Min_clock -> 0
    | Random_walk { per_1024; span } ->
        (* Draw the coin first so the consumed randomness per consultation
           is fixed, keeping downstream draws aligned across runs. *)
        let coin = Rng.int t.rng 1024 in
        if coin < per_1024 && span > 0 then 1 + Rng.int t.rng span else 0
    | Pct { span; _ } ->
        (* Consultation indices are consecutive, so only duplicate change
           points make the while loop run more than once. *)
        let fire = ref false in
        while
          t.pct_next < Array.length t.pct_points
          && t.pct_points.(t.pct_next) <= g
        do
          if t.pct_points.(t.pct_next) = g then fire := true;
          t.pct_next <- t.pct_next + 1
        done;
        if !fire then span else 0
    | Targeted { per_1024; span; points } ->
        if List.mem point points then begin
          let coin = Rng.int t.rng 1024 in
          if coin < per_1024 && span > 0 then 1 + Rng.int t.rng span else 0
        end
        else 0
    | Replay ps -> (
        match
          List.find_opt (fun p -> p.p_tid = tid && p.p_at = at) ps
        with
        | Some p -> p.p_span
        | None -> 0)
  in
  if span > 0 then
    t.fired <- { p_tid = tid; p_at = at; p_point = point; p_span = span } :: t.fired;
  span
