(* EunoCheck: adversarial schedule exploration with linearizability
   checking.

   One "execution" runs a small, hotly contended workload on the machine
   under an exploration policy (Machine.set_explorer + Explore), records
   every completed operation with exact simulated-cycle intervals, and
   checks the history with History.check.  A campaign sweeps trees x op
   mixes x key distributions x seeds x policies; any Illegal verdict is a
   found atomicity bug.

   On a violation the preemption set the policy fired is greedily shrunk:
   each preemption is dropped in turn and the run replayed under
   Explore.Replay — everything is deterministic, so a subset either still
   reproduces the violation or provably does not.  The survivors (usually
   one to three forced context switches) plus the run configuration make a
   one-line repro descriptor that `euno_check --repro` replays verbatim.

   Validation is mutation-driven: the Testonly switches in Htm
   (skip_subscription) and Masstree (widen_read_window) reintroduce real
   atomicity bugs, and the campaign must catch each as a non-linearizable
   history while the unmutated trees sweep clean. *)

module Machine = Euno_sim.Machine
module Explore = Euno_sim.Explore
module Cost = Euno_sim.Cost
module Api = Euno_sim.Api
module Memory = Euno_mem.Memory
module Linemap = Euno_mem.Linemap
module Alloc = Euno_mem.Alloc
module Dist = Euno_workload.Dist
module Opgen = Euno_workload.Opgen
module Htm = Euno_htm.Htm
module IntMap = Map.Make (Int)

(* ---------- mutations ---------- *)

(* Registered Testonly switches, by the name used in repro descriptors.
   Each entry reintroduces one historical atomicity bug. *)
let mutations =
  [
    ("htm-skip-subscription", Htm.Testonly.skip_subscription);
    ("htm-skip-activity-read", Htm.Testonly.skip_activity_read);
    ("htm-lf-skip-announce", Htm.Testonly.lf_skip_announce);
    ("masstree-widen-read-window", Euno_masstree.Masstree.Testonly.widen_read_window);
  ]

let mutation_names = List.map fst mutations

let with_mutation name f =
  if name = "none" then f ()
  else
    match List.assoc_opt name mutations with
    | None -> invalid_arg ("Check_run: unknown mutation " ^ name)
    | Some switch ->
        Euno_sim.Domain_ref.set switch true;
        Fun.protect ~finally:(fun () -> Euno_sim.Domain_ref.set switch false) f

(* ---------- one execution ---------- *)

type config = {
  tree : Kv.kind;
  mix : string; (* "point" (scan-free) or "scan" *)
  dist : string; (* "uniform" or "zipf" *)
  strategy : Htm.strategy; (* fallback strategy the tree's policy selects *)
  threads : int;
  ops : int; (* per thread *)
  keys : int; (* key-space size; tiny so operations genuinely race *)
  seed : int;
  mutation : string; (* "none" or a key of [mutations] *)
}

let kind_of_name n =
  match
    List.find_opt
      (fun k -> Kv.kind_name k = n)
      (Kv.all_kinds @ [ Kv.Lock_bptree ])
  with
  | Some k -> k
  | None -> invalid_arg ("Check_run: unknown tree " ^ n)

let mix_of_name = function
  | "point" -> { Opgen.get = 40; put = 40; scan = 0; delete = 15; rmw = 5 }
  | "scan" -> { Opgen.get = 30; put = 40; scan = 15; delete = 15; rmw = 0 }
  | m -> invalid_arg ("Check_run: unknown mix " ^ m)

let dist_of_name = function
  | "uniform" -> Dist.Uniform
  | "zipf" -> Dist.Zipfian 0.9
  | d -> invalid_arg ("Check_run: unknown distribution " ^ d)

(* Tiny retry budgets so operations keep crossing the fast-path/fallback
   boundary — exactly where the bugs EunoCheck hunts live. *)
let check_htm_policy =
  {
    Htm.default_policy with
    Htm.conflict_retries = 1;
    capacity_retries = 1;
    lock_busy_retries = 2;
    other_retries = 1;
    backoff_base = 16;
    backoff_cap = 128;
  }

(* The same tiny budgets under either fallback strategy; for three-path a
   single unsubscribed attempt per op keeps the fast/middle/fallback
   boundary crossings dense. *)
let check_policy strategy =
  { check_htm_policy with Htm.strategy; fast_path_attempts = 1 }

type exec = {
  x_verdict : History.verdict;
  x_events : int;
  x_fired : Explore.preemption list; (* preemptions the policy fired *)
}

(* Preloaded records: every even key, with values disjoint from the ones
   the workload writes (operation values are >= 1_000_000 and unique per
   (thread, op), so any torn or lost write shows up as an impossible
   observation). *)
let preload_records keys =
  List.filter_map
    (fun k -> if k land 1 = 0 then Some (k, 100_000 + k) else None)
    (List.init keys (fun k -> k))

let op_value ~tid ~i = ((tid + 1) * 1_000_000) + i

let execute config ~policy =
  with_mutation config.mutation @@ fun () ->
  let mem = Memory.create () in
  let map = Linemap.create () in
  let alloc = Alloc.create mem map in
  let records = preload_records config.keys in
  let kv =
    Machine.run_single ~seed:config.seed ~cost:Cost.unit_costs ~mem ~map ~alloc
      (fun () ->
        Kv.build
          ~policy:(check_policy config.strategy)
          ~records config.tree ~fanout:8 ~map)
  in
  let m =
    Machine.create ~threads:config.threads ~seed:config.seed ~cost:Cost.default
      ~mem ~map ~alloc
  in
  let expl = Explore.create ~seed:config.seed policy in
  Machine.set_explorer m (Explore.hook expl);
  let r = History.recorder () in
  let mix = mix_of_name config.mix in
  Machine.run m (fun tid ->
      let dist =
        Dist.create (dist_of_name config.dist) ~n:config.keys
          ~seed:((config.seed * 7919) + (tid * 131) + 1)
      in
      let gen =
        Opgen.create ~scan_len:4 ~dist ~mix
          ~seed:((config.seed * 104729) + tid)
          ()
      in
      for i = 0 to config.ops - 1 do
        Api.work 10;
        let invoked = Api.clock () in
        (try
           match Opgen.next gen with
           | Opgen.Get k ->
               let v = kv.Kv.get k in
               History.record r ~tid ~invoked ~responded:(Api.clock ())
                 (History.Get (k, v))
           | Opgen.Put (k, _) ->
               let v = op_value ~tid ~i in
               kv.Kv.put k v;
               History.record r ~tid ~invoked ~responded:(Api.clock ())
                 (History.Put (k, v))
           | Opgen.Delete k ->
               let ok = kv.Kv.delete k in
               History.record r ~tid ~invoked ~responded:(Api.clock ())
                 (History.Delete (k, ok))
           | Opgen.Rmw (k, _) ->
               (* The trees implement read-modify-write as a non-atomic get
                  then put, so the history must record it as two point
                  operations — recording an atomic Rmw event would assert
                  atomicity the implementation never promises. *)
               let prev = kv.Kv.get k in
               let mid = Api.clock () in
               History.record r ~tid ~invoked ~responded:mid
                 (History.Get (k, prev));
               let v = op_value ~tid ~i in
               kv.Kv.put k v;
               History.record r ~tid ~invoked:mid ~responded:(Api.clock ())
                 (History.Put (k, v))
           | Opgen.Scan (k, len) ->
               let bs = kv.Kv.scan ~from:k ~count:len in
               History.record r ~tid ~invoked ~responded:(Api.clock ())
                 (History.Scan (k, len, bs))
         with Htm.Stuck_fallback _ ->
           (* Tiny budgets plus long forced preemptions can trip the
              fallback watchdog; the op gave up before mutating anything,
              so skip it and keep exploring. *)
           ());
        Api.op_done ()
      done);
  let evs = History.events r in
  let init =
    List.fold_left (fun acc (k, v) -> IntMap.add k v acc) IntMap.empty records
  in
  {
    x_verdict = History.check ~init evs;
    x_events = List.length evs;
    x_fired = Explore.fired expl;
  }

(* ---------- repro descriptors ---------- *)

let config_to_string c =
  Printf.sprintf
    "tree=%s;mix=%s;dist=%s;strategy=%s;threads=%d;ops=%d;keys=%d;seed=%d;mut=%s"
    (Kv.kind_name c.tree) c.mix c.dist
    (Htm.strategy_name c.strategy)
    c.threads c.ops c.keys c.seed c.mutation

let repro_to_string c policy =
  config_to_string c ^ ";policy=" ^ Explore.spec_to_string policy

let repro_of_string s =
  let fields =
    List.map
      (fun field ->
        match String.index_opt field '=' with
        | Some i ->
            ( String.sub field 0 i,
              String.sub field (i + 1) (String.length field - i - 1) )
        | None -> invalid_arg ("Check_run: bad repro field " ^ field))
      (String.split_on_char ';' s)
  in
  let get name =
    match List.assoc_opt name fields with
    | Some v -> v
    | None -> invalid_arg ("Check_run: repro missing " ^ name)
  in
  let strategy =
    (* Absent in descriptors recorded before strategies existed: elision. *)
    match List.assoc_opt "strategy" fields with
    | None -> Htm.Elision
    | Some name -> (
        match Htm.strategy_of_name name with
        | Some s -> s
        | None -> invalid_arg ("Check_run: unknown strategy " ^ name))
  in
  let config =
    {
      tree = kind_of_name (get "tree");
      mix = get "mix";
      dist = get "dist";
      strategy;
      threads = int_of_string (get "threads");
      ops = int_of_string (get "ops");
      keys = int_of_string (get "keys");
      seed = int_of_string (get "seed");
      mutation = get "mut";
    }
  in
  (config, Explore.spec_of_string (get "policy"))

(* ---------- counterexample shrinking ---------- *)

let is_illegal x =
  match x.x_verdict with History.Illegal _ -> true | _ -> false

(* Delta-debugging over the fired preemption set: replay without each
   preemption (latest first — later context switches are most often
   incidental), iterate the pass to a fixed point, and if the survivors
   still exceed the three-preemption target, brute-force their subsets of
   size <= 3 (dropping one element at a time is not monotone, so a small
   subset can reproduce even when no single further drop does).
   Deterministic replay makes every trial conclusive, and executions are
   milliseconds, so the extra trials are cheap. *)
let shrink config fired =
  let reproduces ps = is_illegal (execute config ~policy:(Explore.Replay ps)) in
  if reproduces [] then []
  else begin
    let pass ps =
      let rec drop_each kept = function
        | [] -> List.rev kept
        | p :: rest ->
            if reproduces (List.rev_append kept rest) then drop_each kept rest
            else drop_each (p :: kept) rest
      in
      drop_each [] ps
    in
    let rec fix ps =
      let ps' = pass ps in
      if List.length ps' = List.length ps then ps' else fix ps'
    in
    let survivors = fix (List.rev fired) in
    if List.length survivors <= 3 then survivors
    else begin
      let arr = Array.of_list survivors in
      let n = Array.length arr in
      let found = ref None in
      let try_subset idxs =
        if !found = None then begin
          let ps = List.map (fun i -> arr.(i)) idxs in
          if reproduces ps then found := Some ps
        end
      in
      for i = 0 to n - 1 do
        try_subset [ i ]
      done;
      if !found = None then
        for i = 0 to n - 1 do
          for j = i + 1 to n - 1 do
            try_subset [ i; j ]
          done
        done;
      if !found = None then
        for i = 0 to n - 1 do
          for j = i + 1 to n - 1 do
            for k = j + 1 to n - 1 do
              try_subset [ i; j; k ]
            done
          done
        done;
      match !found with Some ps -> ps | None -> survivors
    end
  end

(* ---------- campaigns ---------- *)

type violation = {
  v_core : History.event list; (* minimized non-linearizable core *)
  v_fired : Explore.preemption list; (* preemptions of the failing run *)
  v_minimized : Explore.preemption list; (* after shrinking *)
  v_repro : string; (* replays the minimized counterexample *)
}

type outcome = {
  o_config : config;
  o_policy : string; (* descriptor of the policy (or pool) used *)
  o_runs : int;
  o_events : int; (* total history events checked *)
  o_violation : violation option;
}

(* The hunting pool: diverse policies so no single bug shape can hide from
   all of them.  Indexed round-robin by run number; the seed varies with
   every run, so 64 runs cover 64 distinct (policy, seed) schedules. *)
(* euno-lint: allow domain-shared-state: immutable in practice — built once at module init and only ever indexed, never written *)
let policy_pool =
  [|
    Explore.Targeted
      { per_1024 = 700; span = 400; points = [ Explore.Lock_acquire ] };
    Explore.Targeted
      { per_1024 = 400; span = 150; points = Explore.sync_points };
    Explore.Random_walk { per_1024 = 20; span = 80 };
    Explore.Random_walk { per_1024 = 60; span = 30 };
    Explore.Pct { depth = 3; span = 200; horizon = 3000 };
    Explore.Pct { depth = 6; span = 60; horizon = 4000 };
  |]

let violation_of config exec =
  match exec.x_verdict with
  | History.Linearizable _ -> None
  | History.Illegal core ->
      let minimized = shrink config exec.x_fired in
      (* Report the core of the minimized replay (shrink verified it is
         still illegal), so the printed history is exactly what the repro
         command reproduces. *)
      let core =
        match
          (execute config ~policy:(Explore.Replay minimized)).x_verdict
        with
        | History.Illegal c -> c
        | History.Linearizable _ -> core
      in
      Some
        {
          v_core = core;
          v_fired = exec.x_fired;
          v_minimized = minimized;
          v_repro = repro_to_string config (Explore.Replay minimized);
        }

(* Run up to [budget] (policy, seed) schedules of [config]; stop at the
   first violation and shrink it. *)
let hunt ?(budget = 64) config =
  let rec go run events =
    if run >= budget then
      {
        o_config = config;
        o_policy = "pool";
        o_runs = budget;
        o_events = events;
        o_violation = None;
      }
    else begin
      let policy = policy_pool.(run mod Array.length policy_pool) in
      let config = { config with seed = config.seed + (run * 7919) } in
      let x = execute config ~policy in
      match violation_of config x with
      | Some v ->
          {
            o_config = config;
            o_policy = Explore.spec_to_string policy;
            o_runs = run + 1;
            o_events = events + x.x_events;
            o_violation = Some v;
          }
      | None -> go (run + 1) (events + x.x_events)
    end
  in
  go 0 0

let base_config tree =
  {
    tree;
    mix = "point";
    dist = "zipf";
    strategy = Htm.Elision;
    threads = 4;
    ops = 12;
    keys = 8;
    seed = 1;
    mutation = "none";
  }

(* The clean sweep: every strategy x tree x mix x distribution, several
   (policy, seed) schedules each, no mutations.  Any violation here is a
   real bug in the trees, the fallback strategies (or the checker).  One
   [hunt] is one pool cell — hunts are independent per config, so
   [Pool.map] fans them across domains; the early-exit-at-first-violation
   behaviour inside a hunt is untouched, and the index merge keeps the
   canonical strategy > tree > mix > dist outcome order. *)
let sweep ?(quick = false) ?(seed = 42) ?(strategies = Htm.all_strategies)
    ?domains () =
  let runs_per_cell = if quick then 4 else 12 in
  let scan_ops = 4 (* 4 threads x 4 ops stays within the 62-event bound *) in
  let cells =
    List.concat_map
      (fun strategy ->
        List.concat_map
          (fun tree ->
            List.concat_map
              (fun (mix, ops) ->
                List.map
                  (fun dist ->
                    { (base_config tree) with mix; dist; ops; seed; strategy })
                  [ "uniform"; "zipf" ])
              [ ("point", 12); ("scan", scan_ops) ])
          Kv.all_kinds)
      strategies
  in
  Pool.map ?domains (fun config -> hunt ~budget:runs_per_cell config) cells

(* Mutation campaign: each registered bug hunted on the tree (and under
   the fallback strategy) it lives in.  The expectation is inverted — not
   finding the bug is the failure. *)
let mutation_targets =
  [
    ("htm-skip-subscription", Kv.Htm_bptree, Htm.Elision);
    ("htm-skip-activity-read", Kv.Htm_bptree, Htm.Three_path);
    ("htm-lf-skip-announce", Kv.Htm_bptree, Htm.Lockfree);
    ("masstree-widen-read-window", Kv.Masstree, Htm.Elision);
  ]

let hunt_mutations ?(budget = 64) ?(seed = 42) ?domains () =
  Pool.map ?domains
    (fun (mutation, tree, strategy) ->
      hunt ~budget { (base_config tree) with mutation; seed; strategy })
    mutation_targets

let clean outcomes = List.for_all (fun o -> o.o_violation = None) outcomes

(* ---------- reporting ---------- *)

let print oc outcomes =
  Printf.fprintf oc "%-14s %-6s %-8s %-10s %-10s %5s %7s %s\n" "tree" "mix"
    "dist" "strategy" "mutation" "runs" "events" "verdict";
  List.iter
    (fun o ->
      let c = o.o_config in
      Printf.fprintf oc "%-14s %-6s %-8s %-10s %-10s %5d %7d %s\n"
        (Kv.kind_name c.tree) c.mix c.dist
        (Htm.strategy_name c.strategy)
        c.mutation o.o_runs o.o_events
        (match o.o_violation with
        | None -> "clean"
        | Some v ->
            Printf.sprintf "VIOLATION (%d preemption%s after shrink)"
              (List.length v.v_minimized)
              (if List.length v.v_minimized = 1 then "" else "s"));
      match o.o_violation with
      | None -> ()
      | Some v ->
          Printf.fprintf oc "  policy: %s\n" o.o_policy;
          Printf.fprintf oc "  minimized preemptions: [%s]\n"
            (String.concat ", "
               (List.map Explore.preemption_to_string v.v_minimized));
          Printf.fprintf oc "  non-linearizable core:\n%s\n"
            (History.to_string v.v_core);
          Printf.fprintf oc "  repro: euno_check --repro '%s'\n" v.v_repro)
    outcomes

let to_records ?experiment outcomes =
  List.mapi
    (fun i o ->
      let c = o.o_config in
      Report.check_to_json ?experiment ~run:i ~tree:(Kv.kind_name c.tree)
        ~mix:c.mix ~dist:c.dist ~mutation:c.mutation
        ~strategy:(Htm.strategy_name c.strategy)
        ~capacity_model:Cost.default.Cost.capacity.Cost.cm_name
        ~threads:c.threads ~seed:c.seed ~policy:o.o_policy ~runs:o.o_runs
        ~events:o.o_events
        ~violation:
          (Option.map
             (fun v ->
               ( List.length v.v_fired,
                 List.length v.v_minimized,
                 List.length v.v_core,
                 v.v_repro ))
             o.o_violation)
        ())
    outcomes
