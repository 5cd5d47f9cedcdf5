(* The simulated multicore.

   Each simulated hardware thread is an effects-handler coroutine.  The
   scheduler always resumes the ready thread with the smallest local cycle
   clock, interprets its next effect (memory access, atomic, RTM
   primitive), charges cycles from the Cost model, performs eager
   requester-wins conflict detection at cache-line granularity, and parks
   the continuation again.  Doomed transactions observe their abort as a
   Txn_abort exception delivered at their next instruction, exactly like a
   real RTM abort rolling back to the xbegin point.

   The whole machine runs on one host thread; given a seed, every run is
   bit-for-bit reproducible.

   Fast paths (see docs/SIMULATOR.md "fast paths"): per-access state is
   flat-array only — line ownership and last-writer sockets are arrays
   indexed by line, transaction read/write sets live in the Line_table
   bits plus a per-thread log, buffered stores sit in an epoch-versioned
   table cleared O(1) on abort, the scheduler's pick-min is a lazy binary
   heap (Sched), and every observation and fault hook sits behind one
   [hooked] bit, so while nothing is installed the access path tests that
   bit and builds no event.  None of this changes simulated behavior: the
   determinism suite replays recorded seed-42 traces byte for byte. *)

module Mem = Euno_mem.Memory
module Lmap = Euno_mem.Linemap
module Al = Euno_mem.Alloc

let n_user_counters = 16

(* ---------- user-counter registration ----------

   The user-counter index space is shared by every module that emits
   telemetry through Api.count.  Owners declare their indices here at
   module-initialization time; claiming an index another owner already
   holds is a startup failure instead of two counters silently aliasing
   in every report.  Host-side bookkeeping only — nothing simulated.

   The table is domain-local, seeded from the parent at spawn: the
   module-init registrations (htm, euno_tree) happen on the main domain
   before any pool worker exists, so workers inherit a complete copy,
   and a registration performed on one worker (e.g. by a test) can
   neither race nor collide with another domain's. *)

let user_counter_registry : (int, string * string) Hashtbl.t Domain_ref.t =
  Domain_ref.create ~split:Hashtbl.copy (fun () ->
      Hashtbl.create n_user_counters)

let register_user_counters ~owner names =
  let user_counter_registry = Domain_ref.get user_counter_registry in
  List.iter
    (fun (idx, name) ->
      if idx < 0 || idx >= n_user_counters then
        invalid_arg
          (Printf.sprintf
             "Machine.register_user_counters: %s registers index %d outside \
              0..%d"
             owner idx (n_user_counters - 1));
      match Hashtbl.find_opt user_counter_registry idx with
      | Some (owner', name') when owner' <> owner || name' <> name ->
          invalid_arg
            (Printf.sprintf
               "Machine.register_user_counters: index %d (%s, claimed by %s) \
                collides with %s's %s"
               idx name owner owner' name')
      | Some _ -> () (* identical re-registration is harmless *)
      | None -> Hashtbl.replace user_counter_registry idx (owner, name))
    names

let user_counter_names () =
  Hashtbl.fold (fun idx (_, name) acc -> (idx, name) :: acc)
    (Domain_ref.get user_counter_registry)
    []
  |> List.sort compare

let user_counter_owner idx =
  Option.map fst (Hashtbl.find_opt (Domain_ref.get user_counter_registry) idx)

type counters = {
  mutable ops : int;
  mutable commits : int;
  aborts : int array; (* indexed by Abort.index *)
  conflict_kinds : int array; (* conflicts by Linemap kind of the line *)
  mutable wasted_cycles : int; (* cycles inside aborted transactions *)
  mutable committed_cycles : int; (* cycles inside committed transactions *)
  mutable accesses : int; (* instruction-count proxy: effects interpreted *)
  user : int array;
}

let fresh_counters () =
  {
    ops = 0;
    commits = 0;
    aborts = Array.make Abort.n_classes 0;
    conflict_kinds = Array.make Al.nkinds 0;
    wasted_cycles = 0;
    committed_cycles = 0;
    accesses = 0;
    user = Array.make n_user_counters 0;
  }

(* ---------- fault injection ----------

   Deterministic fault hooks consulted by the machine at well-defined
   points.  Every hook is a pure function of (tid, simulated clock), so for
   a fixed seed the same faults fire at the same simulated instants on
   every run; the hooks themselves never mutate machine state.  See
   Euno_fault for the declarative plan DSL that compiles to one of these. *)

type injector = {
  inj_spurious : tid:int -> clock:int -> int;
      (* extra spurious-abort probability (per million transactional
         accesses) on top of Cost.spurious_per_million: interrupt/GC storm *)
  inj_capacity : tid:int -> clock:int -> (int * int) option;
      (* Some (rs, ws): override the read/write-set line capacities while
         active (SMT sibling stealing half the L1/L2), None: nominal *)
  inj_preempt : tid:int -> clock:int -> int;
      (* absolute clock the thread is descheduled until; <= clock means
         runnable.  A preempted transaction aborts (context switches kill
         RTM transactions), then the thread's clock jumps forward. *)
  inj_lock_stall : tid:int -> clock:int -> int;
      (* extra cycles the thread stalls immediately after a successful
         non-transactional lock acquisition: preemption while holding the
         fallback lock, the lemming-storm trigger *)
  inj_skew : tid:int -> clock:int -> int;
      (* per-mille slowdown applied to every cycle charge on this thread
         (DVFS / thermal clock skew); 0 = nominal speed *)
  inj_alloc_fail : tid:int -> clock:int -> in_txn:bool -> bool;
      (* allocation attempted at this instant takes the allocator's slow
         path: aborts the enclosing transaction (Abort.Alloc_fault) or, in
         plain code, raises Euno_mem.Alloc.Alloc_failure.  [in_txn] lets a
         plan target only transactional allocations (which roll back
         safely) without failing fallback-path allocations mid-update. *)
}

let no_injector =
  {
    inj_spurious = (fun ~tid:_ ~clock:_ -> 0);
    inj_capacity = (fun ~tid:_ ~clock:_ -> None);
    inj_preempt = (fun ~tid:_ ~clock:_ -> 0);
    inj_lock_stall = (fun ~tid:_ ~clock:_ -> 0);
    inj_skew = (fun ~tid:_ ~clock:_ -> 0);
    inj_alloc_fail = (fun ~tid:_ ~clock:_ ~in_txn:_ -> false);
  }

type status =
  | Start of (unit -> unit)
  | Ready : ('a, unit) Effect.Deep.continuation * 'a -> status
      (* parked continuation and the value to resume it with, boxed
         together (one block per interpreted effect, not two) *)
  | Running
  | Done
  | Failed of exn

type tstate = {
  tid : int;
  socket : int;
  mutable clock : int;
  mutable status : status;
  mutable doom : Abort.code option;
  mutable pending_exn : exn option;
    (* non-abort exception to deliver at the next resumption (e.g. an
       injected allocation failure outside a transaction) *)
  mutable txn : Txn.t option;
  arena : Txn.t;
    (* the one Txn value this thread ever uses; [txn = Some arena] while a
       transaction is active.  Reset in O(1) at each xbegin. *)
  rng : Rng.t;
  mutable op_key : int;
  cache : int array; (* direct-mapped warmth cache of line ids *)
  cnt : counters;
}

type t = {
  mem : Mem.t;
  map : Lmap.t;
  alloc : Al.t;
  cost : Cost.t;
  (* Cost-model fields memoized out of the record so the access path does
     one load instead of two; immutable for the machine's lifetime. *)
  c_hit : int;
  c_miss : int;
  c_remote : int;
  c_wextra : int;
  c_cas : int;
  c_xbegin : int;
  c_xend : int;
  c_abort : int;
  c_spur : int;
  c_txn_limit : int;
  c_rs_cap : int;
  c_ws_cap : int;
  c_gran : int; (* conflict-granule shift over line ids; 0 = per-line *)
  lt : Line_table.t;
  threads : tstate array;
  sched : Sched.t;
  mutable owner_socket : int array; (* line -> socket of last writer, -1 *)
  cache_mask : int;
  mutable hooked : bool;
    (* false until a subscriber, injector, explorer, crash point or
       sampling window is installed.  The one test on the hot path: while
       it is false no event is built and no hook below is consulted.
       While it is true every hook is consulted, and the inert defaults
       compute the same values as skipping it would. *)
  mutable probe : Sev.event -> unit; (* subscribers, in subscription order *)
  mutable inject : injector;
  mutable explore : tid:int -> point:Explore.point -> int;
  mutable exp_point : Explore.point;
    (* point kind of the effect currently being interpreted; reset to
       [Step] before each resumption, upgraded by the process functions *)
  mutable sample_window : int; (* 0 = periodic sampling disabled *)
  mutable next_sample : int; (* next window boundary; max_int = never *)
  mutable samples : (int * snapshot) list; (* newest first *)
  mutable crash_at : int;
    (* simulated cycle at which the whole process dies (Crashed is raised
       from the scheduler); max_int = never *)
}

and snapshot = {
  s_ops : int;
  s_commits : int;
  s_aborts : int array;
  s_conflict_kinds : int array;
  s_wasted_cycles : int;
  s_committed_cycles : int;
  s_accesses : int;
  s_user : int array;
  s_clock : int;
}

let no_explorer ~tid:_ ~point:_ = 0

let create ~threads ~seed ~cost ~mem ~map ~alloc =
  if threads < 1 || threads > Line_table.max_threads then
    invalid_arg "Machine.create: bad thread count";
  let cache_size = 1 lsl cost.Cost.cache_entries_log2 in
  let mk tid =
    {
      tid;
      socket = tid mod cost.Cost.sockets;
      clock = 0;
      status = Done;
      doom = None;
      pending_exn = None;
      txn = None;
      arena = Txn.create ~tid;
      rng = Rng.create (seed + (tid * 7919) + 1);
      op_key = -1;
      cache = Array.make cache_size (-1);
      cnt = fresh_counters ();
    }
  in
  {
    mem;
    map;
    alloc;
    cost;
    c_hit = cost.Cost.cache_hit;
    c_miss = cost.Cost.cache_miss;
    c_remote = cost.Cost.remote_extra;
    c_wextra = cost.Cost.write_extra;
    c_cas = cost.Cost.cas;
    c_xbegin = cost.Cost.xbegin;
    c_xend = cost.Cost.xend;
    c_abort = cost.Cost.abort_penalty;
    c_spur = cost.Cost.spurious_per_million;
    c_txn_limit = cost.Cost.txn_cycle_limit;
    c_rs_cap = cost.Cost.capacity.Cost.rs_lines;
    c_ws_cap = cost.Cost.capacity.Cost.ws_lines;
    c_gran = cost.Cost.capacity.Cost.granule_log2;
    lt = Line_table.create ();
    threads = Array.init threads mk;
    sched = Sched.create ~capacity:threads;
    owner_socket = Array.make 64 (-1);
    cache_mask = cache_size - 1;
    hooked = false;
    probe = ignore;
    inject = no_injector;
    explore = no_explorer;
    exp_point = Explore.Step;
    sample_window = 0;
    next_sample = max_int;
    samples = [];
    crash_at = max_int;
  }

let subscribe m f =
  let probe = m.probe in
  m.probe <- (fun e -> probe e; f e);
  m.hooked <- true

exception Crashed of { at_cycle : int }

let set_crash m ~at_cycle =
  if at_cycle < 0 then invalid_arg "Machine.set_crash: negative cycle";
  m.crash_at <- at_cycle;
  m.hooked <- true

let set_injector m inj =
  m.inject <- inj;
  m.hooked <- true

let set_explorer m f =
  m.explore <- f;
  m.hooked <- true

let set_sampling m ~window =
  if window < 1 then invalid_arg "Machine.set_sampling: window < 1";
  m.sample_window <- window;
  m.next_sample <- window;
  m.samples <- [];
  m.hooked <- true

(* Deliver an event on thread [t] to the subscribers.  Callers test
   [m.hooked] first, so an unhooked run builds no event. *)
let[@inline never] emit m (t : tstate) body =
  m.probe { Sev.tid = t.tid; clock = t.clock; body }

let n_threads m = Array.length m.threads
let memory m = m.mem
let linemap m = m.map
let allocator m = m.alloc
let cost m = m.cost

(* ---------- cache warmth and cycle charging ---------- *)

(* Every cycle charge passes through the skew hook, so a fault plan can
   slow one core down uniformly (DVFS / thermal throttling).  Unhooked,
   the charge is a single add. *)
let[@inline] charge m t c =
  let c =
    if not m.hooked then c
    else
      match m.inject.inj_skew ~tid:t.tid ~clock:t.clock with
      | 0 -> c
      | sk -> c + (c * sk / 1000)
  in
  t.clock <- t.clock + c

(* Injected capacity squeeze overrides the nominal read/write-set limits. *)
let[@inline] rs_capacity m t =
  if not m.hooked then m.c_rs_cap
  else
    match m.inject.inj_capacity ~tid:t.tid ~clock:t.clock with
    | Some (rs, _) -> rs
    | None -> m.c_rs_cap

let[@inline] ws_capacity m t =
  if not m.hooked then m.c_ws_cap
  else
    match m.inject.inj_capacity ~tid:t.tid ~clock:t.clock with
    | Some (_, ws) -> ws
    | None -> m.c_ws_cap

(* Conflict/capacity tracking granule of a line.  Everything entering the
   Line_table or a transaction's read/write set is granule-numbered, so a
   non-zero [granule_log2] makes adjacent lines collide (coarse conflict
   detection) and fill capacity in granule units.  Cycle charging, cache
   warmth and socket ownership stay per-line. *)
let[@inline] granule m line = line lsr m.c_gran

let[@inline] socket_of_line m line =
  if line < Array.length m.owner_socket then m.owner_socket.(line) else -1

let set_socket_of_line m line socket =
  (if line >= Array.length m.owner_socket then begin
     let n = max (2 * Array.length m.owner_socket) (line + 1) in
     let a = Array.make n (-1) in
     Array.blit m.owner_socket 0 a 0 (Array.length m.owner_socket);
     m.owner_socket <- a
   end);
  m.owner_socket.(line) <- socket

let mem_cost m t line ~write =
  let idx = line land m.cache_mask in
  let c =
    if t.cache.(idx) = line then m.c_hit
    else begin
      let s = socket_of_line m line in
      let remote = if s >= 0 && s <> t.socket then m.c_remote else 0 in
      t.cache.(idx) <- line;
      m.c_miss + remote
    end
  in
  if write then c + m.c_wextra else c

(* A write that becomes visible: invalidate the line in every other thread's
   warmth cache and record which socket owns it now. *)
let publish_write m ~writer line =
  let idx = line land m.cache_mask in
  let threads = m.threads in
  for i = 0 to Array.length threads - 1 do
    let t = Array.unsafe_get threads i in
    if t.tid <> writer && t.cache.(idx) = line then t.cache.(idx) <- -1
  done;
  set_socket_of_line m line m.threads.(writer).socket

(* ---------- aborting transactions ---------- *)

let release_txn m (v : tstate) (txn : Txn.t) =
  Txn.iter_lines txn (fun line -> Line_table.remove_thread m.lt line v.tid)

let rollback_allocs m (txn : Txn.t) =
  List.iter
    (fun (from_kind, to_kind, words) ->
      Al.reclassify m.alloc ~from_kind:to_kind ~to_kind:from_kind ~words)
    (Txn.reclassifies txn);
  List.iter
    (fun (kind, addr, words) -> Al.free m.alloc ~kind ~addr ~words)
    (Txn.allocs txn)

(* Abort a thread's active transaction: release ownership, roll back
   allocations, account wasted cycles, and arrange for Txn_abort to be
   delivered at the victim's next resumption. *)
let abort_txn m (v : tstate) (code : Abort.code) =
  match v.txn with
  | None -> ()
  | Some txn ->
      release_txn m v txn;
      rollback_allocs m txn;
      v.txn <- None;
      v.cnt.aborts.(Abort.index code) <- v.cnt.aborts.(Abort.index code) + 1;
      v.cnt.wasted_cycles <-
        v.cnt.wasted_cycles + (v.clock - Txn.start_clock txn) + m.c_abort;
      charge m v m.c_abort;
      if m.hooked then emit m v (Sev.Txn_aborted code);
      v.doom <- Some code

(* Simulated process death: every hardware thread dies at this instant.
   In-flight transactions keep RTM failure atomicity — buffered writes are
   discarded and transactional allocations rolled back, exactly as if the
   dying core's coherence traffic had aborted them — but nothing else is
   cleaned up: parked continuations are dropped WITHOUT being discontinued,
   so no OCaml finalizer or exception handler runs.  Held advisory and
   fallback locks stay written in simulated memory and half-applied plain
   (fallback-path) updates stay torn — that abandoned state is precisely
   what crash recovery has to cope with.  Raised from scheduler context, so
   every thread is parked (never mid-resume) when it fires.  No abort
   penalty is charged and no abort counter bumped: a power failure is not
   an RTM event. *)
let crash m ~at_cycle =
  Array.iter
    (fun t ->
      (match t.txn with
      | Some txn ->
          release_txn m t txn;
          rollback_allocs m txn;
          t.txn <- None
      | None -> ());
      t.doom <- None;
      t.pending_exn <- None;
      t.status <- Done)
    m.threads;
  raise (Crashed { at_cycle })

(* Requester-wins: the thread currently issuing the access survives; the
   transactional holder is doomed (as in TSX, where the incoming coherence
   request aborts the transaction that owns the line). *)
let doom_holder m ~attacker ~victim_tid line =
  let v = m.threads.(victim_tid) in
  let a = m.threads.(attacker) in
  let kind = Lmap.kind_of_line m.map line in
  let cls =
    Abort.classify ~victim_key:v.op_key ~attacker_key:a.op_key
      ~line_kind:kind
  in
  let ki = Al.kind_index kind in
  v.cnt.conflict_kinds.(ki) <- v.cnt.conflict_kinds.(ki) + 1;
  if m.hooked then emit m a (Sev.Conflict { victim = victim_tid; line; kind });
  abort_txn m v (Abort.Conflict cls)

(* The table is granule-indexed; the attacker's concrete [line] is kept for
   kind classification and the trace (with per-line granules the two
   coincide, and with coarse granules the victim's exact line is unknown —
   the access that triggered the doom is the honest thing to report). *)
let[@inline] doom_writer_of m ~attacker line =
  let w = Line_table.writer m.lt (granule m line) in
  if w >= 0 && w <> attacker then doom_holder m ~attacker ~victim_tid:w line

let[@inline] doom_readers_of m ~attacker line =
  Line_table.iter_readers_except m.lt (granule m line) attacker (fun r ->
      doom_holder m ~attacker ~victim_tid:r line)

(* ---------- transactional hazards ---------- *)

(* Spurious (interrupt/GC-like) and timer aborts, checked on every
   transactional access.  Returns true if the transaction just died. *)
let txn_hazards m (t : tstate) (txn : Txn.t) =
  let spur =
    if m.hooked then m.c_spur + m.inject.inj_spurious ~tid:t.tid ~clock:t.clock
    else m.c_spur
  in
  if spur > 0 && Rng.int t.rng 1_000_000 < spur then begin
    abort_txn m t Abort.Spurious;
    true
  end
  else if t.clock - Txn.start_clock txn > m.c_txn_limit then begin
    abort_txn m t Abort.Timer;
    true
  end
  else false

(* ---------- effect interpretation ---------- *)

let process_read m (t : tstate) addr =
  t.cnt.accesses <- t.cnt.accesses + 1;
  let line = Mem.line_of_addr addr in
  charge m t (mem_cost m t line ~write:false);
  match t.txn with
  | None ->
      doom_writer_of m ~attacker:t.tid line;
      if m.hooked then
        emit m t
          (Sev.Plain_read { addr; kind = Lmap.kind_of_line m.map line });
      Mem.get m.mem addr
  | Some txn ->
      if txn_hazards m t txn then 0
      else begin
        if m.hooked then emit m t (Sev.Txn_line_read line);
        match Txn.buffered_value txn addr with
        | Some v -> v
        | None ->
            doom_writer_of m ~attacker:t.tid line;
            let g = granule m line in
            if not (Line_table.is_reader m.lt g t.tid) then begin
              Txn.note_read txn g;
              if Txn.reads txn > rs_capacity m t then begin
                abort_txn m t Abort.Capacity_read;
                0
              end
              else begin
                Line_table.add_reader m.lt g t.tid;
                Mem.get m.mem addr
              end
            end
            else Mem.get m.mem addr
      end

let process_write m (t : tstate) addr value =
  t.cnt.accesses <- t.cnt.accesses + 1;
  let line = Mem.line_of_addr addr in
  charge m t (mem_cost m t line ~write:true);
  match t.txn with
  | None ->
      doom_writer_of m ~attacker:t.tid line;
      doom_readers_of m ~attacker:t.tid line;
      if m.hooked then
        emit m t
          (Sev.Plain_write { addr; kind = Lmap.kind_of_line m.map line });
      Mem.set m.mem addr value;
      publish_write m ~writer:t.tid line
  | Some txn ->
      if txn_hazards m t txn then ()
      else begin
        if m.hooked then emit m t (Sev.Txn_line_write line);
        doom_writer_of m ~attacker:t.tid line;
        doom_readers_of m ~attacker:t.tid line;
        let g = granule m line in
        if Line_table.writer m.lt g <> t.tid then begin
          Txn.note_write txn g;
          if Txn.written txn > ws_capacity m t then
            abort_txn m t Abort.Capacity_write
          else begin
            Line_table.set_writer m.lt g t.tid;
            (* A written line is implicitly monitored for reads too. *)
            if not (Line_table.is_reader m.lt g t.tid) then begin
              Txn.note_read txn g;
              Line_table.add_reader m.lt g t.tid
            end;
            Txn.buffer_write txn addr value
          end
        end
        else begin
          if not (Line_table.is_reader m.lt g t.tid) then begin
            Txn.note_read txn g;
            Line_table.add_reader m.lt g t.tid
          end;
          Txn.buffer_write txn addr value
        end
      end

let current_value m (t : tstate) addr =
  match t.txn with
  | Some txn -> (
      match Txn.buffered_value txn addr with
      | Some v -> v
      | None -> Mem.get m.mem addr)
  | None -> Mem.get m.mem addr

let process_cas m (t : tstate) addr expected desired =
  t.cnt.accesses <- t.cnt.accesses + 1;
  let line = Mem.line_of_addr addr in
  charge m t (m.c_cas + mem_cost m t line ~write:true);
  let old = current_value m t addr in
  let success = old = expected in
  (match t.txn with
  | None ->
      doom_writer_of m ~attacker:t.tid line;
      if success then begin
        doom_readers_of m ~attacker:t.tid line;
        Mem.set m.mem addr desired;
        publish_write m ~writer:t.tid line
      end
  | Some txn ->
      if txn_hazards m t txn then ()
      else begin
        (if m.hooked then begin
           emit m t (Sev.Txn_line_read line);
           if success then emit m t (Sev.Txn_line_write line)
         end);
        doom_writer_of m ~attacker:t.tid line;
        let g = granule m line in
        if success then begin
          doom_readers_of m ~attacker:t.tid line;
          if Line_table.writer m.lt g <> t.tid then begin
            Txn.note_write txn g;
            if Txn.written txn > ws_capacity m t then
              abort_txn m t Abort.Capacity_write
            else begin
              Line_table.set_writer m.lt g t.tid;
              if not (Line_table.is_reader m.lt g t.tid) then begin
                Txn.note_read txn g;
                Line_table.add_reader m.lt g t.tid
              end;
              Txn.buffer_write txn addr desired
            end
          end
          else begin
            if not (Line_table.is_reader m.lt g t.tid) then begin
              Txn.note_read txn g;
              Line_table.add_reader m.lt g t.tid
            end;
            Txn.buffer_write txn addr desired
          end
        end
        else if not (Line_table.is_reader m.lt g t.tid) then begin
          Txn.note_read txn g;
          if Txn.reads txn > rs_capacity m t then
            abort_txn m t Abort.Capacity_read
          else Line_table.add_reader m.lt g t.tid
        end
      end);
  (* Tag the exploration point: a successful plain CAS is where lock
     handoffs and version bumps become visible, so targeted policies
     preempt right after it.  Preemption while holding a lock: a
     successful non-transactional acquisition of a Lock-kind word can be
     followed by an injected stall, so every other thread sees the lock
     held for that much longer.  This is the trigger for the
     fallback-holder lemming storm. *)
  (if m.hooked && success && t.txn = None then
     if desired <> 0 && Lmap.kind_of_line m.map line = Lmap.Lock then begin
       m.exp_point <- Explore.Lock_acquire;
       let stall = m.inject.inj_lock_stall ~tid:t.tid ~clock:t.clock in
       if stall > 0 then begin
         emit m t (Sev.Injected (Printf.sprintf "lock-holder-stall:+%d" stall));
         t.clock <- t.clock + stall
       end
     end
     else m.exp_point <- Explore.Atomic_rmw);
  success

let process_faa m (t : tstate) addr delta =
  let old = current_value m t addr in
  let (_ : bool) = process_cas m t addr old (old + delta) in
  old

let process_xbegin m (t : tstate) =
  t.cnt.accesses <- t.cnt.accesses + 1;
  (match t.txn with
  | Some _ -> failwith "Machine: nested transactions are not supported"
  | None -> ());
  charge m t m.c_xbegin;
  if m.hooked then begin
    m.exp_point <- Explore.Xbegin;
    emit m t Sev.Txn_begin
  end;
  Txn.reset t.arena ~start_clock:t.clock;
  t.txn <- Some t.arena

let process_xend m (t : tstate) =
  t.cnt.accesses <- t.cnt.accesses + 1;
  match t.txn with
  | None -> failwith "Machine: xend outside a transaction"
  | Some txn ->
      charge m t m.c_xend;
      if m.hooked then m.exp_point <- Explore.Xcommit;
      (* Eager conflict detection guarantees exclusive ownership of the
         write set here, so commit always succeeds. *)
      Txn.iter_writes txn (fun addr value ->
          Mem.set m.mem addr value;
          publish_write m ~writer:t.tid (Mem.line_of_addr addr));
      List.iter
        (fun (kind, addr, words) ->
          if m.hooked then emit m t (Sev.Free_done { addr; words });
          Al.free m.alloc ~kind ~addr ~words)
        (Txn.frees txn);
      release_txn m t txn;
      t.cnt.commits <- t.cnt.commits + 1;
      t.cnt.committed_cycles <-
        t.cnt.committed_cycles + (t.clock - Txn.start_clock txn);
      if m.hooked then
        emit m t
          (Sev.Txn_commit { reads = Txn.reads txn; writes = Txn.written txn });
      t.txn <- None

let process_alloc m (t : tstate) kind words =
  t.cnt.accesses <- t.cnt.accesses + 1;
  charge m t m.c_miss;
  if
    m.hooked
    && m.inject.inj_alloc_fail ~tid:t.tid ~clock:t.clock
         ~in_txn:(t.txn <> None)
  then begin
    (* The allocator's fast path is exhausted: inside a transaction the
       slow path (page fault / syscall) always aborts, like real RTM;
       outside, the failure surfaces as an exception the caller must
       handle. *)
    emit m t (Sev.Injected "alloc-pressure");
    (match t.txn with
    | Some _ -> abort_txn m t Abort.Alloc_fault
    | None -> t.pending_exn <- Some Al.Alloc_failure);
    0
  end
  else begin
    let addr = Al.alloc m.alloc ~kind ~words in
    (match t.txn with
    | Some txn -> Txn.record_alloc txn kind addr words
    | None -> ());
    if m.hooked then emit m t (Sev.Alloc_done { addr; words });
    addr
  end

let process_reclassify m (t : tstate) from_kind to_kind words =
  Al.reclassify m.alloc ~from_kind ~to_kind ~words;
  match t.txn with
  | Some txn -> Txn.record_reclassify txn from_kind to_kind words
  | None -> ()

let process_free m (t : tstate) kind addr words =
  t.cnt.accesses <- t.cnt.accesses + 1;
  charge m t m.c_hit;
  match t.txn with
  | Some txn -> Txn.record_free txn kind addr words
  | None ->
      if m.hooked then emit m t (Sev.Free_done { addr; words });
      Al.free m.alloc ~kind ~addr ~words

(* ---------- aggregated counters ---------- *)

let aggregate m =
  let acc =
    {
      s_ops = 0;
      s_commits = 0;
      s_aborts = Array.make Abort.n_classes 0;
      s_conflict_kinds = Array.make Al.nkinds 0;
      s_wasted_cycles = 0;
      s_committed_cycles = 0;
      s_accesses = 0;
      s_user = Array.make n_user_counters 0;
      s_clock = 0;
    }
  in
  Array.fold_left
    (fun acc t ->
      Array.iteri (fun i v -> acc.s_aborts.(i) <- acc.s_aborts.(i) + v) t.cnt.aborts;
      Array.iteri
        (fun i v -> acc.s_conflict_kinds.(i) <- acc.s_conflict_kinds.(i) + v)
        t.cnt.conflict_kinds;
      Array.iteri (fun i v -> acc.s_user.(i) <- acc.s_user.(i) + v) t.cnt.user;
      {
        acc with
        s_ops = acc.s_ops + t.cnt.ops;
        s_commits = acc.s_commits + t.cnt.commits;
        s_wasted_cycles = acc.s_wasted_cycles + t.cnt.wasted_cycles;
        s_committed_cycles = acc.s_committed_cycles + t.cnt.committed_cycles;
        s_accesses = acc.s_accesses + t.cnt.accesses;
        s_clock = max acc.s_clock t.clock;
      })
    acc m.threads

(* Periodic counter sampling: the scheduler always resumes the thread with
   the smallest clock, so when that minimum crosses a window boundary every
   thread has already run past it — the cumulative aggregate at that moment
   is the machine state "at" the boundary.  Consumers diff consecutive
   samples to get per-window rates (see Euno_harness.Report). *)
let sample_boundaries m clock =
  while clock >= m.next_sample do
    m.samples <- (m.next_sample, aggregate m) :: m.samples;
    m.next_sample <- m.next_sample + m.sample_window
  done

let samples m = List.rev m.samples

(* ---------- scheduler ---------- *)

let run m bodies =
  let handler (t : tstate) : (unit, unit) Effect.Deep.handler =
    let park : type a. (a, unit) Effect.Deep.continuation -> a -> unit =
     fun k v -> t.status <- Ready (k, v)
    in
    {
      retc =
        (fun () ->
          if m.hooked then
            emit m t (Sev.Thread_exit { failed = false; aborted = false });
          t.status <- Done);
      exnc =
        (fun e ->
          (match t.txn with
          | Some txn ->
              release_txn m t txn;
              rollback_allocs m txn;
              t.txn <- None
          | None -> ());
          if m.hooked then
            emit m t
              (Sev.Thread_exit
                 {
                   failed = true;
                   aborted =
                     (match e with Eff.Txn_abort _ -> true | _ -> false);
                 });
          t.status <- Failed e);
      effc =
        (fun (type a) (eff : a Effect.t) ->
          match eff with
          | Eff.Read addr ->
              Some
                (fun (k : (a, unit) Effect.Deep.continuation) ->
                  park k (process_read m t addr))
          | Eff.Write (addr, v) -> Some (fun k -> park k (process_write m t addr v))
          | Eff.Cas (addr, e0, d) -> Some (fun k -> park k (process_cas m t addr e0 d))
          | Eff.Faa (addr, d) -> Some (fun k -> park k (process_faa m t addr d))
          | Eff.Work c ->
              Some
                (fun k ->
                  charge m t (max 0 c);
                  park k ())
          | Eff.Xbegin -> Some (fun k -> park k (process_xbegin m t))
          | Eff.Xend -> Some (fun k -> park k (process_xend m t))
          | Eff.Xabort code ->
              Some
                (fun k ->
                  if m.hooked then m.exp_point <- Explore.Xabort;
                  abort_txn m t (Abort.Explicit code);
                  park k ())
          | Eff.Xtest -> Some (fun k -> park k (t.txn <> None))
          | Eff.Tid -> Some (fun k -> park k t.tid)
          | Eff.Clock -> Some (fun k -> park k t.clock)
          | Eff.Rand n -> Some (fun k -> park k (Rng.int t.rng n))
          | Eff.Alloc (kind, words) ->
              Some (fun k -> park k (process_alloc m t kind words))
          | Eff.Free (kind, addr, words) ->
              Some (fun k -> park k (process_free m t kind addr words))
          | Eff.Reclassify (from_kind, to_kind, words) ->
              Some (fun k -> park k (process_reclassify m t from_kind to_kind words))
          | Eff.Op_key key ->
              Some
                (fun k ->
                  t.op_key <- key;
                  park k ())
          | Eff.Op_done ->
              Some
                (fun k ->
                  t.cnt.ops <- t.cnt.ops + 1;
                  if m.hooked then emit m t (Sev.Op_exit t.op_key);
                  t.op_key <- -1;
                  park k ())
          | Eff.Count (i, d) ->
              Some
                (fun k ->
                  t.cnt.user.(i) <- t.cnt.user.(i) + d;
                  park k ())
          | Eff.Untracked_read addr ->
              Some
                (fun k ->
                  charge m t 1;
                  if m.hooked then emit m t (Sev.Unsafe_read addr);
                  park k (Mem.get m.mem addr))
          | Eff.Untracked_write (addr, v) ->
              Some
                (fun k ->
                  charge m t 1;
                  if m.hooked then emit m t (Sev.Unsafe_write addr);
                  park k (Mem.set m.mem addr v))
          | Eff.San_note note ->
              Some
                (fun k ->
                  if m.hooked then emit m t (Sev.Note note);
                  park k ())
          | _ -> None)
    }
  in
  Array.iter
    (fun t ->
      t.status <- Start (fun () -> bodies t.tid);
      t.clock <- 0;
      t.doom <- None;
      t.pending_exn <- None;
      t.txn <- None)
    m.threads;
  let runnable t = match t.status with Start _ | Ready _ -> true | _ -> false in
  (* Resume thread [t] exactly once: it runs until its next effect is
     interpreted and parked (or it finishes).  Picks only return runnable
     threads. *)
  let resume_once t =
    match t.status with
    | Start f ->
        t.status <- Running;
        Effect.Deep.match_with f () (handler t)
    | Ready (k, v) -> (
        t.status <- Running;
        match t.doom with
        | Some code ->
            t.doom <- None;
            (* The first effect after a delivered abort is where the
               retry/fallback path begins — a prime preemption target. *)
            if m.hooked then m.exp_point <- Explore.Xabort;
            Effect.Deep.discontinue k (Eff.Txn_abort code)
        | None -> (
            match t.pending_exn with
            | Some e ->
                t.pending_exn <- None;
                Effect.Deep.discontinue k e
            | None -> Effect.Deep.continue k v))
    | Running | Done | Failed _ -> assert false
  in
  (* Heap pick.  The run queue holds one entry per runnable thread other
     than the one just stepped, keyed by the clock it was parked at.  A
     parked thread's clock can still advance (an attacker charging it the
     abort penalty), so entries are validated on pop and re-pushed at the
     thread's current clock when stale — clocks only grow, so a stale
     (under-estimating) key can never hide the true minimum.  Pop order is
     smallest clock first, ties to the smallest tid (see Sched).  Thread 0
     starts out of the heap, as if just stepped: at clock 0 it is the
     first pick. *)
  Sched.clear m.sched;
  Array.iter
    (fun t -> if t.tid > 0 then Sched.push m.sched ~clock:0 ~tid:t.tid)
    m.threads;
  let rec pop () =
    if Sched.is_empty m.sched then -1
    else begin
      let packed = Sched.pop m.sched in
      let tid = Sched.tid_of packed in
      let clock = m.threads.(tid).clock in
      if clock = Sched.clock_of packed then tid
      else begin
        (* Stale entry: the thread was charged while parked. *)
        Sched.push m.sched ~clock ~tid;
        pop ()
      end
    end
  in
  (* Run-ahead: keep stepping the previous thread while it is still the
     global minimum, with zero heap traffic.  The comparison against
     [peek] is exact: the thread itself is not in the heap, tids differ,
     and a stale peeked key only under-estimates its thread's true key —
     so [key < peek] proves this thread is the unique (clock, tid)
     minimum, the same pick a push and pop would make.  This collapses the
     single-threaded case (tree preloads, run_single, the micro-benches)
     to straight-line execution. *)
  let heap_pick prev =
    if not (runnable prev) then pop ()
    else if
      Sched.is_empty m.sched
      || Sched.pack ~clock:prev.clock ~tid:prev.tid < Sched.peek m.sched
    then prev.tid
    else begin
      Sched.push m.sched ~clock:prev.clock ~tid:prev.tid;
      pop ()
    end
  in
  (* Exploration pick: the same min-(clock, tid) pick over a linear scan
     (thread counts in explore runs are tiny) with a park overlay.  The
     policy is consulted about every thread a step resumed that is still
     runnable, and may park it for [span] picks; parked threads are
     skipped until their span drains (one tick per pick of another
     thread) or until every runnable thread is parked, when the minimum
     parked thread is force-released so the machine never deadlocks
     itself.  An installed explorer implies [hooked].

     Timestamp truthfulness: linearizability checking orders events by
     their recorded clocks, so execution order must never contradict
     them.  A thread overtaken while parked could otherwise execute "in
     the past" of effects that already ran; bumping its clock to the start
     clock of the last executed effect ([now]) keeps recorded intervals
     consistent with execution order.  Under a pure min-clock policy the
     bump is provably a no-op (the picked minimum never decreases), so an
     inert policy reproduces the heap pick's schedule exactly. *)
  let n = Array.length m.threads in
  let parked = Array.make n 0 in
  let now = ref 0 in
  let pick_min pred =
    let b = ref (-1) in
    for i = 0 to n - 1 do
      let t = m.threads.(i) in
      if runnable t && pred i && (!b < 0 || t.clock < m.threads.(!b).clock)
      then b := i
    done;
    !b
  in
  let explore_pick prev resumed =
    (if resumed && runnable prev then
       let span = m.explore ~tid:prev.tid ~point:m.exp_point in
       if span > 0 then begin
         parked.(prev.tid) <- span;
         emit m prev (Sev.Injected (Printf.sprintf "explore-park:%d" span))
       end);
    let c =
      match pick_min (fun i -> parked.(i) = 0) with
      | -1 ->
          let p = pick_min (fun i -> parked.(i) > 0) in
          if p >= 0 then parked.(p) <- 0;
          p
      | c -> c
    in
    if c >= 0 then begin
      for i = 0 to n - 1 do
        if i <> c && parked.(i) > 0 && runnable m.threads.(i) then
          parked.(i) <- parked.(i) - 1
      done;
      let t = m.threads.(c) in
      if t.clock < !now then t.clock <- !now;
      now := t.clock
    end;
    c
  in
  (* Pre-step, run before every step while anything is hooked.  The heap
     pick returns the (clock, tid) minimum, so the crash fires exactly
     when the global minimum clock crosses [crash_at] and samples land on
     window boundaries.  Injected preemption: the OS descheduled this
     thread until [resume_at].  A live transaction dies (context switches
     abort RTM transactions), the clock jumps, and the scheduler re-picks
     — other threads run right past the stalled one.  Returns whether the
     thread was preempted. *)
  let preempted t =
    if t.clock >= m.crash_at then crash m ~at_cycle:t.clock;
    sample_boundaries m t.clock;
    let resume_at = m.inject.inj_preempt ~tid:t.tid ~clock:t.clock in
    if resume_at > t.clock then begin
      emit m t (Sev.Injected (Printf.sprintf "preempt:until=%d" resume_at));
      abort_txn m t Abort.Spurious;
      t.clock <- max t.clock resume_at;
      true
    end
    else begin
      m.exp_point <- Explore.Step;
      false
    end
  in
  (* The one scheduler loop.  Each step picks the next thread (-1 once
     none is runnable), runs the pre-step if anything is hooked, then
     resumes the thread.  [prev] is the thread the last step picked
     (thread 0 before the first) and [resumed] whether it ran or was
     preempted.  Only the pick differs between the heap and exploration
     schedulers. *)
  let exploring = m.explore != no_explorer in
  let rec loop prev resumed =
    let tid =
      if exploring then explore_pick prev resumed else heap_pick prev
    in
    if tid >= 0 then begin
      let t = m.threads.(tid) in
      if m.hooked && preempted t then loop t false
      else begin
        resume_once t;
        loop t true
      end
    end
  in
  loop m.threads.(0) false;
  (* Close the series with a final partial-window sample so the tail of the
     run is never silently dropped. *)
  if m.sample_window > 0 then begin
    let now = Array.fold_left (fun acc t -> max acc t.clock) 0 m.threads in
    match m.samples with
    | (c, _) :: _ when c >= now -> ()
    | _ -> m.samples <- (now, aggregate m) :: m.samples
  end;
  Array.iter
    (fun t -> match t.status with Failed e -> raise e | _ -> ())
    m.threads

(* ---------- results ---------- *)

let snapshot_thread m tid =
  let t = m.threads.(tid) in
  {
    s_ops = t.cnt.ops;
    s_commits = t.cnt.commits;
    s_aborts = Array.copy t.cnt.aborts;
    s_conflict_kinds = Array.copy t.cnt.conflict_kinds;
    s_wasted_cycles = t.cnt.wasted_cycles;
    s_committed_cycles = t.cnt.committed_cycles;
    s_accesses = t.cnt.accesses;
    s_user = Array.copy t.cnt.user;
    s_clock = t.clock;
  }

let elapsed m = Array.fold_left (fun acc t -> max acc t.clock) 0 m.threads

let total_aborts s = Array.fold_left ( + ) 0 s.s_aborts

(* Run a single-threaded computation to completion and return its result.
   Used for tree preloading and unit tests. *)
let run_single ?(seed = 1) ?(cost = Cost.unit_costs) ~mem ~map ~alloc f =
  let m = create ~threads:1 ~seed ~cost ~mem ~map ~alloc in
  let result = ref None in
  run m (fun _ -> result := Some (f ()));
  match !result with
  | Some v -> v
  | None -> assert false
