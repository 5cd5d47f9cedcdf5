(* Tests of direct-call instructions: an instruction is interpreted on the
   simulated thread's own stack and parks the thread only when it must.
   Pinned here: non-yielding instructions allocate nothing; keeping a
   thread running makes exactly the schedule that yielding after every
   instruction makes, and the default pick makes exactly the schedule of
   the exploration pick's linear min-clock scan, at up to
   Line_table.max_threads threads; yields do not grow the host stack;
   interpretation errors leave Machine.run at once; a thread's own
   failure leaves it with the thread's backtrace; and the domain's
   running-machine slot survives nesting and crashes. *)

open Util
module Api = Euno_sim.Api
module Abort = Euno_sim.Abort
module Eff = Euno_sim.Eff
module Machine = Euno_sim.Machine
module Cost = Euno_sim.Cost
module Explore = Euno_sim.Explore
module Memory = Euno_mem.Memory

(* ---------- allocation ---------- *)

let calls = 10_000

(* Minor words [f] allocates over [calls] calls, measured on a simulated
   thread.  One warm-up call first grows whatever arrays the instruction
   touches. *)
let words_over_calls f =
  f ();
  let before = Gc.minor_words () in
  for _ = 1 to calls do
    f ()
  done;
  let after = Gc.minor_words () in
  int_of_float (after -. before)

let test_no_allocation () =
  let w = fresh_world () in
  let a = scratch w ~words:16 in
  let results =
    Machine.run_single ~cost:Cost.default ~mem:w.mem ~map:w.map
      ~alloc:w.alloc (fun () ->
        let rec txn () =
          match
            Api.xbegin ();
            let v = Api.read a in
            Api.write (a + 8) (v + 1);
            Api.xend ()
          with
          | () -> ()
          | exception Eff.Txn_abort _ -> txn ()
        in
        List.map
          (fun (name, f) -> (name, words_over_calls f))
          [
            ("read", fun () -> ignore (Api.read a));
            ("write", fun () -> Api.write a 1);
            ("cas", fun () -> ignore (Api.cas a ~expected:1 ~desired:1));
            ("faa", fun () -> ignore (Api.faa a 1));
            ("work", fun () -> Api.work 3);
            ("clock", fun () -> ignore (Api.clock ()));
            ("tid", fun () -> ignore (Api.tid ()));
            ("xtest", fun () -> ignore (Api.xtest ()));
            ("rand", fun () -> ignore (Api.rand 1000));
            ("count", fun () -> Api.count 0 1);
            ( "op_key+op_done",
              fun () ->
                Api.op_key 5;
                Api.op_done () );
            ( "untracked write+read",
              fun () ->
                Api.untracked_write (a + 1) 2;
                ignore (Api.untracked_read (a + 1)) );
            ("xbegin;read;write;xend", txn);
          ])
  in
  (* A block is at least two words, so any per-call allocation shows as
     at least 2 * calls words; the measurement itself and the rare
     spurious abort (Cost.default) stay far below [calls]. *)
  match List.filter (fun (_, words) -> words >= calls) results with
  | [] -> ()
  | allocating ->
      Alcotest.failf "minor words per call: %s"
        (String.concat ", "
           (List.map
              (fun (name, words) ->
                Printf.sprintf "%s %.1f" name
                  (float_of_int words /. float_of_int calls))
              allocating))

(* ---------- run-ahead against yield-every-instruction ---------- *)

(* A random straight-line program per thread.  Every instruction's
   result goes to that thread's log, so any difference in the schedule
   that changes a value read shows up. *)
type op =
  | Read of int
  | Write of int * int
  | Cas of int * int * int
  | Faa of int * int
  | Work of int
  | Txn of op list * bool (* body; explicit xabort at its end *)

let rec show_op = function
  | Read a -> Printf.sprintf "R%d" a
  | Write (a, v) -> Printf.sprintf "W%d=%d" a v
  | Cas (a, e, d) -> Printf.sprintf "C%d:%d->%d" a e d
  | Faa (a, d) -> Printf.sprintf "F%d+%d" a d
  | Work c -> Printf.sprintf "K%d" c
  | Txn (body, abort) ->
      Printf.sprintf "[%s%s]"
        (String.concat " " (List.map show_op body))
        (if abort then " xabort" else "")

(* Addresses are slot indices into a few words spread over 2-4 lines:
   slot i lives on line i mod lines, so slots collide on lines (false
   sharing) as well as on words. *)
let gen_program =
  let open QCheck.Gen in
  let* lines = int_range 2 4 in
  let slots = 2 * lines in
  let addr = int_bound (slots - 1) in
  let value = int_bound 3 in
  let plain =
    frequency
      [
        (4, map (fun a -> Read a) addr);
        (3, map2 (fun a v -> Write (a, v)) addr value);
        (1, map3 (fun a e d -> Cas (a, e, d)) addr value value);
        (1, map2 (fun a d -> Faa (a, d)) addr (int_range 1 2));
        (1, map (fun c -> Work c) (int_range 0 400));
      ]
  in
  let txn =
    map2 (fun body abort -> Txn (body, abort)) (list_size (int_range 1 5) plain)
      (frequency [ (4, pure false); (1, pure true) ])
  in
  let thread =
    list_size (int_range 20 60) (frequency [ (5, plain); (1, txn) ])
  in
  let* threads = frequency [ (3, int_range 2 6); (1, pure 16); (1, pure 62) ] in
  let* progs = list_repeat threads thread in
  pure (lines, progs)

let print_program (lines, progs) =
  Printf.sprintf "lines=%d\n%s" lines
    (String.concat "\n"
       (List.mapi
          (fun i p ->
            Printf.sprintf "t%d: %s" i (String.concat " " (List.map show_op p)))
          progs))

type outcome = {
  logs : int list array;
  image : int array;
  clocks : int array;
  counters : Machine.snapshot array;
}

(* Run the program on a fresh machine, after [install] hooks it (or
   leaves it alone). *)
let run_program ~install (lines, progs) =
  let w = fresh_world () in
  let base = scratch w ~words:(8 * lines) in
  let slot i = base + (8 * (i mod lines)) + (i / lines) in
  let progs = Array.of_list progs in
  let n = Array.length progs in
  let logs = Array.make n [] in
  let m =
    Machine.create ~threads:n ~seed:7 ~cost:Cost.default ~mem:w.mem
      ~map:w.map ~alloc:w.alloc
  in
  install m;
  Machine.run m (fun tid ->
      let log v = logs.(tid) <- v :: logs.(tid) in
      let rec exec = function
        | Read a -> log (Api.read (slot a))
        | Write (a, v) -> Api.write (slot a) v
        | Cas (a, e, d) ->
            log (Bool.to_int (Api.cas (slot a) ~expected:e ~desired:d))
        | Faa (a, d) -> log (Api.faa (slot a) d)
        | Work c -> Api.work c
        | Txn (body, abort) -> (
            match
              Api.xbegin ();
              List.iter exec body;
              if abort then Api.xabort 3;
              Api.xend ()
            with
            | () -> log (-1)
            | exception Eff.Txn_abort code -> log (-2 - Abort.index code))
      in
      List.iter exec progs.(tid));
  {
    logs;
    image = Array.init (8 * lines) (fun i -> Memory.get w.mem (base + i));
    clocks = Array.init n (fun tid -> (Machine.snapshot_thread m tid).s_clock);
    counters = Array.init n (Machine.snapshot_thread m);
  }

let same_outcome a b =
  a.logs = b.logs && a.image = b.image && a.clocks = b.clocks
  && a.counters = b.counters

let prop_run_ahead_matches_yielding =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~count:150
       ~name:"run-ahead schedules exactly as yield-every-instruction"
       (QCheck.make ~print:print_program gen_program)
       (fun prog ->
         same_outcome
           (run_program ~install:ignore prog)
           (run_program ~install:(fun m -> Machine.subscribe m ignore) prog)))

(* The property above compares the default pick with itself, hooked and
   unhooked, so a wrong pick passes it.  The oracle here is independent:
   [Explore.Min_clock] never parks, so the exploration pick orders the
   threads by a linear scan of their clocks, after every instruction.
   Transactions make parked victims pay abort penalties, the case where
   a cached pick could go stale. *)
let prop_default_pick_matches_min_clock_scan =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~count:150
       ~name:"default pick schedules exactly as the min-clock scan"
       (QCheck.make ~print:print_program gen_program)
       (fun prog ->
         same_outcome
           (run_program ~install:ignore prog)
           (run_program
              ~install:(fun m ->
                Machine.set_explorer m
                  (Explore.hook (Explore.create Explore.Min_clock)))
              prog)))

(* ---------- the yield path's stack ---------- *)

(* Frames on the host stack at the caller, counted across the fibers it
   runs in. *)
let stack_depth () =
  Printexc.raw_backtrace_length (Printexc.get_callstack 100_000)

(* At unit cost 16 threads taking turns on [Api.work 1] yield after every
   instruction, 320,000 times in all.  A yield hands the processor to the
   next thread by tail calls, so the stack a thread sees stays a few
   frames above [run]'s caller however many yields have run; a frame kept
   per yield would add 16,000 by the first sample. *)
let test_yields_keep_the_stack_flat () =
  let base = stack_depth () in
  let deepest = ref 0 in
  ignore
    (run_threads ~threads:16 (fresh_world ()) (fun _ ->
         for i = 1 to 20_000 do
           Api.work 1;
           if i mod 1_000 = 0 then
             deepest := Int.max !deepest (stack_depth () - base)
         done));
  if !deepest > 8 then
    Alcotest.failf "a thread saw %d frames above run's caller" !deepest

(* Thread 0 ends its body inside a transaction, so its lines stay
   claimed after it finishes.  Thread 1's later write dooms that
   transaction and charges thread 0 the abort penalty.  The charge must
   not make the finished thread pickable while threads 1 and 2 still
   take turns. *)
let test_finished_thread_doomed () =
  let w = fresh_world () in
  let a = scratch w ~words:8 in
  let m =
    run_threads ~threads:3 w (fun tid ->
        if tid = 0 then begin
          Api.xbegin ();
          Api.write a 1
        end
        else begin
          Api.work 50;
          if tid = 1 then Api.write a 2;
          for _ = 1 to 100 do
            Api.work 1
          done
        end)
  in
  check_int "thread 0's transaction aborted once" 1
    (Machine.total_aborts (Machine.snapshot_thread m 0));
  check_int "thread 1's write landed" 2 (Memory.get w.mem a)

(* ---------- errors and the running-machine slot ---------- *)

(* Thread 0 commits, then issues xend outside a transaction; thread 1
   reads.  The Failure must leave run before thread 1 finishes: it may
   neither enter thread 0 (where a handler could catch it) nor wait for
   the other threads. *)
let test_error_leaves_run ~hooked () =
  let w = fresh_world () in
  let a = scratch w ~words:8 in
  let reads = ref 0 in
  let m =
    Machine.create ~threads:2 ~seed:42 ~cost:Cost.default ~mem:w.mem
      ~map:w.map ~alloc:w.alloc
  in
  if hooked then Machine.subscribe m ignore;
  (match
     Machine.run m (fun tid ->
         if tid = 0 then begin
           Api.xbegin ();
           Api.write a 1;
           Api.xend ();
           try Api.xend () with _ -> Alcotest.fail "error entered the thread"
         end
         else
           for _ = 1 to 1000 do
             ignore (Api.read (a + 8));
             incr reads
           done)
   with
  | () -> Alcotest.fail "run returned"
  | exception Failure _ -> ());
  if !reads >= 1000 then Alcotest.fail "thread 1 ran to completion first"

(* Thread 1 fails inside a named function of its own.  [run] re-raises
   the Failure with the backtrace of where the thread raised it, so the
   trace names that function rather than starting in the machine. *)
let[@inline never] fail_in_thread_code tid =
  if tid = 1 then failwith "thread 1 failed";
  Api.work 1

let test_failure_keeps_backtrace () =
  let recording = Printexc.backtrace_status () in
  Printexc.record_backtrace true;
  Fun.protect ~finally:(fun () -> Printexc.record_backtrace recording)
  @@ fun () ->
  match
    run_threads (fresh_world ()) (fun tid ->
        Api.work 10;
        fail_in_thread_code tid)
  with
  | _ -> Alcotest.fail "run returned"
  | exception Failure _ ->
      let bt = Printexc.get_backtrace () in
      if not (contains ~sub:"fail_in_thread_code" bt) then
        Alcotest.failf "backtrace does not name fail_in_thread_code:\n%s" bt

(* No machine is running on the domain: the slot was restored. *)
let check_no_machine () =
  match Api.read 0 with
  | _ -> Alcotest.fail "read outside a machine returned"
  | exception Invalid_argument msg ->
      check_bool
        (Printf.sprintf "message %S names Api.read" msg)
        true
        (String.length msg >= 8 && String.sub msg 0 8 = "Api.read")

let test_no_machine () = check_no_machine ()

let test_nested_run_single () =
  let w = fresh_world () in
  let a = scratch w ~words:8 in
  let seen = Array.make 2 (-1, -1, -1) in
  let m =
    Machine.create ~threads:2 ~seed:42 ~cost:Cost.default ~mem:w.mem
      ~map:w.map ~alloc:w.alloc
  in
  Machine.run m (fun tid ->
      Api.work (100 * (tid + 1));
      let inner =
        if tid = 1 then
          run_one w (fun () ->
              Api.work 5;
              Api.write a 9;
              Api.tid () + Api.clock ())
        else -1
      in
      let my_tid = Api.tid () in
      let my_clock = Api.clock () in
      seen.(tid) <- (inner, my_tid, my_clock));
  let inner, tid1, clock1 = seen.(1) in
  check_int "nested run_single returns its value" 6 inner;
  check_int "outer tid after the nested run" 1 tid1;
  check_int "outer clock after the nested run" 200 clock1;
  let _, tid0, clock0 = seen.(0) in
  check_int "other thread's tid" 0 tid0;
  check_int "other thread's clock" 100 clock0;
  check_int "nested write landed" 9 (Memory.get w.mem a);
  check_no_machine ()

let test_run_single_after_crash () =
  let w = fresh_world () in
  let a = scratch w ~words:8 in
  let m =
    Machine.create ~threads:2 ~seed:42 ~cost:Cost.default ~mem:w.mem
      ~map:w.map ~alloc:w.alloc
  in
  Machine.set_crash m ~at_cycle:500;
  (match
     Machine.run m (fun _ ->
         for _ = 1 to 100 do
           Api.work 10
         done)
   with
  | () -> Alcotest.fail "crash did not fire"
  | exception Machine.Crashed _ -> ());
  check_no_machine ();
  check_int "run_single after a crash" 7
    (run_one w (fun () ->
         Api.write a 7;
         Api.read a))

let suite =
  [
    Alcotest.test_case "non-yielding instructions allocate nothing" `Quick
      test_no_allocation;
    prop_run_ahead_matches_yielding;
    prop_default_pick_matches_min_clock_scan;
    Alcotest.test_case "yields keep the stack flat" `Quick
      test_yields_keep_the_stack_flat;
    Alcotest.test_case "finished thread's transaction doomed" `Quick
      test_finished_thread_doomed;
    Alcotest.test_case "interpretation error leaves run (unhooked)" `Quick
      (test_error_leaves_run ~hooked:false);
    Alcotest.test_case "interpretation error leaves run (subscribed)" `Quick
      (test_error_leaves_run ~hooked:true);
    Alcotest.test_case "failing thread keeps its backtrace" `Quick
      test_failure_keeps_backtrace;
    Alcotest.test_case "instruction outside a machine" `Quick test_no_machine;
    Alcotest.test_case "run_single nested in a thread" `Quick
      test_nested_run_single;
    Alcotest.test_case "run_single after Crashed" `Quick
      test_run_single_after_crash;
  ]
