(* A guided tour of the simulated RTM machine itself: two threads collide
   on one cache line while a trace ring subscribed to the machine's event
   stream keeps every transaction event, then the run replays with the
   same and with a different seed to show determinism.

     dune exec examples/htm_trace.exe
*)

module Memory = Euno_mem.Memory
module Linemap = Euno_mem.Linemap
module Alloc = Euno_mem.Alloc
module Machine = Euno_sim.Machine
module Cost = Euno_sim.Cost
module Api = Euno_sim.Api
module Trace = Euno_sim.Trace
module Htm = Euno_htm.Htm

let run_traced seed =
  let mem = Memory.create () in
  let map = Linemap.create () in
  let alloc = Alloc.create mem map in
  let hot = Alloc.alloc alloc ~kind:Linemap.Record ~words:8 in
  let lock =
    Machine.run_single ~mem ~map ~alloc (fun () -> Htm.alloc_lock ())
  in
  let ring = Trace.ring ~capacity:64 in
  let m =
    Machine.create ~threads:2 ~seed ~cost:Cost.default ~mem ~map ~alloc
  in
  Machine.subscribe m (Trace.push ring);
  Machine.run m (fun tid ->
      for i = 1 to 3 do
        Api.op_key ((tid * 10) + i);
        Htm.atomic ~lock (fun () ->
            (* both threads read-modify-write the same line: guaranteed
               transactional conflicts, resolved requester-wins *)
            let v = Api.read hot in
            Api.work 400;
            Api.write hot (v + 1));
        Api.op_done ()
      done);
  (ring, Memory.get mem hot, Machine.elapsed m)

let () =
  let ring, total, cycles = run_traced 1 in
  print_endline "Two simulated threads increment one hot line under RTM;";
  print_endline "every transaction event, as the machine saw it:\n";
  List.iter print_endline (Trace.to_strings ring);
  Printf.printf
    "\nfinal counter = %d (6 increments, none lost), %d simulated cycles\n"
    total cycles;
  (* Determinism: identical seed => identical simulated execution. *)
  let _, total2, cycles2 = run_traced 1 in
  let _, _, cycles3 = run_traced 2 in
  Printf.printf "replay with seed 1: %d cycles (%s)\n" cycles2
    (if cycles2 = cycles && total2 = total then "bit-for-bit identical"
     else "MISMATCH!");
  Printf.printf "replay with seed 2: %d cycles (different schedule)\n" cycles3;
  (* The same ring, machine-readable: JSONL for ad-hoc analysis, and the
     Chrome trace_event form chrome://tracing or Perfetto can open to show
     each transaction's lifecycle on a per-thread timeline. *)
  print_endline "\nthe first three events again, as JSONL:";
  List.iteri
    (fun i line -> if i < 3 then print_endline ("  " ^ line))
    (Trace.to_jsonl ring);
  let chrome = "_trace_htm.json" in
  let oc = open_out chrome in
  output_string oc (Euno_stats.Json.to_string ~pretty:true (Trace.chrome_trace ring));
  close_out oc;
  Printf.printf
    "full transaction timeline written to %s (open in chrome://tracing)\n"
    chrome
