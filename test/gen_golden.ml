(* Regenerate the determinism fixtures under test/golden/.

     dune exec test/gen_golden.exe -- test/golden

   Run this ONLY when a change is *meant* to alter simulated behavior;
   the point of the fixtures is that pure-performance changes keep them
   byte-identical. *)

let () =
  let dir = if Array.length Sys.argv > 1 then Sys.argv.(1) else "test/golden" in
  if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
  List.iter
    (fun (name, scenario) ->
      let out = scenario ~traced:true in
      let write file lines =
        let oc = open_out (Filename.concat dir file) in
        List.iter
          (fun l ->
            output_string oc l;
            output_char oc '\n')
          lines;
        close_out oc;
        Printf.printf "wrote %s (%d lines)\n%!" (Filename.concat dir file)
          (List.length lines)
      in
      write (Golden_scenarios.trace_file name) out.Golden_scenarios.trace;
      write (Golden_scenarios.summary_file name) out.Golden_scenarios.summary)
    Golden_scenarios.all
