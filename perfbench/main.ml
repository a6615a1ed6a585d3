(* perfbench — the layered benchmark of rwt. See README.md.

   main.exe --workload corpus|sweep|serve --seed N --seconds S --trace 0|1
            --rwt PATH

   Prints readable lines, then as its last line one JSON object with
   correct, attempted, failed and metrics: the end-to-end metrics, or
   with --trace 1 the per-layer ones. Scratch files go to .bench_work
   (removed after the run), the traced run's spans to .bench_out. *)

open Perfbench
module Json = Rwt_util.Json

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10.0 and trace = ref 0 in
  let rwt = ref "" in
  Arg.parse
    [ ("--workload", Arg.Set_string workload, "corpus | sweep | serve");
      ("--seed", Arg.Set_int seed, "N  workload seed");
      ("--seconds", Arg.Set_float seconds, "S  length of the timed part");
      ("--trace", Arg.Set_int trace, "0|1  the per-layer run instead of the end-to-end one");
      ("--rwt", Arg.Set_string rwt, "PATH  the rwt binary to drive") ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "main.exe --workload W --seed N --seconds S --trace 0|1 --rwt PATH";
  let run =
    match !workload with
    | "corpus" -> Workloads.corpus
    | "sweep" -> Workloads.sweep
    | "serve" -> Workloads.serve
    | w -> Proc.fail "unknown workload %S (corpus, sweep or serve)" w
  in
  if not (Sys.file_exists !rwt) then Proc.fail "no rwt binary at %S" !rwt;
  let dir = Printf.sprintf ".bench_work/%s-%d-%d" !workload !seed (Unix.getpid ()) in
  Proc.rm_rf dir;
  Proc.mkdir_p dir;
  Proc.mkdir_p ".bench_out";
  (* registered after Proc's handler, so it runs first: a failed run
     also removes its scratch files *)
  at_exit (fun () -> Proc.rm_rf dir);
  let env =
    { Workloads.rwt = !rwt; dir;
      trace_file = Printf.sprintf ".bench_out/%s.trace.json" !workload;
      seed = !seed; seconds = !seconds; trace = !trace = 1 }
  in
  let t0 = Proc.now () in
  let o = run env in
  let failures = List.rev !Workloads.failures in
  List.iteri (fun i f -> if i < 20 then prerr_endline ("check failed: " ^ f)) failures;
  Printf.printf "%s seed %d: %.3f s wall, %d checks failed\n" !workload !seed
    (Proc.now () -. t0) (List.length failures);
  List.iter (fun (name, v, u) -> Printf.printf "  %-28s %.6g %s\n" name v u) o.Workloads.metrics;
  print_endline
    (Json.to_string
       (Json.Obj
          [ ("correct", Json.Bool (failures = []));
            ("attempted", Json.Int o.Workloads.attempted);
            ("failed", Json.Int o.Workloads.failed);
            ( "metrics",
              Json.Obj
                (List.map
                   (fun (name, v, u) ->
                     (name, Json.Obj [ ("value", Json.Float v); ("unit", Json.String u) ]))
                   o.Workloads.metrics) ) ]));
  if failures <> [] then exit 1
