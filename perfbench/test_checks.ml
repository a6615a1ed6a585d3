(* Every output check of the benchmark must be able to fail: each test
   feeds a check the right answer, which it must accept, and a wrong one,
   which it must reject. *)

open Rwt_util
open Rwt_workflow
open Perfbench

let ok what = function
  | Ok () -> ()
  | Error why -> Alcotest.failf "%s: the right answer was rejected: %s" what why

let rejected what = function
  | Ok () -> Alcotest.failf "%s: a wrong answer was accepted" what
  | Error _ -> ()

let exact model inst = (Rwt_core.Exact.period_exn model inst).Rwt_core.Exact.period

let delta = Rat.of_ints 1 1000

(* a period off by a small rational, in either direction *)
let off_by_small_rational model inst what =
  let p = exact model inst in
  ok what (Check.period ~sim:true model inst p);
  rejected (what ^ " + 1/1000") (Check.period model inst (Rat.add p delta));
  rejected (what ^ " - 1/1000") (Check.period model inst (Rat.sub p delta))

let test_period () =
  off_by_small_rational Comm_model.Overlap (Instances.example_a ()) "example A, overlap";
  off_by_small_rational Comm_model.Strict (Instances.example_a ()) "example A, strict";
  off_by_small_rational Comm_model.Strict (Instances.example_b ()) "example B, strict";
  off_by_small_rational Comm_model.Strict (Instances.no_replication ()) "no replication, strict";
  (* corpus instances, as the workloads send them *)
  List.iter
    (fun (it : Gen.item) ->
      if Mapping.num_paths it.inst.Instance.mapping <= 12 then
        off_by_small_rational it.model it.inst it.id)
    (Gen.corpus ~seed:2009 Rwt_experiments.Corpus.Tiny)

(* the simulator alone also catches a small error *)
let test_simulator () =
  let inst = Instances.example_a () in
  let p = exact Comm_model.Strict inst in
  ok "simulator" (Check.simulated Comm_model.Strict inst p);
  rejected "simulator + 1/1000" (Check.simulated Comm_model.Strict inst (Rat.add p delta))

(* an upgrade whose period rose *)
let test_upgrade () =
  let inst = Instances.example_a () in
  let base = exact Comm_model.Strict inst in
  List.iter
    (fun t ->
      let up = exact Comm_model.Strict (Gen.upgraded inst t Gen.sweep_factor) in
      ok (Gen.target_name t) (Check.upgrade ~base ~upgraded:up);
      rejected (Gen.target_name t ^ ", raised")
        (Check.upgrade ~base ~upgraded:(Rat.add base delta)))
    (Gen.targets inst)

(* a repeated response changed by one byte *)
let test_identical () =
  let r =
    "{\"status\":\"ok\",\"period\":\"692/3\",\"period_float\":230.66666666666666,\
     \"throughput_float\":0.0043352601156069364}"
  in
  ok "same bytes" (Check.identical ~first:r ~again:(String.sub r 0 (String.length r)));
  for i = 0 to String.length r - 1 do
    let b = Bytes.of_string r in
    Bytes.set b i (if r.[i] = '7' then '8' else '7');
    rejected (Printf.sprintf "byte %d changed" i)
      (Check.identical ~first:r ~again:(Bytes.to_string b))
  done;
  rejected "one byte more" (Check.identical ~first:r ~again:(r ^ " "))

(* answers that did not succeed, or carry no period, are not periods *)
let test_answer () =
  (match Check.answer_period "{\"status\":\"ok\",\"period\":\"692/3\"}" with
   | Ok p -> Alcotest.(check string) "period" "692/3" (Rat.to_string p)
   | Error e -> Alcotest.fail e);
  List.iter
    (fun line ->
      match Check.answer_period line with
      | Ok _ -> Alcotest.failf "accepted %s" line
      | Error _ -> ())
    [ "{\"status\":\"shed\"}"; "{\"status\":\"ok\"}"; "{\"status\":\"ok\",\"period\":\"x\"}";
      "not json" ]

let () =
  Alcotest.run "perfbench checks"
    [ ( "checks",
        [ Alcotest.test_case "period off by a small rational" `Quick test_period;
          Alcotest.test_case "simulator" `Quick test_simulator;
          Alcotest.test_case "upgrade whose period rose" `Quick test_upgrade;
          Alcotest.test_case "repeat changed by one byte" `Quick test_identical;
          Alcotest.test_case "answer lines" `Quick test_answer ] ) ]
