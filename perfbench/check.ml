(* Output checks. Each one compares an answer of the program with a
   property the exact period must have, or with a route apart from the
   one the program took. They return [Error why] instead of raising, so
   a run reports every failure it finds, and the tests can feed them
   wrong answers. *)

open Rwt_util
open Rwt_workflow
module Mcr = Rwt_petri.Mcr
module Exact = Rwt_core.Exact
module Tpn_graph = Rwt_core.Tpn_graph

let ( let* ) = Result.bind

let err fmt = Printf.ksprintf (fun s -> Error s) fmt

let rat = Rat.to_string

let unreplicated inst = not (Mapping.is_replicated inst.Instance.mapping)

(* the token game, a simulator that shares no code with the solvers:
   the earliest schedule certifies its own exact periodic regime *)
let simulated model inst period =
  let sim = Rwt_sim.Schedule.measured_period model inst in
  if Rat.equal sim period then Ok ()
  else err "period %s, but the token-game simulator measures %s" (rat period) (rat sim)

(* the float mirror of a ratio graph, as the screened solver builds it *)
let to_float_graph g =
  Rwt_graph.Digraph.map_labels
    (fun (e : Mcr.Exact.edge_data) ->
      { Mcr.Approx.weight = Rat.to_float e.weight; tokens = e.tokens })
    g

(* strict model: no cycle of the timed event graph has a ratio above m·P
   (so P is an upper bound), and the float solver's witness cycle,
   re-costed exactly, attains m·P (so P is attained). When the float
   witness is not optimal the simulator decides instead. *)
let strict_bounds inst period =
  let fg = Tpn_graph.build_exn Comm_model.Strict inst in
  let lambda = Rat.mul_int period fg.Tpn_graph.m in
  match Mcr.Exact.positive_cycle fg.Tpn_graph.graph lambda with
  | Some cyc ->
    err "period %s, but a cycle has ratio %s above m*P = %s" (rat period)
      (rat (Mcr.Exact.cycle_ratio fg.Tpn_graph.graph cyc))
      (rat lambda)
  | None ->
    let attained =
      match Mcr.Approx.howard (to_float_graph fg.Tpn_graph.graph) with
      | Some w -> Rat.equal (Mcr.Exact.cycle_ratio fg.Tpn_graph.graph w.cycle) lambda
      | None -> false
    in
    if attained then Ok () else simulated Comm_model.Strict inst period

(* Every job: status ok (the caller's part), P >= Mct, P = Mct exactly
   without replication; OVERLAP: the Theorem 1 period equals the period
   of the full timed Petri net; STRICT: the bounds above, and with [sim]
   the simulator as well. *)
let period ?(sim = false) model inst period =
  let mct = Cycle_time.mct model inst in
  let* () =
    if Rat.compare period mct < 0 then err "period %s is below Mct = %s" (rat period) (rat mct)
    else Ok ()
  in
  let* () =
    if unreplicated inst && not (Rat.equal period mct) then
      err "unreplicated instance: period %s differs from Mct = %s" (rat period) (rat mct)
    else Ok ()
  in
  match model with
  | Comm_model.Overlap ->
    let full = (Exact.period_exn Comm_model.Overlap inst).Exact.period in
    if Rat.equal period full then Ok ()
    else err "period %s, but the full timed Petri net gives %s" (rat period) (rat full)
  | Comm_model.Strict ->
    let* () = strict_bounds inst period in
    if sim then simulated Comm_model.Strict inst period else Ok ()

(* a what-if raises one speed or bandwidth: the period cannot grow *)
let upgrade ~base ~upgraded =
  if Rat.compare upgraded base <= 0 then Ok ()
  else err "an upgrade raised the period from %s to %s" (rat base) (rat upgraded)

(* a repeated request must be answered with exactly the same bytes *)
let identical ~first ~again =
  if String.equal first again then Ok ()
  else
    let n = min (String.length first) (String.length again) in
    let rec at i = if i < n && first.[i] = again.[i] then at (i + 1) else i in
    err "response differs from the first answer at byte %d: %S vs %S" (at 0) first again

(* --- reading answers ------------------------------------------------- *)

let field k = function
  | Json.Obj fields -> List.assoc_opt k fields
  | _ -> None

(* the exact period of an ok answer line ([rwt batch] or [rwt serve]) *)
let answer_period line =
  match Json.of_string line with
  | Error e -> err "unparseable answer %S: %s" line e
  | Ok j ->
    (match (field "status" j, field "period" j) with
     | Some (Json.String "ok"), Some (Json.String p) ->
       (match Rat.of_string p with
        | r -> Ok r
        | exception _ -> err "bad period %S" p)
     | Some (Json.String s), _ -> err "status %S: %s" s line
     | _ -> err "answer without status or period: %s" line)
