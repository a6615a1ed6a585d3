(* The traced run's in-process half: every job or request of a workload
   is taken once more through each layer's public function, in the order
   the program calls them, each call inside a span. The program's own
   counters come from the same run, through [rwt batch --metrics] or the
   daemon's [metrics] request (see Workloads). *)

open Rwt_util
open Rwt_workflow
module Mcr = Rwt_petri.Mcr
module Tpn_graph = Rwt_core.Tpn_graph
module Delta = Rwt_core.Delta
module Poly_overlap = Rwt_core.Poly_overlap

type t = {
  strict_session : Delta.t;  (** one session over the strict jobs, in order *)
  memo : (string, Rat.t) Hashtbl.t;  (** serve: canonical key -> period *)
  journal : Unix.file_descr;
  mutable arcs : int;
}

let create ~journal =
  { strict_session = Delta.create Comm_model.Strict;
    memo = Hashtbl.create 4096;
    journal = Unix.openfile journal [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_APPEND ] 0o644;
    arcs = 0 }

let close t = Unix.close t.journal

(* the calls both canonical keys are built from: the instance printed
   without its name, then hashed *)
let canon_key inst model =
  let anon =
    Instance.create_exn ~name:"" ~pipeline:inst.Instance.pipeline
      ~platform:inst.Instance.platform ~mapping:inst.Instance.mapping
  in
  Digest.to_hex
    (Digest.string (Format_io.to_string anon ^ "|" ^ Comm_model.to_string model))

let parse ~job text =
  Spans.with_span ~job "format_io.parse" (fun () ->
      match Format_io.of_string text with
      | Ok inst -> inst
      | Error e -> failwith (Rwt_err.to_line e))

(* the cold route [rwt batch] takes today: fused build, screened exact
   solve; then the solve's three steps again, recomposed over the whole
   graph ([Mcr.solve_screened] runs them per strongly connected
   component): float Howard, one exact positive-cycle pass at the float
   witness's exact ratio, exact Howard where that certification fails *)
let strict_cold t ~job inst =
  let fg = Spans.with_span ~job "tpn_graph.build" (fun () -> Tpn_graph.build_exn Comm_model.Strict inst) in
  let g = fg.Tpn_graph.graph in
  t.arcs <- t.arcs + Rwt_graph.Digraph.num_edges g;
  let w = Spans.with_span ~job "mcr.solve" (fun () -> Option.get (Mcr.solve_exact g)) in
  let fw = Spans.with_span ~job "mcr.screen" (fun () -> Mcr.Approx.howard (Check.to_float_graph g)) in
  let certified =
    Spans.with_span ~job "mcr.certify" (fun () ->
        match fw with
        | None -> false
        | Some fw ->
          (match Mcr.Exact.cycle_ratio g fw.Mcr.Approx.cycle with
           | r -> Mcr.Exact.positive_cycle g r = None
           | exception Invalid_argument _ -> false))
  in
  if not certified then
    ignore (Spans.with_span ~job "mcr.fallback" (fun () -> Mcr.Exact.howard g));
  Rat.div_int w.Mcr.Exact.ratio fg.Tpn_graph.m

let journal_record t ~job key period =
  Spans.with_span ~job "journal.fsync" (fun () ->
      let line =
        Json.to_string
          (Json.Obj
             [ ("k", Json.String key); ("status", Json.String "ok");
               ("period", Json.String (Rat.to_string period)) ])
        ^ "\n"
      in
      ignore (Unix.write_substring t.journal line 0 (String.length line));
      Unix.fsync t.journal)

let serve_response period =
  Json.to_string
    (Json.Obj
       [ ("status", Json.String "ok");
         ("period", Json.String (Rat.to_string period));
         ("period_float", Json.Float (Rat.to_float period));
         ("throughput_float", Json.Float (Rat.to_float (Rat.inv period))) ])

(* one job of a job file, as [rwt batch] evaluates it; the session route
   of the delta layer is timed beside the cold route, and the journal
   record is the one [rwt batch --journal] would append *)
let batch_job t ~index ~line ~file (it : Gen.item) =
  let job = it.id in
  Spans.with_span ~job "job" (fun () ->
      ignore (Spans.with_span ~job "serve.parse_request" (fun () -> Rwt_serve.parse_request line));
      let inst = parse ~job it.text in
      let key = Spans.with_span ~job "canon.key" (fun () -> canon_key inst it.model) in
      let period =
        match it.model with
        | Comm_model.Overlap ->
          Spans.with_span ~job "poly_overlap.period" (fun () -> Poly_overlap.period inst)
        | Comm_model.Strict ->
          let p = strict_cold t ~job inst in
          ignore
            (Spans.with_span ~job "delta.period" (fun () ->
                 Delta.period_exn t.strict_session inst));
          p
      in
      ignore (Spans.with_span ~job "cycle_time.mct" (fun () -> Cycle_time.critical it.model inst));
      journal_record t ~job key period;
      Spans.with_span ~job "render" (fun () ->
          let mapping = inst.Instance.mapping in
          Json.to_string
            (Rwt_batch.outcome_to_json ~timing:false
               { Rwt_batch.job =
                   Rwt_batch.job ~id:it.id ~model:it.model ~index (Rwt_batch.File file);
                 status = Rwt_batch.Done; instance_name = Some inst.Instance.name;
                 period = Some period; m = Some (Mapping.num_paths mapping);
                 n_stages = Some (Mapping.n_stages mapping);
                 n_resources = Some (List.length (Instance.resources inst));
                 cache_hit = false; wall_s = 0.0 })))

(* one request of the serve loop, as the daemon handles it: memo hits
   stop after the key; misses solve (Theorem 1 for OVERLAP, the delta
   session for STRICT), journal the record, and fill the memo *)
let serve_request t ~id ~line ~model text =
  let job = id in
  Spans.with_span ~job "request" (fun () ->
      ignore (Spans.with_span ~job "serve.parse_request" (fun () -> Rwt_serve.parse_request line));
      let inst = parse ~job text in
      let key = Spans.with_span ~job "canon.key" (fun () -> canon_key inst model) in
      let period =
        match Hashtbl.find_opt t.memo key with
        | Some period -> period
        | None ->
          let period =
            match model with
            | Comm_model.Overlap ->
              Spans.with_span ~job "poly_overlap.period" (fun () -> Poly_overlap.period inst)
            | Comm_model.Strict ->
              Spans.with_span ~job "delta.period" (fun () ->
                  Delta.period_exn t.strict_session inst)
          in
          journal_record t ~job key period;
          Hashtbl.replace t.memo key period;
          period
      in
      Spans.with_span ~job "render" (fun () -> serve_response period))

let session_stats t = Delta.stats t.strict_session
