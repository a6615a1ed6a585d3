(* The three workloads. Each drives the built rwt binary the way a user
   does (instance files and job files in, NDJSON out), checks every answer
   (Check), and returns its metrics. With [trace] a workload runs once
   more through the program with its counters on, then through every
   layer in-process (Layers), and returns the per-layer metrics. *)

open Rwt_util
open Rwt_workflow
module Corpus = Rwt_experiments.Corpus

type env = {
  rwt : string;  (** the built rwt binary *)
  dir : string;  (** this run's scratch directory *)
  trace_file : string;  (** where the traced run writes its spans *)
  seed : int;
  seconds : float;
  trace : bool;
}

(* whether the run is correct is decided by [failures], not here *)
type outcome = {
  attempted : int;
  failed : int;
  metrics : (string * float * string) list;  (** name, value, unit *)
}

(* every failed check of the run; a single one makes the run incorrect *)
let failures : string list ref = ref []

let record ?(what = "") = function
  | Ok () -> ()
  | Error why -> failures := (if what = "" then why else what ^ ": " ^ why) :: !failures

let say fmt = Printf.ksprintf print_endline fmt

let path env name = Filename.concat env.dir name

let depth = 2 (* requests in flight per serve connection *)
let conns = 2 (* serve connections; nproc here *)
let workers = "2" (* rwt batch --jobs and rwt serve --workers *)

(* strict jobs per run whose period the token-game simulator re-derives *)
let sim_k = 6

let parse_text text =
  match Format_io.of_string text with
  | Ok inst -> inst
  | Error e -> Proc.fail "generated instance does not parse: %s" (Rwt_err.to_line e)

(* --- program counters -------------------------------------------------- *)

(* counters and histogram sums from an rwt.metrics/1 dump; histogram sums
   are exact, unlike the log2-bucket quantiles beside them *)
type counters = { counter : string -> float; hist_sum : string -> float }

let counters_of json =
  let section k = match Check.field k json with Some (Json.Obj kv) -> kv | _ -> [] in
  let num = function Some (Json.Int n) -> float_of_int n | Some (Json.Float f) -> f | _ -> 0.0 in
  { counter = (fun k -> num (List.assoc_opt k (section "counters")));
    hist_sum = (fun k -> num (Option.bind (List.assoc_opt k (section "histograms")) (Check.field "sum"))) }

let ratio a b = if a +. b > 0.0 then a /. (a +. b) else 0.0

(* --- rwt batch -------------------------------------------------------- *)

let job_line ~file ~model ~id =
  Json.to_string
    (Json.Obj
       [ ("file", Json.String file);
         ("model", Json.String (Comm_model.to_string model));
         ("method", Json.String "auto");
         ("id", Json.String id) ])

type job = { it : Gen.item; line : string; file : string }

let write_jobs env ~name items =
  let idir = path env (name ^ ".d") in
  Proc.mkdir_p idir;
  let jobs =
    Array.of_list
      (List.mapi
         (fun i (it : Gen.item) ->
           let file = Filename.concat idir (Printf.sprintf "%05d.rwt" i) in
           Proc.write_file file it.text;
           { it; line = job_line ~file ~model:it.model ~id:it.id; file })
         items)
  in
  let jobfile = path env (name ^ ".ndjson") in
  Proc.write_file jobfile
    (String.concat "" (Array.to_list (Array.map (fun j -> j.line ^ "\n") jobs)));
  (jobfile, jobs)

(* one invocation: wall seconds from launch to exit, peak RSS, stdout *)
let batch env ?(extra = []) jobfile =
  let out = path env "batch.out" and err = path env "batch.err" in
  let t0 = Proc.now () in
  let pid =
    Proc.spawn ~stdout:out ~stderr:err env.rwt
      ([ "batch"; "--jobs"; workers; "--no-timing" ] @ extra @ [ jobfile ])
  in
  let e = Proc.reap pid in
  let wall = Proc.now () -. t0 in
  if e.Proc.code <> 0 then
    Proc.fail "rwt batch exited with %d: %s" e.Proc.code (Proc.read_file err);
  (wall, e.Proc.maxrss_kib, Proc.read_file out)

let lines s = List.filter (( <> ) "") (String.split_on_char '\n' s)

(* Check one batch output against its jobs. Returns the periods (None for
   a job that did not answer ok) and the number of such failed jobs. The
   simulator runs on the strict jobs [sim] selects. *)
let check_batch ~sim jobs output =
  let n = Array.length jobs in
  let answers = Array.of_list (lines output) in
  if Array.length answers <> n then
    record (Error (Printf.sprintf "rwt batch gave %d answers to %d jobs" (Array.length answers) n));
  let periods = Array.make n None in
  let failed = ref 0 in
  Array.iteri
    (fun i line ->
      if i < n then begin
        let j = jobs.(i) in
        let id = match Json.of_string line with Ok js -> Check.field "id" js | Error _ -> None in
        if id <> Some (Json.String j.it.id) then
          record (Error (Printf.sprintf "answer %d is not for job %s: %s" i j.it.id line))
        else
          match Check.answer_period line with
          | Error _ -> incr failed
          | Ok p ->
            periods.(i) <- Some p;
            record ~what:j.it.id (Check.period ~sim:(sim i) j.it.model (parse_text j.it.text) p)
      end)
    answers;
  (periods, !failed)

(* a seeded sample of [k] strict items for the simulator check *)
let sim_sample ~seed ~k (items : Gen.item array) =
  let strict =
    List.filter (fun i -> items.(i).model = Comm_model.Strict)
      (List.init (Array.length items) Fun.id)
  in
  let a = Array.of_list strict in
  Prng.shuffle (Prng.create (seed + 7919)) a;
  let chosen = Hashtbl.create k in
  Array.iteri (fun r i -> if r < k then Hashtbl.replace chosen i ()) a;
  Hashtbl.mem chosen

(* Set-up: the cold start of the batch front end, from the launch of rwt
   to its exit with the answer to a one-job file (the paper's Example A) *)
let batch_setup env =
  let it = Gen.item ~id:"probe" Comm_model.Overlap (Instances.example_a ()) in
  let jobfile, jobs = write_jobs env ~name:"probe" [ it ] in
  let wall, _, out = batch env jobfile in
  ignore (check_batch ~sim:(fun _ -> false) jobs out);
  wall

(* --- rwt serve -------------------------------------------------------- *)

let start_daemon env ~sock ~journal =
  Proc.spawn ~stderr:(path env "serve.err") env.rwt
    [ "serve"; "--socket"; sock; "--workers"; workers; "--journal"; journal ]

let stop_daemon pid =
  Unix.kill pid Sys.sigterm;
  let e = Proc.reap pid in
  if e.Proc.code <> 0 then Proc.fail "rwt serve exited with %d" e.Proc.code;
  e.Proc.maxrss_kib

let connect_all sock =
  Array.init conns (fun _ -> Client.connect_wait ~deadline:(Proc.now () +. 30.0) sock)

let close_all fds = Array.iter Unix.close fds

let status_ok line =
  match Json.of_string line with
  | Ok j -> Check.field "status" j = Some (Json.String "ok")
  | Error _ -> false

let echo_line = "{\"req\":\"echo\"}"

(* the protocol floor: echo requests through the same client loop *)
let echo_floor fds ~n =
  let res =
    Client.closed_loop ~depth ~deadline:infinity
      ~request:(fun _ _ -> echo_line)
      (Array.map (fun fd -> (fd, n / conns)) fds)
  in
  Array.iter (Array.iter (fun (r, _) -> if not (status_ok r) then record (Error ("echo: " ^ r)))) res;
  List.concat_map (fun a -> Array.to_list (Array.map snd a)) (Array.to_list res)

let daemon_counters fd =
  match Json.of_string (Client.call fd "{\"req\":\"metrics\",\"format\":\"json\"}") with
  | Ok j -> (match Check.field "metrics" j with Some m -> counters_of m | None -> counters_of j)
  | Error e -> Proc.fail "metrics request: %s" e

let p50_ms samples = if samples = [] then 0.0 else 1000.0 *. Stats.median samples

(* --- per-layer metrics ------------------------------------------------ *)

let per_layer ~counters ~delta:(patch_hits, cold_fallbacks) ~arcs ~floor ~hit ~fresh ~wall =
  let s name = Spans.total name in
  let c = counters.counter in
  say "traced wall %.3f s in layers, %.3f s unattributed; serve samples: %d echo, %d hit, %d fresh"
    !Spans.in_layers (wall -. !Spans.in_layers) (List.length floor) (List.length hit)
    (List.length fresh);
  [ ("format_io.parse_s", s "format_io.parse", "s");
    ("canon.key_s", s "canon.key", "s");
    ("tpn_graph.build_s", s "tpn_graph.build", "s");
    ("tpn_graph.arcs", float_of_int arcs, "count");
    ("mcr.solve_s", s "mcr.solve", "s");
    ("mcr.screen_s", s "mcr.screen", "s");
    ("mcr.certify_s", s "mcr.certify", "s");
    ("mcr.fallback_s", s "mcr.fallback", "s");
    ("mcr.howard_rounds", c "mcr.iterations", "count");
    ("mcr.howard_fallbacks", c "mcr.howard_fallbacks", "count");
    ("mcr.screen_hit_ratio", ratio (c "mcr.screen_hits") (c "mcr.screen_misses"), "ratio");
    ("poly_overlap.period_s", s "poly_overlap.period", "s");
    ("poly_overlap.memo_hit_ratio", ratio (c "poly.memo_hits") (c "poly.memo_misses"), "ratio");
    ("cycle_time.mct_s", s "cycle_time.mct", "s");
    ("delta.period_s", s "delta.period", "s");
    ("delta.patch_hits", float_of_int patch_hits, "count");
    ("delta.cold_fallbacks", float_of_int cold_fallbacks, "count");
    ("pool.busy_s", counters.hist_sum "pool.worker_busy_s", "s");
    ("pool.idle_s", counters.hist_sum "pool.worker_idle_s", "s");
    ("pool.steals", c "pool.steals", "count");
    ("render_s", s "render", "s");
    ("serve.parse_request_s", s "serve.parse_request", "s");
    ("journal.fsync_s", s "journal.fsync", "s");
    ("serve.floor_p50_ms", p50_ms floor, "ms");
    ("serve.hit_p50_ms", p50_ms hit, "ms");
    ("serve.fresh_p50_ms", p50_ms fresh, "ms");
    ("unattributed_s", wall -. !Spans.in_layers, "s") ]

(* --- corpus and sweep ------------------------------------------------- *)

(* The traced run of a batch workload: one rwt batch with --metrics for
   the program's counters; the same jobs through a daemon (fresh, then
   repeated, plus an echo floor) for the serve-side latencies; then every
   job through every layer in-process. *)
let traced_batch env jobfile jobs =
  let mfile = path env "metrics.json" in
  let _, _, out = batch env ~extra:[ "--metrics"; mfile ] jobfile in
  let periods, failed = check_batch ~sim:(fun _ -> false) jobs out in
  let counters =
    match Json.of_string (Proc.read_file mfile) with
    | Ok j -> counters_of j
    | Error e -> Proc.fail "rwt batch --metrics: %s" e
  in
  let sock = path env "d.sock" in
  let pid = start_daemon env ~sock ~journal:(path env "journal.ndjson") in
  let fds = connect_all sock in
  let floor = echo_floor fds ~n:4000 in
  let n = Array.length jobs in
  let pass () =
    Client.closed_loop ~depth ~deadline:infinity
      ~request:(fun c i ->
        let j = jobs.((i * conns) + c) in
        Json.to_string
          (Json.Obj
             [ ("file", Json.String j.file);
               ("model", Json.String (Comm_model.to_string j.it.model)) ]))
      (Array.init conns (fun c -> (fds.(c), (n - c + conns - 1) / conns)))
  in
  let fresh = pass () in
  let hit = pass () in
  close_all fds;
  ignore (stop_daemon pid);
  let flat res =
    List.concat
      (List.init conns (fun c ->
           Array.to_list (Array.mapi (fun i (r, l) -> ((i * conns) + c, r, l)) res.(c))))
  in
  let daemon_failed = ref 0 in
  List.iter2
    (fun (i, r1, _) (_, r2, _) ->
      if not (status_ok r2) then incr daemon_failed;
      (match (Check.answer_period r1, periods.(i)) with
       | Ok p, Some q ->
         if not (Rat.equal p q) then
           record (Error (Printf.sprintf "%s: rwt serve answers %s, rwt batch %s"
                            jobs.(i).it.id (Rat.to_string p) (Rat.to_string q)))
       | Ok _, None -> ()
       | Error _, _ -> incr daemon_failed);
      record ~what:jobs.(i).it.id (Check.identical ~first:r1 ~again:r2))
    (flat fresh) (flat hit);
  let layers = Layers.create ~journal:(path env "layers.journal") in
  let t0 = Proc.now () in
  Array.iteri (fun index j -> ignore (Layers.batch_job layers ~index ~line:j.line ~file:j.file j.it)) jobs;
  let wall = Proc.now () -. t0 in
  Layers.close layers;
  Spans.write_chrome env.trace_file;
  let st = Layers.session_stats layers in
  let lat res = List.map (fun (_, _, l) -> l) (flat res) in
  { attempted = (3 * n) + 4000;
    failed = failed + !daemon_failed;
    metrics =
      per_layer ~counters ~delta:(st.Rwt_core.Delta.patch_hits, st.Rwt_core.Delta.cold_fallbacks)
        ~arcs:layers.Layers.arcs ~floor ~hit:(lat hit) ~fresh:(lat fresh) ~wall }

(* A batch workload: a one-job cold start (set-up), one untimed round
   whose answers are checked, then timed rounds of the same job file
   until the run's seconds are spent; every timed round must answer
   byte for byte like the checked one. *)
let run_batch env ~name ~sim ?(extra_checks = fun _ -> ()) items =
  let jobfile, jobs = write_jobs env ~name items in
  let n = Array.length jobs in
  if env.trace then traced_batch env jobfile jobs
  else begin
    let setup_s = batch_setup env in
    let _, _, reference = batch env jobfile in
    let periods, failed_round = check_batch ~sim jobs reference in
    extra_checks periods;
    let walls = ref [] and rss = ref [] in
    let t0 = Proc.now () in
    while !walls = [] || Proc.now () -. t0 < env.seconds do
      let wall, kib, out = batch env jobfile in
      if not (String.equal out reference) then
        record (Error "a timed round answered differently from the checked round");
      walls := wall :: !walls;
      rss := float_of_int kib :: !rss
    done;
    let loop_s = Proc.now () -. t0 in
    let rounds = List.length !walls in
    say "%s: %d jobs per round, %d timed rounds in %.3f s" name n rounds loop_s;
    say "round wall: median %.4f s, p99 %.4f s over %d samples" (Stats.median !walls)
      (Stats.percentile !walls 0.99) rounds;
    { attempted = (n * (rounds + 1)) + 1;
      failed = failed_round * (rounds + 1);
      metrics =
        [ ("jobs_per_s", float_of_int n /. Stats.median !walls, "jobs/s");
          ("req_per_s", float_of_int rounds /. loop_s, "req/s");
          ("req_p50_ms", 1000.0 *. Stats.median !walls, "ms");
          ("req_p99_ms", 1000.0 *. Stats.percentile !walls 0.99, "ms");
          ("setup_s", setup_s, "s");
          ("peak_rss_mb", Stats.median !rss /. 1024.0, "MiB") ] }
  end

(* The batch workloads draw their instances from the corpus's pinned seed,
   not from the run's seed: on this program the solver cost of a seeded
   corpus varies forty-fold between seeds (a few TPN-shaped strict
   instances run Howard into its round cap), which no run length can
   steady. The run's seed permutes the order of the jobs (corpus) or of
   the base-and-what-ifs groups (sweep), and so the pool's chunks. *)
let pinned_seed = 2009

(* corpus: the standard tier, 40 instances of each of the five families *)
let corpus env =
  let items = Array.of_list (Gen.corpus ~seed:pinned_seed Corpus.Standard) in
  Prng.shuffle (Prng.create env.seed) items;
  run_batch env ~name:"corpus" ~sim:(sim_sample ~seed:env.seed ~k:sim_k items)
    (Array.to_list items)

(* sweep: strict bases, each followed by its one-at-a-time what-ifs,
   [sweep_jobs] jobs in all *)
let sweep_jobs = 300

let sweep env =
  let groups = Array.of_list (Gen.sweep ~seed:pinned_seed ~n_jobs:sweep_jobs) in
  Prng.shuffle (Prng.create env.seed) groups;
  let groups = Array.to_list groups in
  let items = List.concat_map Gen.group_items groups in
  let same_shape a b =
    let rv (it : Gen.item) = Mapping.replication_vector it.inst.Instance.mapping in
    rv a = rv b
  in
  let pairs = List.combine (List.rev (List.tl (List.rev items))) (List.tl items) in
  say "sweep: %d bases, %d jobs, %d of %d consecutive pairs shape-compatible"
    (List.length groups) (List.length items)
    (List.length (List.filter (fun (a, b) -> same_shape a b) pairs))
    (List.length pairs);
  let extra_checks periods =
    let i = ref 0 in
    List.iter
      (fun (g : Gen.group) ->
        let base = !i in
        i := !i + 1 + List.length g.upgrades;
        match periods.(base) with
        | None -> ()
        | Some bp ->
          List.iteri
            (fun k (u : Gen.item) ->
              match periods.(base + 1 + k) with
              | Some up -> record ~what:u.id (Check.upgrade ~base:bp ~upgraded:up)
              | None -> ())
            g.upgrades)
      groups
  in
  run_batch env ~name:"sweep" ~sim:(sim_sample ~seed:env.seed ~k:sim_k (Array.of_list items))
    ~extra_checks items

(* --- serve ------------------------------------------------------------ *)

let n_prime = 3000

(* Request [i] of connection [c] in the timed loop. Rounds of ten: slot 0
   is a fresh strict instance, slot 5 a fresh overlap one, both from this
   connection's own streams (a client sweeping its own instances); the
   other eight repeat the fresh content of this connection's round k-2
   (long answered, since fewer than ten requests are in flight) under new
   file names; the first two rounds repeat primed content instead. *)
type content = Fresh of Gen.stream * int | Primed of int

let loop_content ~fs ~fo c i =
  let k = i / 10 and s = i mod 10 in
  if s = 0 then Fresh (fs.(c), k)
  else if s = 5 then Fresh (fo.(c), k)
  else if k >= 2 then Fresh ((if s mod 2 = 1 then fs.(c) else fo.(c)), k - 2)
  else Primed (((c * 37) + i) mod n_prime)

let is_fresh i = i mod 10 = 0 || i mod 10 = 5

let serve env =
  let ps = Gen.stream ~seed:env.seed ~tag:"ps" ~n_bases:8 ~run:50 Comm_model.Strict in
  let po = Gen.stream ~seed:env.seed ~tag:"po" ~n_bases:8 ~run:50 Comm_model.Overlap in
  let per_conn tag model =
    Array.init conns (fun c ->
        Gen.stream ~seed:env.seed ~tag:(Printf.sprintf "%s%d" tag c) ~n_bases:8 ~run:50 model)
  in
  let fs = per_conn "fs" Comm_model.Strict and fo = per_conn "fo" Comm_model.Overlap in
  let prime k = if k mod 2 = 0 then (ps, k / 2) else (po, k / 2) in
  let content_key = function
    | Fresh (s, k) -> Gen.content_id s k
    | Primed k ->
      let s, j = prime k in
      Gen.content_id s j
  in
  (* each content is printed once; repeats only rename it *)
  let texts : (string, string) Hashtbl.t = Hashtbl.create 65536 in
  let content_text content =
    let key = content_key content in
    match Hashtbl.find_opt texts key with
    | Some t -> t
    | None ->
      let t =
        match content with
        | Fresh (s, k) -> Gen.stream_text s k ~name:key
        | Primed k ->
          let s, j = prime k in
          Gen.stream_text s j ~name:key
      in
      Hashtbl.replace texts key t;
      t
  in
  let content_model = function
    | Fresh (s, _) -> s.Gen.model
    | Primed k -> (fst (prime k)).Gen.model
  in
  let request_line ~file model =
    Json.to_string
      (Json.Obj
         [ ("file", Json.String file); ("model", Json.String (Comm_model.to_string model)) ])
  in
  (* priming files, written once *)
  let pdir = path env "p" in
  Proc.mkdir_p pdir;
  let prime_lines =
    Array.init n_prime (fun k ->
        let file = Filename.concat pdir (Printf.sprintf "%05d.rwt" k) in
        Proc.write_file file (content_text (Primed k));
        request_line ~file (content_model (Primed k)))
  in
  let prime_plan fds =
    Client.closed_loop ~depth ~deadline:infinity
      ~request:(fun c i -> prime_lines.((i * conns) + c))
      (Array.init conns (fun c -> (fds.(c), (n_prime - c + conns - 1) / conns)))
  in
  let flat_prime res =
    let a = Array.make n_prime "" in
    Array.iteri (fun c rs -> Array.iteri (fun i (r, _) -> a.((i * conns) + c) <- r) rs) res;
    a
  in
  let sock = path env "d.sock" and journal = path env "journal.ndjson" in
  (* an earlier daemon of the same run answers the priming requests and
     leaves its journal behind; none of this is timed *)
  let pid = start_daemon env ~sock ~journal in
  let fds = connect_all sock in
  let primed = flat_prime (prime_plan fds) in
  close_all fds;
  ignore (stop_daemon pid);
  (* set-up: restart on that journal, until the first health answer *)
  let t0 = Proc.now () in
  let pid = start_daemon env ~sock ~journal in
  let fd0 = Client.connect_wait ~deadline:(t0 +. 30.0) sock in
  let health = Client.call fd0 "{\"req\":\"health\"}" in
  let setup_s = Proc.now () -. t0 in
  if not (status_ok health) then record (Error ("health: " ^ health));
  let fds = Array.append [| fd0 |] (Array.init (conns - 1) (fun _ -> Client.connect_wait ~deadline:(t0 +. 30.0) sock)) in
  (* every primed request again: answered from the journal, byte for byte *)
  let replayed = flat_prime (prime_plan fds) in
  Array.iteri
    (fun k r -> record ~what:("replay " ^ content_key (Primed k)) (Check.identical ~first:primed.(k) ~again:r))
    replayed;
  let floor = if env.trace then echo_floor fds ~n:4000 else [] in
  (* the timed loop: each request's file is written just before it is sent *)
  let sdir = path env "s" in
  Proc.mkdir_p sdir;
  (* request [i] of connection [c]: its content, the text of the file it
     names (a repeat renamed), that file (a ring of sixteen per
     connection, more than are ever in flight) and the request line *)
  let loop_request c i =
    let content = loop_content ~fs ~fo c i in
    let text = content_text content in
    let text = if is_fresh i then text else Gen.rename text (Printf.sprintf "c%d-r%07d" c i) in
    let file = Filename.concat sdir (Printf.sprintf "c%d-%02d.rwt" c (i mod 16)) in
    (content, text, request_line ~file (content_model content), file)
  in
  let request c i =
    let _, text, line, file = loop_request c i in
    Proc.overwrite_file file text;
    line
  in
  (* the traced run re-enacts every loop request in-process, so its loop
     is capped to keep the span log and the trace file bounded *)
  let seconds = if env.trace then Float.min env.seconds 10.0 else env.seconds in
  let t_loop = Proc.now () in
  let res =
    Client.closed_loop ~depth ~deadline:(t_loop +. seconds) ~request
      (Array.map (fun fd -> (fd, max_int)) fds)
  in
  let loop_s = Proc.now () -. t_loop in
  let counters = if env.trace then Some (daemon_counters fd0) else None in
  close_all fds;
  let rss_kib = stop_daemon pid in
  (* checks: every primed content and every fresh content once, against
     routes apart from the daemon's; every repeat against the first answer *)
  let failed = ref 0 in
  let first : (string, string) Hashtbl.t = Hashtbl.create 4096 in
  let answer content r =
    let key = content_key content in
    if not (status_ok r) then incr failed
    else
      match Hashtbl.find_opt first key with
      | Some r0 -> record ~what:key (Check.identical ~first:r0 ~again:r)
      | None ->
        Hashtbl.replace first key r;
        (match Check.answer_period r with
         | Error e -> record (Error (key ^ ": " ^ e))
         | Ok p ->
           record ~what:key
             (Check.period ~sim:false (content_model content) (parse_text (content_text content)) p))
  in
  Array.iteri (fun k r -> answer (Primed k) r) primed;
  Array.iter (fun r -> if not (status_ok r) then incr failed) replayed;
  Array.iteri (fun c rs -> Array.iteri (fun i (r, _) -> answer (loop_content ~fs ~fo c i) r) rs) res;
  (* the simulator on a seeded sample of the strict fresh contents *)
  let strict_fresh =
    List.concat
      (List.init conns (fun c ->
           List.init (Array.length res.(c)) (fun i -> (c, i))
           |> List.filter (fun (_, i) -> i mod 10 = 0)))
    |> Array.of_list
  in
  Prng.shuffle (Prng.create (env.seed + 7919)) strict_fresh;
  Array.iteri
    (fun r (c, i) ->
      if r < sim_k then
        let content = loop_content ~fs ~fo c i in
        match Check.answer_period (fst res.(c).(i)) with
        | Ok p ->
          record ~what:(content_key content)
            (Check.simulated Comm_model.Strict (parse_text (content_text content)) p)
        | Error _ -> ())
    strict_fresh;
  let all = Array.to_list res |> List.concat_map Array.to_list in
  let lat = List.map snd all in
  let n = List.length lat in
  say "serve: %d primed (journal replay byte-identical), %d loop requests in %.3f s, %d distinct contents checked"
    n_prime n loop_s (Hashtbl.length first);
  say "loop latency: p50 %.4f ms, p99 %.4f ms over %d samples; set-up %.4f s"
    (p50_ms lat) (1000.0 *. Stats.percentile lat 0.99) n setup_s;
  let attempted = (2 * n_prime) + n + 1 in
  if not env.trace then
    { attempted;
      failed = !failed;
      metrics =
        [ ("jobs_per_s", float_of_int n /. loop_s, "jobs/s");
          ("req_per_s", float_of_int n /. loop_s, "req/s");
          ("req_p50_ms", p50_ms lat, "ms");
          ("req_p99_ms", 1000.0 *. Stats.percentile lat 0.99, "ms");
          ("setup_s", setup_s, "s");
          ("peak_rss_mb", float_of_int rss_kib /. 1024.0, "MiB") ] }
  else begin
    let by_kind fresh =
      List.concat_map
        (fun rs -> List.filteri (fun i _ -> is_fresh i = fresh) (List.map snd (Array.to_list rs)))
        (Array.to_list res)
    in
    (* every loop request again through the layers, in the order sent *)
    let layers = Layers.create ~journal:(path env "layers.journal") in
    let order =
      List.concat_map
        (fun (c, rs) -> List.init (Array.length rs) (fun i -> (i, c)))
        (List.mapi (fun c rs -> (c, rs)) (Array.to_list res))
      |> List.sort compare
    in
    let t0 = Proc.now () in
    List.iter
      (fun (i, c) ->
        let content, text, line, _ = loop_request c i in
        ignore
          (Layers.serve_request layers ~id:(Printf.sprintf "c%d-%d" c i) ~line
             ~model:(content_model content) text))
      order;
    let wall = Proc.now () -. t0 in
    Layers.close layers;
    Spans.write_chrome env.trace_file;
    let counters = Option.get counters in
    { attempted = attempted + 4000;
      failed = !failed;
      metrics =
        per_layer ~counters
          ~delta:
            ( int_of_float (counters.counter "delta.patch_hits"),
              int_of_float (counters.counter "delta.cold_fallbacks") )
          ~arcs:layers.Layers.arcs ~floor ~hit:(by_kind false) ~fresh:(by_kind true) ~wall }
  end
