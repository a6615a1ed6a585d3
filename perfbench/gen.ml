(* Workload inputs. Everything here is a pure function of the seed: the
   program under test only ever sees the instance files and job files
   written from these values. *)

open Rwt_util
open Rwt_workflow
module Corpus = Rwt_experiments.Corpus
module Generator = Rwt_experiments.Generator

(* one unit of work as the program receives it: an instance file, the
   model to analyse it under, and the text the file holds *)
type item = {
  id : string;
  model : Comm_model.t;
  inst : Instance.t;
  text : string;  (** the file's contents, [Format_io.to_string inst] *)
}

let item ~id model inst =
  let inst =
    Instance.create_exn ~name:id ~pipeline:inst.Instance.pipeline
      ~platform:inst.Instance.platform ~mapping:inst.Instance.mapping
  in
  { id; model; inst; text = Format_io.to_string inst }

(* --- corpus ----------------------------------------------------------- *)

(* a corpus tier, in the corpus's own family-then-index order *)
let corpus ~seed tier =
  Array.to_list (Corpus.build ~seed tier)
  |> List.map (fun (e : Corpus.entry) -> item ~id:e.id e.model e.instance)

(* --- sweep ------------------------------------------------------------ *)

type target = Speed of int | Link of int * int

(* one resource raised by [factor], everything else kept: the what-if
   instances [rwt sensitivity] evaluates *)
let upgraded inst target factor =
  let base = inst.Instance.platform in
  let p = Platform.p base in
  let speeds =
    Array.init p (fun u ->
        let s = Platform.speed base u in
        match target with Speed v when v = u -> Rat.mul s factor | _ -> s)
  in
  let bandwidths =
    Array.init p (fun u ->
        Array.init p (fun v ->
            let b = Platform.bandwidth base u v in
            match target with
            | Link (s, d) when s = u && d = v -> Rat.mul b factor
            | _ -> b))
  in
  Instance.create_exn ~name:inst.Instance.name ~pipeline:inst.Instance.pipeline
    ~platform:(Platform.create ~speeds ~bandwidths) ~mapping:inst.Instance.mapping

let targets inst =
  List.map (fun u -> Speed u) (Instance.resources inst)
  @ List.map (fun (s, d) -> Link (s, d)) (Rwt_core.Sensitivity.used_links inst)

let target_name = function
  | Speed u -> Printf.sprintf "speed%d" u
  | Link (s, d) -> Printf.sprintf "link%d-%d" s d

(* a base followed by all of its what-ifs; [groups] keeps the boundaries
   so the checks can compare every upgrade with its own base *)
type group = { base : item; upgrades : item list }

let sweep_group ~factor (base : item) =
  { base;
    upgrades =
      List.map
        (fun t ->
          item ~id:(base.id ^ "+" ^ target_name t) base.model
            (upgraded base.inst t factor))
        (targets base.inst) }

let group_items g = g.base :: g.upgrades

let sweep_factor = Rat.of_int 2

(* Strict bases from the seeded generators, taken in turn: aligned
   replication (the corpus's scc-heavy shapes, here under the strict
   model), coprime replication (lcm-heavy shapes with m <= 30, which keeps
   a round under a second) and random mappings from [Generator]. Each
   base is followed by all of its what-ifs until [n_jobs] jobs are
   reached; the last group is cut short to make the count exact. *)
let sweep ~seed ~n_jobs =
  let corpus = Array.to_list (Corpus.build ~seed Corpus.Full) in
  let of_family f keep =
    corpus
    |> List.filter (fun (e : Corpus.entry) -> e.family = f && keep e.instance)
    |> List.map (fun (e : Corpus.entry) -> item ~id:e.id Comm_model.Strict e.instance)
    |> Array.of_list
  in
  let aligned = of_family Corpus.Scc_heavy (fun _ -> true) in
  let coprime =
    of_family Corpus.Lcm_heavy (fun inst -> Mapping.num_paths inst.Instance.mapping <= 30)
  in
  let r = Prng.create seed in
  let generated =
    Array.init 400 (fun i ->
        let n = 2 + Prng.int r 3 in
        let p = n + Prng.int r 6 in
        item ~id:(Printf.sprintf "generated-%04d" i) Comm_model.Strict
          (Generator.generate r { Generator.n_stages = n; p; comp = (5, 40); comm = (5, 40) }))
  in
  let sources = [| aligned; coprime; generated |] in
  let rec take g left acc =
    if left <= 0 then List.rev acc
    else
      let src = sources.(g mod 3) in
      let grp = sweep_group ~factor:sweep_factor src.(g / 3 mod Array.length src) in
      let k = min (List.length grp.upgrades) (left - 1) in
      let grp = { grp with upgrades = List.filteri (fun i _ -> i < k) grp.upgrades } in
      take (g + 1) (left - 1 - k) (grp :: acc)
  in
  take 0 n_jobs []

(* --- serve ------------------------------------------------------------ *)

(* a small random instance: 2–3 stages on up to 6 processors, so a fresh
   request costs a solve of a few hundred microseconds and the per-request
   costs around it dominate *)
let small_base r =
  let n = 2 + Prng.int r 2 in
  let p = n + Prng.int r 4 in
  Generator.generate r { Generator.n_stages = n; p; comp = (5, 40); comm = (5, 40) }

(* Serve content is made as text, cheaply enough to write each request's
   file just before it is sent. A base is split around its speeds line;
   content [k] of a stream is base [k / run] with the speed of processor
   [k mod p] scaled by (1001 + k) / 1000, so every [k] gives distinct
   content, and a strict stream reaches a worker's delta session as runs
   of shape-compatible instances (patches) with a cold rebuild where the
   base changes. *)
type base_text = { before : string; speeds : Rat.t array; after : string }

let split_base inst =
  let lines = String.split_on_char '\n' (Format_io.to_string inst) in
  let rec go acc = function
    | l :: rest when String.starts_with ~prefix:"speeds " l ->
      let speeds =
        String.split_on_char ' ' (String.sub l 7 (String.length l - 7))
        |> List.filter (( <> ) "")
        |> List.map Rat.of_string
      in
      { before = String.concat "" (List.rev_map (fun l -> l ^ "\n") acc);
        speeds = Array.of_list speeds;
        after = String.concat "\n" rest }
    | l :: rest -> go (l :: acc) rest
    | [] -> invalid_arg "Gen.split_base: no speeds line"
  in
  (* drop the name line: every text gets its own *)
  go [] (List.tl lines)

type stream = { model : Comm_model.t; tag : string; bases : base_text array; run : int }

let stream ~seed ~tag ~n_bases ~run model =
  let r = Prng.create (Hashtbl.hash (seed, tag)) in
  { model; tag; bases = Array.init n_bases (fun _ -> split_base (small_base r)); run }

let content_id s k = Printf.sprintf "%s-%06d" s.tag k

let stream_text s k ~name =
  let b = s.bases.(k / s.run mod Array.length s.bases) in
  let u = k mod Array.length b.speeds in
  let scale = Rat.of_ints (1001 + k) 1000 in
  String.concat ""
    [ "name "; name; "\n"; b.before; "speeds ";
      String.concat " "
        (Array.to_list
           (Array.mapi (fun v x -> Rat.to_string (if v = u then Rat.mul x scale else x)) b.speeds));
      "\n"; b.after ]

(* the same content under another name: the memo key ignores the name *)
let rename text name =
  match String.index_opt text '\n' with
  | Some i -> "name " ^ name ^ String.sub text i (String.length text - i)
  | None -> invalid_arg "Gen.rename"
