(* Spans of the traced run, kept in memory and written out once at the
   end in the Chrome trace-event format that [rwt --trace] writes. Each
   span records its name, start, end, parent and the job or request it
   belongs to. The traced run is single-threaded, so one lane. *)

type span = {
  id : int;
  parent : int;  (** -1 for a root span *)
  name : string;
  job : string;
  t0 : float;
  t1 : float;
}

let log : span list ref = ref []
let stack : int list ref = ref []
let next_id = ref 0
let totals : (string, float) Hashtbl.t = Hashtbl.create 32

(* seconds spent in spans that are direct children of a root span: the
   layer calls of a job or request *)
let in_layers = ref 0.0

let with_span ?(job = "") name f =
  let id = !next_id in
  incr next_id;
  let parent, depth =
    match !stack with p :: _ -> (p, List.length !stack) | [] -> (-1, 0)
  in
  stack := id :: !stack;
  let t0 = Proc.now () in
  let finish () =
    let t1 = Proc.now () in
    stack := List.tl !stack;
    log := { id; parent; name; job; t0; t1 } :: !log;
    let d = t1 -. t0 in
    Hashtbl.replace totals name (d +. Option.value ~default:0.0 (Hashtbl.find_opt totals name));
    if depth = 1 then in_layers := !in_layers +. d
  in
  match f () with
  | v ->
    finish ();
    v
  | exception e ->
    finish ();
    raise e

(* total seconds inside spans called [name] *)
let total name = Option.value ~default:0.0 (Hashtbl.find_opt totals name)

(* written event by event: a serve run records hundreds of thousands *)
let write_chrome path =
  let spans = List.rev !log in
  let origin = List.fold_left (fun acc s -> Float.min acc s.t0) infinity spans in
  Out_channel.with_open_bin path (fun oc ->
      output_string oc "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
      List.iteri
        (fun i s ->
          Printf.fprintf oc
            "%s\n{\"name\":%s,\"cat\":\"perfbench\",\"ph\":\"X\",\"ts\":%.3f,\"dur\":%.3f,\"pid\":1,\"tid\":1,\"args\":{\"id\":%d,\"parent\":%d,\"job\":%s}}"
            (if i = 0 then "" else ",")
            (Rwt_util.Json.to_string (Rwt_util.Json.String s.name))
            ((s.t0 -. origin) *. 1e6)
            ((s.t1 -. s.t0) *. 1e6)
            s.id s.parent
            (Rwt_util.Json.to_string (Rwt_util.Json.String s.job)))
        spans;
      output_string oc "\n]}\n")
