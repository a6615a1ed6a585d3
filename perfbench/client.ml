(* The serve client: one process, a few persistent Unix-socket
   connections, each keeping a fixed number of requests in flight. It is
   a closed loop: a connection sends its next request only when a response
   comes back, so a slower daemon receives less load. *)

let connect path =
  let fd = Unix.socket ~cloexec:true Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  match Unix.connect fd (Unix.ADDR_UNIX path) with
  | () -> Some fd
  | exception Unix.Unix_error _ ->
    Unix.close fd;
    None

(* poll until the daemon accepts; the listener is bound only after the
   journal has been replayed, so the first successful connect marks the
   end of recovery *)
let rec connect_wait ~deadline path =
  match connect path with
  | Some fd -> fd
  | None ->
    if Proc.now () > deadline then Proc.fail "daemon on %s never accepted a connection" path;
    Unix.sleepf 0.0002;
    connect_wait ~deadline path

let write_all fd s =
  let n = String.length s in
  let off = ref 0 in
  while !off < n do
    off := !off + Unix.write_substring fd s !off (n - !off)
  done

(* one request, one response line, no pipelining *)
let call fd line =
  write_all fd (line ^ "\n");
  let buf = Buffer.create 256 in
  let chunk = Bytes.create 65536 in
  let rec read () =
    match Bytes.index_opt (Buffer.to_bytes buf) '\n' with
    | Some i -> Buffer.sub buf 0 i
    | None ->
      let k = Unix.read fd chunk 0 (Bytes.length chunk) in
      if k = 0 then Proc.fail "daemon closed the connection";
      Buffer.add_subbytes buf chunk 0 k;
      read ()
  in
  read ()

type conn = {
  fd : Unix.file_descr;
  index : int;
  limit : int;  (** requests this connection may send *)
  in_flight : float Queue.t;  (** send times, oldest first *)
  mutable sent : int;
  mutable answers : (string * float) list;  (** newest first *)
  mutable pending : string;  (** a partial response line *)
}

(* Run the closed loop: every connection starts with [depth] requests in
   flight and replaces each answered request with its next one until
   [deadline] or its [limit]; the loop then drains what is still in
   flight. [request c i] makes the [i]-th request line of connection [c]
   (writing the file it names); its cost is not part of the latency,
   which runs from the write of the line to the read of its response.
   Returns, per connection, its (response, latency in seconds) pairs in
   request order. *)
let closed_loop ~depth ~deadline ~request (conns : (Unix.file_descr * int) array) =
  let cs =
    Array.mapi
      (fun index (fd, limit) ->
        { fd; index; limit; in_flight = Queue.create (); sent = 0; answers = [];
          pending = "" })
      conns
  in
  let send c =
    let line = request c.index c.sent in
    Queue.push (Proc.now ()) c.in_flight;
    write_all c.fd (line ^ "\n");
    c.sent <- c.sent + 1
  in
  Array.iter
    (fun c ->
      for _ = 1 to min depth c.limit do
        send c
      done)
    cs;
  let chunk = Bytes.create 65536 in
  let receive c =
    let k = Unix.read c.fd chunk 0 (Bytes.length chunk) in
    if k = 0 then Proc.fail "daemon closed a client connection";
    let t = Proc.now () in
    let data = c.pending ^ Bytes.sub_string chunk 0 k in
    let rec lines start =
      match String.index_from_opt data start '\n' with
      | None -> c.pending <- String.sub data start (String.length data - start)
      | Some j ->
        let sent_at = Queue.pop c.in_flight in
        c.answers <- (String.sub data start (j - start), t -. sent_at) :: c.answers;
        if t < deadline && c.sent < c.limit then send c;
        lines (j + 1)
    in
    lines 0
  in
  let rec loop () =
    match List.filter (fun c -> not (Queue.is_empty c.in_flight)) (Array.to_list cs) with
    | [] -> ()
    | live ->
      (match Unix.select (List.map (fun c -> c.fd) live) [] [] 30.0 with
       | [], _, _ -> Proc.fail "daemon stopped answering"
       | ready, _, _ -> List.iter (fun c -> if List.mem c.fd ready then receive c) live
       | exception Unix.Unix_error (Unix.EINTR, _, _) -> ());
      loop ()
  in
  loop ();
  Array.map (fun c -> Array.of_list (List.rev c.answers)) cs
