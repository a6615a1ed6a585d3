(* Child processes and the benchmark clock. *)

external now : unit -> float = "perfbench_now"
external wait4 : int -> int * int = "perfbench_wait4"

let dev_null () = Unix.openfile "/dev/null" [ Unix.O_RDWR ] 0

(* children not reaped yet: a run that fails part-way kills and reaps
   them on exit, so it never leaves a daemon behind *)
let live : (int, unit) Hashtbl.t = Hashtbl.create 4

let () =
  at_exit (fun () ->
      Hashtbl.iter
        (fun pid () ->
          (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
          try ignore (Unix.waitpid [] pid) with Unix.Unix_error _ -> ())
        live)

(* spawn [prog args] with stdout/stderr sent to the given files (or
   /dev/null); the caller must {!reap} the pid *)
let spawn ?stdout ?stderr prog args =
  let open_out_fd = function
    | None -> dev_null ()
    | Some path -> Unix.openfile path [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o644
  in
  let fin = dev_null () in
  let fout = open_out_fd stdout in
  let ferr = open_out_fd stderr in
  let pid =
    Fun.protect
      ~finally:(fun () -> List.iter Unix.close [ fin; fout; ferr ])
      (fun () -> Unix.create_process prog (Array.of_list (prog :: args)) fin fout ferr)
  in
  Hashtbl.replace live pid ();
  pid

type exit = { code : int; maxrss_kib : int }

(* wait for the child; [code] < 0 is the negated killing signal *)
let reap pid =
  let code, maxrss_kib = wait4 pid in
  Hashtbl.remove live pid;
  { code; maxrss_kib }

let read_file path = In_channel.with_open_bin path In_channel.input_all

let write_file path contents =
  Out_channel.with_open_bin path (fun oc -> Out_channel.output_string oc contents)

(* rewrite a small file in place: without O_TRUNC the blocks are kept,
   which makes a rewrite an order of magnitude cheaper on ext4 *)
let overwrite_file path contents =
  let fd = Unix.openfile path [ Unix.O_WRONLY; Unix.O_CREAT ] 0o644 in
  Fun.protect ~finally:(fun () -> Unix.close fd) (fun () ->
      let n = String.length contents in
      let off = ref 0 in
      while !off < n do
        off := !off + Unix.write_substring fd contents !off (n - !off)
      done;
      Unix.ftruncate fd n)

let rec mkdir_p dir =
  if not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    try Unix.mkdir dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  end

let rec rm_rf path =
  match (Unix.lstat path).Unix.st_kind with
  | Unix.S_DIR ->
    Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
    Unix.rmdir path
  | _ -> Unix.unlink path
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()

let fail fmt = Printf.ksprintf (fun msg -> prerr_endline ("perfbench: " ^ msg); exit 1) fmt
