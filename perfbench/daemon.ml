(* Client side of the serve workload: spawn a real [mlpart serve] daemon,
   talk newline-delimited JSON to it over a Unix-domain socket, stop it.

   Every spawned daemon is registered so that an exception anywhere in
   the benchmark still ends with the daemon stopped and reaped. *)

type t = { pid : int; sock : string }

let live : t list ref = ref []

let reap d =
  live := List.filter (fun x -> x.pid <> d.pid) !live;
  snd (Unix.waitpid [] d.pid)

let () =
  at_exit (fun () ->
      List.iter
        (fun d ->
          (try Unix.kill d.pid Sys.sigkill with Unix.Unix_error _ -> ());
          ignore (reap d))
        !live)

type conn = { fd : Unix.file_descr; pending : Buffer.t; chunk : Bytes.t }

let connect sock =
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  match Unix.connect fd (Unix.ADDR_UNIX sock) with
  | () -> { fd; pending = Buffer.create 65536; chunk = Bytes.create 65536 }
  | exception e ->
      Unix.close fd;
      raise e

let close c = Unix.close c.fd

let send c line =
  let s = line ^ "\n" in
  let rec go off =
    if off < String.length s then
      go (off + Unix.write_substring c.fd s off (String.length s - off))
  in
  go 0

(* One complete line out of the bytes received so far, if there is one. *)
let take_line c =
  let s = Buffer.contents c.pending in
  match String.index_opt s '\n' with
  | None -> None
  | Some i ->
      Buffer.clear c.pending;
      Buffer.add_substring c.pending s (i + 1) (String.length s - i - 1);
      Some (String.sub s 0 i)

let fill c =
  let n = Unix.read c.fd c.chunk 0 (Bytes.length c.chunk) in
  if n = 0 then failwith "daemon closed the connection";
  Buffer.add_subbytes c.pending c.chunk 0 n

let rec recv c =
  match take_line c with
  | Some line -> line
  | None ->
      fill c;
      recv c

let roundtrip c line =
  send c line;
  recv c

(* Start [exe serve] on a socket in [dir] and return once it accepts
   connections, with one open connection. *)
let spawn ~exe ~dir ~cache =
  let sock = Filename.concat dir "d.sock" in
  let log =
    Unix.openfile (Filename.concat dir "daemon.log")
      [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_APPEND ] 0o644
  in
  let null = Unix.openfile "/dev/null" [ Unix.O_RDONLY ] 0 in
  let args =
    [| exe; "serve"; sock; "--workers"; "1"; "--jobs"; "1"; "--cache";
       string_of_int cache |]
  in
  let pid = Unix.create_process exe args null log log in
  Unix.close log;
  Unix.close null;
  let d = { pid; sock } in
  live := d :: !live;
  let give_up = Measure.now_ms () +. 30_000. in
  let rec wait () =
    match connect sock with
    | c -> c
    | exception Unix.Unix_error ((Unix.ENOENT | Unix.ECONNREFUSED), _, _) ->
        (match Unix.waitpid [ Unix.WNOHANG ] pid with
        | 0, _ -> ()
        | _ ->
            live := List.filter (fun x -> x.pid <> pid) !live;
            failwith "mlpart serve exited before accepting connections");
        if Measure.now_ms () > give_up then failwith "mlpart serve never listened";
        Unix.sleepf 0.002;
        wait ()
  in
  (d, wait ())

(* SIGTERM drains the daemon; true when it then exits 0. *)
let stop d =
  Unix.kill d.pid Sys.sigterm;
  reap d = Unix.WEXITED 0

(* Closed loop: each connection sends the next unsent line as soon as its
   previous answer is in.  Returns (latency ms, response line) per line,
   in schedule order, and the wall time from first send to last answer. *)
let closed_loop conns lines =
  let n = Array.length lines in
  let out = Array.make n (0., "") in
  let next = ref 0 in
  let busy = Hashtbl.create 4 in
  let start c =
    if !next < n then begin
      let i = !next in
      incr next;
      Hashtbl.replace busy c.fd (c, i, Measure.now_ms ());
      send c lines.(i)
    end
  in
  let t0 = Measure.now_ms () in
  List.iter start conns;
  while Hashtbl.length busy > 0 do
    let fds = Hashtbl.fold (fun fd _ acc -> fd :: acc) busy [] in
    let readable, _, _ = Unix.select fds [] [] (-1.) in
    List.iter
      (fun fd ->
        let c, i, t = Hashtbl.find busy fd in
        fill c;
        match take_line c with
        | None -> ()
        | Some line ->
            out.(i) <- (Measure.now_ms () -. t, line);
            Hashtbl.remove busy fd;
            start c)
      readable
  done;
  (out, Measure.now_ms () -. t0)
