(* The serve daemon as a child process, and the single-threaded client
   that loads it over two connections: one large session streaming a
   big trace while a closed loop of small kernel sessions runs beside
   it. *)

open Measure

(* ---- The daemon child ---- *)

type daemon = { pid : int; out : Unix.file_descr; err : Unix.file_descr; port : int }

let read_line_fd fd =
  let b = Buffer.create 64 and c = Bytes.create 1 in
  let rec go () =
    match Unix.read fd c 0 1 with
    | 0 -> if Buffer.length b = 0 then None else Some (Buffer.contents b)
    | _ when Bytes.get c 0 = '\n' -> Some (Buffer.contents b)
    | _ ->
        Buffer.add_char b (Bytes.get c 0);
        go ()
  in
  go ()

let read_all_fd fd =
  let b = Buffer.create 256 and chunk = Bytes.create 4096 in
  let rec go () =
    match Unix.read fd chunk 0 4096 with
    | 0 -> Buffer.contents b
    | n ->
        Buffer.add_subbytes b chunk 0 n;
        go ()
  in
  go ()

let running = ref []

(* [exe serve --port 0] with the process-wide RMA_* defaults scrubbed
   from its environment, so each session gets exactly what its
   handshake asks for. *)
let start_daemon ~exe =
  let out_r, out_w = Unix.pipe ~cloexec:true () in
  let err_r, err_w = Unix.pipe ~cloexec:true () in
  let env =
    Unix.environment () |> Array.to_list
    |> List.filter (fun kv -> not (String.starts_with ~prefix:"RMA_" kv))
    |> Array.of_list
  in
  let pid =
    Unix.create_process_env exe [| exe; "serve"; "--port"; "0" |] env Unix.stdin out_w err_w
  in
  Unix.close out_w;
  Unix.close err_w;
  running := pid :: !running;
  let rec port () =
    match read_line_fd err_r with
    | None -> failwith "serve daemon exited before printing its port"
    | Some l -> (
        match Scanf.sscanf_opt l "serve-port: %d" Fun.id with Some p -> p | None -> port ())
  in
  let port = port () in
  (* The daemon prints this only once its SIGTERM handler is installed;
     a stop before that would kill it without its stats line. *)
  (match read_line_fd out_r with
  | Some l when String.starts_with ~prefix:"serving on" l -> ()
  | _ -> failwith "serve daemon did not report that it is serving");
  { pid; out = out_r; err = err_r; port }

type daemon_stats = {
  ingested : int;
  streamed : int;
  shed : int;
  protocol_errors : int;
  rss_mb : float;
}

(* SIGTERM, then the stats line the daemon prints as it stops. The peak
   RSS is read first, while the process still exists. *)
let stop_daemon d =
  let rss_mb = vm_hwm_mb (string_of_int d.pid) in
  Unix.kill d.pid Sys.sigterm;
  let out = read_all_fd d.out in
  ignore (read_all_fd d.err);
  ignore (Unix.waitpid [] d.pid);
  running := List.filter (( <> ) d.pid) !running;
  Unix.close d.out;
  Unix.close d.err;
  let stats =
    String.split_on_char '\n' out
    |> List.find_map (fun l ->
           Scanf.sscanf_opt l
             "serve: %d accepted, %d admitted, %d completed, %d shed, %d disconnected, %d failed \
              — %d races streamed over %d events"
             (fun _ _ _ shed _ failed streamed ingested ->
               { ingested; streamed; shed; protocol_errors = failed; rss_mb }))
  in
  match stats with Some s -> s | None -> failwith ("serve daemon stats line missing: " ^ out)

let () =
  at_exit (fun () ->
      List.iter
        (fun pid ->
          (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
          try ignore (Unix.waitpid [] pid) with Unix.Unix_error _ -> ())
        !running)

(* ---- Sessions ---- *)

type payload = {
  hello : string;  (** Handshake line, without its newline. *)
  body : string;  (** Codec stream. *)
  expect : string;  (** Reference verdict digest. *)
  racy : bool option;  (** Ground-truth label, for kernel sessions. *)
}

let hello ~session ~tool ~nprocs =
  Printf.sprintf
    "{\"hello\":1,\"session\":%S,\"tool\":%S,\"nprocs\":%d,\"jobs\":1,\"batch_inserts\":false,\
     \"predictive\":false}"
    session tool nprocs

(* Client state of one connection. *)
type conn = {
  fd : Unix.file_descr;
  payload : payload;
  data : string;  (** Handshake plus stream. *)
  mutable sent : int;
  inbuf : Buffer.t;
  mutable scanned : int;
  opened_at : float;
  mutable footer_at : float;
  mutable admitted_at : float;
  mutable summary : (string * int * int) option;  (** Digest, events, races. *)
  mutable failed_line : string option;
  mutable blocked : float;  (** Seconds spent waiting for the socket to take more of [data]. *)
}

let connect port payload =
  let fd = Unix.socket ~cloexec:true Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.setsockopt fd Unix.TCP_NODELAY true;
  let opened_at = now () in
  Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
  Unix.set_nonblock fd;
  {
    fd;
    payload;
    data = payload.hello ^ "\n" ^ payload.body;
    sent = 0;
    inbuf = Buffer.create 256;
    scanned = 0;
    opened_at;
    footer_at = nan;
    admitted_at = nan;
    summary = None;
    failed_line = None;
    blocked = 0.0;
  }

let writing c = c.sent < String.length c.data

(* Push as much of the request as the socket takes; half-close once the
   footer is out. *)
let write_some c =
  let len = String.length c.data in
  (match Unix.single_write_substring c.fd c.data c.sent (min 65536 (len - c.sent)) with
  | n -> c.sent <- c.sent + n
  | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _) -> ());
  if c.sent = len then begin
    c.footer_at <- now ();
    Unix.shutdown c.fd Unix.SHUTDOWN_SEND
  end

let starts_with p s = String.starts_with ~prefix:p s

let on_line c line =
  if starts_with "{\"type\":\"race\"" line then ()
  else if starts_with "{\"type\":\"admitted\"" line then c.admitted_at <- now ()
  else if starts_with "{\"type\":\"summary\"" line then
    match Rma_util.Json.of_string line with
    | Ok j ->
        let field name conv = Option.bind (Rma_util.Json.member name j) conv in
        c.summary <-
          Some
            ( Option.value (field "digest" Rma_util.Json.to_str) ~default:"",
              Option.value (field "events" Rma_util.Json.to_int) ~default:(-1),
              Option.value (field "races" Rma_util.Json.to_int) ~default:(-1) )
    | Error _ -> c.failed_line <- Some line
  else c.failed_line <- Some line

(* Read what is there; [true] at end of stream. The summary time is
   taken when its line arrives, not at the close that follows it. *)
let chunk = Bytes.create 65536

let read_some c ~on_summary =
  match Unix.read c.fd chunk 0 65536 with
  | 0 -> true
  | n ->
      Buffer.add_subbytes c.inbuf chunk 0 n;
      let s = Buffer.contents c.inbuf in
      let rec scan () =
        match String.index_from_opt s c.scanned '\n' with
        | None -> ()
        | Some nl ->
            let had = c.summary <> None in
            on_line c (String.sub s c.scanned (nl - c.scanned));
            c.scanned <- nl + 1;
            if (not had) && c.summary <> None then on_summary ();
            scan ()
      in
      scan ();
      false
  | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _) -> false
  | exception Unix.Unix_error (Unix.ECONNRESET, _, _) -> true

(* A session is good when it ended with a summary whose digest is the
   reference, and a kernel session's verdict also matches its label. *)
let good c =
  match (c.summary, c.failed_line) with
  | Some (digest, _, races), None -> (
      digest = c.payload.expect
      && match c.payload.racy with None -> true | Some racy -> racy = (races > 0))
  | _ -> false

(* ---- The mixed load ---- *)

type small_stats = {
  mutable latencies_ms : float list;  (** Footer sent to summary received. *)
  mutable admit_ms : float list;  (** Handshake sent to admission received. *)
  mutable done_ : int;
  mutable bad : int;
}

type load = {
  port : int;
  small : payload array;
  mutable next_small : int;
  mutable current : (conn * float) option;  (** In-flight small session and its summary time. *)
  stats : small_stats;
}

let load ~port small =
  {
    port;
    small;
    next_small = 0;
    current = None;
    stats = { latencies_ms = []; admit_ms = []; done_ = 0; bad = 0 };
  }

let start_small l =
  let p = l.small.(l.next_small mod Array.length l.small) in
  l.next_small <- l.next_small + 1;
  let c = connect l.port p in
  while writing c do
    write_some c
  done;
  l.current <- Some (c, nan)

let finish_small l c summary_at =
  Unix.close c.fd;
  l.current <- None;
  let s = l.stats in
  s.done_ <- s.done_ + 1;
  if good c then begin
    s.latencies_ms <- ((summary_at -. c.footer_at) *. 1000.0) :: s.latencies_ms;
    s.admit_ms <- ((c.admitted_at -. c.opened_at) *. 1000.0) :: s.admit_ms
  end
  else s.bad <- s.bad + 1

type large_result = { wall : float; blocked : float; ok : bool; events : int }

(* Stream [large] over one connection while the closed loop of small
   sessions keeps the other busy; returns when the large session's
   summary has arrived. The small session in flight at that point
   carries over to the next call. *)
let run_large l large =
  let c = connect l.port large in
  let summary_at = ref nan in
  let eof = ref false in
  if l.current = None then start_small l;
  while not !eof do
    let small_fd = match l.current with Some (s, _) -> [ s.fd ] | None -> [] in
    let want_write = writing c in
    let t0 = now () in
    let r, w, _ =
      try Unix.select (c.fd :: small_fd) (if want_write then [ c.fd ] else []) [] 5.0
      with Unix.Unix_error (Unix.EINTR, _, _) -> ([], [], [])
    in
    if r = [] && w = [] && now () -. t0 >= 5.0 then failwith "serve client: no progress for 5 s";
    if want_write && not (List.mem c.fd w) then c.blocked <- c.blocked +. (now () -. t0);
    if List.mem c.fd w then write_some c;
    if List.mem c.fd r then
      if read_some c ~on_summary:(fun () -> summary_at := now ()) then eof := true;
    match l.current with
    | Some (s, at) when List.mem s.fd r ->
        let at = ref at in
        let closed = read_some s ~on_summary:(fun () -> at := now ()) in
        if closed then begin
          finish_small l s !at;
          if not !eof then start_small l
        end
        else l.current <- Some (s, !at)
    | _ -> ()
  done;
  Unix.close c.fd;
  let events = match c.summary with Some (_, e, _) -> e | None -> 0 in
  { wall = !summary_at -. c.opened_at; blocked = c.blocked; ok = good c; events }

(* Let the small session still in flight finish, so none is abandoned. *)
let drain l =
  match l.current with
  | None -> ()
  | Some (s, at) ->
      let at = ref at in
      let closed = ref false in
      while not !closed do
        if Unix.select [ s.fd ] [] [] 5.0 = ([], [], []) then
          failwith "serve client: no reply for 5 s";
        closed := read_some s ~on_summary:(fun () -> at := now ())
      done;
      finish_small l s !at
