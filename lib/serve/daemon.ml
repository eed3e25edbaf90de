module Obs = Rma_obs.Obs
module Events = Rma_obs.Events
module Sessions = Rma_obs.Sessions
module Tool = Rma_analysis.Tool
module Toolbox = Rma_analysis.Toolbox
module Run_config = Rma_analysis.Run_config
module Report = Rma_analysis.Report
module Codec = Rma_trace.Codec
module Race_export = Rma_report.Race_export

type addr = Tcp of int | Unix_path of string

type config = { addr : addr; max_sessions : int; accept_queue : int }

let default_config = { addr = Tcp 0; max_sessions = 8; accept_queue = 16 }

(* Metrics are pre-created at module load (main thread): the Obs
   registry is not thread-safe, and the daemon loop may run on a
   background domain. Incrementing an existing counter is a plain field
   update and safe enough for monitoring. *)
let obs_admitted = Obs.counter ~help:"Serve sessions admitted to streaming" "serve.sessions_admitted"
let obs_completed = Obs.counter ~help:"Serve sessions completed (summary sent)" "serve.sessions_completed"
let obs_shed = Obs.counter ~help:"Serve sessions refused by admission control" "serve.sessions_shed"
let obs_races = Obs.counter ~help:"Race verdicts streamed to serve clients" "serve.races_streamed"
let obs_events = Obs.counter ~help:"Trace events ingested by the serve daemon" "serve.events_ingested"
let obs_active = Obs.gauge ~help:"Serve sessions currently streaming" "serve.active_sessions"

type stats = {
  accepted : int;
  admitted : int;
  completed : int;
  shed : int;
  disconnected : int;
  failed : int;
  races_streamed : int;
  events_ingested : int;
  active : int;
  queued : int;
}

type t = {
  cfg : config;
  lsock : Unix.file_descr;
  bound : addr;
  daemon_run_id : string;
  defaults : Run_config.t;  (* what a hello leaves out *)
  mutable sessions : Session.t list;  (* accept order; loop thread only *)
  mutable next_id : int;
  mutable rotate : int;
  stopping : bool Atomic.t;
  mutable dom : unit Domain.t option;
  c_accepted : int Atomic.t;
  c_admitted : int Atomic.t;
  c_completed : int Atomic.t;
  c_shed : int Atomic.t;
  c_disconnected : int Atomic.t;
  c_failed : int Atomic.t;
  c_races : int Atomic.t;
  c_events : int Atomic.t;
  g_active : int Atomic.t;
  g_queued : int Atomic.t;
}

let stats t =
  {
    accepted = Atomic.get t.c_accepted;
    admitted = Atomic.get t.c_admitted;
    completed = Atomic.get t.c_completed;
    shed = Atomic.get t.c_shed;
    disconnected = Atomic.get t.c_disconnected;
    failed = Atomic.get t.c_failed;
    races_streamed = Atomic.get t.c_races;
    events_ingested = Atomic.get t.c_events;
    active = Atomic.get t.g_active;
    queued = Atomic.get t.g_queued;
  }

let address t = t.bound
let port t = match t.bound with Tcp p -> p | Unix_path _ -> 0

let write_all fd s =
  let len = String.length s in
  let rec go off = if off < len then go (off + Unix.write_substring fd s off (len - off)) in
  go 0

let rec drop n l = if n <= 0 then l else match l with [] -> [] | _ :: tl -> drop (n - 1) tl

(* Closing a socket with unread bytes in its receive buffer makes TCP
   reset the connection, which can discard a verdict line still in
   flight to the client — a shed or errored client would never see its
   answer. Flush our side with a half-close, then drain whatever input
   already arrived (non-blocking, so a slow client cannot stall the
   loop) before closing for real. *)
let graceful_close fd =
  (try Unix.shutdown fd Unix.SHUTDOWN_SEND with Unix.Unix_error _ -> ());
  (try
     Unix.set_nonblock fd;
     let buf = Bytes.create 4096 in
     let rec drain () = if Unix.read fd buf 0 4096 > 0 then drain () in
     drain ()
   with Unix.Unix_error _ | Invalid_argument _ -> ());
  try Unix.close fd with Unix.Unix_error _ -> ()

let with_id id (r : Report.t) =
  { r with Report.provenance = { r.Report.provenance with Report.id = id } }

(* Bracket one session's processing slice: its run_id labels every
   journal record emitted inside. (Its fault schedule needs no
   bracket: the injector belongs to the session's tool.) *)
let with_session_env (s : Session.t) f = Events.with_run_id s.Session.run_id f

let rec close_session t (s : Session.t) reason =
  if Session.is_open s then begin
    let was_streaming = s.Session.phase = Session.Streaming in
    let was_queued = s.Session.phase = Session.Queued in
    s.Session.phase <- Session.Closed reason;
    if s.Session.run_id <> "" then begin
      Sessions.set_state ~run_id:s.Session.run_id
        (Sessions.Closed (Session.reason_label reason));
      Events.with_run_id s.Session.run_id (fun () ->
          Events.emit
            ~kv:
              [
                ("event", "session_closed");
                ("session", Option.value (Session.session_name s) ~default:"");
                ("reason", Session.reason_label reason);
                ("events", string_of_int s.Session.events_fed);
                ("races", string_of_int s.Session.races_streamed);
              ]
            Events.Info "serve")
    end;
    s.Session.tool <- None;
    Queue.clear s.Session.inbox;
    graceful_close s.Session.fd;
    t.sessions <- List.filter (fun x -> x != s) t.sessions;
    if was_streaming then Atomic.decr t.g_active;
    if was_queued then Atomic.decr t.g_queued;
    (match reason with
    | Session.Completed ->
        Atomic.incr t.c_completed;
        Obs.incr obs_completed
    | Session.Shed ->
        Atomic.incr t.c_shed;
        Obs.incr obs_shed
    | Session.Protocol_error _ -> Atomic.incr t.c_failed
    | Session.Disconnected -> Atomic.incr t.c_disconnected
    | Session.Daemon_shutdown -> ());
    Obs.set_gauge obs_active (float_of_int (Atomic.get t.g_active));
    if was_streaming then promote_queued t
  end

and send t (s : Session.t) line =
  match write_all s.Session.fd (line ^ "\n") with
  | () -> true
  | exception Unix.Unix_error _ ->
      close_session t s Session.Disconnected;
      false

and admit t (s : Session.t) (h : Protocol.hello) =
  s.Session.run_id <- Printf.sprintf "%s-s%d" t.daemon_run_id s.Session.id;
  (* The handshake is this session's run config; whatever the client
     left out comes from the daemon's. A fault plan gets a private
     injector starting at ordinal 0. *)
  let d = t.defaults in
  let either hello daemon = match hello with Some _ -> hello | None -> daemon in
  let run =
    Run_config.make
      ~jobs:(Option.value h.Protocol.jobs ~default:d.Run_config.jobs)
      ~predictive:(Option.value h.Protocol.predictive ~default:d.Run_config.predictive)
      ?budget:(either h.Protocol.budget d.Run_config.budget)
      ?fault:(either h.Protocol.fault (Option.map Rma_fault.plan_of d.Run_config.fault))
      ()
  in
  s.Session.tool <- Some (Run_config.tool run h.Protocol.tool ~nprocs:h.Protocol.nprocs ());
  if s.Session.phase = Session.Queued then Atomic.decr t.g_queued;
  s.Session.phase <- Session.Streaming;
  Atomic.incr t.g_active;
  Atomic.incr t.c_admitted;
  Obs.incr obs_admitted;
  Obs.set_gauge obs_active (float_of_int (Atomic.get t.g_active));
  Sessions.register ~run_id:s.Session.run_id ~session:h.Protocol.session
    ~state:Sessions.Active;
  Events.with_run_id s.Session.run_id (fun () ->
      Events.emit
        ~kv:
          [
            ("event", "session_admitted");
            ("session", h.Protocol.session);
            ("tool", Toolbox.slug h.Protocol.tool);
            ("nprocs", string_of_int h.Protocol.nprocs);
          ]
        Events.Info "serve");
  if send t s (Protocol.admitted ~session:h.Protocol.session ~run_id:s.Session.run_id) then
    drain t s

and promote_queued t =
  if (not (Atomic.get t.stopping)) && Atomic.get t.g_active < t.cfg.max_sessions then
    match List.find_opt (fun s -> s.Session.phase = Session.Queued) t.sessions with
    | Some ({ Session.hello = Some h; _ } as s) ->
        admit t s h;
        promote_queued t
    | _ -> ()

and on_hello t (s : Session.t) line =
  match Protocol.parse_hello line with
  | Error reason ->
      if send t s (Protocol.error reason) then close_session t s (Session.Protocol_error reason)
  | Ok h ->
      s.Session.hello <- Some h;
      if Atomic.get t.g_active < t.cfg.max_sessions then admit t s h
      else if Atomic.get t.g_queued < t.cfg.accept_queue then begin
        s.Session.phase <- Session.Queued;
        Atomic.incr t.g_queued;
        ignore
          (send t s
             (Protocol.queued ~session:h.Protocol.session ~position:(Atomic.get t.g_queued)))
      end
      else begin
        ignore
          (send t s
             (Protocol.load_shed ~session:h.Protocol.session ~active:(Atomic.get t.g_active)
                ~queued:(Atomic.get t.g_queued) ()));
        close_session t s Session.Shed
      end

and flush_races t (s : Session.t) =
  match s.Session.tool with
  | None -> ()
  | Some tool ->
      (* race_count is a cheap int; only rebuild the stored list when it
         moved (it also moves for reports dropped past the tool's cap,
         in which case the stored list is simply unchanged). *)
      let rc = tool.Tool.race_count () in
      if rc <> s.Session.last_race_count then begin
        s.Session.last_race_count <- rc;
        let stored = tool.Tool.races () in
        let n = List.length stored in
        if n > s.Session.races_streamed then begin
          let fresh = drop s.Session.races_streamed stored in
          List.iteri
            (fun i r ->
              if Session.is_open s then begin
                (* Stream order is final order (the stored list is
                   chronological and append-only), so the 1-based stream
                   index is exactly the id the offline export's
                   renumbering would assign. *)
                let r = with_id (s.Session.races_streamed + i + 1) r in
                if send t s (Protocol.race r) then begin
                  Atomic.incr t.c_races;
                  Obs.incr obs_races
                end
              end)
            fresh;
          s.Session.races_streamed <- n
        end
      end

and finish_session t (s : Session.t) n_events =
  match s.Session.tool with
  | None -> close_session t s (Session.Protocol_error "stream completed without a tool")
  | Some tool ->
      flush_races t s;
      if Session.is_open s then begin
        let reports = List.mapi (fun i r -> with_id (i + 1) r) (tool.Tool.races ()) in
        let digest = Race_export.verdict_digest reports in
        let degraded = (tool.Tool.bst_summary ()).Tool.degraded_drops_total in
        let session = Option.value (Session.session_name s) ~default:"" in
        Events.emit
          ~kv:
            [
              ("event", "session_summary");
              ("session", session);
              ("events", string_of_int n_events);
              ("races", string_of_int (List.length reports));
              ("digest", digest);
            ]
          Events.Info "serve";
        if
          send t s
            (Protocol.summary ~session ~events:n_events ~races:(List.length reports) ~digest
               ~degraded_drops:degraded)
        then close_session t s Session.Completed
      end

and feed_line t (s : Session.t) line =
  match Codec.Incremental.feed s.Session.decoder line with
  | Ok Codec.Incremental.Skip -> ()
  | Ok (Codec.Incremental.Event e) ->
      s.Session.events_fed <- s.Session.events_fed + 1;
      Atomic.incr t.c_events;
      Obs.incr obs_events;
      (match s.Session.tool with
      | None -> ()
      | Some tool -> (
          try ignore (tool.Tool.observer e) with
          | Report.Race_abort _ -> ()
          | Rma_fault.Budget.Exhausted msg ->
              let reason = "budget exhausted: " ^ msg in
              ignore (send t s (Protocol.error ?session:(Session.session_name s) reason));
              close_session t s (Session.Protocol_error reason)));
      if Session.is_open s then flush_races t s
  | Ok (Codec.Incremental.Complete n) -> finish_session t s n
  | Error err ->
      let reason = Codec.error_to_string err in
      ignore (send t s (Protocol.error ?session:(Session.session_name s) reason));
      close_session t s (Session.Protocol_error reason)

and drain t (s : Session.t) =
  if not (Queue.is_empty s.Session.inbox) then
    match s.Session.phase with
    | Session.Queued | Session.Closed _ -> ()
    | Session.Handshaking ->
        on_hello t s (Queue.pop s.Session.inbox);
        drain t s
    | Session.Streaming ->
        (* One processing slice per run of queued trace lines, not one
           per line: the run-id bracket is a journal context switch. *)
        with_session_env s (fun () -> feed_queued t s);
        drain t s

and feed_queued t (s : Session.t) =
  if s.Session.phase = Session.Streaming && not (Queue.is_empty s.Session.inbox) then begin
    feed_line t s (Queue.pop s.Session.inbox);
    feed_queued t s
  end

let accept_new t =
  match Unix.accept t.lsock with
  | exception Unix.Unix_error _ -> ()
  | fd, _addr ->
      Atomic.incr t.c_accepted;
      if List.length t.sessions >= t.cfg.max_sessions + t.cfg.accept_queue then begin
        (* Accept-time load shed: even the bounded queue is full, so
           answer with a verdict the client can act on and close. *)
        let line =
          Protocol.load_shed ~active:(Atomic.get t.g_active) ~queued:(Atomic.get t.g_queued) ()
        in
        (try write_all fd (line ^ "\n") with Unix.Unix_error _ -> ());
        graceful_close fd;
        Atomic.incr t.c_shed;
        Obs.incr obs_shed
      end
      else begin
        let id = t.next_id in
        t.next_id <- id + 1;
        t.sessions <- t.sessions @ [ Session.create ~id ~fd ]
      end

let service t (s : Session.t) =
  let buf = Bytes.create 8192 in
  match Unix.read s.Session.fd buf 0 8192 with
  | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
  | exception Unix.Unix_error _ -> close_session t s Session.Disconnected
  | 0 ->
      (* EOF. A legacy (format-1) stream is delimited by it; a framed
         stream ending here lost its footer — the client died
         mid-stream. *)
      if s.Session.phase = Session.Streaming then
        with_session_env s (fun () ->
            match Codec.Incremental.finish s.Session.decoder with
            | Ok n -> finish_session t s n
            | Error _ -> close_session t s Session.Disconnected)
      else close_session t s Session.Disconnected
  | n ->
      if Session.push_bytes s (Bytes.sub_string buf 0 n) then drain t s
      else begin
        let reason = Printf.sprintf "line longer than %d bytes" Session.max_line_bytes in
        ignore (send t s (Protocol.error ?session:(Session.session_name s) reason));
        close_session t s (Session.Protocol_error reason)
      end

(* Round-robin fairness: each select round services ready sessions
   starting from a rotating offset, and each service consumes at most
   one 8 KiB read — so a firehose session cannot starve the others. *)
let rotate_list n l =
  match l with
  | [] -> []
  | _ ->
      let k = n mod List.length l in
      let rec split i acc rest =
        if i = 0 then rest @ List.rev acc
        else match rest with [] -> List.rev acc | x :: tl -> split (i - 1) (x :: acc) tl
      in
      split k [] l

let step t =
  let watched = List.filter Session.wants_read t.sessions in
  let read_fds = t.lsock :: List.map (fun s -> s.Session.fd) watched in
  match Unix.select read_fds [] [] 0.25 with
  | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
  | ready, _, _ ->
      if List.mem t.lsock ready then accept_new t;
      let in_order = rotate_list t.rotate watched in
      t.rotate <- t.rotate + 1;
      List.iter
        (fun s -> if Session.is_open s && List.mem s.Session.fd ready then service t s)
        in_order

let create ?(config = default_config) ?(run = Run_config.default) () =
  (* Writes to a crashed client must surface as EPIPE, not kill the
     daemon. *)
  (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore with Invalid_argument _ -> ());
  let lsock, bound =
    match config.addr with
    | Tcp requested ->
        let s = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
        (try
           Unix.setsockopt s Unix.SO_REUSEADDR true;
           Unix.bind s (Unix.ADDR_INET (Unix.inet_addr_loopback, requested));
           Unix.listen s 64
         with e ->
           (try Unix.close s with Unix.Unix_error _ -> ());
           raise e);
        let p =
          match Unix.getsockname s with Unix.ADDR_INET (_, p) -> p | _ -> requested
        in
        (* Same contract as the obs endpoint's ephemeral bind: scripts
           scrape the resolved port from one stable stderr line. *)
        if requested = 0 then Printf.eprintf "serve-port: %d\n%!" p;
        (s, Tcp p)
    | Unix_path path ->
        (try Unix.unlink path with Unix.Unix_error _ -> ());
        let s = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
        (try
           Unix.bind s (Unix.ADDR_UNIX path);
           Unix.listen s 64
         with e ->
           (try Unix.close s with Unix.Unix_error _ -> ());
           raise e);
        (s, Unix_path path)
  in
  let t =
    {
      cfg = config;
      lsock;
      bound;
      daemon_run_id = Events.run_id ();
      defaults = run;
      sessions = [];
      next_id = 1;
      rotate = 0;
      stopping = Atomic.make false;
      dom = None;
      c_accepted = Atomic.make 0;
      c_admitted = Atomic.make 0;
      c_completed = Atomic.make 0;
      c_shed = Atomic.make 0;
      c_disconnected = Atomic.make 0;
      c_failed = Atomic.make 0;
      c_races = Atomic.make 0;
      c_events = Atomic.make 0;
      g_active = Atomic.make 0;
      g_queued = Atomic.make 0;
    }
  in
  Events.emit
    ~kv:
      [
        ("event", "serve_start");
        ( "addr",
          match bound with
          | Tcp p -> Printf.sprintf "tcp:127.0.0.1:%d" p
          | Unix_path p -> "unix:" ^ p );
        ("max_sessions", string_of_int config.max_sessions);
        ("accept_queue", string_of_int config.accept_queue);
      ]
    Events.Info "serve";
  t

let run t =
  while not (Atomic.get t.stopping) do
    step t
  done;
  List.iter (fun s -> close_session t s Session.Daemon_shutdown) t.sessions;
  (try Unix.close t.lsock with Unix.Unix_error _ -> ());
  (match t.bound with
  | Unix_path p -> ( try Unix.unlink p with Unix.Unix_error _ -> ())
  | Tcp _ -> ());
  Events.emit ~kv:[ ("event", "serve_stop") ] Events.Info "serve"

let request_stop t = Atomic.set t.stopping true

let start t = t.dom <- Some (Domain.spawn (fun () -> run t))

let stop t =
  request_stop t;
  match t.dom with
  | Some d ->
      Domain.join d;
      t.dom <- None
  | None -> ()
