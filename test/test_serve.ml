(* The serve daemon: wire protocol round-trips, admission control
   (queue then shed), per-session isolation under interleaved streams,
   and the churn soak — seeded clients that connect, abort or complete
   while the test pins byte-identical verdicts against the offline
   replay path and zero leaked sessions, pool domains or fault state. *)

module Daemon = Rma_serve.Daemon
module Protocol = Rma_serve.Protocol
module Codec = Rma_trace.Codec
module Recorder = Rma_trace.Recorder
module Kernel = Rma_microbench.Scenario.Kernel
module Json = Rma_util.Json
module Toolbox = Rma_analysis.Toolbox
module Tool = Rma_analysis.Tool
module Report = Rma_analysis.Report
module Race_export = Rma_report.Race_export
module Sessions = Rma_obs.Sessions

(* --- trace material ------------------------------------------------- *)

let record_kernel name =
  let k = Option.get (Kernel.find name) in
  let r = Recorder.create () in
  let config = { Mpi_sim.Config.default with Mpi_sim.Config.analysis_overhead_scale = 0.0 } in
  ignore
    (Mpi_sim.Runtime.run ~nprocs:k.Kernel.k_nprocs ~seed:42 ~config
       ~observer:(Recorder.observer r) k.Kernel.k_program);
  (* Round-trip through the codec: both the daemon and the offline
     [analyze] path see decoded events, whose timestamps carry the
     codec's precision, not the recorder's. *)
  let events =
    List.map
      (fun e -> Result.get_ok (Codec.decode_event (Codec.encode_event e)))
      (Recorder.events r)
  in
  (k.Kernel.k_nprocs, events)

let trace_lines events =
  (Codec.header :: List.map Codec.encode_event events) @ [ Codec.footer (List.length events) ]

let racy_kernel = "rrb_lockall_remote_conflict_put_put_race"
let clean_kernel = "rrb_lockall_remote_disjoint_put_put_safe"

let with_id id (r : Report.t) =
  { r with Report.provenance = { r.Report.provenance with Report.id = id } }

(* The offline reference the daemon must match byte-for-byte: replay
   through the same tool construction, renumber to stream order, render
   with the same protocol constructor. *)
let offline ?jobs ?budget ~nprocs events =
  let tool = Toolbox.make Toolbox.Contribution ~nprocs ?jobs ?budget () in
  let reports = List.mapi (fun i r -> with_id (i + 1) r) (Recorder.replay events ~tool) in
  (List.map Protocol.race reports, Race_export.verdict_digest reports)

(* --- a minimal blocking client -------------------------------------- *)

let connect port =
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
  fd

let write_all fd s =
  let rec go off =
    if off < String.length s then go (off + Unix.write_substring fd s off (String.length s - off))
  in
  go 0

let send_lines fd lines = write_all fd (String.concat "\n" lines ^ "\n")

let recv_line fd =
  let b = Buffer.create 64 in
  let byte = Bytes.create 1 in
  let rec go () =
    match Unix.read fd byte 0 1 with
    | 0 -> if Buffer.length b = 0 then None else Some (Buffer.contents b)
    | _ -> if Bytes.get byte 0 = '\n' then Some (Buffer.contents b) else (Buffer.add_bytes b byte; go ())
    | exception Unix.Unix_error ((Unix.ECONNRESET | Unix.EPIPE), _, _) ->
        if Buffer.length b = 0 then None else Some (Buffer.contents b)
  in
  go ()

let recv_all fd =
  let rec go acc = match recv_line fd with None -> List.rev acc | Some l -> go (l :: acc) in
  go []

let line_type line =
  match Json.of_string line with
  | Ok j -> Option.value ~default:"?" (Option.bind (Json.member "type" j) Json.to_str)
  | Error _ -> "?"

let str_field name line =
  match Json.of_string line with
  | Ok j -> Option.bind (Json.member name j) Json.to_str
  | Error _ -> None

let int_field name line =
  match Json.of_string line with
  | Ok j -> Option.bind (Json.member name j) Json.to_int
  | Error _ -> None

let hello ?tool ?jobs ?budget ?fault ?(extra = []) ~session ~nprocs () =
  let opt name f = function None -> [] | Some v -> [ (name, f v) ] in
  Json.to_string ~minify:true
    (Json.Obj
       ([ ("hello", Json.Int Protocol.version); ("session", Json.String session);
          ("nprocs", Json.Int nprocs) ]
       @ opt "tool" (fun s -> Json.String s) tool
       @ opt "jobs" (fun j -> Json.Int j) jobs
       @ opt "budget" (fun s -> Json.String s) budget
       @ opt "fault" (fun s -> Json.String s) fault
       @ extra))

(* Run one complete session against a live daemon and return the server
   lines after the admission verdict. *)
let run_session ?tool ?jobs ?budget ?fault ~port ~session ~nprocs lines =
  let fd = connect port in
  Fun.protect ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ()) @@ fun () ->
  send_lines fd (hello ?tool ?jobs ?budget ?fault ~session ~nprocs () :: lines);
  (try Unix.shutdown fd Unix.SHUTDOWN_SEND with Unix.Unix_error _ -> ());
  recv_all fd

(* Wait (bounded) for an asynchronous daemon-side transition, e.g. the
   loop noticing an aborted client's EOF. *)
let await ?(deadline = 5.0) what cond =
  let rec go left =
    if cond () then ()
    else if left <= 0.0 then Alcotest.failf "timed out waiting for %s" what
    else (
      Unix.sleepf 0.02;
      go (left -. 0.02))
  in
  go deadline

let with_daemon ?(max_sessions = 4) ?(accept_queue = 8) ?run f =
  Sessions.reset ();
  let d =
    Daemon.create ~config:{ Daemon.addr = Daemon.Tcp 0; max_sessions; accept_queue } ?run ()
  in
  Daemon.start d;
  Fun.protect ~finally:(fun () -> Daemon.stop d) (fun () -> f d (Daemon.port d));
  Daemon.stats d

(* --- tests ----------------------------------------------------------- *)

let test_byte_identical_verdicts () =
  let nprocs, events = record_kernel racy_kernel in
  let expected_races, expected_digest = offline ~nprocs events in
  let stats =
    with_daemon @@ fun _d port ->
    let lines = run_session ~port ~session:"racy" ~nprocs (trace_lines events) in
    (match lines with
    | admitted :: rest ->
        Alcotest.(check string) "admitted first" "admitted" (line_type admitted);
        let races, tail = List.partition (fun l -> line_type l = "race") rest in
        Alcotest.(check (list string)) "streamed race lines byte-equal offline" expected_races races;
        (match tail with
        | [ summary ] ->
            Alcotest.(check string) "summary last" "summary" (line_type summary);
            Alcotest.(check (option string)) "digest matches offline replay"
              (Some expected_digest) (str_field "digest" summary);
            Alcotest.(check (option int)) "event count" (Some (List.length events))
              (int_field "events" summary);
            Alcotest.(check (option int)) "race count" (Some (List.length expected_races))
              (int_field "races" summary)
        | other -> Alcotest.failf "expected one summary line, got %d" (List.length other))
    | [] -> Alcotest.fail "no server lines")
  in
  Alcotest.(check int) "one admitted" 1 stats.Daemon.admitted;
  Alcotest.(check int) "one completed" 1 stats.Daemon.completed;
  Alcotest.(check int) "no sessions leaked" 0 (Sessions.registered_count ())

let test_legacy_stream_and_errors () =
  let nprocs, events = record_kernel clean_kernel in
  let stats =
    with_daemon @@ fun _d port ->
    (* A legacy (format 1, unframed) stream completes at EOF. *)
    let legacy =
      Codec.legacy_header :: List.map Codec.encode_event events
    in
    let lines = run_session ~port ~session:"legacy" ~nprocs legacy in
    Alcotest.(check string) "legacy summary"
      "summary" (line_type (List.nth lines (List.length lines - 1)));
    (* A non-JSON handshake is answered with an error line and a close. *)
    let fd = connect port in
    send_lines fd [ "this is not a handshake" ];
    (match recv_all fd with
    | l :: _ -> Alcotest.(check string) "error line" "error" (line_type l)
    | [] -> Alcotest.fail "no error line");
    Unix.close fd;
    (* An undecodable trace line after a fine handshake, likewise. *)
    let fd = connect port in
    send_lines fd [ hello ~session:"bad-trace" ~nprocs (); Codec.header; "G\tnot\tan\tevent" ];
    let lines = recv_all fd in
    Alcotest.(check bool) "error after bad event" true
      (List.exists (fun l -> line_type l = "error") lines);
    Unix.close fd
  in
  Alcotest.(check int) "one completed" 1 stats.Daemon.completed;
  Alcotest.(check int) "two protocol failures" 2 stats.Daemon.failed;
  Alcotest.(check int) "no sessions leaked" 0 (Sessions.registered_count ())

let test_admission_queue_and_shed () =
  let nprocs, events = record_kernel racy_kernel in
  let lines = trace_lines events in
  let stats =
    with_daemon ~max_sessions:1 ~accept_queue:1 @@ fun _d port ->
    (* A fills the only streaming slot... *)
    let a = connect port in
    send_lines a [ hello ~session:"a" ~nprocs () ];
    Alcotest.(check (option string)) "a admitted" (Some "admitted")
      (Option.map line_type (recv_line a));
    (* ...B waits in the accept queue... *)
    let b = connect port in
    send_lines b [ hello ~session:"b" ~nprocs () ];
    let b_first = Option.get (recv_line b) in
    Alcotest.(check string) "b queued" "queued" (line_type b_first);
    Alcotest.(check (option int)) "b at position 1" (Some 1) (int_field "position" b_first);
    (* ...and C is shed. *)
    let c = connect port in
    send_lines c [ hello ~session:"c" ~nprocs () ];
    let c_lines = recv_all c in
    Alcotest.(check bool) "c shed" true
      (List.exists (fun l -> line_type l = "load_shed") c_lines);
    Unix.close c;
    (* A finishes; B is promoted into the freed slot and completes too. *)
    send_lines a lines;
    (try Unix.shutdown a Unix.SHUTDOWN_SEND with Unix.Unix_error _ -> ());
    let a_rest = recv_all a in
    Alcotest.(check string) "a summary"
      "summary" (line_type (List.nth a_rest (List.length a_rest - 1)));
    Unix.close a;
    Alcotest.(check (option string)) "b admitted after a" (Some "admitted")
      (Option.map line_type (recv_line b));
    send_lines b lines;
    (try Unix.shutdown b Unix.SHUTDOWN_SEND with Unix.Unix_error _ -> ());
    let b_rest = recv_all b in
    Alcotest.(check string) "b summary"
      "summary" (line_type (List.nth b_rest (List.length b_rest - 1)));
    Unix.close b
  in
  Alcotest.(check int) "two admitted" 2 stats.Daemon.admitted;
  Alcotest.(check int) "two completed" 2 stats.Daemon.completed;
  Alcotest.(check int) "one shed" 1 stats.Daemon.shed;
  Alcotest.(check int) "no sessions leaked" 0 (Sessions.registered_count ())

(* Two sessions streamed strictly interleaved, one line at a time — the
   round-robin slices alternate between them, so any cross-session
   leakage of detector, budget or fault state would corrupt a verdict. *)
let test_interleaved_sessions_isolated () =
  let nprocs_r, events_r = record_kernel racy_kernel in
  let nprocs_c, events_c = record_kernel clean_kernel in
  let races_r, digest_r = offline ~nprocs:nprocs_r events_r in
  let _, digest_c = offline ~jobs:2 ~nprocs:nprocs_c events_c in
  let stats =
    with_daemon @@ fun _d port ->
    let a = connect port in
    let b = connect port in
    send_lines a [ hello ~session:"racy" ~nprocs:nprocs_r () ];
    send_lines b
      [ hello ~session:"clean" ~jobs:2 ~fault:"seed=7" ~nprocs:nprocs_c () ];
    Alcotest.(check (option string)) "a admitted" (Some "admitted")
      (Option.map line_type (recv_line a));
    Alcotest.(check (option string)) "b admitted" (Some "admitted")
      (Option.map line_type (recv_line b));
    (* one line to A, one line to B, until both streams are done *)
    let rec zip xs ys =
      (match xs with x :: _ -> send_lines a [ x ] | [] -> ());
      (match ys with y :: _ -> send_lines b [ y ] | [] -> ());
      match (xs, ys) with
      | [], [] -> ()
      | _ -> zip (match xs with _ :: t -> t | [] -> []) (match ys with _ :: t -> t | [] -> [])
    in
    zip (trace_lines events_r) (trace_lines events_c);
    (try Unix.shutdown a Unix.SHUTDOWN_SEND with Unix.Unix_error _ -> ());
    (try Unix.shutdown b Unix.SHUTDOWN_SEND with Unix.Unix_error _ -> ());
    let ra = recv_all a and rb = recv_all b in
    Unix.close a;
    Unix.close b;
    let races = List.filter (fun l -> line_type l = "race") ra in
    Alcotest.(check (list string)) "interleaved racy session still byte-identical" races_r races;
    let summary_of lines = List.nth lines (List.length lines - 1) in
    Alcotest.(check (option string)) "racy digest" (Some digest_r)
      (str_field "digest" (summary_of ra));
    Alcotest.(check (option string)) "clean digest under jobs=2 + fault plan" (Some digest_c)
      (str_field "digest" (summary_of rb))
  in
  Alcotest.(check int) "both completed" 2 stats.Daemon.completed

(* Per-session fault isolation with plans that actually fire: two
   sessions at jobs 2, each with its own worker-crash plan, streamed one
   line at a time in turn. Each session's verdict digest and the
   worker_crash coordinates journaled under its run id must equal those
   of the same session streamed alone — the injector belongs to the
   session, so the other session's submits never move its ordinals. *)
let test_interleaved_fault_plans_isolated () =
  let nprocs, events = record_kernel racy_kernel in
  let lines = trace_lines events in
  let plans = [ ("fa", "seed=2,worker_crash=0.2"); ("fb", "seed=7,worker_crash=0.2") ] in
  let journal = Filename.temp_file "serve_faults" ".jsonl" in
  Rma_obs.Obs.enable ();
  Rma_obs.Events.set_level Rma_obs.Events.Info;
  Rma_obs.Events.set_sink journal;
  Fun.protect
    ~finally:(fun () ->
      Rma_obs.Events.close ();
      Rma_obs.Events.clear ();
      Rma_obs.Obs.disable ();
      Rma_obs.Obs.reset ();
      try Sys.remove journal with Sys_error _ -> ())
  @@ fun () ->
  let open_session port (session, fault) =
    let fd = connect port in
    send_lines fd [ hello ~session ~jobs:2 ~fault ~nprocs () ];
    match recv_line fd with
    | Some l when line_type l = "admitted" -> (fd, Option.get (str_field "run_id" l))
    | _ -> Alcotest.failf "%s not admitted" session
  in
  let finish (fd, run_id) =
    (try Unix.shutdown fd Unix.SHUTDOWN_SEND with Unix.Unix_error _ -> ());
    let reply = recv_all fd in
    Unix.close fd;
    (run_id, str_field "digest" (List.nth reply (List.length reply - 1)))
  in
  (* Each phase runs under its own daemon run id, so session run ids
     (<daemon>-s1, <daemon>-s2) and their journaled crashes never mix
     across phases. *)
  let alone = ref [] and together = ref [] in
  ignore
    (Rma_obs.Events.with_run_id "alone" @@ fun () ->
     with_daemon @@ fun _d port ->
     alone :=
       List.map
         (fun plan ->
           let ((fd, _) as s) = open_session port plan in
           send_lines fd lines;
           finish s)
         plans);
  ignore
    (Rma_obs.Events.with_run_id "together" @@ fun () ->
     with_daemon @@ fun _d port ->
     let sessions = List.map (open_session port) plans in
     List.iter (fun line -> List.iter (fun (fd, _) -> send_lines fd [ line ]) sessions) lines;
     together := List.map finish sessions);
  Rma_obs.Events.close ();
  let journaled = (Rma_obs.Journal.read_file journal).Rma_obs.Journal.events in
  let crashes run_id =
    List.filter_map
      (fun (e : Rma_obs.Events.t) ->
        let kv k = List.assoc_opt k e.Rma_obs.Events.kv in
        if e.Rma_obs.Events.run_id = run_id && kv "event" = Some "worker_crash" then
          Some (kv "site", kv "ordinal", kv "seed")
        else None)
      journaled
  in
  let _, offline_digest = offline ~nprocs events in
  List.iteri
    (fun i (session, _) ->
      let rid_alone, digest_alone = List.nth !alone i in
      let rid_together, digest_together = List.nth !together i in
      Alcotest.(check bool) (session ^ ": phases journal under distinct run ids") true
        (rid_alone <> rid_together);
      Alcotest.(check bool) (session ^ ": the plan fires alone") true (crashes rid_alone <> []);
      Alcotest.(check bool) (session ^ ": the plan fires interleaved") true
        (crashes rid_together <> []);
      Alcotest.(check (option string)) (session ^ ": crashes recovered, verdict intact")
        (Some offline_digest) digest_alone;
      Alcotest.(check (option string)) (session ^ ": digest unchanged by interleaving")
        digest_alone digest_together;
      Alcotest.(check bool) (session ^ ": crash coordinates unchanged by interleaving") true
        (crashes rid_alone = crashes rid_together))
    plans;
  Alcotest.(check bool) "the two seeds crash differently" false
    (crashes (fst (List.nth !alone 0)) = crashes (fst (List.nth !alone 1)))

(* The soak: seeded churn of connect / abort / complete clients, then
   the leak audit — no live sessions, no extra pool domains, and the
   offline path still produces the pre-daemon digest (global fault,
   budget and run-id state all restored). *)
let test_session_churn_soak () =
  let nprocs, events_r = record_kernel racy_kernel in
  let _, events_c = record_kernel clean_kernel in
  let racy_lines = trace_lines events_r and clean_lines = trace_lines events_c in
  let races_r, digest_r = offline ~nprocs events_r in
  let _, digest_c = offline ~nprocs events_c in
  let pool_before = Rma_par.pool_size () in
  let completed = ref 0 and aborted = ref 0 in
  let stats =
    with_daemon ~max_sessions:3 @@ fun d port ->
    let rng = Random.State.make [| 1105 |] in
    for i = 1 to 24 do
      let name = Printf.sprintf "churn-%d" i in
      match Random.State.int rng 3 with
      | 0 ->
          let lines = run_session ~port ~session:name ~nprocs racy_lines in
          Alcotest.(check (option string))
            (name ^ " digest") (Some digest_r)
            (str_field "digest" (List.nth lines (List.length lines - 1)));
          Alcotest.(check int)
            (name ^ " races")
            (List.length races_r)
            (List.length (List.filter (fun l -> line_type l = "race") lines));
          incr completed
      | 1 ->
          let budget = if i mod 2 = 0 then Some "4096:spill" else None in
          let lines = run_session ?budget ~port ~session:name ~nprocs clean_lines in
          Alcotest.(check (option string))
            (name ^ " digest") (Some digest_c)
            (str_field "digest" (List.nth lines (List.length lines - 1)));
          incr completed
      | _ ->
          (* Abort mid-stream: hello plus a truncated prefix, then a
             hard close with no footer. *)
          let fd = connect port in
          let cut = 1 + Random.State.int rng (List.length racy_lines - 2) in
          let prefix = List.filteri (fun j _ -> j < cut) racy_lines in
          send_lines fd (hello ~session:name ~nprocs () :: prefix);
          ignore (recv_line fd) (* admitted *);
          Unix.close fd;
          incr aborted
    done;
    (* The last aborts race the shutdown below: give the loop a round to
       see their EOFs, or they would close as daemon_shutdown instead. *)
    await "abort EOFs to be noticed" (fun () ->
        (Daemon.stats d).Daemon.disconnected = !aborted)
  in
  Alcotest.(check int) "every completing client got its summary" !completed
    stats.Daemon.completed;
  Alcotest.(check int) "every abort was seen as a disconnect" !aborted
    stats.Daemon.disconnected;
  Alcotest.(check int) "accepted = completed + aborted" (!completed + !aborted)
    stats.Daemon.accepted;
  Alcotest.(check int) "no live sessions after the churn" 0 (Sessions.registered_count ());
  Alcotest.(check int) "no worker domains leaked" pool_before (Rma_par.pool_size ());
  (* The offline reference, recomputed after all that churn, is
     unchanged — per-session budgets and fault plans never escaped. *)
  let _, digest_after = offline ~nprocs events_r in
  Alcotest.(check string) "offline digest unchanged after the churn" digest_r digest_after

(* The daemon's own run config is every session's default: started
   with a one-node fail-fast budget, a hello that names no budget runs
   under that cap and is closed when the store outgrows it (the clean
   kernel's two disjoint puts need two nodes), while a hello naming its
   own budget overrides it and completes. *)
let test_daemon_settings_fill_hello () =
  let nprocs, events = record_kernel clean_kernel in
  let lines = trace_lines events in
  let _, digest = offline ~nprocs events in
  let tight = Result.get_ok (Rma_fault.Budget.of_spec "1:fail") in
  let run = Rma_analysis.Run_config.make ~budget:tight () in
  let stats =
    with_daemon ~run @@ fun _d port ->
    let capped = run_session ~port ~session:"capped" ~nprocs lines in
    let last = List.nth capped (List.length capped - 1) in
    Alcotest.(check string) "no budget in the hello: closed by the daemon's cap" "error"
      (line_type last);
    Alcotest.(check bool) "the reason names the budget" true
      (match str_field "reason" last with
      | Some r -> String.starts_with ~prefix:"budget exhausted" r
      | None -> false);
    let own = run_session ~budget:"100000:fail" ~port ~session:"own" ~nprocs lines in
    Alcotest.(check (option string)) "a hello budget overrides the daemon's" (Some digest)
      (str_field "digest" (List.nth own (List.length own - 1)))
  in
  Alcotest.(check int) "one completed, one failed" 1 stats.Daemon.completed;
  Alcotest.(check int) "the capped session failed" 1 stats.Daemon.failed

let test_metrics_label_sessions () =
  let nprocs, events = record_kernel racy_kernel in
  let _ =
    with_daemon @@ fun _d port ->
    ignore (run_session ~port ~session:"metrics-probe" ~nprocs (trace_lines events));
    let text = Rma_obs.Prometheus.to_text ~filter:(fun n -> n = "session_info") () in
    Alcotest.(check bool) "rma_session_info series present" true
      (Astring.String.is_infix ~affix:"rma_session_info{" text);
    Alcotest.(check bool) "series carries the session name" true
      (Astring.String.is_infix ~affix:"session=\"metrics-probe\"" text);
    Alcotest.(check bool) "closed session labelled with its reason" true
      (Astring.String.is_infix ~affix:"state=\"closed:completed\"" text)
  in
  ()

(* A client that never sends a newline: its session is closed as
   protocol_error once the unterminated line passes
   [Session.max_line_bytes], while a well-behaved session streaming
   beside it completes with the offline digest and the daemon stays up
   for the next client. *)
let test_endless_line_closes_only_its_session () =
  let nprocs, events = record_kernel racy_kernel in
  let _, digest = offline ~nprocs events in
  let stats =
    with_daemon @@ fun d port ->
    let good = connect port and bad = connect port in
    send_lines good [ hello ~session:"good" ~nprocs () ];
    send_lines bad [ hello ~session:"endless" ~nprocs (); Codec.header ];
    Alcotest.(check (option string)) "good admitted" (Some "admitted")
      (Option.map line_type (recv_line good));
    Alcotest.(check (option string)) "endless admitted" (Some "admitted")
      (Option.map line_type (recv_line bad));
    (* 4 MiB without a newline, interleaved with the good trace; the
       daemon may reset the connection before all of it is written. *)
    let chunk = String.make 65536 'x' in
    let rec stream chunks_left lines =
      (match lines with l :: _ -> send_lines good [ l ] | [] -> ());
      let chunks_left =
        if chunks_left = 0 then 0
        else try write_all bad chunk; chunks_left - 1 with Unix.Unix_error _ -> 0
      in
      let lines = match lines with _ :: rest -> rest | [] -> [] in
      if chunks_left > 0 || lines <> [] then stream chunks_left lines
    in
    stream 64 (trace_lines events);
    (try Unix.shutdown good Unix.SHUTDOWN_SEND with Unix.Unix_error _ -> ());
    let good_lines = recv_all good in
    Unix.close good;
    Alcotest.(check (option string)) "good digest matches offline replay" (Some digest)
      (str_field "digest" (List.nth good_lines (List.length good_lines - 1)));
    await "the endless line to be cut off" (fun () -> (Daemon.stats d).Daemon.failed = 1);
    (try Unix.close bad with Unix.Unix_error _ -> ());
    Alcotest.(check bool) "endless session closed as protocol_error" true
      (List.exists
         (fun (_, session, state) -> session = "endless" && state = "closed:protocol_error")
         (Sessions.snapshot ()));
    (* Still serving. *)
    let again = run_session ~port ~session:"after" ~nprocs (trace_lines events) in
    Alcotest.(check (option string)) "daemon still answers" (Some digest)
      (str_field "digest" (List.nth again (List.length again - 1)))
  in
  Alcotest.(check int) "only the endless session failed" 1 stats.Daemon.failed;
  Alcotest.(check int) "both good sessions completed" 2 stats.Daemon.completed

(* Handshake keys the daemon does not know are ignored. [batch_inserts]
   is one: older clients still send it, as a boolean either way. *)
let test_unknown_hello_keys_ignored () =
  let nprocs, events = record_kernel racy_kernel in
  let _, digest = offline ~nprocs events in
  let stats =
    with_daemon @@ fun _d port ->
    List.iter
      (fun batch ->
        let session = Printf.sprintf "batch_inserts=%b" batch in
        let fd = connect port in
        Fun.protect ~finally:(fun () -> Unix.close fd) @@ fun () ->
        let extra = [ ("batch_inserts", Json.Bool batch) ] in
        send_lines fd (hello ~extra ~session ~nprocs () :: trace_lines events);
        (try Unix.shutdown fd Unix.SHUTDOWN_SEND with Unix.Unix_error _ -> ());
        match recv_all fd with
        | admitted :: _ as lines ->
            Alcotest.(check string) (session ^ " admitted") "admitted" (line_type admitted);
            Alcotest.(check (option string)) (session ^ " digest matches offline replay")
              (Some digest)
              (str_field "digest" (List.nth lines (List.length lines - 1)))
        | [] -> Alcotest.fail "no server lines")
      [ true; false ]
  in
  Alcotest.(check int) "both completed" 2 stats.Daemon.completed

(* --- line splitting --------------------------------------------------- *)

(* [Session.push_bytes] over chunk boundaries: a line split across
   chunks, a chunk ending exactly on a newline, CRLF (including a CR and
   its LF in different chunks), empty lines, and a tail that waits for
   the next chunk. *)
let test_push_bytes_splits_lines () =
  let fd = Unix.openfile Filename.null [ Unix.O_RDONLY ] 0 in
  Fun.protect
    ~finally:(fun () -> Unix.close fd)
    (fun () ->
      let s = Rma_serve.Session.create ~id:1 ~fd in
      let inbox () =
        let lines = List.of_seq (Queue.to_seq s.Rma_serve.Session.inbox) in
        Queue.clear s.Rma_serve.Session.inbox;
        lines
      in
      let pending () = Buffer.contents s.Rma_serve.Session.pending in
      let push chunk =
        Alcotest.(check bool) "within the line bound" true (Rma_serve.Session.push_bytes s chunk)
      in
      push "hel";
      Alcotest.(check (list string)) "no newline yet" [] (inbox ());
      Alcotest.(check string) "tail pending" "hel" (pending ());
      push "lo\nwor";
      Alcotest.(check (list string)) "line across chunks" [ "hello" ] (inbox ());
      push "ld\n";
      Alcotest.(check (list string)) "chunk ends on newline" [ "world" ] (inbox ());
      Alcotest.(check string) "nothing pending" "" (pending ());
      push "a\r\n\n\r\nb\r";
      Alcotest.(check (list string)) "CRLF and empty lines" [ "a"; ""; "" ] (inbox ());
      push "\nc\rd\n";
      Alcotest.(check (list string)) "CR and LF in different chunks" [ "b"; "c\rd" ] (inbox ());
      push "";
      push "\n\n";
      Alcotest.(check (list string)) "empty chunk, then empty lines" [ ""; "" ] (inbox ());
      Alcotest.(check string) "nothing pending at the end" "" (pending ());
      (* The line bound: a line of exactly [max_line_bytes] passes, one
         byte more fails, whether it arrives whole or as a tail. *)
      let bound = Rma_serve.Session.max_line_bytes in
      push (String.make bound 'x' ^ "\n");
      Alcotest.(check int) "longest allowed line" bound (String.length (List.hd (inbox ())));
      push (String.make (bound - 1) 'y');
      Alcotest.(check bool) "tail one byte over the bound" false
        (Rma_serve.Session.push_bytes s "yy");
      let s = Rma_serve.Session.create ~id:2 ~fd in
      Alcotest.(check bool) "complete line one byte over the bound" false
        (Rma_serve.Session.push_bytes s (String.make (bound + 1) 'z' ^ "\n")))

let suite =
  [
    Alcotest.test_case "byte-identical verdicts vs offline replay" `Quick
      test_byte_identical_verdicts;
    Alcotest.test_case "legacy stream completes; bad handshake and bad event error out" `Quick
      test_legacy_stream_and_errors;
    Alcotest.test_case "admission: queue then shed, queued session promoted" `Quick
      test_admission_queue_and_shed;
    Alcotest.test_case "interleaved sessions stay isolated" `Quick
      test_interleaved_sessions_isolated;
    Alcotest.test_case "interleaved fault plans fire per session" `Quick
      test_interleaved_fault_plans_isolated;
    Alcotest.test_case "session churn soak leaks nothing" `Quick test_session_churn_soak;
    Alcotest.test_case "daemon settings fill what a hello omits" `Quick
      test_daemon_settings_fill_hello;
    Alcotest.test_case "/metrics labels sessions by run id" `Quick test_metrics_label_sessions;
    Alcotest.test_case "push_bytes splits lines across chunks" `Quick test_push_bytes_splits_lines;
    Alcotest.test_case "an endless line closes only its own session" `Quick
      test_endless_line_closes_only_its_session;
    Alcotest.test_case "unknown handshake keys are ignored" `Quick
      test_unknown_hello_keys_ignored;
  ]
