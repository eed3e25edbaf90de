open Rma_access
open Rma_store

(* Rma_obs.Events: the structured JSON-lines journal — level filtering,
   the in-memory ring, sink files, golden stability of a seeded fault
   run, the Json round-trip of every emitted line, the telemetry
   collector, and the /metrics endpoint smoke test. *)

module Obs = Rma_obs.Obs
module Events = Rma_obs.Events
module Telemetry = Rma_obs.Telemetry
module Serve = Rma_obs.Serve
module Json = Rma_util.Json
module Plan = Rma_fault.Plan
module Budget = Rma_fault.Budget

(* Events shares Obs's process-global registry: pin a run id and a clean
   ring for the duration, restore the disabled default after. *)
let with_events ?(level = Events.Info) f =
  Obs.enable ();
  Obs.reset ();
  Events.close ();
  Events.clear ();
  Events.set_level level;
  Events.set_run_id "run-test";
  Fun.protect
    ~finally:(fun () ->
      Events.close ();
      Events.clear ();
      Events.set_level Events.Info;
      Obs.disable ();
      Obs.reset ())
    f

(* --- levels ---------------------------------------------------------- *)

let test_levels () =
  List.iter
    (fun l ->
      Alcotest.(check bool)
        (Events.level_to_string l ^ " round-trips")
        true
        (Events.level_of_string (Events.level_to_string l) = Some l))
    [ Events.Debug; Events.Info; Events.Warn; Events.Error ];
  Alcotest.(check (option unit)) "unknown level rejected" None
    (Option.map ignore (Events.level_of_string "shout"));
  Alcotest.(check bool) "severity is strictly increasing" true
    (Events.severity Events.Debug < Events.severity Events.Info
    && Events.severity Events.Info < Events.severity Events.Warn
    && Events.severity Events.Warn < Events.severity Events.Error)

(* --- ring + filtering ------------------------------------------------ *)

let test_ring_and_filter () =
  with_events ~level:Events.Warn @@ fun () ->
  Events.emit ~kv:[ ("event", "ignored") ] Events.Info "test";
  Alcotest.(check int) "below-level event dropped" 0 (List.length (Events.recent ()));
  Events.emit ~kv:[ ("event", "kept") ] Events.Warn "test";
  (match Events.recent () with
  | [ ev ] ->
      Alcotest.(check string) "component" "test" ev.Events.component;
      Alcotest.(check string) "run id pinned" "run-test" ev.Events.run_id;
      Alcotest.(check int) "main domain is not a shard" (-1) ev.Events.shard;
      Alcotest.(check int) "no covering span" 0 ev.Events.span_id;
      Alcotest.(check (list (pair string string))) "kv" [ ("event", "kept") ] ev.Events.kv
  | l -> Alcotest.failf "expected one buffered event, got %d" (List.length l));
  (* The ring keeps the newest [cap] events, oldest first. *)
  Events.set_ring_cap 4;
  for i = 1 to 10 do
    Events.emit ~kv:[ ("i", string_of_int i) ] Events.Warn "test"
  done;
  let kept = List.map (fun ev -> List.assoc "i" ev.Events.kv) (Events.recent ()) in
  Alcotest.(check (list string)) "ring evicts oldest" [ "7"; "8"; "9"; "10" ] kept;
  Events.set_ring_cap 4096;
  (* Disabled registry: emission is a no-op, not a buffer. *)
  Obs.disable ();
  Events.emit Events.Error "test";
  Alcotest.(check int) "disabled emits nothing" 0 (List.length (Events.recent ()));
  Obs.enable ()

(* --- golden journal from a seeded fault run -------------------------- *)

let disjoint_access ~seq lo hi =
  Access.make
    ~interval:(Interval.make ~lo ~hi)
    ~kind:Access_kind.Rma_read ~issuer:1 ~seq
    ~debug:(Debug_info.make ~file:"events.c" ~line:seq ~operation:"MPI_Get")

(* Every journal line opens with the volatile timestamp; the rest of the
   record is deterministic under a pinned run id and plan seed. *)
let scrub_ts line =
  match String.index_opt line ',' with
  | Some i -> {|{"ts":0|} ^ String.sub line i (String.length line - i)
  | None -> line

let read_lines path =
  let ic = open_in path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () ->
      let rec go acc =
        match input_line ic with
        | line -> go (line :: acc)
        | exception End_of_file -> List.rev acc
      in
      go [])

(* A worker-crash fault plan at jobs=4 plus a budgeted store: the
   journal must contain the crash, the recovery, and the degradation,
   all correlated by the pinned run id, in a deterministic order (all
   of these events are emitted from the submitting thread; worker
   domains only emit Debug spawn events, filtered at Info). *)
let journal_of_seeded_run () =
  let path = Filename.temp_file "rma_events" ".jsonl" in
  with_events @@ fun () ->
  Events.set_run_id "run-golden";
  Events.set_sink path;
  let plan = { Plan.default with Plan.seed = 7; worker_crash = 0.3; max_retries = 2 } in
  let engine = Rma_par.create ~jobs:4 ~fault:(Rma_fault.create plan) () in
  for i = 0 to 15 do
    Rma_par.submit engine ~shard:(i mod 4) (fun () -> ())
  done;
  Rma_par.barrier engine;
  let budget = { Budget.max_nodes = Some 4; max_bytes = None; policy = Budget.Spill_oldest_epoch } in
  let store = Disjoint_store.create ~budget () in
  List.iteri
    (fun i () -> ignore (Disjoint_store.insert store (disjoint_access ~seq:(i + 1) (i * 10) ((i * 10) + 3))))
    (List.init 8 (fun _ -> ()));
  Events.close ();
  let lines = List.map scrub_ts (read_lines path) in
  Sys.remove path;
  lines

let test_golden_journal () =
  let lines = journal_of_seeded_run () in
  let text = String.concat "\n" lines ^ "\n" in
  (* GOLDEN_OUT_EVENTS=/abs/path (or GOLDEN_OUT_DIR, see
     test/golden_regen.ml) regenerates the golden file instead of
     comparing. *)
  Golden_regen.check ~name:"events_journal.jsonl" ~what:"journal matches the golden file" text

let test_journal_correlation () =
  let lines = journal_of_seeded_run () in
  let events =
    List.map
      (fun l ->
        match Json.of_string l with
        | Ok j -> j
        | Error e -> Alcotest.failf "journal line is not JSON (%s): %s" e l)
      lines
  in
  let kv name j = Option.bind (Json.member "kv" j) (Json.member name) in
  let of_kind k = List.filter (fun j -> kv "event" j = Some (Json.String k)) events in
  let crashes = of_kind "worker_crash" in
  Alcotest.(check bool) "crash journaled" true (crashes <> []);
  Alcotest.(check bool) "crash resolved" true
    (of_kind "shard_recovery" <> [] || of_kind "sequential_fallback" <> []);
  Alcotest.(check bool) "degradation journaled" true (of_kind "budget_degradation" <> []);
  (* One run id across the whole journal, and crash events carry the
     shard plus the replayable fault coordinates. *)
  List.iter
    (fun j ->
      Alcotest.(check (option string)) "run id correlates" (Some "run-golden")
        (Option.bind (Json.member "run_id" j) Json.to_str))
    events;
  List.iter
    (fun j ->
      let shard = Option.bind (Json.member "shard" j) Json.to_int in
      Alcotest.(check bool) "crash names its shard" true
        (match shard with Some s -> s >= 0 && s < 4 | None -> false);
      Alcotest.(check bool) "crash carries site+ordinal" true
        (kv "site" j <> None && kv "ordinal" j <> None))
    crashes

(* --- every line round-trips through Json ----------------------------- *)

let arb_event =
  let open QCheck in
  let str_gen = Gen.string_size ~gen:Gen.printable (Gen.int_range 0 12) in
  let level_gen = Gen.oneofl [ Events.Debug; Events.Info; Events.Warn; Events.Error ] in
  make
    ~print:(fun ev -> Events.line ev)
    Gen.(
      let* level = level_gen in
      let* component = str_gen in
      let* run_id = str_gen in
      let* shard = int_range (-1) 64 in
      let* span_id = int_range 0 1000 in
      let* kv = list_size (int_range 0 4) (pair str_gen str_gen) in
      return { Events.ts = 0.25; level; component; run_id; shard; span_id; kv })

let prop_line_roundtrips =
  QCheck.Test.make ~name:"journal lines round-trip through Rma_util.Json" ~count:500 arb_event
    (fun ev ->
      match Json.of_string (Events.line ev) with
      | Error _ -> false
      | Ok j ->
          let str name = Option.bind (Json.member name j) Json.to_str in
          let int name = Option.bind (Json.member name j) Json.to_int in
          str "level" = Some (Events.level_to_string ev.Events.level)
          && str "component" = Some ev.Events.component
          && str "run_id" = Some ev.Events.run_id
          && int "shard" = Some ev.Events.shard
          && int "span_id" = Some ev.Events.span_id
          && Option.bind (Json.member "kv" j) Json.to_obj
             = Some (List.map (fun (k, v) -> (k, Json.String v)) ev.Events.kv))

(* --- telemetry ------------------------------------------------------- *)

let test_telemetry_collector () =
  with_events @@ fun () ->
  Telemetry.reset_rate ();
  let before = Telemetry.events_total () in
  let store = Disjoint_store.create () in
  for i = 1 to 100 do
    ignore (Disjoint_store.insert store (disjoint_access ~seq:i (i * 8) ((i * 8) + 3)))
  done;
  Alcotest.(check bool) "store inserts feed the event counter" true
    (Telemetry.events_total () - before >= 100);
  Alcotest.(check bool) "peak RSS is observable" true (Telemetry.peak_rss_bytes () > 0);
  Telemetry.sample ();
  let gauge name =
    match List.find_opt (fun (g : Obs.gauge) -> g.Obs.g_name = name) (Obs.all_gauges ()) with
    | Some g -> g.Obs.g_value
    | None -> Alcotest.failf "gauge %s not registered" name
  in
  Alcotest.(check bool) "telemetry.peak_rss_bytes gauge set" true
    (gauge "telemetry.peak_rss_bytes" > 0.0);
  Alcotest.(check bool) "telemetry.gc_live_words gauge set" true
    (gauge "telemetry.gc_live_words" > 0.0);
  Alcotest.(check bool) "telemetry.events_total gauge counts" true
    (gauge "telemetry.events_total" >= 100.0)

(* --- serve smoke ----------------------------------------------------- *)

let http_get port path =
  let addr = Unix.ADDR_INET (Unix.inet_addr_loopback, port) in
  let sock = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Fun.protect
    ~finally:(fun () -> try Unix.close sock with Unix.Unix_error _ -> ())
    (fun () ->
      Unix.connect sock addr;
      let req = Printf.sprintf "GET %s HTTP/1.1\r\nHost: localhost\r\n\r\n" path in
      ignore (Unix.write_substring sock req 0 (String.length req));
      let buf = Buffer.create 1024 in
      let chunk = Bytes.create 1024 in
      let rec drain () =
        match Unix.read sock chunk 0 1024 with
        | 0 -> ()
        | n ->
            Buffer.add_subbytes buf chunk 0 n;
            drain ()
      in
      drain ();
      Buffer.contents buf)

let contains ~sub s =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  go 0

let test_serve_endpoint () =
  with_events @@ fun () ->
  Events.emit ~kv:[ ("event", "probe") ] Events.Info "test";
  let srv = Serve.start ~port:0 in
  Fun.protect
    ~finally:(fun () -> Serve.stop srv)
    (fun () ->
      let port = Serve.port srv in
      Alcotest.(check bool) "ephemeral port resolved" true (port > 0);
      let metrics = http_get port "/metrics" in
      Alcotest.(check bool) "/metrics is 200" true (contains ~sub:"200 OK" metrics);
      Alcotest.(check bool) "/metrics carries the run id" true
        (contains ~sub:{|rma_run_info{run_id="run-test"} 1|} metrics);
      Alcotest.(check bool) "/metrics refreshes telemetry gauges" true
        (contains ~sub:"rma_telemetry_peak_rss_bytes" metrics);
      let health = http_get port "/healthz" in
      Alcotest.(check bool) "/healthz ok" true (contains ~sub:"ok" health);
      let events = http_get port "/events" in
      Alcotest.(check bool) "/events serves the ring" true
        (contains ~sub:{|"event":"probe"|} events);
      let missing = http_get port "/nope" in
      Alcotest.(check bool) "unknown path is 404" true (contains ~sub:"404" missing));
  (* stop is idempotent and frees the port for a new server. *)
  Serve.stop srv;
  let srv2 = Serve.start ~port:0 in
  Serve.stop srv2

let suite =
  [
    Alcotest.test_case "levels parse and order" `Quick test_levels;
    Alcotest.test_case "ring buffering and level filter" `Quick test_ring_and_filter;
    Alcotest.test_case "seeded fault run matches the golden journal" `Quick test_golden_journal;
    Alcotest.test_case "crash/recovery/degradation correlate by run id" `Quick
      test_journal_correlation;
    QCheck_alcotest.to_alcotest prop_line_roundtrips;
    Alcotest.test_case "telemetry collector feeds the gauges" `Quick test_telemetry_collector;
    Alcotest.test_case "telemetry endpoint serves metrics live" `Quick test_serve_endpoint;
  ]
