(* The race-provenance pipeline: flight recorder semantics, JSON/SARIF
   exports, and the bench perf-trajectory comparison. *)

open Rma_access
open Rma_store
open Rma_analysis
open Rma_report
module Event = Mpi_sim.Event
module Json = Rma_util.Json

let mk_access ~seq ~line ~op lo hi kind =
  Access.make
    ~interval:(Interval.make ~lo ~hi)
    ~kind ~issuer:0 ~seq
    ~debug:(Debug_info.make ~file:"code1.c" ~line ~operation:op)

let with_recorder f =
  Flight_recorder.enable ();
  Fun.protect ~finally:Flight_recorder.disable f

(* Figure 5's Code 1 against the contribution tool: Load(4) is dominated
   by the Put's fragment (Table 1) and every piece merges back into one
   [2..12] node carrying only the Put's debug info, then Store(7) races
   against it. The canonical provenance-loss case. [run] is the
   analysis configuration (the jobs-4 and config-matrix tests vary it). *)
let code1_race_reports ?(run = Run_config.default) () =
  let tool = Run_config.tool run Toolbox.Contribution ~nprocs:2 () in
  let feed e = ignore (tool.Tool.observer e) in
  let access ~seq ~line ~op lo hi kind =
    Event.Access
      {
        Event.space = 0;
        access = mk_access ~seq ~line ~op lo hi kind;
        win = Some 0;
        relevant = true;
        on_stack = false;
        sim_time = float_of_int seq;
      }
  in
  feed (Event.Epoch_opened { win = 0; rank = 0; sim_time = 0.0 });
  feed (access ~seq:1 ~line:1 ~op:"Load" 4 4 Access_kind.Local_read);
  feed (access ~seq:2 ~line:2 ~op:"MPI_Put" 2 12 Access_kind.Rma_read);
  feed (access ~seq:3 ~line:3 ~op:"Store" 7 7 Access_kind.Local_write);
  tool.Tool.races ()

(* --- flight recorder ----------------------------------------------- *)

let test_recorder_disabled_noop () =
  Alcotest.(check bool) "recorder off by default" false (Flight_recorder.is_enabled ());
  Alcotest.(check bool) "create yields no ring" true (Flight_recorder.create () = None);
  let store = Disjoint_store.create () in
  ignore (Disjoint_store.insert store (mk_access ~seq:1 ~line:1 ~op:"Load" 0 7 Access_kind.Local_read));
  Alcotest.(check bool) "store carries no recorder" true (Disjoint_store.recorder store = None);
  let reports = code1_race_reports () in
  Alcotest.(check int) "code1 still races without the recorder" 1 (List.length reports);
  let r = List.hd reports in
  Alcotest.(check int) "no history recorded" 0
    (List.length r.Report.provenance.Report.existing_history)

let test_ring_eviction_keeps_newest () =
  let ring = Flight_recorder.create_exn ~capacity:4 () in
  for seq = 1 to 10 do
    Flight_recorder.record ring (mk_access ~seq ~line:seq ~op:"Load" seq seq Access_kind.Local_read)
  done;
  Alcotest.(check int) "length is the capacity" 4 (Flight_recorder.length ring);
  Alcotest.(check int) "total counts evictions" 10 (Flight_recorder.recorded_total ring);
  let seqs =
    List.map (fun (o : Flight_recorder.origin) -> o.Flight_recorder.access.Access.seq)
      (Flight_recorder.to_list ring)
  in
  Alcotest.(check (list int)) "newest four survive, oldest first" [ 7; 8; 9; 10 ] seqs;
  let hits = Flight_recorder.history ring (Interval.make ~lo:8 ~hi:9) in
  Alcotest.(check int) "history filters by overlap" 2 (List.length hits)

let test_recorder_epochs_stamp_origins () =
  let ring = Flight_recorder.create_exn () in
  Flight_recorder.note_epoch ring;
  Flight_recorder.record ring (mk_access ~seq:1 ~line:1 ~op:"Load" 0 0 Access_kind.Local_read);
  Flight_recorder.note_epoch ring;
  Flight_recorder.record ring (mk_access ~seq:2 ~line:2 ~op:"Load" 0 0 Access_kind.Local_read);
  let epochs =
    List.map (fun (o : Flight_recorder.origin) -> o.Flight_recorder.epoch)
      (Flight_recorder.to_list ring)
  in
  Alcotest.(check (list int)) "each origin stamped with its epoch" [ 1; 2 ] epochs;
  Flight_recorder.clear ring;
  Alcotest.(check int) "clear drops history" 0 (Flight_recorder.length ring);
  Alcotest.(check int) "clear keeps the epoch counter" 2 (Flight_recorder.current_epoch ring)

(* --- provenance through the analyzer ------------------------------- *)

let test_merged_race_names_both_sources () =
  (* The acceptance case: the surviving node says line 2, the recorder
     still names the dominated Load at line 1. *)
  let reports = with_recorder code1_race_reports in
  Alcotest.(check int) "one race" 1 (List.length reports);
  let r = List.hd reports in
  let lines = List.map (fun (d : Debug_info.t) -> d.Debug_info.line) (Report.contributing_debugs r) in
  List.iter
    (fun line ->
      Alcotest.(check bool)
        (Printf.sprintf "line %d implicated" line)
        true (List.mem line lines))
    [ 1; 2; 3 ];
  Alcotest.(check bool) "existing history holds both merged sources" true
    (List.length r.Report.provenance.Report.existing_history >= 2);
  Alcotest.(check int) "race id assigned" 1 r.Report.provenance.Report.id;
  Alcotest.(check (option int)) "epoch recorded" (Some 1) r.Report.provenance.Report.epoch

(* --- JSON ----------------------------------------------------------- *)

let test_json_round_trip () =
  let reports = with_recorder code1_race_reports in
  let json = Race_export.to_json ~generator:"test" reports in
  let text = Json.to_string json in
  match Json.of_string text with
  | Error msg -> Alcotest.failf "reparse failed: %s" msg
  | Ok reparsed -> (
      match Race_export.of_json reparsed with
      | Error msg -> Alcotest.failf "decode failed: %s" msg
      | Ok reports' ->
          Alcotest.(check int) "report count survives" (List.length reports)
            (List.length reports');
          (* Identity on every exported field: re-serialising the decoded
             reports reproduces the bytes. *)
          Alcotest.(check string) "byte-identical re-export" text
            (Json.to_string (Race_export.to_json ~generator:"test" reports')))

(* A race detected on a budget-degraded store: a Coarsen budget of two
   nodes collapses six adjacent same-kind reads with distinct source
   lines (which regular merging refuses), then a local write lands on
   the coarse node. The report must carry [degraded = true] end-to-end:
   JSON round-trip, and downgraded confidence in SARIF. *)
let degraded_race_reports ?(run = Run_config.default) () =
  let budget =
    {
      Rma_fault.Budget.max_nodes = Some 2;
      max_bytes = None;
      policy = Rma_fault.Budget.Coarsen;
    }
  in
  let tool =
    Run_config.tool { run with Run_config.budget = Some budget } Toolbox.Contribution ~nprocs:2 ()
  in
  let feed e = ignore (tool.Tool.observer e) in
  let access ~seq ~line ~op lo hi kind =
    Event.Access
      {
        Event.space = 0;
        access = mk_access ~seq ~line ~op lo hi kind;
        win = Some 0;
        relevant = true;
        on_stack = false;
        sim_time = float_of_int seq;
      }
  in
  feed (Event.Epoch_opened { win = 0; rank = 0; sim_time = 0.0 });
  for i = 0 to 5 do
    feed
      (access ~seq:(i + 1) ~line:(i + 1) ~op:"MPI_Get"
         (i * 4)
         ((i * 4) + 3)
         Access_kind.Rma_read)
  done;
  feed (access ~seq:7 ~line:9 ~op:"Store" 5 5 Access_kind.Local_write);
  (tool.Tool.races (), (tool.Tool.bst_summary ()).Tool.degraded_drops_total)

let test_degraded_race_flagged () =
  let reports, drops = degraded_race_reports () in
  Alcotest.(check bool) "the coarsen budget degraded the store" true (drops > 0);
  Alcotest.(check int) "the write still races" 1 (List.length reports);
  let r = List.hd reports in
  Alcotest.(check bool) "provenance carries the degradation" true
    r.Report.provenance.Report.degraded;
  (* The flag survives the JSON round trip... *)
  let text = Json.to_string (Race_export.to_json ~generator:"test" reports) in
  (match Result.bind (Json.of_string text) Race_export.of_json with
  | Error msg -> Alcotest.failf "round trip failed: %s" msg
  | Ok reports' ->
      Alcotest.(check bool) "degraded survives JSON" true
        (List.hd reports').Report.provenance.Report.degraded);
  (* ...and a schema-v1 file without the field still loads, as exact. *)
  let clean = with_recorder code1_race_reports in
  let stripped =
    match Json.of_string (Json.to_string (Race_export.to_json ~generator:"test" clean)) with
    | Ok (Json.Obj fields) ->
        Json.Obj
          (List.map
             (function
               | "races", Json.List rs ->
                   ( "races",
                     Json.List
                       (List.map
                          (function
                            | Json.Obj f ->
                                Json.Obj (List.filter (fun (k, _) -> k <> "degraded") f)
                            | j -> j)
                          rs) )
               | kv -> kv)
             fields)
    | _ -> Alcotest.fail "re-parse failed"
  in
  match Race_export.of_json stripped with
  | Error msg -> Alcotest.failf "pre-governance file rejected: %s" msg
  | Ok loaded ->
      Alcotest.(check bool) "missing field defaults to exact" false
        (List.hd loaded).Report.provenance.Report.degraded

let test_json_rejects_bad_version () =
  let json =
    Json.Obj [ ("schema_version", Json.Int 999); ("races", Json.List []) ]
  in
  match Race_export.of_json json with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "schema version 999 accepted"

(* --- SARIF ----------------------------------------------------------- *)

let test_sarif_matches_golden () =
  let reports = with_recorder code1_race_reports in
  let sarif = Json.to_string (Race_export.to_sarif ~generator:"test" reports) ^ "\n" in
  (* GOLDEN_OUT=/abs/path (or GOLDEN_OUT_DIR, see test/golden_regen.ml)
     regenerates the golden file instead of comparing (after an
     intentional format change). *)
  Golden_regen.check ~name:"race.sarif" ~what:"SARIF export matches golden file" sarif

let test_degraded_sarif_matches_golden () =
  let reports, _ = degraded_race_reports () in
  let sarif = Json.to_string (Race_export.to_sarif ~generator:"test" reports) ^ "\n" in
  (* The downgrade is asserted structurally before any golden diff, so a
     blind regeneration cannot launder it away. *)
  Alcotest.(check bool) "degraded result downgraded to warning" true
    (Astring.String.is_infix ~affix:"\"level\": \"warning\"" sarif);
  Alcotest.(check bool) "confidence property present" true
    (Astring.String.is_infix ~affix:"\"confidence\": \"downgraded\"" sarif);
  Golden_regen.check ~name:"race_degraded.sarif" ~what:"degraded SARIF matches golden file"
    sarif;
  let reports4, _ = degraded_race_reports ~run:(Run_config.make ~jobs:4 ()) () in
  Alcotest.(check string) "degraded SARIF stable at jobs=4" sarif
    (Json.to_string (Race_export.to_sarif ~generator:"test" reports4) ^ "\n")

let test_sarif_lists_all_locations () =
  let reports = with_recorder code1_race_reports in
  let sarif = Json.to_string (Race_export.to_sarif ~generator:"test" reports) in
  Alcotest.(check bool) "SARIF version marker present" true
    (Astring.String.is_infix ~affix:"\"2.1.0\"" sarif);
  (* Lines 1 (merged-away Load), 2 (surviving Put) and 3 (incoming
     Store) must all be named somewhere in the result. *)
  List.iter
    (fun line ->
      Alcotest.(check bool)
        (Printf.sprintf "startLine %d exported" line)
        true
        (Astring.String.is_infix ~affix:(Printf.sprintf "\"startLine\": %d" line) sarif))
    [ 1; 2; 3 ]

let test_explain_names_merged_source () =
  let reports = with_recorder code1_race_reports in
  let text = Race_export.explain (List.hd reports) in
  Alcotest.(check bool) "explain shows the merged-away Load" true
    (Astring.String.is_infix ~affix:"code1.c:1" text);
  Alcotest.(check bool) "explain shows the matrix cell" true
    (Astring.String.is_infix ~affix:"Figure 3 cell" text)

(* --- perf trajectory ------------------------------------------------- *)

let sample name wall metrics =
  {
    Perf_trajectory.name;
    wall_seconds = wall;
    peak_rss_bytes = 0.0;
    events_per_sec = 0.0;
    critical_path_ms = 0.0;
    metrics;
  }

let record samples =
  {
    Perf_trajectory.schema_version = Perf_trajectory.schema_version;
    generator = "test";
    scale = 0.1;
    samples;
    counters = [ ("events", 42) ];
  }

let test_perf_json_round_trip () =
  let r = record [ sample "fig10" 1.5 [ ("nodes", 100.0); ("races", 3.0) ] ] in
  match Perf_trajectory.of_json (Perf_trajectory.to_json r) with
  | Error msg -> Alcotest.failf "decode failed: %s" msg
  | Ok r' ->
      Alcotest.(check string) "round-trips"
        (Json.to_string (Perf_trajectory.to_json r))
        (Json.to_string (Perf_trajectory.to_json r'))

let test_compare_identical_is_clean () =
  let r = record [ sample "fig10" 1.5 [ ("nodes", 100.0); ("races", 3.0) ] ] in
  let deltas = Perf_trajectory.compare_records r r in
  Alcotest.(check int) "every metric compared" 3 (List.length deltas);
  List.iter
    (fun (d : Perf_trajectory.delta) ->
      Alcotest.(check (float 1e-9)) "ratio 1.0" 1.0 d.Perf_trajectory.ratio)
    deltas;
  Alcotest.(check int) "no regressions on identical records" 0
    (List.length (Perf_trajectory.regressions deltas))

let test_compare_flags_regression () =
  let old_r = record [ sample "fig10" 1.0 [ ("nodes", 100.0); ("modularity", 0.4) ] ] in
  let new_r = record [ sample "fig10" 2.0 [ ("nodes", 200.0); ("modularity", 0.1) ] ] in
  let regs = Perf_trajectory.(regressions (compare_records old_r new_r)) in
  let metrics = List.map (fun (d : Perf_trajectory.delta) -> d.Perf_trajectory.metric) regs in
  Alcotest.(check bool) "2x wall time flagged" true (List.mem "wall_seconds" metrics);
  Alcotest.(check bool) "2x node count flagged" true (List.mem "nodes" metrics);
  Alcotest.(check bool) "modularity is not lower-is-better" false (List.mem "modularity" metrics)

let test_compare_threshold_is_configurable () =
  let old_r = record [ sample "fig10" 1.0 [] ] in
  let new_r = record [ sample "fig10" 2.0 [] ] in
  Alcotest.(check int) "2x passes a 1.5 (=+150%) threshold" 0
    (List.length Perf_trajectory.(regressions (compare_records ~threshold:1.5 old_r new_r)));
  Alcotest.(check int) "2x fails a 0.5 (=+50%) threshold" 1
    (List.length Perf_trajectory.(regressions (compare_records ~threshold:0.5 old_r new_r)))

let test_compare_ignores_sub_ms_noise () =
  let old_r = record [ sample "micro" 1e-5 [] ] in
  let new_r = record [ sample "micro" 9e-4 [] ] in
  Alcotest.(check int) "sub-millisecond wall times never regress" 0
    (List.length Perf_trajectory.(regressions (compare_records old_r new_r)))

let test_compare_fails_on_missing_baseline_experiment () =
  (* A baseline predating the "par" experiment: the comparison must fail
     with a message naming the missing experiment, not skip it silently
     and not raise. *)
  let old_r = record [ sample "fig10" 1.0 [ ("nodes", 100.0) ] ] in
  let new_r =
    record [ sample "fig10" 1.0 [ ("nodes", 100.0) ]; sample "par" 0.5 [ ("par_j4_speedup", 1.9) ] ]
  in
  Alcotest.(check (list string))
    "missing experiment detected" [ "par" ]
    (Perf_trajectory.missing_from_baseline ~old_record:old_r ~new_record:new_r);
  let body, failed =
    Perf_trajectory.render_comparison ~old_record:old_r ~new_record:new_r ()
  in
  Alcotest.(check bool) "comparison fails" true failed;
  Alcotest.(check bool) "message names the experiment" true
    (Astring.String.is_infix ~affix:"par" body && Astring.String.is_infix ~affix:"baseline" body);
  (* The reverse direction fails too: a candidate that never ran a
     baseline experiment dropped coverage — those metrics would silently
     stop being tracked if the comparison passed. *)
  Alcotest.(check (list string))
    "dropped experiment detected" [ "par" ]
    (Perf_trajectory.missing_from_candidate ~old_record:new_r ~new_record:old_r);
  let body', failed' =
    Perf_trajectory.render_comparison ~old_record:new_r ~new_record:old_r ()
  in
  Alcotest.(check bool) "candidate missing a baseline experiment fails" true failed';
  Alcotest.(check bool) "and the verdict names the dropped experiment" true
    (Astring.String.is_infix ~affix:"par" body'
    && Astring.String.is_infix ~affix:"missing" body')

let suite =
  [
    Alcotest.test_case "disabled recorder is a no-op" `Quick test_recorder_disabled_noop;
    Alcotest.test_case "ring eviction keeps the newest origins" `Quick
      test_ring_eviction_keeps_newest;
    Alcotest.test_case "origins are epoch-stamped; clear keeps the counter" `Quick
      test_recorder_epochs_stamp_origins;
    Alcotest.test_case "merged-node race names both source accesses" `Quick
      test_merged_race_names_both_sources;
    Alcotest.test_case "race JSON round-trips byte-identically" `Quick test_json_round_trip;
    Alcotest.test_case "race JSON rejects unknown schema versions" `Quick
      test_json_rejects_bad_version;
    Alcotest.test_case "degraded store flags its races end-to-end" `Quick
      test_degraded_race_flagged;
    Alcotest.test_case "SARIF export matches the golden file" `Quick test_sarif_matches_golden;
    Alcotest.test_case "degraded SARIF downgraded and golden-stable" `Quick
      test_degraded_sarif_matches_golden;
    Alcotest.test_case "SARIF names every contributing location" `Quick
      test_sarif_lists_all_locations;
    Alcotest.test_case "explain renders the merged-away source" `Quick
      test_explain_names_merged_source;
    Alcotest.test_case "perf record JSON round-trips" `Quick test_perf_json_round_trip;
    Alcotest.test_case "compare: identical records are clean" `Quick
      test_compare_identical_is_clean;
    Alcotest.test_case "compare: 2x growth on lower-is-better metrics flagged" `Quick
      test_compare_flags_regression;
    Alcotest.test_case "compare: threshold is configurable" `Quick
      test_compare_threshold_is_configurable;
    Alcotest.test_case "compare: sub-millisecond wall noise ignored" `Quick
      test_compare_ignores_sub_ms_noise;
    Alcotest.test_case "compare: missing baseline experiment is a clear failure" `Quick
      test_compare_fails_on_missing_baseline_experiment;
  ]

(* --- Hybrid thread fields in race exports (PR 8) --- *)

let read_golden path =
  let ic = open_in path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> really_input_string ic (in_channel_length ic))

(* Back-compat pin: a single-thread race export must not contain thread
   fields anywhere — byte-identical to the schema-v2 shape the pre-hybrid
   tool wrote. *)
let test_single_thread_json_has_no_thread_fields () =
  let reports = with_recorder code1_race_reports in
  Alcotest.(check bool) "have reports" true (reports <> []);
  let json = Json.to_string (Race_export.to_json ~generator:"test" reports) in
  Alcotest.(check bool) "no thread field in single-thread export" false
    (Astring.String.is_infix ~affix:"thread" json);
  let sarif = Json.to_string (Race_export.to_sarif ~generator:"test" reports) in
  Alcotest.(check bool) "no thread field in single-thread SARIF" false
    (Astring.String.is_infix ~affix:"thread" sarif)

(* A report whose accesses carry a real thread identity round-trips it
   exactly through the JSON codec. *)
let test_threaded_json_round_trip () =
  let thread =
    { Access.tid = 2; tstamp = 3; tview = [ (0, 3); (-1024, 1); (-1026, 3) ] }
  in
  let threaded seq line op lo hi kind =
    Access.make_threaded ~thread
      ~interval:(Interval.make ~lo ~hi)
      ~kind ~issuer:0 ~seq
      ~debug:(Debug_info.make ~file:"hyb.c" ~line ~operation:op)
  in
  let r =
    Report.make ~tool:"contribution" ~space:0 ~win:(Some 0)
      ~existing:(threaded 1 4 "Store" 2 9 Access_kind.Local_write)
      ~incoming:(mk_access ~seq:2 ~line:5 ~op:"MPI_Put" 2 9 Access_kind.Rma_read)
      ~sim_time:1.0 ()
  in
  let json = Race_export.to_json ~generator:"test" [ r ] in
  Alcotest.(check bool) "thread fields present" true
    (Astring.String.is_infix ~affix:"thread_view" (Json.to_string json));
  match Race_export.of_json json with
  | Error msg -> Alcotest.failf "round-trip failed: %s" msg
  | Ok [ loaded ] ->
      Alcotest.(check bool) "existing round-trips with thread" true
        (Access.equal r.Report.existing loaded.Report.existing);
      Alcotest.(check bool) "incoming round-trips default thread" true
        (Access.equal r.Report.incoming loaded.Report.incoming);
      Alcotest.(check string) "byte-identical re-export"
        (Json.to_string json)
        (Json.to_string (Race_export.to_json ~generator:"test" [ loaded ]))
  | Ok l -> Alcotest.failf "expected 1 report, got %d" (List.length l)

(* End-to-end golden: the canonical unordered-sibling-store hybrid race
   exported as JSON. GOLDEN_OUT_HYBRID=/abs/path regenerates. *)
let hybrid_race_reports ?(run = Run_config.default) () =
  let k =
    match
      Rma_microbench.Scenario.Kernel.find "hyb_lockall_local_tstore_put_unordered_race"
    with
    | Some k -> k
    | None -> Alcotest.fail "hybrid kernel missing"
  in
  let tool =
    Run_config.tool run Toolbox.Contribution ~nprocs:k.Rma_microbench.Scenario.Kernel.k_nprocs ()
  in
  let v = Rma_microbench.Runner.run_kernel ~interleave_seed:13 ~tool k in
  v.Rma_microbench.Runner.k_reports

let test_hybrid_json_matches_golden () =
  let reports = with_recorder hybrid_race_reports in
  Alcotest.(check bool) "hybrid race found" true (reports <> []);
  let json = Json.to_string (Race_export.to_json ~generator:"test" reports) ^ "\n" in
  Golden_regen.check ~name:"race_hybrid.json" ~what:"hybrid race JSON matches golden file" json;
  let reports4 = with_recorder (hybrid_race_reports ~run:(Run_config.make ~jobs:4 ())) in
  Alcotest.(check string) "hybrid race JSON stable at jobs=4" json
    (Json.to_string (Race_export.to_json ~generator:"test" reports4) ^ "\n")

let test_explain_names_thread () =
  let reports = with_recorder hybrid_race_reports in
  let threaded =
    List.filter
      (fun (r : Report.t) ->
        r.Report.existing.Access.thread.Access.tid <> 0
        || r.Report.incoming.Access.thread.Access.tid <> 0)
      reports
  in
  Alcotest.(check bool) "a report involves a spawned thread" true (threaded <> []);
  List.iter
    (fun r ->
      Alcotest.(check bool) "explain mentions the thread" true
        (Astring.String.is_infix ~affix:"thread 1" (Race_export.explain r)))
    threaded

let suite =
  suite
  @ [
      Alcotest.test_case "single-thread exports carry no thread fields" `Quick
        test_single_thread_json_has_no_thread_fields;
      Alcotest.test_case "threaded race JSON round-trips" `Quick test_threaded_json_round_trip;
      Alcotest.test_case "hybrid race JSON matches the golden file" `Quick
        test_hybrid_json_matches_golden;
      Alcotest.test_case "explain names the racing thread" `Quick test_explain_names_thread;
    ]
