(* Rma_obs.Journal + Rma_report.Replay: totality of the journal reader
   under truncation and bit flips, the prefix-stop contract, the
   [obs stats] golden report over the seeded-drill journal, and the
   replay round trip — re-running a journaled crash drill reproduces
   the identical crash coordinates and byte-identical verdicts. *)

module Obs = Rma_obs.Obs
module Events = Rma_obs.Events
module Journal = Rma_obs.Journal
module Diag = Rma_report.Diag
module Replay = Rma_report.Replay
module Tool = Rma_analysis.Tool
module Toolbox = Rma_analysis.Toolbox
module Run_config = Rma_analysis.Run_config

(* --- line-level totality --------------------------------------------- *)

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
      let* ts = Gen.map (fun i -> float_of_int i *. 0.125) (int_range 0 100) in
      let* kv = list_size (int_range 0 4) (pair str_gen str_gen) in
      return { Events.ts; level; component; run_id; shard; span_id; kv })

let prop_parse_line_total =
  QCheck.Test.make ~name:"parse_line is total under single bit flips" ~count:500
    QCheck.(pair arb_event (pair small_nat small_nat))
    (fun (ev, (byte_seed, bit)) ->
      let line = Bytes.of_string (Events.line ev) in
      let i = byte_seed mod Bytes.length line in
      Bytes.set line i (Char.chr (Char.code (Bytes.get line i) lxor (1 lsl (bit mod 8))));
      (* Flipping any one bit must never raise: the reader answers
         [Ok] (the flip kept the record well-formed) or [Error]. *)
      match Journal.parse_line (Bytes.to_string line) with
      | Ok _ | Error _ -> true
      | exception e -> QCheck.Test.fail_reportf "parse_line raised %s" (Printexc.to_string e))

let prop_parse_line_roundtrip =
  QCheck.Test.make ~name:"parse_line inverts Events.line" ~count:500 arb_event (fun ev ->
      match Journal.parse_line (Events.line ev) with
      | Error msg -> QCheck.Test.fail_reportf "valid line rejected: %s" msg
      | Ok got ->
          got.Events.level = ev.Events.level
          && got.Events.component = ev.Events.component
          && got.Events.run_id = ev.Events.run_id
          && got.Events.shard = ev.Events.shard
          && got.Events.span_id = ev.Events.span_id
          && got.Events.kv = ev.Events.kv)

(* --- file-level totality: truncation and mid-file garbage ------------- *)

let with_temp_journal text f =
  let path = Filename.temp_file "rma_journal" ".jsonl" in
  let oc = open_out path in
  Fun.protect ~finally:(fun () -> close_out oc) (fun () -> output_string oc text);
  Fun.protect ~finally:(fun () -> Sys.remove path) (fun () -> f path)

let events_equal a b = Events.line a = Events.line b

(* Cutting a journal at any byte offset keeps the reader total and the
   decoded events a positional prefix of the originals: every complete
   line before the cut decodes, and only a non-empty partial tail can
   produce an error (naming the first bad line). *)
let prop_truncation =
  QCheck.Test.make ~name:"read_file survives truncation at any offset" ~count:200
    QCheck.(pair (list_of_size (Gen.int_range 1 8) arb_event) small_nat)
    (fun (evs, cut_seed) ->
      let text = String.concat "" (List.map (fun ev -> Events.line ev ^ "\n") evs) in
      let cut = cut_seed mod (String.length text + 1) in
      with_temp_journal (String.sub text 0 cut) @@ fun path ->
      let r = Journal.read_file path in
      let n = List.length r.Journal.events in
      n <= List.length evs
      && List.for_all2 events_equal r.Journal.events
           (List.filteri (fun i _ -> i < n) evs)
      && (match r.Journal.error with
         | None -> true
         | Some e -> e.Journal.at_line = n + 1))

(* Flipping one bit of line [i] leaves lines 1..i-1 intact; reading
   stops at [i] (or sails past it when the flip kept the line valid),
   never earlier and never with an exception. *)
let prop_bit_flip =
  QCheck.Test.make ~name:"read_file stops at the first flipped line" ~count:200
    QCheck.(pair (list_of_size (Gen.int_range 1 8) arb_event) (pair small_nat (pair small_nat small_nat)))
    (fun (evs, (line_seed, (byte_seed, bit))) ->
      let lines = List.map Events.line evs in
      let target = line_seed mod List.length lines in
      let flipped =
        List.mapi
          (fun i l ->
            if i <> target then l
            else begin
              let b = Bytes.of_string l in
              let j = byte_seed mod Bytes.length b in
              Bytes.set b j (Char.chr (Char.code (Bytes.get b j) lxor (1 lsl (bit mod 8))));
              Bytes.to_string b
            end)
          lines
      in
      with_temp_journal (String.concat "" (List.map (fun l -> l ^ "\n") flipped)) @@ fun path ->
      let r = Journal.read_file path in
      let n = List.length r.Journal.events in
      let prefix_ok =
        List.for_all2 events_equal
          (List.filteri (fun i _ -> i < min n target) r.Journal.events)
          (List.filteri (fun i _ -> i < min n target) evs)
      in
      prefix_ok
      &&
      match r.Journal.error with
      | Some e -> n = target && e.Journal.at_line = target + 1
      | None -> n = List.length evs)

let test_unreadable_file () =
  let r = Journal.read_file "/nonexistent/journal.jsonl" in
  Alcotest.(check int) "no events" 0 (List.length r.Journal.events);
  match r.Journal.error with
  | Some e -> Alcotest.(check int) "at_line 0 marks an unopenable file" 0 e.Journal.at_line
  | None -> Alcotest.fail "expected an error for an unopenable path"

(* --- stats golden over the seeded-drill journal ----------------------- *)

(* The same golden journal test_events pins (run-golden, plan seed 7,
   jobs 4, budget 4:spill — timestamps scrubbed to 0), aggregated into
   the [obs stats] report. GOLDEN_OUT_STATS=/abs/path regenerates. *)
let test_stats_golden () =
  let r = Journal.read_file "golden/events_journal.jsonl" in
  Alcotest.(check bool) "golden journal reads clean" true (r.Journal.error = None);
  let text =
    Journal.render_stats ~source:"golden/events_journal.jsonl"
      (Journal.stats_of r.Journal.events)
  in
  Golden_regen.check ~name:"obs_stats.txt" ~what:"stats match the golden report" text

let test_stats_counts () =
  let r = Journal.read_file "golden/events_journal.jsonl" in
  let s = Journal.stats_of r.Journal.events in
  Alcotest.(check int) "every event counted" (List.length r.Journal.events) s.Journal.total;
  Alcotest.(check (list string)) "one run id" [ "run-golden" ] s.Journal.run_ids;
  Alcotest.(check bool) "crashes surface" true (s.Journal.crashes > 0);
  Alcotest.(check bool) "crash resolution surfaces" true
    (s.Journal.recoveries > 0 || s.Journal.fallbacks > 0);
  Alcotest.(check bool) "budget degradations surface" true (s.Journal.degradations > 0)

(* --- replay round trip ------------------------------------------------ *)

(* A small injected-race MiniVite drill under a crashy fault plan,
   journaled through the same Diag bracket the CLI uses; the journal
   alone must then reproduce the run: same (site, ordinal, seed) crash
   sequence, byte-identical verdict digest. *)
let drill_params = [ ("tool", "contribution"); ("ranks", "4"); ("seed", "5"); ("vertices", "2000"); ("inject", "true") ]

let run_drill run =
  let config =
    Run_config.sim_config run
      { Mpi_sim.Config.default with Mpi_sim.Config.analysis_overhead_scale = 2.0 }
  in
  let params =
    {
      Minivite.Louvain.default_params with
      Minivite.Louvain.graph =
        { Minivite.Graph.default_params with Minivite.Graph.n_vertices = 2000 };
      inject_race = true;
    }
  in
  let tool = Run_config.tool run Toolbox.Contribution ~nprocs:4 ~config () in
  let _ = Minivite.Louvain.run params ~nprocs:4 ~seed:5 ~config ~observer:tool.Tool.observer () in
  tool.Tool.races ()

let test_replay_roundtrip () =
  let journal = Filename.temp_file "rma_replay_test" ".jsonl" in
  let restore () =
    Events.close ();
    Events.clear ();
    Events.set_level Events.Info;
    Obs.disable ();
    Obs.reset ();
    try Sys.remove journal with Sys_error _ -> ()
  in
  Fun.protect ~finally:restore @@ fun () ->
  Diag.with_diag ~prog:"test" ~generator:"test"
    ~workload:("minivite", drill_params)
    {
      Diag.default with
      Diag.obs_events = Some journal;
      jobs = Some 2;
      fault_plan = Some "seed=11,worker_crash=0.2";
    }
    run_drill;
  let r = Journal.read_file journal in
  Alcotest.(check bool) "drill journal reads clean" true (r.Journal.error = None);
  let plan =
    match Replay.extract r.Journal.events with
    | Ok p -> p
    | Error msg -> Alcotest.failf "extract failed: %s" msg
  in
  Alcotest.(check string) "workload recovered" "minivite" plan.Replay.r_workload;
  Alcotest.(check int) "jobs recovered" 2 plan.Replay.r_jobs;
  Alcotest.(check bool) "fault spec recovered" true (plan.Replay.r_fault <> None);
  Alcotest.(check bool) "the drill crashed at least once" true (plan.Replay.r_crashes <> []);
  Alcotest.(check bool) "run_summary landed" true (plan.Replay.r_digest <> None);
  List.iter
    (fun c -> Alcotest.(check int) "crash carries the plan seed" 11 c.Replay.c_seed)
    plan.Replay.r_crashes;
  let outcome =
    match Replay.run plan with
    | Ok o -> o
    | Error msg -> Alcotest.failf "replay failed: %s" msg
  in
  Alcotest.(check bool) "crash coordinates replay identically" true outcome.Replay.o_crash_match;
  Alcotest.(check (option bool)) "verdicts are byte-identical" (Some true)
    outcome.Replay.o_digest_match;
  Alcotest.(check bool) "races reproduce" true
    (Some outcome.Replay.o_races = plan.Replay.r_races && outcome.Replay.o_races > 0);
  Alcotest.(check bool) "replay verdict holds" true (Replay.verdict plan outcome);
  (* The contract is falsifiable: a journal claiming a different digest
     or crash schedule must fail the verdict. *)
  Alcotest.(check bool) "tampered digest fails" false
    (Replay.verdict plan { outcome with Replay.o_digest_match = Some false });
  Alcotest.(check bool) "tampered crash sequence fails" false
    (Replay.verdict plan { outcome with Replay.o_crash_match = false })

let test_extract_requires_header () =
  match Replay.extract [] with
  | Ok _ -> Alcotest.fail "empty journal must not extract"
  | Error msg ->
      Alcotest.(check bool) "error names the missing run_start" true
        (Astring.String.is_infix ~affix:"run_start" msg)

let suite =
  [
    QCheck_alcotest.to_alcotest prop_parse_line_total;
    QCheck_alcotest.to_alcotest prop_parse_line_roundtrip;
    QCheck_alcotest.to_alcotest prop_truncation;
    QCheck_alcotest.to_alcotest prop_bit_flip;
    Alcotest.test_case "unopenable path is a line-0 error" `Quick test_unreadable_file;
    Alcotest.test_case "obs stats matches the golden report" `Quick test_stats_golden;
    Alcotest.test_case "stats aggregate the seeded drill" `Quick test_stats_counts;
    Alcotest.test_case "journaled drill replays byte-identically" `Quick test_replay_roundtrip;
    Alcotest.test_case "extract demands a run_start header" `Quick test_extract_requires_header;
  ]
