(* ISSUE 3: property-based differential harness for the disjoint store's
   insert fast path.

   Random access streams — interleaved inserts, mid-stream race checks,
   epoch notes and window clears — are replayed against two
   configurations of [Disjoint_store]:

   - the reference: [~fast_path:false], Algorithm 1 against the tree on
     every insert;
   - the finger cache (default creation, one pending run);

   asserting identical per-step race verdicts (same existing/incoming
   accesses), identical final interval sets, identical node counts and
   identical Algorithm 1 statistics, with the fast-path invariants
   ([Disjoint_store.self_check]) holding after every step. A second
   property checks [Legacy_store] agreement with both on the stream class where
   the paper predicts it (identical-interval, RMA-only accesses: no
   Figure 5a off-path misses, no order-sensitivity false positives, no
   accumulate atomicity). *)

open Rma_access
open Rma_store

let acc ~issuer ~seq ~line ~lo ~hi kind =
  Access.make
    ~interval:(Interval.make ~lo ~hi)
    ~kind ~issuer ~seq
    ~debug:(Debug_info.make ~file:"diff.c" ~line ~operation:"op")

(* --- step language --- *)

type step =
  | Insert of Access.t
  | Check of Access.t
  | Note_epoch
  | Clear

let decode_steps raw =
  List.mapi
    (fun i (t, lo, len, k, x) ->
      let kind = List.nth Access_kind.all (k mod 5) in
      let issuer = if Access_kind.is_local kind then 0 else x mod 3 in
      let line = 1 + (t mod 4) in
      let a = acc ~issuer ~seq:(i + 1) ~line ~lo ~hi:(lo + len - 1) kind in
      match t mod 12 with
      | 9 -> Check a
      | 10 -> Note_epoch
      | 11 when x mod 4 = 0 -> Clear
      | _ -> Insert a)
    raw

let step_gen =
  QCheck.Gen.(
    let* t = int_range 0 1000 in
    let* lo = int_range 0 96 in
    let* len = int_range 1 8 in
    let* k = int_range 0 1000 in
    let* x = int_range 0 1000 in
    return (t, lo, len, k, x))

let print_raw l =
  String.concat ";"
    (List.map (fun (t, lo, len, k, x) -> Printf.sprintf "(%d,%d,%d,%d,%d)" t lo len k x) l)

let arb_stream =
  QCheck.make ~print:print_raw
    ~shrink:QCheck.Shrink.(list)
    QCheck.Gen.(list_size (int_range 1 50) step_gen)

(* --- replay --- *)

type verdict = V_inserted | V_race of Access.t * Access.t | V_quiet

let verdict_of = function
  | Store_intf.Inserted -> V_inserted
  | Store_intf.Race_detected { existing; incoming } -> V_race (existing, incoming)

let verdict_equal a b =
  match (a, b) with
  | V_inserted, V_inserted | V_quiet, V_quiet -> true
  | V_race (e1, i1), V_race (e2, i2) -> Access.equal e1 e2 && Access.equal i1 i2
  | _ -> false

let verdict_str = function
  | V_inserted -> "inserted"
  | V_quiet -> "quiet"
  | V_race (e, i) -> Format.asprintf "race(%a vs %a)" Access.pp e Access.pp i

(* Replays [steps] on [store], checking [self_check] after every step,
   and returns the per-step verdicts. *)
let replay store steps =
  List.map
    (fun step ->
      let v =
        match step with
        | Insert a -> verdict_of (Disjoint_store.insert store a)
        | Check a -> verdict_of (Disjoint_store.check_only store a)
        | Note_epoch ->
            Disjoint_store.note_epoch store;
            V_quiet
        | Clear ->
            Disjoint_store.clear store;
            V_quiet
      in
      if not (Disjoint_store.self_check store) then
        QCheck.Test.fail_reportf "fast-path invariants violated after a step";
      v)
    steps

let final_state store =
  let stats = Disjoint_store.stats store in
  (Disjoint_store.to_list store, stats)

let check_against_reference ~name reference_verdicts ref_state store_verdicts store_state =
  List.iteri
    (fun i (vr, vs) ->
      if not (verdict_equal vr vs) then
        QCheck.Test.fail_reportf "%s: step %d verdict differs: reference %s, got %s" name i
          (verdict_str vr) (verdict_str vs))
    (List.combine reference_verdicts store_verdicts);
  let ref_list, ref_stats = ref_state and got_list, got_stats = store_state in
  if not (List.equal Access.equal ref_list got_list) then
    QCheck.Test.fail_reportf "%s: final interval sets differ (%d vs %d nodes)" name
      (List.length ref_list) (List.length got_list);
  let open Store_intf in
  let pairs =
    [
      ("nodes", ref_stats.nodes, got_stats.nodes);
      ("peak_nodes", ref_stats.peak_nodes, got_stats.peak_nodes);
      ("inserts", ref_stats.inserts, got_stats.inserts);
      ("fragments_created", ref_stats.fragments_created, got_stats.fragments_created);
      ("merges_performed", ref_stats.merges_performed, got_stats.merges_performed);
      ("race_checks", ref_stats.race_checks, got_stats.race_checks);
    ]
  in
  List.iter
    (fun (what, a, b) ->
      if a <> b then QCheck.Test.fail_reportf "%s: %s differ: reference %d, got %d" name what a b)
    pairs

let prop_finger_equals_fast_path_off =
  QCheck.Test.make ~name:"differential: finger = fast-path-off disjoint store" ~count:700
    arb_stream (fun raw ->
      let steps = decode_steps raw in
      let reference = Disjoint_store.create ~fast_path:false () in
      let ref_verdicts = replay reference steps in
      let ref_state = final_state reference in
      let finger = Disjoint_store.create () in
      let finger_verdicts = replay finger steps in
      check_against_reference ~name:"finger" ref_verdicts ref_state finger_verdicts
        (final_state finger);
      true)

(* --- legacy agreement --- *)

(* Identical-interval RMA-only streams: the legacy search path always
   contains the most recent node, every access pair is order-insensitive
   and the Table 1 dominance rule loses nothing detection-relevant, so
   the paper predicts verdict-for-verdict agreement (node counts still
   differ — that is Figure 8). *)
let legacy_raw_gen =
  QCheck.Gen.(
    let* w = int_range 0 1 in
    let* x = int_range 0 1000 in
    return (w, x))

let arb_legacy_stream =
  QCheck.make
    ~print:(fun l ->
      String.concat ";" (List.map (fun (w, x) -> Printf.sprintf "(%d,%d)" w x) l))
    ~shrink:QCheck.Shrink.(list)
    QCheck.Gen.(list_size (int_range 1 40) legacy_raw_gen)

let prop_legacy_agreement =
  QCheck.Test.make ~name:"differential: legacy agreement on RMA-only same-interval streams"
    ~count:400 arb_legacy_stream (fun raw ->
      let accesses =
        List.mapi
          (fun i (w, x) ->
            let kind = if w = 0 then Access_kind.Rma_read else Access_kind.Rma_write in
            acc ~issuer:(x mod 3) ~seq:(i + 1) ~line:1 ~lo:16 ~hi:23 kind)
          raw
      in
      let legacy = Legacy_store.create () in
      let slow = Disjoint_store.create ~fast_path:false () in
      let finger = Disjoint_store.create () in
      List.iter
        (fun a ->
          let flagged outcome =
            match outcome with Store_intf.Inserted -> false | Store_intf.Race_detected _ -> true
          in
          let vl = flagged (Legacy_store.insert legacy a) in
          let vs = flagged (Disjoint_store.insert slow a) in
          let vf = flagged (Disjoint_store.insert finger a) in
          if vl <> vs || vl <> vf then
            QCheck.Test.fail_reportf "verdicts diverge on %s: legacy %b fast-path-off %b finger %b"
              (Format.asprintf "%a" Access.pp a)
              vl vs vf)
        accesses;
      true)

(* --- analyzer determinism across shard counts --- *)

(* Seeded event streams straight into the observer (no runtime): random
   interleavings of accesses on 3 ranks × 2 windows with epoch cycling
   and flushes, replayed on the sequential analyzer and on the sharded
   engine at jobs ∈ {2, 4}. The engine's claim is byte-identity, so the comparison is
   total: race count, every report (via the serialized JSON and SARIF
   exports, which carry ids, provenance and flight-recorder histories),
   the Algorithm 1 statistics, and the full per-tree interval state. *)

let par_nprocs = 3
let par_wins = 2

let decode_events raw =
  let events = ref [] in
  let push e = events := e :: !events in
  for w = 0 to par_wins - 1 do
    push
      (Mpi_sim.Event.Win_created { win = w; rank = 0; base = 0; size = 4096; sim_time = 0.0 });
    for r = 0 to par_nprocs - 1 do
      push (Mpi_sim.Event.Epoch_opened { win = w; rank = r; sim_time = 0.0 })
    done
  done;
  List.iteri
    (fun i (t, lo, len, k, x) ->
      let rank = x mod par_nprocs and win = k mod par_wins in
      let sim_time = float_of_int (i + 1) in
      match t mod 10 with
      | 8 ->
          push (Mpi_sim.Event.Epoch_closed { win; rank; sim_time });
          push (Mpi_sim.Event.Epoch_opened { win; rank; sim_time })
      | 9 -> push (Mpi_sim.Event.Flushed { win; rank; target = None; sim_time })
      | _ ->
          let kind = List.nth Access_kind.all (k mod 5) in
          let issuer = if Access_kind.is_local kind then rank else x mod par_nprocs in
          let a = acc ~issuer ~seq:(i + 1) ~line:(1 + (t mod 6)) ~lo ~hi:(lo + len - 1) kind in
          push
            (Mpi_sim.Event.Access
               { space = rank; access = a; win = Some win; relevant = true; on_stack = false; sim_time }))
    raw;
  for w = 0 to par_wins - 1 do
    for r = 0 to par_nprocs - 1 do
      push (Mpi_sim.Event.Epoch_closed { win = w; rank = r; sim_time = 1e6 })
    done;
    push (Mpi_sim.Event.Win_freed { win = w; rank = 0; sim_time = 1e6 })
  done;
  List.rev !events

type analyzer_snapshot = {
  s_count : int;
  s_summary : Rma_analysis.Tool.bst_summary;
  s_trees : ((int * Mpi_sim.Event.win_id) * Access.t list) list;
  s_json : string;
  s_sarif : string;
}

let analyzer_replay ~jobs events =
  let tool, dump =
    Rma_analysis.Rma_analyzer.create_inspectable ~nprocs:par_nprocs
      ~mode:Rma_analysis.Tool.Collect ~jobs ~queue_capacity:4
      Rma_analysis.Rma_analyzer.Contribution
  in
  List.iter (fun e -> ignore (tool.Rma_analysis.Tool.observer e)) events;
  let races = tool.Rma_analysis.Tool.races () in
  {
    s_count = tool.Rma_analysis.Tool.race_count ();
    s_summary = tool.Rma_analysis.Tool.bst_summary ();
    s_trees = dump ();
    s_json = Rma_util.Json.to_string (Rma_report.Race_export.to_json ~generator:"diff" races);
    s_sarif = Rma_util.Json.to_string (Rma_report.Race_export.to_sarif ~generator:"diff" races);
  }

let check_snapshot_equal ~name reference got =
  if got.s_count <> reference.s_count then
    QCheck.Test.fail_reportf "%s: race count differs: jobs=1 %d, got %d" name reference.s_count
      got.s_count;
  if got.s_summary <> reference.s_summary then
    QCheck.Test.fail_reportf "%s: bst_summary differs (nodes %d vs %d, inserts %d vs %d)" name
      reference.s_summary.Rma_analysis.Tool.nodes_final_total
      got.s_summary.Rma_analysis.Tool.nodes_final_total
      reference.s_summary.Rma_analysis.Tool.inserts_total
      got.s_summary.Rma_analysis.Tool.inserts_total;
  let trees_equal =
    List.equal
      (fun (k1, l1) (k2, l2) -> k1 = k2 && List.equal Access.equal l1 l2)
      reference.s_trees got.s_trees
  in
  if not trees_equal then
    QCheck.Test.fail_reportf "%s: interval state differs (%d vs %d trees)" name
      (List.length reference.s_trees) (List.length got.s_trees);
  if not (String.equal reference.s_json got.s_json) then
    QCheck.Test.fail_reportf "%s: JSON export not byte-identical:@.%s@.vs@.%s" name
      reference.s_json got.s_json;
  if not (String.equal reference.s_sarif got.s_sarif) then
    QCheck.Test.fail_reportf "%s: SARIF export not byte-identical" name

let prop_analyzer_jobs_deterministic =
  QCheck.Test.make ~name:"differential: analyzer byte-identical at jobs 1/2/4" ~count:150
    arb_stream (fun raw ->
      let events = decode_events raw in
      let reference = analyzer_replay ~jobs:1 events in
      List.iter
        (fun jobs ->
          let name = Printf.sprintf "jobs=%d" jobs in
          check_snapshot_equal ~name reference (analyzer_replay ~jobs events))
        [ 2; 4 ];
      true)

let suite =
  [
    QCheck_alcotest.to_alcotest prop_finger_equals_fast_path_off;
    QCheck_alcotest.to_alcotest prop_legacy_agreement;
    QCheck_alcotest.to_alcotest prop_analyzer_jobs_deterministic;
  ]

(* ------------------------------------------------------------------ *)
(* Interleaving determinism (PR 8): the hybrid kernels under a swept    *)
(* interleave seed.                                                     *)
(* ------------------------------------------------------------------ *)

module Scenario = Rma_microbench.Scenario
module Runner = Rma_microbench.Runner

let hybrid_verdict ~interleave_seed ~jobs (k : Scenario.Kernel.t) =
  let tool =
    Rma_analysis.Rma_analyzer.create ~nprocs:k.Scenario.Kernel.k_nprocs
      ~mode:Rma_analysis.Tool.Collect ~jobs
      Rma_analysis.Rma_analyzer.Contribution
  in
  let v = Runner.run_kernel ~interleave_seed ~tool k in
  let reports = v.Runner.k_reports in
  ( v.Runner.k_flagged,
    Rma_report.Race_export.verdict_digest reports,
    Rma_util.Json.to_string (Rma_report.Race_export.to_json ~generator:"diff" reports) )

(* Same interleave seed => byte-identical verdicts, digests and JSON
   exports whether the analyzer shards across 1, 2 or 4 workers, for
   the base and the hybrid kernels. *)
let test_interleave_determinism_across_jobs () =
  List.iter
    (fun (k : Scenario.Kernel.t) ->
      List.iter
        (fun interleave_seed ->
          let reference = hybrid_verdict ~interleave_seed ~jobs:1 k in
          List.iter
            (fun jobs ->
              let flagged_r, digest_r, json_r = reference in
              let flagged, digest, json = hybrid_verdict ~interleave_seed ~jobs k in
              let label =
                Printf.sprintf "%s interleave=%d jobs=%d" k.Scenario.Kernel.k_name
                  interleave_seed jobs
              in
              Alcotest.(check bool) (label ^ " flagged") flagged_r flagged;
              Alcotest.(check string) (label ^ " digest") digest_r digest;
              Alcotest.(check string) (label ^ " json") json_r json)
            [ 2; 4 ])
        [ 13; 29 ])
    (Scenario.Kernel.all @ Scenario.Kernel.hybrid)

(* Ground-truth labels survive a 50-seed interleaving sweep: no hybrid
   kernel's verdict depends on the schedule. *)
let test_interleave_label_stable_across_seeds () =
  List.iter
    (fun (k : Scenario.Kernel.t) ->
      for interleave_seed = 1 to 50 do
        let flagged, _, _ = hybrid_verdict ~interleave_seed ~jobs:1 k in
        Alcotest.(check bool)
          (Printf.sprintf "%s interleave=%d" k.Scenario.Kernel.k_name interleave_seed)
          k.Scenario.Kernel.k_racy flagged
      done)
    Scenario.Kernel.hybrid

(* A decoupled interleave seed must not change data-level behaviour for
   thread-free programs: the whole pre-hybrid corpus keeps its verdict
   under aggressive schedule shuffles. *)
let test_interleave_preserves_single_thread_verdicts () =
  List.iter
    (fun (k : Scenario.Kernel.t) ->
      List.iter
        (fun interleave_seed ->
          let reference, _, _ = hybrid_verdict ~interleave_seed ~jobs:1 k in
          Alcotest.(check bool)
            (Printf.sprintf "%s interleave=%d" k.Scenario.Kernel.k_name interleave_seed)
            k.Scenario.Kernel.k_racy reference)
        [ 13; 29 ])
    Scenario.Kernel.all

let suite =
  suite
  @ [
      Alcotest.test_case "interleave: same seed byte-identical across jobs" `Slow
        test_interleave_determinism_across_jobs;
      Alcotest.test_case "interleave: hybrid labels stable over 50 seeds" `Slow
        test_interleave_label_stable_across_seeds;
      Alcotest.test_case "interleave: single-thread kernels keep verdicts" `Slow
        test_interleave_preserves_single_thread_verdicts;
    ]
