(* Predictive mode: the bidirectional schedule-differential harness.

   The weak-order analysis (--predictive) claims that an access pair it
   reports as [Predicted] is unordered under MPI synchronization
   semantics alone — i.e. SOME legal schedule overlaps it — and that a
   pair it stays silent on is ordered under EVERY legal schedule. Both
   directions are tested against the only ground truth available without
   a model checker: the observed analysis under a sweep of interleave
   seeds.

   - Soundness: every pair predicted at interleave seed 0 must be
     OBSERVED under at least one of N seeds. A prediction no schedule
     realises is a false alarm; the failure message prints the witness
     reordering so the bogus claim can be read.
   - Completeness: every pair the observed analysis reports under any of
     the N seeds must already be in seed 0's predictive report (observed
     ∪ predicted). A race that only some schedules surface and seed 0's
     predictive run missed is exactly the false negative the mode exists
     to close.

   N defaults to 25; RMA_PREDICTIVE_SEEDS overrides (CI uses 8). *)

open Rma_analysis
open Rma_store
open Rma_report
open Rma_microbench
module Json = Rma_util.Json

let mk_tool ~nprocs ?jobs ~predictive () =
  Rma_analyzer.create ~nprocs ~mode:Tool.Collect ?jobs ~predictive Rma_analyzer.Contribution

let with_recorder f =
  Flight_recorder.enable ();
  Fun.protect ~finally:Flight_recorder.disable f

let sweep_seeds () =
  match Sys.getenv_opt "RMA_PREDICTIVE_SEEDS" with
  | None -> 25
  | Some s -> (
      match int_of_string_opt (String.trim s) with
      | Some n when n > 0 -> n
      | _ -> 25)

let site_str (s : Runner.race_site) =
  Printf.sprintf "%s:%d %s" s.Runner.site_file s.Runner.site_line s.Runner.site_op

let pair_str (a, b) = Printf.sprintf "%s <-> %s" (site_str a) (site_str b)

(* The full labeled corpus: 27 base+hybrid kernels plus the prd_
   schedulable-race family. *)
let labeled_kernels () =
  Scenario.Kernel.all @ Scenario.Kernel.hybrid @ Scenario.Kernel.predictive

(* The witness reordering attached to the predicted report for [pair],
   for soundness-failure messages. *)
let reorder_for reports pair =
  List.find_map
    (fun (r : Report.t) ->
      match Runner.pairs_of_reports [ r ] with
      | [ p ] when Runner.pair_sites p = pair -> (
          match r.Report.provenance.Report.witness with
          | Some w -> Some w.Report.w_reorder
          | None -> None)
      | _ -> None)
    reports

(* --- prd_ corpus shape ----------------------------------------------- *)

let test_prd_corpus_shape () =
  let prd = Scenario.Kernel.predictive in
  Alcotest.(check bool) "at least 6 prd kernels" true (List.length prd >= 6);
  let names = List.map (fun k -> k.Scenario.Kernel.k_name) prd in
  Alcotest.(check int) "prd names unique" (List.length names)
    (List.length (List.sort_uniq String.compare names));
  List.iter
    (fun n ->
      Alcotest.(check bool) (n ^ " carries the prd_ prefix") true
        (String.length n > 4 && String.sub n 0 4 = "prd_");
      Alcotest.(check bool) (n ^ " findable") true (Scenario.Kernel.find n <> None))
    names;
  Alcotest.(check bool) "both labels represented" true
    (List.exists (fun k -> k.Scenario.Kernel.k_racy) prd
    && List.exists (fun k -> not k.Scenario.Kernel.k_racy) prd)

(* --- satellite: the 27-kernel label matrix under --predictive --------- *)

(* Predictive mode must not cost a single label on the schedule-stable
   corpus: every base and hybrid kernel keeps its ground-truth verdict at
   jobs 1, 2 and 4, under the default schedule and interleave seeds 13
   and 29, and produces no predicted pairs at all — their
   conflicts live inside one epoch, where the weak trees hold exactly
   the observed content and every conflict dedups against the observed
   report. *)
let test_matrix_labels_under_predictive () =
  let kernels = Scenario.Kernel.all @ Scenario.Kernel.hybrid in
  Alcotest.(check int) "base+hybrid kernel matrix has 27 kernels" 27 (List.length kernels);
  List.iter
    (fun (k : Scenario.Kernel.t) ->
      List.iter
        (fun interleave_seed ->
          List.iter
            (fun jobs ->
              let tool = mk_tool ~nprocs:k.Scenario.Kernel.k_nprocs ~jobs ~predictive:true () in
              let v = Runner.run_kernel ?interleave_seed ~tool k in
              let name =
                Printf.sprintf "%s (predictive, jobs=%d, interleave=%s)" k.Scenario.Kernel.k_name
                  jobs
                  (match interleave_seed with None -> "-" | Some i -> string_of_int i)
              in
              Alcotest.(check bool) name k.Scenario.Kernel.k_racy v.Runner.k_flagged;
              List.iter
                (fun p ->
                  if p.Runner.pair_predicted then
                    Alcotest.failf "%s: unexpected predicted pair %s" name
                      (pair_str (Runner.pair_sites p)))
                v.Runner.k_pairs)
            [ 1; 2; 4 ])
        [ None; Some 13; Some 29 ])
    kernels

(* --- prd_ labels ------------------------------------------------------ *)

(* The gap predictive mode closes is real: at interleave seed 0 the
   observed analysis misses every racy prd kernel (their conflicting
   epochs happen not to overlap under that schedule), while the
   predictive analysis flags each with predicted-only pairs. Safe
   controls stay silent under both. *)
let test_prd_labels_seed0 () =
  List.iter
    (fun (k : Scenario.Kernel.t) ->
      let run predictive =
        let tool = mk_tool ~nprocs:k.Scenario.Kernel.k_nprocs ~predictive () in
        Runner.run_kernel ~interleave_seed:0 ~tool k
      in
      let obs = run false and prd = run true in
      Alcotest.(check bool)
        (k.Scenario.Kernel.k_name ^ " (predictive seed 0)")
        k.Scenario.Kernel.k_racy prd.Runner.k_flagged;
      if k.Scenario.Kernel.k_racy then begin
        Alcotest.(check bool)
          (k.Scenario.Kernel.k_name ^ " observed-only misses it at seed 0")
          false obs.Runner.k_flagged;
        Alcotest.(check bool)
          (k.Scenario.Kernel.k_name ^ " prediction carries a witness")
          true
          (List.exists
             (fun (r : Report.t) ->
               r.Report.provenance.Report.predicted
               && r.Report.provenance.Report.witness <> None)
             prd.Runner.k_reports)
      end
      else begin
        Alcotest.(check int)
          (k.Scenario.Kernel.k_name ^ " safe control reports nothing (observed)")
          0
          (List.length obs.Runner.k_reports);
        Alcotest.(check int)
          (k.Scenario.Kernel.k_name ^ " safe control reports nothing (predictive)")
          0
          (List.length prd.Runner.k_reports)
      end)
    Scenario.Kernel.predictive

(* --- direction (a): soundness ----------------------------------------- *)

let test_soundness_sweep () =
  let n = sweep_seeds () in
  List.iter
    (fun (k : Scenario.Kernel.t) ->
      let ptool = mk_tool ~nprocs:k.Scenario.Kernel.k_nprocs ~predictive:true () in
      let v0 = Runner.run_kernel ~interleave_seed:0 ~tool:ptool k in
      let predicted = List.filter (fun p -> p.Runner.pair_predicted) v0.Runner.k_pairs in
      if predicted <> [] then begin
        let otool = mk_tool ~nprocs:k.Scenario.Kernel.k_nprocs ~predictive:false () in
        let observed = Hashtbl.create 8 in
        for seed = 0 to n - 1 do
          let v = Runner.run_kernel ~interleave_seed:seed ~tool:otool k in
          List.iter
            (fun p -> Hashtbl.replace observed (Runner.pair_sites p) ())
            v.Runner.k_pairs
        done;
        List.iter
          (fun p ->
            let pair = Runner.pair_sites p in
            if not (Hashtbl.mem observed pair) then
              Alcotest.failf
                "%s: predicted race %s was not observed under any of %d interleave seeds — \
                 the prediction looks unrealisable.\nclaimed witness: %s"
                k.Scenario.Kernel.k_name (pair_str pair) n
                (Option.value ~default:"<none>" (reorder_for v0.Runner.k_reports pair)))
          predicted
      end)
    (labeled_kernels ())

(* --- direction (b): completeness -------------------------------------- *)

let test_completeness_sweep () =
  let n = sweep_seeds () in
  List.iter
    (fun (k : Scenario.Kernel.t) ->
      let ptool = mk_tool ~nprocs:k.Scenario.Kernel.k_nprocs ~predictive:true () in
      let v0 = Runner.run_kernel ~interleave_seed:0 ~tool:ptool k in
      (* Seed 0's full report: observed ∪ predicted. *)
      let union0 = List.map Runner.pair_sites v0.Runner.k_pairs in
      let otool = mk_tool ~nprocs:k.Scenario.Kernel.k_nprocs ~predictive:false () in
      for seed = 0 to n - 1 do
        let v = Runner.run_kernel ~interleave_seed:seed ~tool:otool k in
        List.iter
          (fun p ->
            let pair = Runner.pair_sites p in
            if not (List.mem pair union0) then
              Alcotest.failf
                "%s: race %s observed at interleave seed %d is missing from seed 0's \
                 predictive report — predictive mode has a schedule-dependent false negative"
                k.Scenario.Kernel.k_name (pair_str pair) seed)
          v.Runner.k_pairs
      done)
    (labeled_kernels ())

(* --- 154-code suite differential --------------------------------------- *)

(* Every scenario of the Table 3 corpus runs its two operations inside a
   single lock_all epoch, so the weak trees never diverge from the
   observed ones: predictive mode must report exactly the observed pair
   set and nothing predicted, on all 154 codes. *)
let test_scenario_suite_differential () =
  let obs_tool = mk_tool ~nprocs:3 ~predictive:false () in
  let prd_tool = mk_tool ~nprocs:3 ~predictive:true () in
  List.iter
    (fun (s : Scenario.t) ->
      let vo = Runner.run ~tool:obs_tool s in
      let vp = Runner.run ~tool:prd_tool s in
      let po = Runner.pairs_of_reports vo.Runner.reports in
      let pp = Runner.pairs_of_reports vp.Runner.reports in
      List.iter
        (fun p ->
          if p.Runner.pair_predicted then
            Alcotest.failf "%s: unexpected predicted pair %s" s.Scenario.name
              (pair_str (Runner.pair_sites p)))
        pp;
      if po <> pp then
        Alcotest.failf "%s: predictive pair set differs from observed (%d vs %d pairs)"
          s.Scenario.name (List.length pp) (List.length po))
    Scenario.all

(* --- export byte-compatibility ----------------------------------------- *)

let test_observed_exports_byte_identical () =
  let k = List.find (fun k -> k.Scenario.Kernel.k_racy) Scenario.Kernel.all in
  let export predictive =
    let tool = mk_tool ~nprocs:k.Scenario.Kernel.k_nprocs ~predictive () in
    let v = Runner.run_kernel ~interleave_seed:0 ~tool k in
    v.Runner.k_reports
  in
  let obs = with_recorder (fun () -> export false) in
  let prd = with_recorder (fun () -> export true) in
  Alcotest.(check bool) "kernel races" true (obs <> []);
  let observed_of_prd =
    List.filter (fun (r : Report.t) -> not r.Report.provenance.Report.predicted) prd
  in
  Alcotest.(check string)
    "observed JSON byte-identical with the predictive flag on"
    (Json.to_string (Race_export.to_json ~generator:"test" obs))
    (Json.to_string (Race_export.to_json ~generator:"test" observed_of_prd));
  Alcotest.(check string)
    "observed SARIF byte-identical with the predictive flag on"
    (Json.to_string (Race_export.to_sarif ~generator:"test" obs))
    (Json.to_string (Race_export.to_sarif ~generator:"test" observed_of_prd));
  Alcotest.(check int) "observed-only reports stay on schema v2" 2
    (Race_export.used_schema_version obs)

let predicted_race_reports ?(run = Run_config.default) () =
  match Scenario.Kernel.find "prd_lockall_remote_epochs_put_put_race" with
  | None -> Alcotest.fail "prd kernel missing"
  | Some k ->
      let tool =
        Run_config.tool { run with Run_config.predictive = true } Toolbox.Contribution
          ~nprocs:k.Scenario.Kernel.k_nprocs ()
      in
      let v = Runner.run_kernel ~interleave_seed:0 ~tool k in
      v.Runner.k_reports

let test_predicted_schema_and_round_trip () =
  let reports = with_recorder predicted_race_reports in
  Alcotest.(check bool) "a predicted race is reported" true
    (List.exists (fun (r : Report.t) -> r.Report.provenance.Report.predicted) reports);
  Alcotest.(check int) "predicted reports bump the schema to v3" 3
    (Race_export.used_schema_version reports);
  let json = Race_export.to_json ~generator:"test" reports in
  match Race_export.of_json json with
  | Error e -> Alcotest.failf "round trip failed: %s" e
  | Ok loaded ->
      Alcotest.(check int) "round trip keeps every report" (List.length reports)
        (List.length loaded);
      List.iter2
        (fun (a : Report.t) (b : Report.t) ->
          Alcotest.(check bool) "predicted flag round-trips" a.Report.provenance.Report.predicted
            b.Report.provenance.Report.predicted;
          Alcotest.(check bool) "witness round-trips" true
            (a.Report.provenance.Report.witness = b.Report.provenance.Report.witness))
        reports loaded;
      Alcotest.(check string) "byte-identical re-export" (Json.to_string json)
        (Json.to_string (Race_export.to_json ~generator:"test" loaded))

(* --- golden ------------------------------------------------------------ *)

let test_predicted_json_matches_golden () =
  let reports = with_recorder predicted_race_reports in
  let json = Json.to_string (Race_export.to_json ~generator:"test" reports) ^ "\n" in
  (* GOLDEN_OUT_PREDICTED=/abs/path (or GOLDEN_OUT_DIR, see
     test/golden_regen.ml) regenerates the golden file instead of
     comparing. *)
  Golden_regen.check ~name:"race_predicted.json"
    ~what:"predicted race JSON matches golden file" json;
  let reports4 = with_recorder (predicted_race_reports ~run:(Run_config.make ~jobs:4 ())) in
  Alcotest.(check string) "predicted race JSON stable at jobs=4" json
    (Json.to_string (Race_export.to_json ~generator:"test" reports4) ^ "\n")

let suite =
  [
    Alcotest.test_case "prd corpus shape" `Quick test_prd_corpus_shape;
    Alcotest.test_case "27-kernel matrix labels under predictive (jobs 1/2/4)" `Slow
      test_matrix_labels_under_predictive;
    Alcotest.test_case "prd labels at seed 0: predictive closes the observed gap" `Quick
      test_prd_labels_seed0;
    Alcotest.test_case "soundness: every prediction observed under some seed" `Slow
      test_soundness_sweep;
    Alcotest.test_case "completeness: every observed race predicted at seed 0" `Slow
      test_completeness_sweep;
    Alcotest.test_case "154-code suite: predictive is a no-op" `Slow
      test_scenario_suite_differential;
    Alcotest.test_case "observed exports byte-identical under the flag" `Quick
      test_observed_exports_byte_identical;
    Alcotest.test_case "predicted reports: schema v3 and JSON round trip" `Quick
      test_predicted_schema_and_round_trip;
    Alcotest.test_case "predicted race JSON matches golden" `Quick
      test_predicted_json_matches_golden;
  ]
