(* The configuration matrix: the analysis settings that change no
   verdict and that no other sweep already covers, run in-process over
   the corpora whose tools take their configuration from a run config.

   Jobs 4 and the interleave seeds 13 and 29 are swept where their
   corpora live: the suite and the base and hybrid kernels at jobs 4 in
   test_par, Tables 2/3 at jobs 4 in test_report, the goldens at jobs 4
   in test_par,
   test_export and test_predictive, base and hybrid kernels under each
   interleave seed at jobs 1/2/4 in test_differential and
   test_microbench, and the 27-kernel predictive matrix under each seed
   in test_predictive. What is left is one cell per remaining setting:
   predictive mode, and a fault plan that really fires at jobs 4.

   Each cell is checked against the default configuration (jobs 1,
   observed-only, unbounded, no faults) under three invariants:

   - verdict digests equal the default configuration's (observed
     reports only when the cell is predictive);
   - every ground-truth label holds;
   - every golden export is byte-identical.

   The corpora: the 154-code suite (with the Table 2/3 tool rows), the
   race.sarif / explain.txt / race_degraded.sarif / race_hybrid.json /
   race_predicted.json goldens, a diagnosed drill journal that
   [obs replay] must reproduce, and the differential and oracle access
   streams fed straight to the analyzer; the fault cell also runs the
   rrb_/hyb_ kernel labels (test_predictive already runs them, and the
   prd_ labels, in predictive mode). *)

open Rma_analysis
open Rma_microbench
module Json = Rma_util.Json
module Race_export = Rma_report.Race_export
module Event = Mpi_sim.Event

type cell = { label : string; jobs : int; predictive : bool; fault : string option }

let cells =
  [
    { label = "predictive"; jobs = 1; predictive = true; fault = None };
    {
      label = "fault plan, jobs 4";
      jobs = 4;
      predictive = false;
      fault = Some "seed=7,worker_crash=0.05,queue_overflow=0.02";
    };
  ]

(* One run config, and so one fresh injector, per corpus run. *)
let run_config c =
  let fault = Option.map (fun s -> Result.get_ok (Rma_fault.Plan.of_spec s)) c.fault in
  Run_config.make ~jobs:c.jobs ~predictive:c.predictive ?fault ()

let observed reports =
  List.filter (fun (r : Report.t) -> not r.Report.provenance.Report.predicted) reports

let digest reports = Race_export.verdict_digest (observed reports)

let with_recorder f =
  Rma_store.Flight_recorder.enable ();
  Fun.protect ~finally:Rma_store.Flight_recorder.disable f

(* --- the 154-code suite ---------------------------------------------- *)

let suite_digests run =
  let tool = Run_config.tool run Toolbox.Contribution ~nprocs:3 () in
  List.map
    (fun (s : Scenario.t) ->
      let v = Runner.run ~tool s in
      if v.Runner.flagged <> s.Scenario.racy then
        Alcotest.failf "%s: contribution verdict contradicts the label" s.Scenario.name;
      (s.Scenario.name, digest v.Runner.reports))
    Scenario.all

let suite_reference = lazy (suite_digests Run_config.default)
let check_suite c =
  let run = run_config c in
  List.iter2
    (fun (name, d) (_, d') ->
      if not (String.equal d d') then Alcotest.failf "[%s] %s: suite digest differs" c.label name)
    (Lazy.force suite_reference) (suite_digests run);
  (* A fault cell whose plan never fires would prove nothing. *)
  Option.iter
    (fun inj ->
      Alcotest.(check bool) (c.label ^ ": worker crashes fired") true
        (Rma_fault.fired inj Rma_fault.Worker_crash > 0);
      Alcotest.(check bool) (c.label ^ ": queue overflows fired") true
        (Rma_fault.fired inj Rma_fault.Queue_overflow > 0))
    run.Run_config.fault;
  Test_report.check_table2 ~run ();
  Test_report.check_table3 ~run ()

(* --- kernel labels ----------------------------------------------------- *)

let check_kernels c =
  let run = run_config c in
  List.iter
    (fun (k : Scenario.Kernel.t) ->
      let verdict run =
        let nprocs = k.Scenario.Kernel.k_nprocs in
        Runner.run_kernel ~tool:(Run_config.tool run Toolbox.Contribution ~nprocs ()) k
      in
      let v = verdict run in
      let name = Printf.sprintf "[%s] %s" c.label k.Scenario.Kernel.k_name in
      Alcotest.(check bool) (name ^ " label") k.Scenario.Kernel.k_racy v.Runner.k_flagged;
      Alcotest.(check string) (name ^ " digest")
        (digest (verdict Run_config.default).Runner.k_reports)
        (digest v.Runner.k_reports))
    (Scenario.Kernel.all @ Scenario.Kernel.hybrid)

(* --- goldens ----------------------------------------------------------- *)

let check_goldens c =
  let json reports = Json.to_string (Race_export.to_json ~generator:"test" reports) ^ "\n" in
  let sarif reports = Json.to_string (Race_export.to_sarif ~generator:"test" reports) ^ "\n" in
  let golden name what content =
    Alcotest.(check string) (Printf.sprintf "[%s] %s" c.label what) (Golden_regen.read ~name)
      content
  in
  let run = run_config c in
  golden "race.sarif" "SARIF golden"
    (sarif (with_recorder (fun () -> Test_export.code1_race_reports ~run ())));
  golden "explain.txt" "explain golden"
    (Race_export.explain (List.hd (with_recorder (fun () -> Test_par.code1_reports ~run ())))
    ^ "\n");
  golden "race_degraded.sarif" "degraded SARIF golden"
    (sarif (fst (Test_export.degraded_race_reports ~run ())));
  golden "race_hybrid.json" "hybrid JSON golden"
    (json (with_recorder (fun () -> Test_export.hybrid_race_reports ~run ())));
  golden "race_predicted.json" "predicted JSON golden"
    (json (with_recorder (fun () -> Test_predictive.predicted_race_reports ~run ())))

(* --- journal ----------------------------------------------------------- *)

(* A small CFD drill journaled through the CLI's Diag bracket under the
   cell's flags; [obs replay] must rebuild the run config from the
   journal alone and reproduce crashes and verdicts. *)
let drill_params =
  [ ("tool", "contribution"); ("ranks", "4"); ("seed", "3"); ("iterations", "4"); ("cells", "48") ]

let drill run =
  let config =
    Run_config.sim_config run
      { Mpi_sim.Config.default with Mpi_sim.Config.analysis_overhead_scale = 2.0 }
  in
  let params =
    { Cfd_proxy.Halo.default_params with Cfd_proxy.Halo.iterations = 4; cells_per_chunk = 48 }
  in
  let tool = Run_config.tool run Toolbox.Contribution ~nprocs:4 ~config () in
  ignore (Cfd_proxy.Halo.run params ~nprocs:4 ~seed:3 ~config ~observer:tool.Tool.observer ());
  tool.Tool.races ()

let journaled_replay c =
  let journal = Filename.temp_file "rma_matrix" ".jsonl" in
  Fun.protect
    ~finally:(fun () ->
      Rma_obs.Events.close ();
      Rma_obs.Events.clear ();
      Rma_obs.Obs.disable ();
      Rma_obs.Obs.reset ();
      try Sys.remove journal with Sys_error _ -> ())
  @@ fun () ->
  Rma_report.Diag.with_diag ~prog:"test" ~generator:"test" ~workload:("cfd", drill_params)
    {
      Rma_report.Diag.default with
      Rma_report.Diag.obs_events = Some journal;
      jobs = Some c.jobs;
      predictive = c.predictive;
      fault_plan = c.fault;
    }
    drill;
  let plan =
    match Rma_report.Replay.extract (Rma_obs.Journal.read_file journal).Rma_obs.Journal.events with
    | Ok p -> p
    | Error msg -> Alcotest.failf "[%s] extract: %s" c.label msg
  in
  match Rma_report.Replay.run plan with
  | Ok o -> (plan, o)
  | Error msg -> Alcotest.failf "[%s] replay: %s" c.label msg

let check_journal c =
  let plan, outcome = journaled_replay c in
  Alcotest.(check int) (c.label ^ ": journaled jobs") c.jobs plan.Rma_report.Replay.r_jobs;
  Alcotest.(check bool) (c.label ^ ": journaled predictive") c.predictive
    plan.Rma_report.Replay.r_predictive;
  Alcotest.(check bool) (c.label ^ ": replay reproduces the run") true
    (Rma_report.Replay.verdict plan outcome);
  let reference = digest (drill Run_config.default) in
  (* The drill is race-free, so no predictions can hide in the digest. *)
  Alcotest.(check (option string)) (c.label ^ ": journaled digest is the default's")
    (Some reference) plan.Rma_report.Replay.r_digest

(* --- access streams ---------------------------------------------------- *)

let stream_count = 40

let random_values arb =
  let st = Random.State.make [| 20_231_112 |] in
  List.init stream_count (fun _ -> QCheck.Gen.generate1 ~rand:st (QCheck.gen arb))

let differential_streams =
  lazy (List.map Test_differential.decode_events (random_values Test_differential.arb_stream))

(* An oracle program as one lock_all epoch per rank on window 0. *)
let oracle_streams =
  lazy
    (List.map
       (fun program ->
         let open_ r = Event.Epoch_opened { win = 0; rank = r; sim_time = 0.0 } in
         let close r = Event.Epoch_closed { win = 0; rank = r; sim_time = 1e6 } in
         (Event.Win_created { win = 0; rank = 0; base = 0; size = 4096; sim_time = 0.0 }
          :: List.init 3 open_)
         @ List.mapi
             (fun i a ->
               Event.Access
                 {
                   Event.space = 0;
                   access = a;
                   win = Some 0;
                   relevant = true;
                   on_stack = false;
                   sim_time = float_of_int (i + 1);
                 })
             (Test_oracle.build program)
         @ List.init 3 close)
       (random_values Test_oracle.arb_program))

let stream_digest run events =
  let tool = Run_config.tool run Toolbox.Contribution ~nprocs:3 () in
  List.iter (fun e -> ignore (tool.Tool.observer e)) events;
  (digest (tool.Tool.races ()), tool.Tool.bst_summary ())

let check_streams c =
  List.iter
    (fun (what, streams) ->
      List.iteri
        (fun i events ->
          let d, summary = stream_digest (run_config c) events in
          let d0, summary0 = stream_digest Run_config.default events in
          if d <> d0 || summary <> summary0 then
            Alcotest.failf "[%s] %s stream %d: verdict or store statistics differ" c.label what i)
        (Lazy.force streams))
    [ ("differential", differential_streams); ("oracle", oracle_streams) ]

(* --- the matrix -------------------------------------------------------- *)

let test_cell c () =
  if c.fault <> None then check_kernels c;
  check_suite c;
  check_goldens c;
  check_journal c;
  check_streams c

let suite = List.map (fun c -> Alcotest.test_case c.label `Quick (test_cell c)) cells
