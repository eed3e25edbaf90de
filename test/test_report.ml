open Rma_report

(* Fast experiments only: the table/figure sweeps over many ranks run in
   the bench executable; here we pin the cheap ones end to end. *)

(* The paper's Tables 2 and 3 under a run config: every tool row must
   read as published whatever the (verdict-preserving) configuration. *)
let check_table2 ?run () =
  let rows, rendered = Experiments.table2 ?run () in
  Alcotest.(check int) "four codes" 4 (List.length rows);
  Alcotest.(check bool) "rendered" true (String.length rendered > 0);
  List.iter
    (fun (r : Experiments.verdict_row) ->
      let expect_l, expect_m, expect_c =
        match r.Experiments.code with
        | "ll_get_load_outwindow_origin_race" -> (true, true, true)
        | "ll_get_get_inwindow_origin_safe" -> (false, false, false)
        | "ll_get_load_inwindow_origin_race" -> (true, false, true)
        | "ll_load_get_inwindow_origin_safe" -> (true, false, false)
        | other -> Alcotest.failf "unexpected code %s" other
      in
      Alcotest.(check bool) (r.Experiments.code ^ " legacy") expect_l r.Experiments.legacy;
      Alcotest.(check bool) (r.Experiments.code ^ " must") expect_m r.Experiments.must;
      Alcotest.(check bool) (r.Experiments.code ^ " contribution") expect_c
        r.Experiments.contribution)
    rows

let check_table3 ?run () =
  let rows, _ = Experiments.table3 ?run () in
  let find name =
    List.find (fun (r : Experiments.confusion_row) -> r.Experiments.tool = name) rows
  in
  let must = find "MUST-RMA" in
  Alcotest.(check bool) "MUST row exact" true
    (must.Experiments.fp = 0 && must.Experiments.fn = 15 && must.Experiments.tp = 32
   && must.Experiments.tn = 107);
  let contribution = find "Our Contribution" in
  Alcotest.(check bool) "contribution row exact" true
    (contribution.Experiments.fp = 0 && contribution.Experiments.fn = 0
    && contribution.Experiments.tp = 47 && contribution.Experiments.tn = 107);
  let legacy = find "RMA-Analyzer" in
  Alcotest.(check bool) "legacy FP/FN as published" true
    (legacy.Experiments.fp = 6 && legacy.Experiments.fn = 0)

(* Sequential, and with every tool row built from a jobs-4 run config. *)
let jobs4 = Rma_analysis.Run_config.make ~jobs:4 ()

let test_table2_matches_paper () =
  check_table2 ();
  check_table2 ~run:jobs4 ()

let test_table3_matches_paper () =
  check_table3 ();
  check_table3 ~run:jobs4 ()

let test_fig5_text_complete () =
  let text = Experiments.fig5 () in
  let contains sub =
    let n = String.length text and m = String.length sub in
    let rec go i = i + m <= n && (String.sub text i m = sub || go (i + 1)) in
    go 0
  in
  Alcotest.(check bool) "legacy misses" true (contains "no race seen");
  Alcotest.(check bool) "fragments listed" true (contains "[2...3]");
  Alcotest.(check bool) "race caught" true (contains "RACE against")

let test_fig8_matches_paper () =
  let result, _ = Experiments.fig8 () in
  Alcotest.(check int) "legacy node explosion" 5001 result.Experiments.legacy_nodes;
  Alcotest.(check int) "contribution merged" 2 result.Experiments.contribution_nodes;
  Alcotest.(check bool) "trailing get flagged" true result.Experiments.final_get_flagged

let test_fig9_report_format () =
  let text = Experiments.fig9 () in
  let contains sub =
    let n = String.length text and m = String.length sub in
    let rec go i = i + m <= n && (String.sub text i m = sub || go (i + 1)) in
    go 0
  in
  Alcotest.(check bool) "cites both lines" true
    (contains "dspl.hpp:612" && contains "dspl.hpp:614");
  Alcotest.(check bool) "paper wording" true
    (contains "Error when inserting memory access of type RMA_WRITE")

let test_ablation_shape () =
  let rows, _ = Experiments.ablation () in
  let find prefix =
    List.find
      (fun (r : Experiments.ablation_row) ->
        String.length r.Experiments.variant >= String.length prefix
        && String.sub r.Experiments.variant 0 (String.length prefix) = prefix)
      rows
  in
  let frag_only = find "Code2 / fragmentation-only" in
  let merged = find "Code2 / fragmentation+merging" in
  Alcotest.(check bool) "merging shrinks the loop tree" true
    (merged.Experiments.nodes * 100 < frag_only.Experiments.nodes);
  let blind = find "Suite FPs / order-blind" in
  let aware = find "Suite FPs / order-aware" in
  Alcotest.(check int) "order-blind brings the 6 FPs back" 6 blind.Experiments.races;
  Alcotest.(check int) "order-aware has none" 0 aware.Experiments.races

let test_harness_measure_baseline_free () =
  let workload ~config ~observer =
    Mpi_sim.Runtime.run ~nprocs:2 ~config ?observer (fun () -> Mpi_sim.Mpi.barrier ())
  in
  let m = Harness.measure ~nprocs:2 ~config:Mpi_sim.Config.quiet_network ~workload Harness.Baseline in
  Alcotest.(check int) "no races" 0 m.Harness.races;
  Alcotest.(check int) "no nodes" 0 m.Harness.nodes_final;
  Alcotest.(check string) "name" "Baseline" m.Harness.tool

let suite =
  [
    Alcotest.test_case "Table 2 matches the paper" `Slow test_table2_matches_paper;
    Alcotest.test_case "Table 3 matches the paper" `Slow test_table3_matches_paper;
    Alcotest.test_case "Figure 5 text complete" `Quick test_fig5_text_complete;
    Alcotest.test_case "Figure 8 matches the paper" `Quick test_fig8_matches_paper;
    Alcotest.test_case "Figure 9 report format" `Quick test_fig9_report_format;
    Alcotest.test_case "ablation shape" `Slow test_ablation_shape;
    Alcotest.test_case "harness baseline is free" `Quick test_harness_measure_baseline_free;
  ]

let test_csv_export () =
  let dir = Filename.temp_file "rma_export" "" in
  Sys.remove dir;
  Experiments.export ~dir [ "table2"; "ablation"; "suite" ];
  let lines path =
    let ic = open_in path in
    Fun.protect
      ~finally:(fun () -> close_in ic)
      (fun () ->
        let rec go acc =
          match input_line ic with exception End_of_file -> List.rev acc | l -> go (l :: acc)
        in
        go [])
  in
  let table2 = lines (Filename.concat dir "table2.csv") in
  Alcotest.(check int) "table2: header + 4 rows" 5 (List.length table2);
  Alcotest.(check string) "table2 header" "code,rma_analyzer,must_rma,contribution"
    (List.hd table2);
  let c_files = Sys.readdir (Filename.concat dir "microbench_suite") in
  Alcotest.(check int) "all 154 codes emitted" 154 (Array.length c_files)

(* A candidate record whose sample silently stopped emitting a baseline
   metric must fail [--compare] and name the metric, exactly as a
   dropped experiment does — otherwise the metric just stops being
   tracked. *)
let test_compare_fails_on_dropped_metric () =
  let sample metrics =
    {
      Perf_trajectory.name = "fastpath";
      wall_seconds = 0.5;
      peak_rss_bytes = 0.0;
      events_per_sec = 0.0;
      critical_path_ms = 0.0;
      metrics;
    }
  in
  let record metrics =
    {
      Perf_trajectory.schema_version = Perf_trajectory.schema_version;
      generator = "test";
      scale = 0.02;
      samples = [ sample metrics ];
      counters = [];
    }
  in
  let old_record =
    record [ ("fastpath_finger_tree_ops", 10.0); ("fastpath_batch_tree_ops", 12.0) ]
  in
  let new_record = record [ ("fastpath_finger_tree_ops", 10.0) ] in
  let body, failed = Perf_trajectory.render_comparison ~old_record ~new_record () in
  Alcotest.(check bool) "comparison fails" true failed;
  Alcotest.(check bool) "verdict names the dropped metric" true
    (Astring.String.is_infix ~affix:"fastpath/fastpath_batch_tree_ops" body);
  let _, failed' =
    Perf_trajectory.render_comparison ~old_record:new_record ~new_record:old_record ()
  in
  Alcotest.(check bool) "a metric the baseline lacks is no failure" false failed'

let test_csv_quoting () =
  Alcotest.(check string) "plain" "x" (Csv.escape_field "x");
  Alcotest.(check string) "comma" "\"a,b\"" (Csv.escape_field "a,b");
  Alcotest.(check string) "quote" "\"a\"\"b\"" (Csv.escape_field "a\"b");
  Alcotest.(check string) "line" "a,\"b,c\",d" (Csv.line [ "a"; "b,c"; "d" ])

let suite =
  suite
  @ [
      Alcotest.test_case "csv export" `Slow test_csv_export;
      Alcotest.test_case "csv quoting" `Quick test_csv_quoting;
      Alcotest.test_case "compare fails on a dropped metric" `Quick
        test_compare_fails_on_dropped_metric;
    ]
