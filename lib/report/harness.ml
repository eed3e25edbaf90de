open Rma_analysis

type tool_kind = Baseline | Legacy | Must | Contribution | Fragmentation_only | Order_blind | Strided

let to_toolbox = function
  | Baseline -> Toolbox.Baseline
  | Legacy -> Toolbox.Legacy
  | Must -> Toolbox.Must
  | Contribution -> Toolbox.Contribution
  | Fragmentation_only -> Toolbox.Fragmentation_only
  | Order_blind -> Toolbox.Order_blind
  | Strided -> Toolbox.Strided

let kind_name k = Toolbox.name (to_toolbox k)

let all_paper_tools = [ Baseline; Legacy; Must; Contribution ]

type metrics = {
  tool : string;
  nprocs : int;
  wall_seconds : float;
  epoch_time_total : float;
  epoch_time_mean : float;
  makespan : float;
  races : int;
  dropped_races : int;
  degraded_drops : int;
  nodes_final : int;
  nodes_peak : int;
  trees : int;
  inserts : int;
  fragments : int;
  merges : int;
  accesses : int;
  critical_path_seconds : float;
}

let measure ~nprocs ?(config = Mpi_sim.Config.default) ?(run = Run_config.default) ~workload kind
    =
  (* Parallel analyzers time themselves (critical-path model at epoch
     barriers); the runtime must not also charge their inline wall time.
     Tools that ignore [jobs] (Baseline, MUST) keep inline charging. *)
  let config = match kind with Baseline | Must -> config | _ -> Run_config.sim_config run config in
  let tool = Run_config.tool run (to_toolbox kind) ~nprocs ~config () in
  let observer = match kind with Baseline -> None | _ -> Some tool.Tool.observer in
  (* Critical path by delta of the process-wide accumulator: the tool
     creates its engines internally, so this is the only seam that sees
     them all. *)
  let crit0 = Rma_par.critical_path_total () in
  (* The measurement IS the span: the wall time reported in tables and
     the one exported to the Chrome trace come from the same
     Obs.time_span reading, so they cannot disagree. *)
  let result, wall =
    Rma_obs.Obs.time_span ~cat:"phase"
      (Printf.sprintf "measure %s (%d ranks)" (kind_name kind) nprocs)
      (fun () -> workload ~config ~observer)
  in
  (* One telemetry sample per measurement keeps the GC/RSS/throughput
     gauges fresh even for workloads whose epochs are too sparse to hit
     the analyzer's rate-limited sampler. *)
  Rma_obs.Telemetry.sample ();
  let b = tool.Tool.bst_summary () in
  let epoch_total = Array.fold_left ( +. ) 0.0 result.Mpi_sim.Runtime.epoch_times in
  {
    tool = kind_name kind;
    nprocs;
    wall_seconds = wall;
    epoch_time_total = epoch_total;
    epoch_time_mean = epoch_total /. float_of_int (max 1 nprocs);
    makespan = result.Mpi_sim.Runtime.makespan;
    races = tool.Tool.race_count ();
    dropped_races = Tool.dropped_races tool;
    degraded_drops = b.Tool.degraded_drops_total;
    nodes_final = b.Tool.nodes_final_total;
    nodes_peak = b.Tool.nodes_peak_total;
    trees = b.Tool.stores;
    inserts = b.Tool.inserts_total;
    fragments = b.Tool.fragments_total;
    merges = b.Tool.merges_total;
    accesses = result.Mpi_sim.Runtime.accesses_emitted;
    critical_path_seconds = Rma_par.critical_path_total () -. crit0;
  }
