(** Shared machinery for the paper-reproduction experiments: tool
    construction, instrumented runs, and the metrics every table/figure
    reads. *)

type tool_kind =
  | Baseline
  | Legacy  (** Published RMA-Analyzer. *)
  | Must  (** MUST-RMA-style happens-before baseline. *)
  | Contribution  (** The paper's algorithm. *)
  | Fragmentation_only  (** Ablation: §4.1 without §4.2. *)
  | Order_blind  (** Ablation: contribution with the legacy conflict rule. *)
  | Strided  (** The §6(3) future-work strided-merging extension. *)

val kind_name : tool_kind -> string

val all_paper_tools : tool_kind list
(** The four configurations of Figures 10–12: baseline, legacy,
    MUST-RMA, contribution. *)

type metrics = {
  tool : string;
  nprocs : int;
  wall_seconds : float;  (** Real time of the whole simulated run. *)
  epoch_time_total : float;  (** Sum over ranks of simulated epoch time. *)
  epoch_time_mean : float;
  makespan : float;  (** Simulated end-to-end time (max rank clock). *)
  races : int;
  dropped_races : int;
      (** Reports past the tool's [max_reports] cap — nonzero means the
          tables above under-show the stored race list (truncation made
          visible, satellite of the provenance pipeline). *)
  degraded_drops : int;
      (** Interval nodes spilled or coarsened away by the resource
          governor ({!Rma_fault.Budget}) across every store the tool
          created. Nonzero means the run finished in degraded mode: the
          verdict is best-effort, and its races carry
          [provenance.degraded = true] (see DESIGN.md §11). *)
  nodes_final : int;
  nodes_peak : int;
  trees : int;  (** (rank, window) trees the tool created. *)
  inserts : int;
  fragments : int;
  merges : int;
  accesses : int;  (** Instrumented accesses emitted by the run. *)
  critical_path_seconds : float;
      (** Accumulated {!Rma_par} critical path over the run (longest
          shard chain + barrier overhead per epoch, DESIGN.md §13);
          0 for sequential tools. *)
}

val measure :
  nprocs:int ->
  ?config:Mpi_sim.Config.t ->
  ?run:Rma_analysis.Run_config.t ->
  workload:
    (config:Mpi_sim.Config.t -> observer:Mpi_sim.Event.observer option -> Mpi_sim.Runtime.result) ->
  tool_kind ->
  metrics
(** Runs the workload once under the given tool and collects metrics.
    The workload receives [None] for the baseline so it costs exactly
    nothing, and must run its simulation under the config it is given —
    [measure] owns the config so tool-dependent switches (the
    self-timing flip below) reach the runtime's cost charging. [run]
    (default {!Rma_analysis.Run_config.default}) configures the tool,
    created in [Collect] mode: the harness measures overhead on complete
    runs, like the paper's performance experiments;
    [run.jobs > 1] runs analyzer-family tools on the
    sharded {!Rma_par} engine and switches the config to
    [analysis_self_timed] so detector cost is charged by the engine's
    critical-path model instead of inline wall time — the bench [par]
    experiment's epoch-time comparison. *)
