(** One entry point per table/figure of the paper's evaluation (§5).

    Every function renders a paper-shaped text table (plus explanatory
    header) and returns the underlying numbers so tests can pin the
    qualitative claims. Sizes default to one tenth of the paper's
    workloads so the full set regenerates in minutes; pass
    [~scale:1.0] for paper-size runs.

    Every experiment that builds an analyzer takes [?run] (default
    {!Rma_analysis.Run_config.default}) and builds every analyzer tool
    under it; {!par}, whose axis is the shard count, overrides only
    [run.jobs]. *)

type verdict_row = { code : string; legacy : bool; must : bool; contribution : bool }

val table2 : ?run:Rma_analysis.Run_config.t -> unit -> verdict_row list * string
(** Verdicts of the three tools on the four §5.2 example codes. *)

type confusion_row = {
  tool : string;
  fp : int;
  fn : int;
  tp : int;
  tn : int;
  dropped : int;  (** Reports past the tool's [max_reports] cap. *)
}

val table3 : ?run:Rma_analysis.Run_config.t -> unit -> confusion_row list * string
(** Confusion matrices over the full 154-code suite. *)

type table4_row = {
  ranks : int;
  vertices : int;
  legacy_nodes : int;
  contribution_nodes : int;
  legacy_peak : int;  (** Peak live BST nodes across the run. *)
  contribution_peak : int;
  reduction : float;  (** Fraction in [0,1]. *)
}

val table4 :
  ?run:Rma_analysis.Run_config.t -> ?scale:float -> ?ranks:int list -> unit -> table4_row list * string
(** MiniVite BST node counts, 32–256 ranks, two input sizes
    (scale × 640 000 and scale × 1 280 000 vertices). *)

val fig5 : unit -> string
(** The Code 1 trees: legacy's silent miss, the Figure 5b fragmented
    tree, and the contribution's race report. *)

type fig8_result = {
  legacy_nodes : int;
  contribution_nodes : int;
  final_get_flagged : bool;
}

val fig8 : unit -> fig8_result * string
(** Code 2: the 1000-iteration Get loop — node explosion versus merged
    tree, plus the verdict on the trailing duplicated Get. *)

val fig9 : ?run:Rma_analysis.Run_config.t -> unit -> string
(** The MiniVite fault injection and the report our tool prints. *)

type perf_row = {
  tool : string;
  nprocs : int;
  epoch_time : float;  (** Mean simulated per-rank epoch time (s). *)
  exec_time : float;  (** Simulated makespan (s). *)
  wall : float;
  nodes : int;
  nodes_peak : int;  (** Peak live BST nodes (memory high-water mark). *)
  races : int;
  dropped : int;  (** Reports past the tool's [max_reports] cap. *)
  degraded : int;
      (** Nodes spilled/coarsened by the resource governor — nonzero
          marks a best-effort verdict (see {!Harness.metrics}). *)
}

val fig10 :
  ?run:Rma_analysis.Run_config.t -> ?nprocs:int -> ?repeats:int -> unit -> perf_row list * string
(** CFD-Proxy cumulative epoch time, 12 ranks, 50 iterations, the four
    methods; includes the 90k-to-dozens node collapse. *)

val fig11 :
  ?run:Rma_analysis.Run_config.t -> ?scale:float -> ?ranks:int list -> unit -> perf_row list * string
(** MiniVite execution time, 32–256 ranks, scale × 640 000 vertices. *)

val fig12 :
  ?run:Rma_analysis.Run_config.t -> ?scale:float -> ?ranks:int list -> unit -> perf_row list * string
(** Same with scale × 1 280 000 vertices. *)

type par_row = {
  p_jobs : int;
  p_epoch_time : float;  (** Mean simulated per-rank epoch time (s). *)
  p_exec_time : float;  (** Simulated makespan (s). *)
  p_wall : float;
  p_races : int;
  p_nodes : int;
  p_speedup : float;  (** Epoch-time speedup relative to the first jobs value. *)
  p_critical_path : float;
      (** Wall seconds of accumulated {!Rma_par} critical path — the
          longest shard chain plus barrier overhead per epoch
          (DESIGN.md §13). The number that explains the speedup ceiling:
          overhead-dominated epochs cannot parallelise. *)
}

val par :
  ?run:Rma_analysis.Run_config.t -> ?scale:float -> ?nprocs:int -> ?jobs:int list -> unit -> par_row list * string
(** The sharded parallel engine on MiniVite (Our Contribution,
    scale × 640 000 vertices, default 8 ranks) at each shard count
    (default [[1; 2; 4]]). [jobs = 1] is the sequential analyzer with
    inline wall-time charging; [jobs > 1] runs on the {!Rma_par} engine
    under the critical-path cost model
    ({!Mpi_sim.Config.t.analysis_self_timed}). Raises [Failure] if any
    shard count changes race counts, tree population or insert counts —
    determinism is asserted, not sampled. *)

type ablation_row = { variant : string; nodes : int; races : int; wall : float }

val ablation : ?run:Rma_analysis.Run_config.t -> unit -> ablation_row list * string
(** Design-choice ablations: fragmentation without merging (node
    explosion), order-blind conflict rule (false positives back), and
    the full contribution, on the Code 2 loop and the microbenchmark
    suite. *)

val export :
  ?run:Rma_analysis.Run_config.t -> dir:string -> ?scale:float -> ?ranks:int list -> string list -> unit
(** [export ~dir experiments] regenerates the named experiments
    ("table2" ... "fig12", "ablation") and writes one CSV per experiment
    into [dir] (created if missing), plus the generated C sources of the
    microbenchmark suite when "suite" is requested. *)
