(** The RMA-Analyzer family of detectors.

    One constructor covers the published legacy tool, the paper's
    contribution, and the two ablations in between, differing only in
    the store policy:

    - [Legacy] — non-disjoint multiset store, conflict check along the
      lower-bound search path only, order-insensitive rule. Reproduces
      the published tool with its Figure 5a false negatives and Table 3
      false positives.
    - [Contribution] — Algorithm 1: exact overlap check, fragmentation,
      merging, order-aware rule.
    - [Fragmentation_only] — contribution without merging (§4.1 alone);
      shows the node explosion merging exists to fix.
    - [Order_blind] — contribution with the legacy conflict rule;
      isolates the order-awareness fix.

    Protocol costs mirror §5.1: every remote access charges the
    notification send, every epoch close charges the MPI_Reduce. *)

type policy =
  | Legacy
  | Contribution
  | Fragmentation_only
  | Order_blind
  | Strided_extension
      (** The paper's §6(3) future work: merging extended to non-adjacent
          strided accesses via {!Rma_store.Strided_store}. *)

val policy_name : policy -> string

val create :
  nprocs:int ->
  ?config:Mpi_sim.Config.t ->
  ?mode:Tool.mode ->
  ?flush_clears:bool ->
  ?max_reports:int ->
  ?jobs:int ->
  ?queue_capacity:int ->
  ?budget:Rma_fault.Budget.t ->
  ?predictive:bool ->
  ?fault:Rma_fault.t ->
  policy ->
  Tool.t
(** Defaults: [config = Mpi_sim.Config.default], [mode = Abort_on_race],
    [flush_clears = false], [max_reports = 1000], [jobs = 1], no
    budget (unbounded stores), [predictive = false], no [fault]
    injector. Nothing is read from the process environment: a front
    end that wants other values passes them (see {!Run_config}).

    A bounded [budget] applies to every (rank, window) store the
    analyzer creates; when governance drops or coarsens nodes, the sum
    appears in {!Tool.bst_summary.degraded_drops_total} and races
    detected on a degraded store carry
    [provenance.degraded = true] (downgraded confidence in SARIF).
    Under [Fail_fast] the racing insert raises
    {!Rma_fault.Budget.Exhausted} through the observer. See DESIGN.md
    §11.

    [jobs > 1] runs every store operation on a sharded
    {!Rma_par} engine: (rank, window) trees are partitioned over [jobs]
    worker domains, inserts stream to their shard's bounded FIFO queue
    ([queue_capacity], default 1024), and epoch events act as barriers.
    Race reports are merged back into the exact sequential order (see
    DESIGN.md §10), so verdicts, statistics, report ids and serialized
    exports are byte-identical to [jobs = 1]. [Abort_on_race] forces
    [jobs = 1]: aborting mid-stream inside the racing event cannot be
    reproduced asynchronously. When
    [config.analysis_self_timed] is set, the observer returns the
    engine's critical-path cost model (busiest shard per barrier
    interval) as simulated protocol seconds. [fault] is the run's
    {!Rma_fault} injector, handed to the engine: its worker-crash and
    queue-overflow sites fire at shard submits (only when [jobs > 1]).

    [max_reports] bounds the reports kept for {!Tool.t.races}; counting
    ({!Tool.t.race_count}) is never truncated, and
    {!Tool.dropped_races} exposes how many reports were not stored.

    [flush_clears:true] is the negative ablation of §6(2): it treats
    [MPI_Win_flush]/[flush_all] as if they synchronised the epoch and
    clears the caller's trees — which is wrong, because a flush only
    orders the {e caller}'s operations; the paper shows this produces
    false negatives for conflicts with other origins, which is why the
    real tool leaves flush uninstrumented.

    [predictive:true] runs the weak-order
    analysis of DESIGN.md §15 alongside the observed one: a second set of
    (rank, window) trees cleared only at true synchronization edges
    (fence completion; barriers/allreduces with no unflushed one-sided
    traffic on the window) instead of the schedule-dependent
    all-ranks-closed point. Cross-rank conflicts surviving there but not
    observed are appended to {!Tool.t.races} as {e predicted}
    (schedulable) races — [provenance.predicted = true] plus a
    [provenance.witness] describing the reordering that realizes them,
    ids numbered after the observed reports, counted by
    {!Tool.t.race_count}, never aborting even under [Abort_on_race].
    With [predictive:false] every observable output is byte-identical to
    a build without the feature. *)

val create_inspectable :
  nprocs:int ->
  ?config:Mpi_sim.Config.t ->
  ?mode:Tool.mode ->
  ?flush_clears:bool ->
  ?max_reports:int ->
  ?jobs:int ->
  ?queue_capacity:int ->
  ?budget:Rma_fault.Budget.t ->
  ?predictive:bool ->
  ?fault:Rma_fault.t ->
  policy ->
  Tool.t * (unit -> ((int * Mpi_sim.Event.win_id) * Rma_access.Access.t list) list)
(** {!create} plus a dump of the analyzer's interval state: for each
    (rank, window) tree, the stored accesses in store order, keys
    sorted. The dump synchronises the parallel engine first, so it is
    safe mid-stream. Built for the differential determinism tests, which
    assert interval sets equal across [jobs] values. *)
