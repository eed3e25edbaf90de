(** Executes a microbenchmark scenario on the simulated runtime under a
    detector and reports the verdict. *)

type verdict = {
  scenario : Scenario.t;
  flagged : bool;  (** The tool reported at least one race. *)
  reports : Rma_analysis.Report.t list;
}

type outcome = True_positive | False_positive | True_negative | False_negative

val classify : verdict -> outcome

val outcome_name : outcome -> string

val run : ?seed:int -> tool:Rma_analysis.Tool.t -> Scenario.t -> verdict
(** Builds the three-rank program for the scenario, runs it with the
    tool observing (in whatever mode the tool was created with —
    [Collect] recommended), and returns the verdict. The tool is [reset]
    before the run. *)

val program : Scenario.t -> unit -> unit
(** The rank program itself, exposed for tests and the example
    binaries. *)

type confusion = { tp : int; fp : int; tn : int; fn : int; dropped : int }
(** [dropped] totals the reports lost to each run's [max_reports] cap
    across the suite — nonzero means the per-scenario report lists were
    truncated. *)

val score : ?seed:int -> tool:Rma_analysis.Tool.t -> Scenario.t list -> confusion
(** Runs every scenario and tallies the confusion matrix (Table 3). *)

(** {1 Kernel corpus} *)

type race_site = { site_file : string; site_line : int; site_op : string }
(** One side of a race, identified by source location — the
    schedule-independent identity of an access. *)

type race_pair = { pair_a : race_site; pair_b : race_site; pair_predicted : bool }
(** A canonical (sorted) site pair from a report.
    [pair_predicted = false] for observed races. *)

val pairs_of_reports : Rma_analysis.Report.t list -> race_pair list
(** The canonical site-pair set of a report list: each report's two
    sides sorted into a pair, deduplicated (observed wins over
    predicted), pairs sorted. This is the representation to compare
    across interleave seeds or analysis modes — report ids, order and
    the observed/predicted partition are schedule-dependent; this set is
    not. *)

val pair_sites : race_pair -> race_site * race_site

type kernel_verdict = {
  kernel : Scenario.Kernel.t;
  k_flagged : bool;
  k_reports : Rma_analysis.Report.t list;
  k_pairs : race_pair list;
      (** [pairs_of_reports k_reports] — the full verdict set. *)
}

val run_kernel :
  ?seed:int ->
  ?interleave_seed:int ->
  tool:Rma_analysis.Tool.t ->
  Scenario.Kernel.t ->
  kernel_verdict
(** Runs an RMARaceBench-shaped kernel on its [k_nprocs] ranks under the
    tool (reset first) and reports whether it flagged a race. An
    omitted [interleave_seed] means no interleaving: scheduling draws
    from [seed] (see {!Mpi_sim.Runtime.run}). *)
