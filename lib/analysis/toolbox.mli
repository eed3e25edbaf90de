(** One registry for every detector configuration, shared by the CLI,
    the experiment harness and the examples. *)

type kind =
  | Baseline
  | Legacy  (** Published RMA-Analyzer. *)
  | Must  (** MUST-RMA-style happens-before baseline. *)
  | Contribution  (** The paper's algorithm. *)
  | Fragmentation_only  (** Ablation: §4.1 without §4.2. *)
  | Order_blind  (** Ablation: contribution with the legacy conflict rule. *)
  | Strided  (** The §6(3) future-work strided-merging extension. *)

val all : kind list

val name : kind -> string
(** Display name, e.g. ["Our Contribution"]. *)

val slug : kind -> string
(** Command-line identifier, e.g. ["contribution"]. *)

val of_slug : string -> kind option

val make :
  kind ->
  nprocs:int ->
  ?config:Mpi_sim.Config.t ->
  ?mode:Tool.mode ->
  ?batch_inserts:bool ->
  ?jobs:int ->
  ?budget:Rma_fault.Budget.t ->
  ?predictive:bool ->
  ?fault:Rma_fault.t ->
  unit ->
  Tool.t
(** Defaults: [config = Mpi_sim.Config.default], [mode = Collect],
    and {!Rma_analyzer.create}'s fixed defaults for the rest (jobs 1,
    unbounded, observed-only, no faults). [jobs] and [fault] only
    affect the analyzer family ([Baseline] and [Must] ignore them),
    [budget] the analyzer's stores, and [predictive] the analyzer
    family (the weak-order schedulable-race analysis of DESIGN.md
    §15). {!Run_config.tool} builds a tool from one run's settings.

    [?batch_inserts] is accepted and ignored: it used to open the
    disjoint store's deeper coalescing buffer, which no longer exists.
    It stays only so that callers still passing
    [~batch_inserts:false] keep compiling; nothing else should pass
    it. *)
