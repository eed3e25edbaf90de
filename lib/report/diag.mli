(** Shared diagnostics plumbing for every front end (the CLI
    subcommands, the bench driver, the example drills): one options
    record covering the observability, event-journal, telemetry-server,
    race-export, parallelism and fault/budget knobs, and one bracket
    ({!with_diag}) that applies them in the right order around a run.

    The analysis knobs (shard count, predictive mode, fault plan,
    budget) are parsed once into a {!Rma_analysis.Run_config.t} — with
    the run's one fault injector — and handed to the run thunk, which
    builds its tools from it. The observability knobs are applied
    {e before} the thunk (stores snapshot the flight recorder at
    creation), and the exporters (Chrome trace, Prometheus dump, event
    journal, summary, race JSON/SARIF) run after it — the obs ones even
    when the thunk raises. *)

type opts = {
  obs_out : string option;  (** Chrome trace_event JSON path. *)
  obs_summary : bool;  (** Print the metrics summary after the run. *)
  obs_prometheus : string option;  (** Prometheus text dump path. *)
  obs_events : string option;  (** Event-journal JSON-lines path. *)
  obs_level : string option;
      (** Journal level name ([debug|info|warn|error]); bad names are a
          usage error. *)
  obs_serve : int option;
      (** Serve [/metrics], [/healthz] and [/events] on this loopback
          port for the duration of the run (0 = ephemeral). *)
  obs_sample : int;  (** Keep one span in N (1 = all). *)
  races_json : string option;
  races_sarif : string option;
  jobs : int option;
  fault_plan : string option;  (** {!Rma_fault.Plan.of_spec} syntax. *)
  budget : string option;  (** {!Rma_fault.Budget.of_spec} syntax. *)
  predictive : bool;
      (** Predictive (weak-order schedulable-race) analysis — the
          [--predictive] flag. *)
}

val default : opts
(** Everything off: no exports, sequential, no plan, no budget. *)

val wants_races : opts -> bool

val wants_obs : opts -> bool
(** True when any observability output (trace, summary, Prometheus,
    journal, server) is requested — the condition under which
    {!with_diag} enables {!Rma_obs.Obs}. *)

val with_diag :
  ?prog:string ->
  ?generator:string ->
  ?workload:string * (string * string) list ->
  opts ->
  (Rma_analysis.Run_config.t -> Rma_analysis.Report.t list) ->
  unit
(** Run the thunk under the configured diagnostics and export
    afterwards. The thunk receives the run config parsed from [opts]
    and builds every tool of the run from it. [prog] names the binary
    in usage-error messages (exit 124 on a bad spec, before anything
    runs); [generator] is stamped into race exports. Report ids are
    renumbered 1..n before
    export; when observability is on, the journal's run id is threaded
    into the race JSON/SARIF headers.

    [workload] names the run for the journal: a [run_start] record
    (component ["diag"]) carries the workload name, its parameters and
    {!Rma_analysis.Run_config.journal_kv} of the run config, and
    a [run_summary] record carries the race count and
    {!Race_export.verdict_digest} — together the coordinates
    [rma_race obs replay] needs to re-run the drill deterministically
    and check the verdicts match. Omit it for aggregate subcommands
    (suite, experiments) that are not a single replayable run. *)
