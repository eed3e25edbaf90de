(** The analysis settings of one run, stated up front.

    A front end — a CLI subcommand, the bench driver, a [serve]
    handshake, the journal an [obs replay] reads — parses its flags
    into one [t] and passes it down to every layer that builds a tool;
    no library reads the process environment or keeps a process-wide
    default. The record is immutable, but [fault] is the run's one
    {!Rma_fault} injector: every tool built from the record (and every
    trace the run writes) draws from it, so fault ordinals count across
    the whole run exactly once. *)

type t = {
  jobs : int;  (** Analyzer shard count, in [1 .. Rma_par.max_jobs]. *)
  predictive : bool;  (** Weak-order predictive analysis (DESIGN.md §15). *)
  budget : Rma_fault.Budget.t option;  (** Store budget; [None] = unbounded. *)
  fault : Rma_fault.t option;  (** The run's injector; [None] = no faults. *)
}

val default : t
(** Jobs 1, observed-only, unbounded, no faults — what every omitted
    label of {!Toolbox.make} means. *)

val make :
  ?jobs:int ->
  ?predictive:bool ->
  ?budget:Rma_fault.Budget.t ->
  ?fault:Rma_fault.Plan.t ->
  unit ->
  t
(** Omitted values are {!default}'s; [jobs] is clamped to
    [1 .. Rma_par.max_jobs]; a [fault] plan gets a fresh injector. Call
    once per run. *)

val tool :
  t -> Toolbox.kind -> nprocs:int -> ?config:Mpi_sim.Config.t -> ?mode:Tool.mode -> unit -> Tool.t
(** {!Toolbox.make} under the run's settings. *)

val sim_config : t -> Mpi_sim.Config.t -> Mpi_sim.Config.t
(** The simulator config for a run with these settings: a sharded
    analyzer ([jobs > 1]) times itself with the engine's critical-path
    model, so [analysis_self_timed] is switched on. *)

val journal_kv : t -> (string * string) list
(** The settings as [run_start] journal fields: [jobs] always, then
    [fault] and [budget] (canonical specs) and [predictive] when set.
    [obs replay] parses them back. *)
