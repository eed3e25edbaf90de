(** Deterministic crash replay from the event journal.

    A journal written by a diagnosed run (see {!Diag.with_diag}) carries
    everything needed to reproduce it: the [run_start] record names the
    workload, its parameters and the run config (shard count, canonical
    fault-plan/budget specs, predictive mode); each [worker_crash] record pins
    the exact fault coordinate [(seed, site, ordinal)]; and the
    [run_summary] record carries the race count and
    {!Race_export.verdict_digest} of the verdicts. This module closes
    the loop: {!extract} pulls those coordinates out of a parsed
    journal, {!run} re-executes the drill in-process under the
    reconstructed plan, and the {!outcome} says whether the re-run
    crashed at the same coordinates and produced byte-identical
    verdicts (DESIGN.md §13).

    Determinism rests on {!Rma_fault.fire}: faults are a pure function
    of [(plan.seed, site, ordinal)] drawn on the submitting thread, so
    a fresh injector of the journaled plan replays the identical fault
    schedule regardless of wall-clock interleaving. *)

type crash = {
  c_site : string;
  c_ordinal : int;  (** The per-site {!Rma_fault.ordinal} that fired. *)
  c_seed : int;  (** Plan seed journaled alongside the fault. *)
}

type plan = {
  r_run_id : string;  (** Journal run id of the original run. *)
  r_workload : string;  (** [cfd], [minivite], [bfs] or [code]. *)
  r_params : (string * string) list;  (** Workload parameters, verbatim. *)
  r_jobs : int;  (** Effective shard count of the original run. *)
  r_fault : string option;  (** Canonical {!Rma_fault.Plan} spec. *)
  r_budget : string option;  (** Canonical {!Rma_fault.Budget} spec. *)
  r_predictive : bool;  (** Predictive analysis was on. *)
  r_crashes : crash list;  (** Worker crashes, in journal order. *)
  r_races : int option;  (** [run_summary] race count, when present. *)
  r_digest : string option;  (** [run_summary] verdict digest. *)
}

val extract : Rma_obs.Events.t list -> (plan, string) result
(** Pull the replay coordinates out of a decoded journal prefix.
    [Error] when no [run_start] record is present (the run predates the
    journal contract, or the journal was truncated before the header
    landed). A missing [run_summary] leaves [r_races]/[r_digest] as
    [None] — the original run crashed before finishing, and {!run}
    reports the re-run's verdicts without an equality check. *)

val describe : plan -> string
(** One paragraph naming what a replay will do, for operator preview. *)

type outcome = {
  o_races : int;  (** Race reports of the re-run. *)
  o_digest : string;  (** {!Race_export.verdict_digest} of the re-run. *)
  o_crashes : crash list;  (** Worker crashes of the re-run. *)
  o_digest_match : bool option;
      (** [Some true] iff digests are byte-identical; [None] when the
          original journal has no [run_summary] to compare against. *)
  o_crash_match : bool;
      (** Whether the re-run crashed at exactly the original
          [(site, ordinal)] sequence. *)
}

val run : plan -> (outcome, string) result
(** Re-execute the drill: rebuild the run config from the journal (a
    fresh injector of the journaled fault plan, shard count, budget,
    predictive mode), run the named workload with the same parameters
    under the same detector, and journal the re-run to a temporary file
    to recover its crash coordinates. The process-global Obs state and
    journal sink are restored afterwards, even on raise. [Error] on an unknown workload
    or malformed parameters — the journal, not this process, is the
    source of truth, so nothing is guessed. *)

val verdict : plan -> outcome -> bool
(** The replay contract: crashes match, and the digest matches when the
    original run recorded one. *)

val render : plan -> outcome -> string
(** The [rma_race obs replay] text report. *)
