(** Deterministic fault injection and resource governance.

    Long-running HPC jobs hand the analyzer hostile conditions — bounded
    memory, truncated or corrupted traces, failing workers — and a race
    detector's verdicts are only trustworthy when its behaviour under
    those conditions is explicit. This module is the single point of
    truth for both halves of that story:

    - {e Injection} ({!Plan}, {!fire}): a seeded plan of failure
      probabilities for a fixed set of {!type:site}s. Instrumented code
      asks {!fire} at each opportunity; the answer is a deterministic
      function of the plan seed, the site, and the per-site ordinal of
      the ask, so a given plan replays the identical fault schedule on
      every run regardless of timing (see DESIGN.md §11).
    - {e Governance} ({!Budget}): a node/byte budget with an explicit
      degradation policy that the access stores enforce (see
      {!Rma_store.Governor}), so memory pressure produces either a clean
      failure or a {e reported} degradation — never a silent one.

    A fault schedule is a value: {!create} turns a plan into an
    injector that owns the per-site ordinals and hit counts. A run
    makes exactly one injector and hands it to every component that
    injects — the {!Rma_par} engines of its tools and the
    {!Rma_trace.Codec.write_all} calls of its recorder — so the
    ordinals count across the whole run, and two runs (two [serve]
    sessions, say) never share a schedule. Code handed no injector
    injects nothing and pays one option match per site visit.

    {b Thread safety}: {!fire} must be called from the thread that owns
    the injector only. Worker domains never draw from it — the parallel
    engine decides worker-crash and queue-overflow faults on the
    submitting thread, which is what makes the schedule deterministic
    under any interleaving. *)

(** {1 Injection sites} *)

(** Where a fault can be injected.

    - [Trace_corrupt] — flip one bit of an encoded trace line as
      {!Rma_trace.Codec.write_all} emits it.
    - [Trace_truncate] — stop a trace write mid-stream (possibly
      mid-line), losing the footer.
    - [Worker_crash] — kill a {!Rma_par} shard at a task boundary; the
      engine journals and replays its queued work (DESIGN.md §11).
    - [Queue_overflow] — overflow a shard's submit queue, forcing the
      engine to degrade that task to inline execution. *)
type site = Trace_corrupt | Trace_truncate | Worker_crash | Queue_overflow

val site_name : site -> string
(** Stable lowercase name, as used in {!Plan} specs and Obs counters
    ([fault.injected.<site>]). *)

val all_sites : site list

(** {1 Fault plans} *)

module Plan : sig
  (** A seeded schedule of failure probabilities.

      The per-site rates are probabilities in [\[0, 1\]] applied
      independently at each visit of the site. [max_retries] and
      [backoff] parameterise {!Rma_par} shard recovery: a crashed shard
      is restarted and its journal replayed up to [max_retries] times
      (sleeping [backoff] seconds between attempts) before the engine
      degrades the remaining work to sequential inline execution. *)
  type t = {
    seed : int;  (** Root of every random draw; same seed = same faults. *)
    trace_corrupt : float;  (** Bit-flip probability per encoded trace line. *)
    trace_truncate : float;  (** Truncation probability per encoded trace line. *)
    worker_crash : float;  (** Crash probability per submitted shard task. *)
    queue_overflow : float;  (** Overflow probability per submitted shard task. *)
    max_retries : int;  (** Shard restarts before sequential fallback. Default 3. *)
    backoff : float;  (** Seconds between shard restart attempts. Default 0. *)
  }

  val default : t
  (** Seed 1, every rate [0.0], [max_retries = 3], [backoff = 0.0] — an
      injector of the default plan injects nothing. *)

  val rate : t -> site -> float

  val of_spec : string -> (t, string) result
  (** Parse a comma-separated [key=value] spec over {!default}, e.g.
      ["seed=42,worker_crash=0.05,trace_truncate=0.1"]. Keys are the
      field names above; unknown keys, malformed numbers and rates
      outside [\[0, 1\]] yield [Error]. The empty string is
      {!default}. *)

  val to_spec : t -> string
  (** Inverse of {!of_spec} (canonical field order, default fields
      included). *)

  val pp : Format.formatter -> t -> unit
end

(** {1 Injectors} *)

type t
(** One run's fault schedule: a plan plus per-site ordinals and hit
    counts. Mutable; owned by the thread that fires it. *)

val create : Plan.t -> t
(** A fresh injector whose schedule starts at ordinal 0 on every site. *)

val plan_of : t -> Plan.t

val fire : t -> site -> bool
(** [fire t site] asks whether the fault fires at this visit of [site].

    Deterministic: the k-th call for a given site on injectors of the
    same plan always returns the same answer (each call consumes one
    per-site ordinal and seeds a fresh {!Rma_util.Prng} from
    [(plan.seed, site, ordinal)]), independent of calls to other sites
    and of wall-clock interleaving. Always [false] when the site's rate
    is [0]. Fired faults are counted on the [fault.injected.<site>] Obs
    counters. *)

val fired : t -> site -> int
(** How many times {!fire} has returned [true] for [site]. *)

val ordinal : t -> site -> int
(** How many times {!fire} has been {e asked} for [site] — i.e. the
    ordinal of the next ask. The visit that just fired has ordinal
    [ordinal t site - 1]; the event journal records it so a fault
    occurrence can be replayed from [(seed, site, ordinal)] alone. *)

(** {1 Resource budgets} *)

module Budget : sig
  (** A memory budget for an access store, with the policy applied when
      the store grows past it. Enforcement lives in the stores (via
      {!Rma_store.Governor}); this module only names the contract. See
      DESIGN.md §11 for the exact degradation semantics. *)

  (** What a store does on the insert that finds it over budget:
      - [Fail_fast] — raise {!Exhausted}; the analysis stops cleanly.
      - [Spill_oldest_epoch] — evict recorded accesses oldest-first,
        preferring accesses from already-completed epochs; every evicted
        node counts in the store's [degraded_drops] statistic
        ({!Rma_store.Store_intf.stats}). May miss races whose older
        side was evicted — the non-zero drop count is the explicit
        record of that risk.
      - [Coarsen] — merge adjacent same-kind, same-issuer accesses
        {e ignoring debug-info inequality}, trading report provenance
        for memory; coarsened merges also count in [degraded_drops],
        and reports from a coarsened store carry downgraded confidence
        in SARIF output. Falls back to spilling when coarsening alone
        cannot fit the budget. *)
  type policy = Fail_fast | Spill_oldest_epoch | Coarsen

  type t = {
    max_nodes : int option;  (** Cap on store nodes; [None] = unbounded. *)
    max_bytes : int option;
        (** Cap on {e approximate} store memory; each store converts
            this to a node cap via its per-node byte estimate. *)
    policy : policy;
  }

  exception Exhausted of string
  (** Raised by a [Fail_fast] store on the insert exceeding the budget. *)

  val unbounded : t
  (** No caps ([Fail_fast] policy, vacuously). *)

  val is_unbounded : t -> bool

  val policy_name : policy -> string
  (** ["fail_fast"], ["spill_oldest_epoch"], ["coarsen"]. *)

  val of_spec : string -> (t, string) result
  (** Parse ["nodes=4096,policy=spill"] / ["bytes=1048576,policy=coarsen"]
      style specs, or the shorthand ["4096:spill"] (node cap + policy).
      Policies accept short aliases [fail], [spill], [coarsen]. Caps
      must be positive. *)

  val to_spec : t -> string

  val pp : Format.formatter -> t -> unit
end
