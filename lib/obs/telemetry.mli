(** Live resource telemetry: a sampling collector for GC pressure,
    peak RSS and event throughput, feeding the {!Obs} gauge registry
    (and from there the Prometheus endpoint, the summary exporter and
    the bench trajectory).

    Throughput accounting ({!note_events}) is always on and costs one
    domain-local increment per call — the stores invoke it on every
    insert from worker domains, so it deliberately avoids shared-cache
    contention. Everything else ({!sample}) is pull-based and gated on
    {!Obs.is_enabled}. *)

val note_events : int -> unit
(** Count [n] processed store events on the calling domain. *)

val note_event : unit -> unit

val events_total : unit -> int
(** Events counted across all domains (readers may see a slightly
    stale sum while workers are running; never a torn one). *)

val peak_rss_bytes : unit -> int
(** High-water resident set size: [VmHWM] from [/proc/self/status],
    falling back to the GC top-of-heap size where /proc is absent. *)

val sample : unit -> unit
(** Take one sample: refresh the GC/RSS/throughput gauges
    ([telemetry.*]) and the [slo.epoch_close_p99_ms] gauge. The
    events/sec gauge covers the window since the previous sample. No-op
    when {!Obs} is disabled. *)

(** {1 Epoch-close latency SLO}

    The analyzer times its handling of every epoch-close event and
    reports it here; the p99 lands on [/metrics] as the
    [slo.epoch_close_p99_ms] gauge (refreshed by {!sample}), and each
    close slower than the threshold increments the
    [slo.epoch_close_burn_total] burn counter — the pair a scrape-based
    alert needs (current level + budget burn). *)

val note_epoch_close : float -> unit
(** Record one epoch-close handling duration (seconds). Feeds the
    [analyzer.epoch_close_ns] histogram; increments the burn counter
    when the duration exceeds the threshold. No-op when {!Obs} is
    disabled. *)

val slo_epoch_close_ms : float
(** The burn threshold in milliseconds: 100. *)

val reset_rate : unit -> unit
(** Forget the rate window (next {!sample} only primes it). *)
