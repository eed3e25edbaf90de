(** Capture an instrumentation event stream for later offline analysis —
    the front half of the MC-Checker-style post-mortem workflow. *)

type t

val create : unit -> t
(** In-memory recorder. *)

val observer : t -> Mpi_sim.Event.observer
(** Attach to {!Mpi_sim.Runtime.run}; records every event at zero
    simulated protocol cost. Compose with another tool's observer via
    {!tee} to record and detect in one run. *)

val tee : t -> Mpi_sim.Event.observer -> Mpi_sim.Event.observer
(** Records, then forwards to the wrapped observer (returning its
    cost). *)

val events : t -> Mpi_sim.Event.event list
(** Chronological. *)

val length : t -> int

val clear : t -> unit

val save : ?fault:Rma_fault.t -> t -> path:string -> unit
(** Write the trace file ({!Codec.write_all}: framed format 2; the
    [Trace_corrupt]/[Trace_truncate] fault sites of the run's [fault]
    injector live inside). *)

val load : path:string -> (Mpi_sim.Event.event list, string) result
(** Read a trace file back; [Error] renders the structured
    {!Codec.error} (line number + reason) as text. Never raises on
    malformed input. *)

val replay : Mpi_sim.Event.event list -> tool:Rma_analysis.Tool.t -> Rma_analysis.Report.t list
(** Feed a recorded stream through any detector (reset first) and
    return its reports; Race_abort from an aborting tool is caught. *)
