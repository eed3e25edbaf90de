(** Wire protocol of the [serve] daemon.

    A session is one connection. The client sends exactly one
    {e handshake} line — a minified JSON object — then the trace as a
    verbatim {!Rma_trace.Codec} format-2 stream (header line, one event
    per line, [rma-trace-end] footer). The server answers with JSON
    lines only: an admission verdict, zero or more [race] lines as
    verdicts become known, and one final [summary] line, after which it
    closes the connection. Both directions are newline-delimited UTF-8;
    no binary framing. The full operator-facing specification, with a
    worked transcript, is in OPERATIONS.md. *)

val version : int
(** Protocol version negotiated by the handshake (1). *)

(** {1 Handshake} *)

(** Parsed client handshake. [session] is the client-chosen display
    name (1–128 chars); [tool] defaults to the paper's contribution
    detector; [nprocs] is the simulated rank count the trace was
    recorded with (required — detector state is sized before the first
    event arrives). The remaining knobs mirror the offline CLI flags
    and form the session's run config; an omitted one takes the
    daemon's own setting (its [serve] flags, see {!Daemon.create}):
    [jobs] (shard count), [predictive], [budget] (a
    {!Rma_fault.Budget.of_spec} string), and [fault] (a
    {!Rma_fault.Plan.of_spec} string applied to this session only).
    Keys the handshake does not know are ignored. *)
type hello = {
  session : string;
  tool : Rma_analysis.Toolbox.kind;
  nprocs : int;
  jobs : int option;
  predictive : bool option;
  budget : Rma_fault.Budget.t option;
  fault : Rma_fault.Plan.t option;
}

val parse_hello : string -> (hello, string) result
(** Total: any line yields [Ok] or a one-line reason suitable for an
    [error] reply. Example accepted line:
    [{"hello":1,"session":"job-42","tool":"contribution","nprocs":4,
      "budget":"4096:spill","fault":"seed=7,worker_crash=0.05"}]. *)

(** {1 Server lines}

    Each constructor renders one complete minified JSON line (no
    trailing newline). *)

val admitted : session:string -> run_id:string -> string
(** The session is streaming; [run_id] labels its journal records and
    [/metrics] series. *)

val queued : session:string -> position:int -> string
(** The session handshook fine but all streaming slots are busy; it
    waits at 1-based [position] in the accept queue. An [admitted]
    line follows when a slot frees. *)

val load_shed : ?session:string -> active:int -> queued:int -> unit -> string
(** Admission refused — streaming slots {e and} the bounded accept
    queue are full. The connection is closed after this line; the
    client should back off and retry. [session] is omitted when the
    daemon sheds at accept time, before reading the handshake. *)

val error : ?session:string -> string -> string
(** Protocol or decode failure; the connection is closed after it. *)

val race : Rma_analysis.Report.t -> string
(** One incremental verdict: [{"type":"race","race":{...}}] where the
    inner object is {!Rma_report.Race_export.report_json} — field-level
    identical to the same race in an offline [--races-json] export.
    The caller renumbers the report id to its 1-based stream position
    first (matching the offline export's renumbering). *)

val summary :
  session:string -> events:int -> races:int -> digest:string -> degraded_drops:int -> string
(** Final line of a completed session: events decoded, races streamed,
    the {!Rma_report.Race_export.verdict_digest} of the full verdict
    list (the offline-equality contract), and the degraded-drop count
    when the session's budget forced evictions. *)
