(** One client connection's lifecycle state.

    The daemon owns every transition; this module just names the state
    machine and keeps the per-session mutable record — socket, receive
    buffer, handshake, detector tool (which owns the session's private
    {!Rma_fault} injector, if any) and incremental decoder.

    {v
      Handshaking ──hello, slot free──────────────▶ Streaming
          │   │                                        │
          │   └──hello, slots busy──▶ Queued ──slot──▶ │
          │            │                │              │
          │            │           (queue full)        │
          ▼            ▼                ▼              ▼
        Closed of Protocol_error | Shed | Disconnected | Completed
                                       | Daemon_shutdown
    v} *)

(** Why a session ended: [Completed] (footer seen, summary sent),
    [Shed] (admission refused), [Protocol_error] (bad handshake or
    undecodable trace line, reason attached), [Disconnected] (client
    vanished mid-stream), [Daemon_shutdown] (daemon stopped first). *)
type close_reason =
  | Completed
  | Shed
  | Protocol_error of string
  | Disconnected
  | Daemon_shutdown

val reason_label : close_reason -> string
(** Stable lowercase label used in journal events, [/metrics] session
    states and daemon stats. *)

type phase = Handshaking | Queued | Streaming | Closed of close_reason

val phase_label : phase -> string

type t = {
  id : int;  (** Daemon-local ordinal, minted at accept. *)
  fd : Unix.file_descr;
  mutable phase : phase;
  pending : Buffer.t;  (** Received bytes not yet newline-terminated. *)
  inbox : string Queue.t;
      (** Complete lines the state machine has not consumed yet — a
          client that pipelines its handshake and trace in one write
          can land lines while the session is still [Queued]; they wait
          here until admission. *)
  mutable hello : Protocol.hello option;
  mutable run_id : string;  (** ["<daemon run id>-s<id>"] once admitted. *)
  mutable tool : Rma_analysis.Tool.t option;
  decoder : Rma_trace.Codec.Incremental.t;
  mutable races_streamed : int;
  mutable last_race_count : int;
  mutable events_fed : int;
}

val create : id:int -> fd:Unix.file_descr -> t
(** Fresh session in [Handshaking]. *)

val is_open : t -> bool

val wants_read : t -> bool
(** Whether the daemon's select loop should watch this fd: true in
    [Handshaking] and [Streaming]. A [Queued] session is deliberately
    {e not} read — the kernel socket buffer back-pressures the client
    until a streaming slot frees. *)

val max_line_bytes : int
(** Longest line a session may send, terminator excluded: 1 MiB, far
    above any {!Rma_trace.Codec.encode_event} line and the handshake's
    128-character session name. Fixed, so that the daemon's memory per
    session is bounded. *)

val push_bytes : t -> string -> bool
(** Append a received chunk, moving every newly completed line (without
    its terminator; CRLF tolerated) into [inbox]. The unterminated tail
    is kept for the next chunk. Returns [false] as soon as a line,
    complete or not, exceeds {!max_line_bytes}; the rest of the chunk is
    then left unread and the session must be closed. *)

val session_name : t -> string option
(** The handshake's session name, once known. *)
