module Tool = Rma_analysis.Tool
module Codec = Rma_trace.Codec

type close_reason =
  | Completed
  | Shed
  | Protocol_error of string
  | Disconnected
  | Daemon_shutdown

let reason_label = function
  | Completed -> "completed"
  | Shed -> "shed"
  | Protocol_error _ -> "protocol_error"
  | Disconnected -> "disconnected"
  | Daemon_shutdown -> "daemon_shutdown"

type phase = Handshaking | Queued | Streaming | Closed of close_reason

let phase_label = function
  | Handshaking -> "handshaking"
  | Queued -> "queued"
  | Streaming -> "streaming"
  | Closed r -> "closed:" ^ reason_label r

type t = {
  id : int;
  fd : Unix.file_descr;
  mutable phase : phase;
  pending : Buffer.t;  (* bytes received but not yet terminated by '\n' *)
  inbox : string Queue.t;  (* complete lines not yet consumed by the state machine *)
  mutable hello : Protocol.hello option;
  mutable run_id : string;
  mutable tool : Tool.t option;
  decoder : Codec.Incremental.t;
  mutable races_streamed : int;
  mutable last_race_count : int;
  mutable events_fed : int;
}

let create ~id ~fd =
  {
    id;
    fd;
    phase = Handshaking;
    pending = Buffer.create 256;
    inbox = Queue.create ();
    hello = None;
    run_id = "";
    tool = None;
    decoder = Codec.Incremental.create ();
    races_streamed = 0;
    last_race_count = 0;
    events_fed = 0;
  }

let is_open s = match s.phase with Closed _ -> false | _ -> true
let wants_read s = match s.phase with Handshaking | Streaming -> true | _ -> false

let chomp_cr line =
  let n = String.length line in
  if n > 0 && line.[n - 1] = '\r' then String.sub line 0 (n - 1) else line

let max_line_bytes = 1 lsl 20

(* Append a received chunk, peeling complete lines into the inbox. CRLF
   tolerated; the unterminated tail stays pending for the next chunk.
   Each byte is copied at most once into [pending], so a line that
   arrives over many chunks costs time linear in its length. Stops at
   the first line longer than [max_line_bytes], so [pending] never
   holds more than that plus one chunk. *)
let push_bytes s chunk =
  let n = String.length chunk in
  let rec go start =
    match String.index_from_opt chunk start '\n' with
    | None ->
        Buffer.add_substring s.pending chunk start (n - start);
        Buffer.length s.pending <= max_line_bytes
    | Some nl when Buffer.length s.pending + (nl - start) > max_line_bytes -> false
    | Some nl ->
        let line =
          if Buffer.length s.pending = 0 then String.sub chunk start (nl - start)
          else begin
            Buffer.add_substring s.pending chunk start (nl - start);
            let line = Buffer.contents s.pending in
            Buffer.clear s.pending;
            line
          end
        in
        Queue.push (chomp_cr line) s.inbox;
        go (nl + 1)
  in
  go 0

let session_name s = match s.hello with Some h -> Some h.Protocol.session | None -> None
