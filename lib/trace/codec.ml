open Rma_access
module Event = Mpi_sim.Event

let header = "rma-trace 2"
let legacy_header = "rma-trace 1"
let footer_prefix = "rma-trace-end"
let footer n = Printf.sprintf "%s %d" footer_prefix n

type error = { at_line : int; reason : string }

let error_to_string e = Printf.sprintf "line %d: %s" e.at_line e.reason
let pp_error fmt e = Format.pp_print_string fmt (error_to_string e)

let escape s =
  let buf = Buffer.create (String.length s) in
  String.iter
    (fun c ->
      match c with
      | '%' -> Buffer.add_string buf "%25"
      | '\t' -> Buffer.add_string buf "%09"
      | '\n' -> Buffer.add_string buf "%0A"
      | '\r' -> Buffer.add_string buf "%0D"
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

let unescape s =
  let buf = Buffer.create (String.length s) in
  let n = String.length s in
  let rec go i =
    if i >= n then ()
    else if s.[i] = '%' && i + 2 < n then begin
      let hex = String.sub s (i + 1) 2 in
      match int_of_string_opt ("0x" ^ hex) with
      | Some code ->
          Buffer.add_char buf (Char.chr code);
          go (i + 3)
      | None ->
          Buffer.add_char buf s.[i];
          go (i + 1)
    end
    else begin
      Buffer.add_char buf s.[i];
      go (i + 1)
    end
  in
  go 0;
  Buffer.contents buf

let bool_str = function true -> "1" | false -> "0"

let kind_str = function
  | Access_kind.Local_read -> "LR"
  | Access_kind.Local_write -> "LW"
  | Access_kind.Rma_read -> "RR"
  | Access_kind.Rma_write -> "RW"
  | Access_kind.Rma_accumulate -> "RA"

let opt_int = function None -> "-" | Some i -> string_of_int i

let encode_event event =
  let join = String.concat "\t" in
  match event with
  | Event.Access a ->
      let acc = a.Event.access in
      join
        ([
           "A";
           string_of_int a.Event.space;
           kind_str acc.Access.kind;
           string_of_int (Interval.lo acc.Access.interval);
           string_of_int (Interval.hi acc.Access.interval);
           string_of_int acc.Access.issuer;
           string_of_int acc.Access.seq;
           opt_int a.Event.win;
           bool_str a.Event.relevant;
           bool_str a.Event.on_stack;
           Printf.sprintf "%.9f" a.Event.sim_time;
           escape acc.Access.debug.Debug_info.file;
           string_of_int acc.Access.debug.Debug_info.line;
           escape acc.Access.debug.Debug_info.operation;
         ]
        @
        (* Trailing thread fields, present only for a non-default issuing
           thread: tid, own stamp, and the thread-view as comma-separated
           component:value pairs. Single-thread traces keep the 14-field
           arity and stay byte-identical. *)
        if Access.is_default_thread acc then []
        else
          [
            string_of_int acc.Access.thread.Access.tid;
            string_of_int acc.Access.thread.Access.tstamp;
            String.concat ","
              (List.map
                 (fun (c, v) -> Printf.sprintf "%d:%d" c v)
                 acc.Access.thread.Access.tview);
          ])
  | Event.Collective { kind; rank; sim_time } ->
      join
        [
          "C";
          (match kind with
          | Event.Barrier -> "barrier"
          | Event.Allreduce -> "allreduce"
          | Event.Fence -> "fence");
          string_of_int rank;
          Printf.sprintf "%.9f" sim_time;
        ]
  | Event.Win_created { win; rank; base; size; sim_time } ->
      join
        [ "W"; string_of_int win; string_of_int rank; string_of_int base; string_of_int size;
          Printf.sprintf "%.9f" sim_time ]
  | Event.Win_freed { win; rank; sim_time } ->
      join [ "X"; string_of_int win; string_of_int rank; Printf.sprintf "%.9f" sim_time ]
  | Event.Epoch_opened { win; rank; sim_time } ->
      join [ "O"; string_of_int win; string_of_int rank; Printf.sprintf "%.9f" sim_time ]
  | Event.Epoch_closed { win; rank; sim_time } ->
      join [ "E"; string_of_int win; string_of_int rank; Printf.sprintf "%.9f" sim_time ]
  | Event.Flushed { win; rank; target; sim_time } ->
      join
        [ "L"; string_of_int win; string_of_int rank; opt_int target; Printf.sprintf "%.9f" sim_time ]
  | Event.Finished { rank; sim_time } ->
      join [ "Z"; string_of_int rank; Printf.sprintf "%.9f" sim_time ]

(* --- Decoding ---------------------------------------------------------

   One cursor decoder serves {!decode_event} and {!Incremental.feed}. It
   walks the tab-separated fields of a line in place, in one pass on the
   common path: it builds no field list and no substring for an int,
   bool, kind or window field. Each field parser has a fast path for the
   exact shape {!encode_event} writes and falls back, inside the same
   parser, to the general OCaml conversion of the field's substring. So
   every [Ok] value and every [Error] reason is the one the
   split-then-convert grammar gives; the test suite keeps a copy of that
   grammar as the differential oracle. *)

(* A field failed to parse; carries the error reason. *)
exception Bad_field of string

(* The line has fewer or more fields than its record tag allows. *)
exception Malformed

(* Per-stream memo, held by an {!Incremental} decoder. Every table has a
   fixed size, so a hostile stream cannot grow it:
   - [last] is the last string decoded for each text field (file,
     operation), checked first;
   - [interned] is direct-mapped by a hash of the bytes; a collision
     evicts, and fields longer than [intern_max_len] are never kept;
   - [threads] holds [Access.default_thread ~issuer] for small issuers.
   Sharing is safe because every value handed out is immutable. It also
   means the accesses a store keeps share their location strings. *)
type memo = {
  last : string array;
  interned : string array;
  threads : Access.thread_info option array;
}

let intern_slots = 256
let intern_max_len = 128
let thread_slots = 64

let create_memo () =
  {
    last = [| ""; "" |];
    interned = Array.make intern_slots "";
    threads = Array.make thread_slots None;
  }

(* [next] is where the next field starts; [a] and [b] bound the field
   last consumed: bytes [a, b), with [b] at a tab or the end of line. *)
type cursor = { line : string; len : int; mutable next : int; mutable a : int; mutable b : int }

let at_field_end c i = i >= c.len || String.unsafe_get c.line i = '\t'

let rec field_end c i = if at_field_end c i then i else field_end c (i + 1)

(* Where the next field starts; running past the last field means the
   line is too short for its record. *)
let start c =
  if c.next > c.len then raise Malformed;
  c.next

(* Consume the next field: the slow path of every parser below. The
   fast paths leave [c.next] alone until they succeed. *)
let advance c =
  c.a <- start c;
  c.b <- field_end c c.a;
  c.next <- c.b + 1

let span c = String.sub c.line c.a (c.b - c.a)

let is_digit ch = ch >= '0' && ch <= '9'

(* Value of the 1 to 18 decimal digits from [d] to the field's end,
   which is stored in [c.b]; -1 for anything else. 18 digits cannot
   overflow an OCaml int. *)
let rec int_digits c d i acc =
  if at_field_end c i then begin
    c.b <- i;
    if i > d then acc else -1
  end
  else
    let ch = String.unsafe_get c.line i in
    if is_digit ch && i - d < 18 then int_digits c d (i + 1) ((acc * 10) + Char.code ch - 48)
    else -1

(* Fast path: [-]digits. Anything else ("+5", "0x10", "1_000", 19
   digits, "") takes [int_of_string_opt], as the lone field would. *)
let int_at c =
  let i = start c in
  let neg = i < c.len && String.unsafe_get c.line i = '-' in
  let d = if neg then i + 1 else i in
  let v = int_digits c d d 0 in
  if v >= 0 then begin
    c.next <- c.b + 1;
    if neg then -v else v
  end
  else begin
    advance c;
    let s = span c in
    match int_of_string_opt s with Some v -> v | None -> raise (Bad_field ("bad int " ^ s))
  end

let opt_int_at c =
  let i = start c in
  if i < c.len && String.unsafe_get c.line i = '-' && at_field_end c (i + 1) then begin
    c.next <- i + 2;
    None
  end
  else Some (int_at c)

let bool_at c =
  let i = start c in
  if
    i < c.len
    && at_field_end c (i + 1)
    && (String.unsafe_get c.line i = '1' || String.unsafe_get c.line i = '0')
  then begin
    c.next <- i + 2;
    String.unsafe_get c.line i = '1'
  end
  else begin
    advance c;
    raise (Bad_field ("bad bool " ^ span c))
  end

let two53 = 1 lsl 53
let pow10 =
  [| 1.; 1e1; 1e2; 1e3; 1e4; 1e5; 1e6; 1e7; 1e8; 1e9; 1e10; 1e11; 1e12; 1e13; 1e14; 1e15 |]

(* Mantissa digits: the whole part up to '.' (its index goes to [c.a]),
   then the fraction up to the field's end (to [c.b]); -1 on any other
   byte or once the mantissa reaches 2^53. *)
let rec frac_digits c i m =
  if at_field_end c i then begin
    c.b <- i;
    m
  end
  else
    let ch = String.unsafe_get c.line i in
    if is_digit ch then
      let m = (m * 10) + Char.code ch - 48 in
      if m >= two53 then -1 else frac_digits c (i + 1) m
    else -1

let rec whole_digits c i m =
  if i >= c.len then -1
  else
    let ch = String.unsafe_get c.line i in
    if ch = '.' then begin
      c.a <- i;
      m
    end
    else if is_digit ch then
      let m = (m * 10) + Char.code ch - 48 in
      if m >= two53 then -1 else whole_digits c (i + 1) m
    else -1

(* [sim_time] is written with %.9f. For digits.digits with a mantissa
   m < 2^53 and k <= 15 fraction digits, m and 10^k are exact doubles,
   so the one correctly rounded division m /. 10^k is the correctly
   rounded decimal value, which is what strtod returns (Clinger's fast
   path). Anything else takes [float_of_string_opt]. *)
let float_at c =
  let i = start c in
  let whole = whole_digits c i 0 in
  let m = if whole >= 0 && c.a > i then frac_digits c (c.a + 1) whole else -1 in
  let k = c.b - c.a - 1 in
  if m >= 0 && k >= 1 && k <= 15 then begin
    c.next <- c.b + 1;
    float_of_int m /. Array.unsafe_get pow10 k
  end
  else begin
    advance c;
    let s = span c in
    match float_of_string_opt s with Some f -> f | None -> raise (Bad_field ("bad float " ^ s))
  end

let kind_at c =
  let i = start c in
  let kind =
    if i + 1 < c.len && at_field_end c (i + 2) then
      match (String.unsafe_get c.line i, String.unsafe_get c.line (i + 1)) with
      | 'L', 'R' -> Some Access_kind.Local_read
      | 'L', 'W' -> Some Access_kind.Local_write
      | 'R', 'R' -> Some Access_kind.Rma_read
      | 'R', 'W' -> Some Access_kind.Rma_write
      | 'R', 'A' -> Some Access_kind.Rma_accumulate
      | _ -> None
    else None
  in
  match kind with
  | Some k ->
      c.next <- i + 3;
      k
  | None ->
      advance c;
      raise (Bad_field (Printf.sprintf "unknown access kind %S" (span c)))

let rec has_percent line i stop =
  i < stop && (String.unsafe_get line i = '%' || has_percent line (i + 1) stop)

let rec same_bytes line off s i n =
  i >= n
  || (String.unsafe_get line (off + i) = String.unsafe_get s i && same_bytes line off s (i + 1) n)

(* Whether the field at [a] is exactly [s] (which holds no tab). *)
let field_is c a s =
  let n = String.length s in
  a + n <= c.len && same_bytes c.line a s 0 n && at_field_end c (a + n)

let rec fnv line i stop h =
  if i >= stop then h
  else fnv line (i + 1) stop ((h lxor Char.code (String.unsafe_get line i)) * 0x01000193)

let intern m line a b =
  let n = b - a in
  if n > intern_max_len then String.sub line a n
  else
    let h = fnv line a b 0x811c9dc5 in
    let slot = (h lxor (h lsr 17)) land (intern_slots - 1) in
    let cached = Array.unsafe_get m.interned slot in
    if String.length cached = n && same_bytes line a cached 0 n then cached
    else begin
      let s = String.sub line a n in
      m.interned.(slot) <- s;
      s
    end

(* A percent-free field unescapes to itself, so it can be shared: first
   with the last string of the same field (stored only from a
   percent-free field), then through the intern table. Decoding text is
   total, so it may run before the fields that follow it. *)
let text_at memo ~field c =
  let i = start c in
  match memo with
  | Some m when field_is c i m.last.(field) ->
      c.next <- i + String.length m.last.(field) + 1;
      m.last.(field)
  | _ -> (
      advance c;
      if has_percent c.line c.a c.b then unescape (span c)
      else
        match memo with
        | None -> span c
        | Some m ->
            let s = intern m c.line c.a c.b in
            m.last.(field) <- s;
            s)

let default_thread memo issuer =
  match memo with
  | Some m when issuer >= 0 && issuer < thread_slots -> (
      match Array.unsafe_get m.threads issuer with
      | Some th -> th
      | None ->
          let th = Access.default_thread ~issuer in
          m.threads.(issuer) <- Some th;
          th)
  | _ -> Access.default_thread ~issuer

let tview_field s =
  let pair p =
    match String.split_on_char ':' p with
    | [ c; v ] -> (
        match (int_of_string_opt c, int_of_string_opt v) with
        | Some c, Some v -> (c, v)
        | _ -> raise (Bad_field ("bad thread-view pair " ^ p)))
    | _ -> raise (Bad_field ("bad thread-view pair " ^ p))
  in
  if s = "" then [] else List.map pair (String.split_on_char ',' s)

let rec count_tabs line i len n =
  if i >= len then n
  else count_tabs line (i + 1) len (if String.unsafe_get line i = '\t' then n + 1 else n)

(* The last field must end the line. *)
let finish c = if c.next <> c.len + 1 then raise Malformed

(* Fields are parsed in record order and the first bad one names the
   error. The interval check and the thread fields follow the 14 fixed
   fields, as they always have. *)
let decode_access memo c =
  let space = int_at c in
  let kind = kind_at c in
  let lo = int_at c in
  let hi = int_at c in
  let issuer = int_at c in
  let seq = int_at c in
  let win = opt_int_at c in
  let relevant = bool_at c in
  let on_stack = bool_at c in
  let sim_time = float_at c in
  let file = text_at memo ~field:0 c in
  let line_number = int_at c in
  let operation = text_at memo ~field:1 c in
  if lo > hi then
    raise
      (Bad_field
         (Printf.sprintf "inverted interval [%s...%s]" (string_of_int lo) (string_of_int hi)));
  let debug = Debug_info.make ~file ~line:line_number ~operation in
  let thread =
    if c.next > c.len then default_thread memo issuer
    else if count_tabs c.line c.next c.len 0 = 2 then begin
      let tid = int_at c in
      let tstamp = int_at c in
      advance c;
      let tview = tview_field (span c) in
      { Access.tid; tstamp; tview }
    end
    else raise (Bad_field "malformed thread fields on access record")
  in
  let access =
    Access.make_threaded ~thread ~interval:(Interval.make ~lo ~hi) ~kind ~issuer ~seq ~debug
  in
  Event.Access { Event.space; access; win; relevant; on_stack; sim_time }

let collective_at c =
  advance c;
  let is lit = c.b - c.a = String.length lit && same_bytes c.line c.a lit 0 (String.length lit) in
  if is "barrier" then Event.Barrier
  else if is "allreduce" then Event.Allreduce
  else if is "fence" then Event.Fence
  else raise (Bad_field ("unknown collective " ^ span c))

let decode_record memo c =
  let tag =
    if c.len >= 2 && String.unsafe_get c.line 1 = '\t' then String.unsafe_get c.line 0 else '?'
  in
  let ev =
    match tag with
    | 'A' -> decode_access memo c
    | 'C' ->
        let kind = collective_at c in
        let rank = int_at c in
        let sim_time = float_at c in
        Event.Collective { kind; rank; sim_time }
    | 'W' ->
        let win = int_at c in
        let rank = int_at c in
        let base = int_at c in
        let size = int_at c in
        let sim_time = float_at c in
        Event.Win_created { win; rank; base; size; sim_time }
    | 'X' ->
        let win = int_at c in
        let rank = int_at c in
        let sim_time = float_at c in
        Event.Win_freed { win; rank; sim_time }
    | 'O' ->
        let win = int_at c in
        let rank = int_at c in
        let sim_time = float_at c in
        Event.Epoch_opened { win; rank; sim_time }
    | 'E' ->
        let win = int_at c in
        let rank = int_at c in
        let sim_time = float_at c in
        Event.Epoch_closed { win; rank; sim_time }
    | 'L' ->
        let win = int_at c in
        let rank = int_at c in
        let target = opt_int_at c in
        let sim_time = float_at c in
        Event.Flushed { win; rank; target; sim_time }
    | 'Z' ->
        let rank = int_at c in
        let sim_time = float_at c in
        Event.Finished { rank; sim_time }
    | _ -> raise Malformed
  in
  finish c;
  ev

(* Whether the record tag and field count name a record shape. *)
let well_formed line =
  let fields = count_tabs line 0 (String.length line) 0 + 1 in
  String.length line >= 2
  && line.[1] = '\t'
  &&
  match line.[0] with
  | 'A' -> fields >= 14
  | 'C' | 'X' | 'O' | 'E' -> fields = 4
  | 'W' -> fields = 6
  | 'L' -> fields = 5
  | 'Z' -> fields = 3
  | _ -> false

(* The shape decides first: a line of the wrong arity is "malformed"
   whatever its fields hold. So a field error raised before the cursor
   reached the end is reported only once the whole line is known to
   have the right shape. *)
let decode_fields memo line =
  let c = { line; len = String.length line; next = 2; a = 0; b = 0 } in
  match decode_record memo c with
  | ev -> ev
  | exception Malformed -> raise (Bad_field (Printf.sprintf "malformed trace line %S" line))
  | exception e ->
      if well_formed line then raise e
      else raise (Bad_field (Printf.sprintf "malformed trace line %S" line))

(* "Never raises" is a contract the fuzz suite enforces against
   arbitrary bytes. The grammar is total over OCaml strings, but one
   value constructor can still throw ([Access.default_thread] rejects a
   negative issuer), so any exception becomes an [Error]. *)
let reason_of_exn = function
  | Bad_field reason -> reason
  | e -> Printf.sprintf "decode failure: %s" (Printexc.to_string e)

let decode memo line =
  match decode_fields memo line with e -> Ok e | exception e -> Error (reason_of_exn e)

let decode_event line = decode None line

(* Mutate one encoded line the way a flaky link or disk would: flip the
   low bit of the middle byte. Tab-separated printable bytes stay in
   the printable range, so the corruption never forges a line break —
   it yields a malformed field (or, rarely, a silently different valid
   one, which is exactly why framed traces still deserve checksums
   upstream). *)
let corrupt_line line =
  if line = "" then line
  else begin
    let b = Bytes.of_string line in
    let i = Bytes.length b / 2 in
    Bytes.set b i (Char.chr (Char.code (Bytes.get b i) lxor 1));
    Bytes.to_string b
  end

let write_all ?fault oc events =
  output_string oc header;
  output_char oc '\n';
  let fire site = match fault with Some inj -> Rma_fault.fire inj site | None -> false in
  let truncated = ref false in
  let written = ref 0 in
  List.iter
    (fun e ->
      if not !truncated then begin
        let line = encode_event e in
        if fire Rma_fault.Trace_truncate then begin
          (* Cut mid-line: half the bytes land, the newline and the
             footer never do. *)
          truncated := true;
          output_string oc (String.sub line 0 (String.length line / 2))
        end
        else begin
          let line = if fire Rma_fault.Trace_corrupt then corrupt_line line else line in
          output_string oc line;
          output_char oc '\n';
          incr written
        end
      end)
    events;
  if not !truncated then begin
    output_string oc (footer !written);
    output_char oc '\n'
  end

let parse_footer line =
  match String.split_on_char ' ' line with
  | [ p; n ] when p = footer_prefix -> int_of_string_opt n
  | _ -> None

module Incremental = struct
  type phase = Awaiting_header | Streaming | Finished of int

  type t = {
    mutable phase : phase;
    mutable framed : bool;
    mutable lineno : int;  (* 1-based line number of the next [feed]. *)
    mutable count : int;
    memo : memo option;
  }

  type step = Event of Event.event | Skip | Complete of int

  let create () =
    { phase = Awaiting_header; framed = false; lineno = 1; count = 0; memo = Some (create_memo ()) }

  let events_seen t = t.count
  let complete t = match t.phase with Finished _ -> true | _ -> false

  let feed t line =
    let here = t.lineno in
    t.lineno <- here + 1;
    match t.phase with
    | Finished _ ->
        (* A complete frame ends the stream: trailing bytes after the
           footer are ignored. *)
        Ok Skip
    | Awaiting_header ->
        if line = header || line = legacy_header then begin
          t.framed <- line = header;
          t.phase <- Streaming;
          Ok Skip
        end
        else Error { at_line = here; reason = Printf.sprintf "bad header %S" line }
    | Streaming ->
        if String.trim line = "" then Ok Skip
        else if t.framed && String.starts_with ~prefix:footer_prefix line then
          match parse_footer line with
          | Some n when n = t.count ->
              t.phase <- Finished n;
              Ok (Complete n)
          | Some n ->
              Error
                {
                  at_line = here;
                  reason =
                    Printf.sprintf "footer count %d disagrees with %d decoded events" n t.count;
                }
          | None -> Error { at_line = here; reason = "malformed rma-trace-end footer" }
        else
          match decode_fields t.memo line with
          | e ->
              t.count <- t.count + 1;
              Ok (Event e)
          | exception e -> Error { at_line = here; reason = reason_of_exn e }

  let finish t =
    match t.phase with
    | Finished n -> Ok n
    | Awaiting_header -> Error { at_line = 1; reason = "empty trace" }
    | Streaming ->
        if t.framed then
          Error { at_line = t.lineno; reason = "truncated trace: missing rma-trace-end footer" }
        else begin
          (* Legacy (format-1) streams have no footer: EOF is the frame. *)
          t.phase <- Finished t.count;
          Ok t.count
        end
end

(* The file reader is the push decoder driven by [input_line], so
   [analyze], [Recorder.load] and the serve daemon share one framing
   path: it stops at the footer and reports EOF through [finish]. *)
let read_all ic =
  let dec = Incremental.create () in
  let rec go acc =
    match input_line ic with
    | exception End_of_file -> Result.map (fun _ -> List.rev acc) (Incremental.finish dec)
    | line -> (
        match Incremental.feed dec line with
        | Ok (Incremental.Event e) -> go (e :: acc)
        | Ok Incremental.Skip -> go acc
        | Ok (Incremental.Complete _) -> Ok (List.rev acc)
        | Error _ as err -> err)
  in
  match go [] with
  | Ok _ as ok -> ok
  | Error e as err ->
      (* A rejected trace is an operational incident (corrupted file,
         interrupted writer), not just a return value: journal it. *)
      Rma_obs.Events.emit
        ~kv:
          [ ("event", "read_error"); ("at_line", string_of_int e.at_line); ("reason", e.reason) ]
        Rma_obs.Events.Error "codec";
      err
