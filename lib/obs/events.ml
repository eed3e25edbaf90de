module Json = Rma_util.Json
module Timer = Rma_util.Timer

type level = Debug | Info | Warn | Error

let level_to_string = function
  | Debug -> "debug"
  | Info -> "info"
  | Warn -> "warn"
  | Error -> "error"

let level_of_string s =
  match String.lowercase_ascii s with
  | "debug" -> Some Debug
  | "info" -> Some Info
  | "warn" | "warning" -> Some Warn
  | "error" -> Some Error
  | _ -> None

let severity = function Debug -> 0 | Info -> 1 | Warn -> 2 | Error -> 3

type t = {
  ts : float;
  level : level;
  component : string;
  run_id : string;
  shard : int;
  span_id : int;
  kv : (string * string) list;
}

(* One mutex serialises everything below: worker domains emit
   concurrently (crash/recovery events come from inside Rma_par worker
   loops) and the telemetry server reads the ring from its own domain. *)
let mu = Mutex.create ()

let min_level = ref Info
let sink : out_channel option ref = ref None
let sink_path = ref ""
let ring_cap = ref 4096
let ring : t option array ref = ref (Array.make 4096 None)
let ring_len = ref 0
let ring_next = ref 0
let run_id_ref = ref ""
let emitted = Atomic.make 0

(* Shard identity is domain-local: worker domains stamp it once per
   spawn (Rma_par), so Governor degradation fired from inside a worker
   lands on the right shard without threading ids through the stores. *)
let shard_key = Domain.DLS.new_key (fun () -> -1)
let set_current_shard s = Domain.DLS.set shard_key s
let current_shard () = Domain.DLS.get shard_key

let set_level l = min_level := l
let level () = !min_level

let locked f =
  Mutex.lock mu;
  match f () with
  | v ->
      Mutex.unlock mu;
      v
  | exception e ->
      Mutex.unlock mu;
      raise e

let set_run_id id = locked (fun () -> run_id_ref := id)

let with_run_id id f =
  let saved = locked (fun () -> !run_id_ref) in
  locked (fun () -> run_id_ref := id);
  Fun.protect ~finally:(fun () -> locked (fun () -> run_id_ref := saved)) f

let run_id_locked () =
  if !run_id_ref = "" then
    run_id_ref :=
      Printf.sprintf "run-%d-%04x" (Unix.getpid ())
        (int_of_float (Unix.gettimeofday () *. 1000.0) land 0xffff);
  !run_id_ref

let run_id () = locked run_id_locked

let close_sink_locked () =
  (match !sink with Some oc -> close_out_noerr oc | None -> ());
  sink := None;
  sink_path := ""

let close () = locked close_sink_locked

let set_sink path =
  locked (fun () ->
      close_sink_locked ();
      sink := Some (open_out path);
      sink_path := path)

let sink_file () = locked (fun () -> if !sink = None then None else Some !sink_path)

let set_ring_cap n =
  let n = max 1 n in
  locked (fun () ->
      ring_cap := n;
      ring := Array.make n None;
      ring_len := 0;
      ring_next := 0)

let clear () =
  locked (fun () ->
      Array.fill !ring 0 (Array.length !ring) None;
      ring_len := 0;
      ring_next := 0;
      Atomic.set emitted 0)

let emitted_total () = Atomic.get emitted

(* Field order is part of the journal contract (golden tests diff raw
   lines): ts, level, component, run_id, shard, span_id, kv. *)
let to_json ev =
  Json.Obj
    [
      ("ts", Json.Float ev.ts);
      ("level", Json.String (level_to_string ev.level));
      ("component", Json.String ev.component);
      ("run_id", Json.String ev.run_id);
      ("shard", Json.Int ev.shard);
      ("span_id", Json.Int ev.span_id);
      ("kv", Json.Obj (List.map (fun (k, v) -> (k, Json.String v)) ev.kv));
    ]

let line ev = Json.to_string ~minify:true (to_json ev)

let push_ring_locked ev =
  let a = !ring in
  a.(!ring_next) <- Some ev;
  ring_next := (!ring_next + 1) mod Array.length a;
  if !ring_len < Array.length a then ring_len := !ring_len + 1

let emit ?shard ?(span_id = 0) ?(kv = []) lvl component =
  if Obs.is_enabled () && severity lvl >= severity !min_level then begin
    let ts = Obs.rel_time (Timer.now ()) in
    let shard = match shard with Some s -> s | None -> current_shard () in
    Atomic.incr emitted;
    locked (fun () ->
        let ev = { ts; level = lvl; component; run_id = run_id_locked (); shard; span_id; kv } in
        match !sink with
        | Some oc ->
            output_string oc (line ev);
            output_char oc '\n';
            flush oc
        | None -> push_ring_locked ev)
  end

let recent () =
  locked (fun () ->
      let a = !ring and n = !ring_len in
      let start = (!ring_next - n + Array.length a) mod Array.length a in
      List.init n (fun i ->
          match a.((start + i) mod Array.length a) with
          | Some ev -> ev
          | None -> assert false))
