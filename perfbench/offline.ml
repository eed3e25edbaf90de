(* Traces, their reference verdicts, and the in-process passes over them:
   the streaming decode-and-analyse replay and the store-only pass. *)

open Rma_access
module Event = Mpi_sim.Event
module Tool = Rma_analysis.Tool
module Toolbox = Rma_analysis.Toolbox
module Report = Rma_analysis.Report
module Codec = Rma_trace.Codec
module Recorder = Rma_trace.Recorder
module Ds = Rma_store.Disjoint_store
module Si = Rma_store.Store_intf
open Measure

(* Measured observer wall time is not charged to the simulated clocks,
   so the schedule, the event stream and the verdicts depend on the seed
   alone and never on how fast the detector happened to run. *)
let sim_config = { Mpi_sim.Config.default with Mpi_sim.Config.analysis_overhead_scale = 0.0 }

(* Every knob that would otherwise fall back to a process-wide default
   read from the environment is pinned here. The detector's own config
   only prices its protocol messages, so the default serves online and
   offline runs alike, as it does for [rma_race analyze]. *)
let tool kind ~nprocs ~jobs =
  Toolbox.make kind ~nprocs ~jobs ~batch_inserts:false ~predictive:false ()

(* The offline [analyze] digest: reports renumbered to stream order. *)
let digest_of reports =
  reports
  |> List.mapi (fun i r ->
         { r with Report.provenance = { r.Report.provenance with Report.id = i + 1 } })
  |> Rma_report.Race_export.verdict_digest

let empty_digest = digest_of []

type trace = {
  nprocs : int;
  events : int;
  text : string;  (** Codec format-2 stream, one newline-terminated line per event. *)
  digest : string;  (** Reference verdict: offline jobs-1 [Recorder.replay]. *)
  races : int;
  bst : Tool.bst_summary;  (** Reference store work of the same replay. *)
}

let encode events =
  let b = Buffer.create (96 * (List.length events + 2)) in
  let line s =
    Buffer.add_string b s;
    Buffer.add_char b '\n'
  in
  line Codec.header;
  List.iter (fun e -> line (Codec.encode_event e)) events;
  line (Codec.footer (List.length events));
  Buffer.contents b

(* Only the encoded stream is kept: passes decode it, so the process holds
   the trace as the serve daemon would receive it. *)
let make_trace ~nprocs events =
  let t = tool Toolbox.Contribution ~nprocs ~jobs:1 in
  let digest = digest_of (Recorder.replay events ~tool:t) in
  {
    nprocs;
    events = List.length events;
    text = encode events;
    digest;
    races = t.Tool.race_count ();
    bst = t.Tool.bst_summary ();
  }

let lines tr = tr.events + 2

(* Record [run] with the Contribution detector attached, so the trace is
   exactly the stream an online run analyses, and check that its offline
   replay reproduces the online verdict and store work. *)
let record ~nprocs run =
  let online = tool Toolbox.Contribution ~nprocs ~jobs:1 in
  let r = Recorder.create () in
  run ~observer:(Recorder.tee r online.Tool.observer);
  let tr = make_trace ~nprocs (Recorder.events r) in
  if digest_of (online.Tool.races ()) <> tr.digest || online.Tool.bst_summary () <> tr.bst then
    failwith "offline replay of the recorded trace disagrees with the online run";
  tr

(* ---- Per-layer probes of the traced passes ---- *)

type probe = {
  decode : timer;  (** Line splitting and [Codec.Incremental.feed]. *)
  access : timer;  (** [Tool.observer] on access events. *)
  sync : timer;  (** [Tool.observer] on every other event, plus [Tool.races]. *)
}

let probe () = { decode = timer (); access = timer (); sync = timer () }
let observer_s p = busy p.access +. busy p.sync

(* Wrap an observer so each call is charged to [p]. *)
let traced_observer p (observer : Event.observer) : Event.observer =
 fun e ->
  let t0 = now () in
  let cost = observer e in
  let dt = now () -. t0 in
  (match e with Event.Access _ -> charge p.access dt | _ -> charge p.sync dt);
  cost

let verdict ?probe (t : Tool.t) =
  match probe with
  | None -> digest_of (t.Tool.races ())
  | Some p ->
      let t0 = now () in
      let races = t.Tool.races () in
      charge p.sync (now () -. t0);
      digest_of races

(* Split the Codec stream into lines, decode each with
   [Codec.Incremental] and hand the event straight to [f], as the serve
   daemon does; under [probe] the decoding is timed. *)
let decode ?probe text f =
  let dec = Codec.Incremental.create () in
  let len = String.length text in
  let fail e = failwith ("trace decode: " ^ Codec.error_to_string e) in
  let pos = ref 0 in
  while !pos < len do
    let t0 = match probe with None -> 0.0 | Some _ -> now () in
    let nl = String.index_from text !pos '\n' in
    let step = Codec.Incremental.feed dec (String.sub text !pos (nl - !pos)) in
    pos := nl + 1;
    (match probe with Some p -> charge p.decode (now () -. t0) | None -> ());
    match step with
    | Ok (Codec.Incremental.Event e) -> f e
    | Ok (Codec.Incremental.Skip | Codec.Incremental.Complete _) -> ()
    | Error e -> fail e
  done;
  match Codec.Incremental.finish dec with Ok _ -> () | Error e -> fail e

(* Trace text in, verdict out. Returns the verdict digest. *)
let replay ?probe text (t : Tool.t) =
  t.Tool.reset ();
  let observer =
    match probe with None -> t.Tool.observer | Some p -> traced_observer p t.Tool.observer
  in
  decode ?probe text (fun e -> ignore (observer e));
  verdict ?probe t

(* ---- Store-only pass ---- *)

type store_work = {
  insert : timer;
  inserts : int;
  fragments : int;
  merges : int;
  nodes_peak : int;
  tree_ops : int;
  race_checks : int;
  finger_hits : int;
  store_races : int;
}

(* Replays the trace's relevant accesses straight into one
   [Disjoint_store] per (space, window), routed as the analyzer routes
   them: RMA accesses to their window, local ones to the open epochs of
   their rank; [note_epoch] at [Epoch_opened], [clear] once every rank
   has closed the window. *)
let store_pass tr =
  let trees = Hashtbl.create 16 and closers = Hashtbl.create 4 in
  let tree key =
    match Hashtbl.find_opt trees key with
    | Some t -> t
    | None ->
        let t = (Ds.create ~batch:false (), ref false) in
        Hashtbl.replace trees key t;
        t
  in
  let insert_t = timer () and races = ref 0 in
  let insert key access =
    let store, _ = tree key in
    let t0 = now () in
    let outcome = Ds.insert store access in
    charge insert_t (now () -. t0);
    match outcome with Si.Inserted -> () | Si.Race_detected _ -> incr races
  in
  let on_event = function
    | Event.Access a when a.Event.relevant -> (
        let access = a.Event.access in
        match a.Event.win with
        | Some w when Access_kind.is_rma access.Access.kind -> insert (a.Event.space, w) access
        | _ when Access_kind.is_rma access.Access.kind -> ()
        | Some w -> (
            match Hashtbl.find_opt trees (a.Event.space, w) with
            | Some (_, opened) when !opened -> insert (a.Event.space, w) access
            | _ -> ())
        | None ->
            Hashtbl.fold
              (fun (sp, w) (_, opened) acc ->
                if sp = a.Event.space && !opened then (sp, w) :: acc else acc)
              trees []
            |> List.iter (fun key -> insert key access))
    | Event.Epoch_opened { win; rank; _ } ->
        let store, opened = tree (rank, win) in
        opened := true;
        Ds.note_epoch store
    | Event.Epoch_closed { win; rank; _ } ->
        let _, opened = tree (rank, win) in
        opened := false;
        let set =
          match Hashtbl.find_opt closers win with
          | Some s -> s
          | None ->
              let s = Hashtbl.create tr.nprocs in
              Hashtbl.replace closers win s;
              s
        in
        Hashtbl.replace set rank ();
        if Hashtbl.length set >= tr.nprocs then begin
          Hashtbl.remove closers win;
          Hashtbl.iter (fun (_, w) (store, _) -> if w = win then Ds.clear store) trees
        end
    | _ -> ()
  in
  decode tr.text on_event;
  Hashtbl.fold
    (fun _ (store, _) w ->
      let s = Ds.stats store in
      {
        w with
        inserts = w.inserts + s.Si.inserts;
        fragments = w.fragments + s.Si.fragments_created;
        merges = w.merges + s.Si.merges_performed;
        nodes_peak = w.nodes_peak + s.Si.peak_nodes;
        tree_ops = w.tree_ops + s.Si.tree_ops;
        race_checks = w.race_checks + s.Si.race_checks;
        finger_hits = w.finger_hits + (Ds.fast_path_stats store).Ds.finger_hits;
      })
    trees
    {
      insert = insert_t;
      inserts = 0;
      fragments = 0;
      merges = 0;
      nodes_peak = 0;
      tree_ops = 0;
      race_checks = 0;
      finger_hits = 0;
      store_races = !races;
    }

(* The store-only pass stands for the detector's store work only when it
   did exactly that work. *)
let store_matches tr w =
  w.inserts = tr.bst.Tool.inserts_total
  && w.fragments = tr.bst.Tool.fragments_total
  && w.merges = tr.bst.Tool.merges_total
  && w.nodes_peak = tr.bst.Tool.nodes_peak_total
  && w.store_races = tr.races
