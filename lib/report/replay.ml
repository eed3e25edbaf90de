module Events = Rma_obs.Events
module Obs = Rma_obs.Obs
module Journal = Rma_obs.Journal
module Tool = Rma_analysis.Tool
module Toolbox = Rma_analysis.Toolbox
module Run_config = Rma_analysis.Run_config

type crash = { c_site : string; c_ordinal : int; c_seed : int }

type plan = {
  r_run_id : string;
  r_workload : string;
  r_params : (string * string) list;
  r_jobs : int;
  r_fault : string option;
  r_budget : string option;
  r_predictive : bool;
  r_crashes : crash list;
  r_races : int option;
  r_digest : string option;
}

let ( let* ) = Result.bind
let kv_find k e = List.assoc_opt k e.Events.kv
let is_event name e = kv_find "event" e = Some name

(* A crash record missing its coordinates (hand-edited journal) is
   dropped rather than invented: the sequence comparison will then fail
   loudly instead of matching against a guess. *)
let crashes_of_events events =
  List.filter_map
    (fun e ->
      if is_event "worker_crash" e then
        match (kv_find "site" e, Option.bind (kv_find "ordinal" e) int_of_string_opt) with
        | Some site, Some ord ->
            let seed =
              Option.value ~default:0 (Option.bind (kv_find "seed" e) int_of_string_opt)
            in
            Some { c_site = site; c_ordinal = ord; c_seed = seed }
        | _ -> None
      else None)
    events

let extract events =
  match List.find_opt (fun e -> e.Events.component = "diag" && is_event "run_start" e) events with
  | None ->
      Error
        "journal has no run_start record — not a diagnosed single-workload run, or truncated \
         before the header landed"
  | Some start -> (
      let reserved = [ "event"; "workload"; "jobs"; "fault"; "budget"; "predictive" ] in
      match kv_find "workload" start with
      | None -> Error "run_start record lacks a workload name"
      | Some workload ->
          let summary =
            List.find_opt (fun e -> e.Events.component = "diag" && is_event "run_summary" e) events
          in
          Ok
            {
              r_run_id = start.Events.run_id;
              r_workload = workload;
              r_params =
                List.filter (fun (k, _) -> not (List.mem k reserved)) start.Events.kv;
              r_jobs =
                Option.value ~default:1 (Option.bind (kv_find "jobs" start) int_of_string_opt);
              r_fault = kv_find "fault" start;
              r_budget = kv_find "budget" start;
              r_predictive = kv_find "predictive" start = Some "true";
              r_crashes = crashes_of_events events;
              r_races = Option.bind summary (fun e -> Option.bind (kv_find "races" e) int_of_string_opt);
              r_digest = Option.bind summary (kv_find "digest");
            })

let describe p =
  let plural n = if n = 1 then "" else "es" in
  Printf.sprintf
    "replay of run %s: workload %s%s, jobs %d, fault %s, budget %s%s\noriginal run: %d worker \
     crash%s, %s\n"
    p.r_run_id p.r_workload
    (match p.r_params with
    | [] -> ""
    | ps -> " (" ^ String.concat ", " (List.map (fun (k, v) -> k ^ "=" ^ v) ps) ^ ")")
    p.r_jobs
    (Option.value ~default:"none" p.r_fault)
    (Option.value ~default:"none" p.r_budget)
    (if p.r_predictive then ", predictive" else "")
    (List.length p.r_crashes)
    (plural (List.length p.r_crashes))
    (match (p.r_races, p.r_digest) with
    | Some n, Some d -> Printf.sprintf "%d race report%s, digest %s" n (if n = 1 then "" else "s") d
    | _ -> "no run_summary (the run did not finish)")

type outcome = {
  o_races : int;
  o_digest : string;
  o_crashes : crash list;
  o_digest_match : bool option;
  o_crash_match : bool;
}

(* Mirror of the CLI's tool construction: every diagnosed workload run
   is built from the same base config (overhead scale 2.0, Figure 10's
   operating point), with self-timing on when the analyzer shards. *)
let build_thunk p run =
  let param k = List.assoc_opt k p.r_params in
  let int_param k ~default =
    match param k with
    | None -> Ok default
    | Some s -> (
        match int_of_string_opt s with
        | Some v -> Ok v
        | None -> Error (Printf.sprintf "run_start parameter %s=%S is not an integer" k s))
  in
  let* tool_kind =
    match param "tool" with
    | None -> Ok Toolbox.Contribution
    | Some s -> (
        match Toolbox.of_slug s with
        | Some k -> Ok k
        | None -> Error (Printf.sprintf "run_start names unknown tool %S" s))
  in
  let config =
    Run_config.sim_config run
      { Mpi_sim.Config.default with Mpi_sim.Config.analysis_overhead_scale = 2.0 }
  in
  let make_tool ~nprocs = Run_config.tool run tool_kind ~nprocs ~config () in
  let observer tool =
    match tool_kind with Toolbox.Baseline -> None | _ -> Some tool.Tool.observer
  in
  match p.r_workload with
  | "cfd" ->
      let* nprocs = int_param "ranks" ~default:12 in
      let* seed = int_param "seed" ~default:42 in
      let* iterations = int_param "iterations" ~default:50 in
      let* cells = int_param "cells" ~default:432 in
      Ok
        (fun () ->
          let params =
            { Cfd_proxy.Halo.default_params with Cfd_proxy.Halo.iterations; cells_per_chunk = cells }
          in
          let tool = make_tool ~nprocs in
          let _ = Cfd_proxy.Halo.run params ~nprocs ~seed ~config ?observer:(observer tool) () in
          tool.Tool.races ())
  | "minivite" ->
      let* nprocs = int_param "ranks" ~default:32 in
      let* seed = int_param "seed" ~default:42 in
      let* vertices = int_param "vertices" ~default:64_000 in
      let inject = param "inject" = Some "true" in
      Ok
        (fun () ->
          let params =
            {
              Minivite.Louvain.default_params with
              Minivite.Louvain.graph =
                { Minivite.Graph.default_params with Minivite.Graph.n_vertices = vertices };
              inject_race = inject;
            }
          in
          let tool = make_tool ~nprocs in
          let _ = Minivite.Louvain.run params ~nprocs ~seed ~config ?observer:(observer tool) () in
          tool.Tool.races ())
  | "bfs" ->
      let* nprocs = int_param "ranks" ~default:16 in
      let* seed = int_param "seed" ~default:42 in
      let* vertices = int_param "vertices" ~default:20_000 in
      Ok
        (fun () ->
          let params =
            {
              Graph500.Bfs.default_params with
              Graph500.Bfs.graph =
                { Minivite.Graph.default_params with Minivite.Graph.n_vertices = vertices };
            }
          in
          let tool = make_tool ~nprocs in
          let _ = Graph500.Bfs.run params ~nprocs ~seed ~config ?observer:(observer tool) () in
          tool.Tool.races ())
  | "code" -> (
      match param "code" with
      | None -> Error "run_start for a code workload lacks its code parameter"
      | Some name -> (
          match Rma_microbench.Scenario.find name with
          | None -> Error (Printf.sprintf "run_start names unknown microbenchmark %S" name)
          | Some scenario ->
              Ok
                (fun () ->
                  let tool = make_tool ~nprocs:3 in
                  (Rma_microbench.Runner.run ~tool scenario).Rma_microbench.Runner.reports)))
  | other ->
      Error
        (Printf.sprintf "workload %S is not replayable (replay covers cfd, minivite, bfs and code)"
           other)

(* Same renumbering [Diag.with_diag] applies before digesting, so the
   replay digest is computed over identically-labelled reports. *)
let renumber reports =
  List.mapi
    (fun i r ->
      let module Report = Rma_analysis.Report in
      { r with Report.provenance = { r.Report.provenance with Report.id = i + 1 } })
    reports

let coordinates crashes = List.map (fun c -> (c.c_site, c.c_ordinal)) crashes

let run p =
  let* fault =
    match p.r_fault with
    | None -> Ok None
    | Some spec -> (
        match Rma_fault.Plan.of_spec spec with
        | Ok pl -> Ok (Some pl)
        | Error msg -> Error (Printf.sprintf "journaled fault spec %S: %s" spec msg))
  in
  let* budget =
    match p.r_budget with
    | None -> Ok None
    | Some spec -> (
        match Rma_fault.Budget.of_spec spec with
        | Ok b -> Ok (Some b)
        | Error msg -> Error (Printf.sprintf "journaled budget spec %S: %s" spec msg))
  in
  let* thunk =
    build_thunk p (Run_config.make ~jobs:p.r_jobs ~predictive:p.r_predictive ?budget ?fault ())
  in
  (* The re-run journals to a throwaway sink so its crash coordinates
     can be read back with the same reader the analytics use. The Obs
     and journal state touched here is process-global and restored on
     the way out; an already-open journal sink is closed (not truncated
     by re-opening), so replay and [--obs-events] do not compose in one
     process. *)
  let prev_level = Events.level () in
  let was_enabled = Obs.is_enabled () in
  let tmp = Filename.temp_file "rma_replay" ".jsonl" in
  let restore () =
    Events.close ();
    Events.set_level prev_level;
    if not was_enabled then Obs.disable ();
    try Sys.remove tmp with Sys_error _ -> ()
  in
  Fun.protect ~finally:restore (fun () ->
      Obs.enable ();
      Events.set_level Events.Info;
      Events.set_sink tmp;
      let reports = renumber (thunk ()) in
      Events.close ();
      let crashes = crashes_of_events (Journal.read_file tmp).Journal.events in
      let digest = Race_export.verdict_digest reports in
      Ok
        {
          o_races = List.length reports;
          o_digest = digest;
          o_crashes = crashes;
          o_digest_match = Option.map (String.equal digest) p.r_digest;
          o_crash_match = coordinates crashes = coordinates p.r_crashes;
        })

let verdict _p o =
  o.o_crash_match && match o.o_digest_match with Some ok -> ok | None -> true

let render p o =
  let b = Buffer.create 512 in
  Buffer.add_string b (describe p);
  Printf.bprintf b "re-run: %d race report%s, digest %s\n" o.o_races
    (if o.o_races = 1 then "" else "s")
    o.o_digest;
  Printf.bprintf b "crashes: %s (%d replayed vs %d journaled)\n"
    (if o.o_crash_match then "match" else "MISMATCH")
    (List.length o.o_crashes) (List.length p.r_crashes);
  (match o.o_digest_match with
  | Some true -> Printf.bprintf b "verdicts: byte-identical\n"
  | Some false ->
      Printf.bprintf b "verdicts: MISMATCH — journal recorded %s\n"
        (Option.value ~default:"?" p.r_digest)
  | None -> Printf.bprintf b "verdicts: original run recorded no run_summary; nothing to compare\n");
  Buffer.add_string b (if verdict p o then "REPLAY OK\n" else "REPLAY MISMATCH\n");
  Buffer.contents b
