(* Wall-clock benchmark: four seeded workloads, each from trace (or
   program) in to verdict digest out. A run with --trace 0 reports the
   end-to-end metrics from untraced passes; a run with --trace 1 reports
   the per-layer ledger from traced passes, timed around calls into each
   module's public functions from here. README.md lists what every
   metric means on every workload. *)

open Measure
module Tool = Rma_analysis.Tool
module Toolbox = Rma_analysis.Toolbox
module Kernel = Rma_microbench.Scenario.Kernel
module Obs = Rma_obs.Obs
module O = Offline
module S = Serve_load

type workload = Minivite_online | Minivite_replay_j2 | Cfd_replay | Serve_mixed

let workloads =
  [
    ("minivite-online", Minivite_online);
    ("minivite-replay-j2", Minivite_replay_j2);
    ("cfd-replay", Cfd_replay);
    ("serve-mixed", Serve_mixed);
  ]

(* ---- Inputs, all generated from the seed ---- *)

let minivite_ranks = 8
let cfd_ranks = 12

(* Figure 9's MiniVite: 12,800 vertices (the paper's 640k input at scale
   0.02), with the duplicated MPI_Put, which every rank issues once: one
   race per rank. *)
let minivite_params seed =
  {
    Minivite.Louvain.default_params with
    Minivite.Louvain.graph =
      {
        Minivite.Graph.default_params with
        Minivite.Graph.n_vertices = 12_800;
        locality_window = 20;
        seed;
      };
    compute_per_edge = 6.0e-6;
    inject_race = true;
  }

let minivite_run ~seed ?observer () =
  Minivite.Louvain.run (minivite_params seed) ~nprocs:minivite_ranks ~seed ~config:O.sim_config
    ?observer ()

let cfd_params = { Cfd_proxy.Halo.default_params with Cfd_proxy.Halo.iterations = 5 }

let record_minivite seed =
  O.record ~nprocs:minivite_ranks (fun ~observer -> ignore (minivite_run ~seed ~observer ()))

let record_cfd seed =
  O.record ~nprocs:cfd_ranks (fun ~observer ->
      ignore
        (Cfd_proxy.Halo.run cfd_params ~nprocs:cfd_ranks ~seed ~config:O.sim_config ~observer ()))

(* The small serve sessions: the labelled rrb_ kernel corpus, recorded
   the way [rma_race record] records them. Racy and safe kernels
   alternate, each side cycling through its kernels in a seeded order. *)
let small_payloads seed =
  let rng = Random.State.make [| seed |] in
  let payload (k : Kernel.t) =
    let r = Rma_trace.Recorder.create () in
    ignore
      (Mpi_sim.Runtime.run ~nprocs:k.Kernel.k_nprocs ~seed ~config:O.sim_config
         ~observer:(Rma_trace.Recorder.observer r) k.Kernel.k_program);
    let tr = O.make_trace ~nprocs:k.Kernel.k_nprocs (Rma_trace.Recorder.events r) in
    {
      S.hello = S.hello ~session:k.Kernel.k_name ~tool:"contribution" ~nprocs:tr.O.nprocs;
      body = tr.O.text;
      expect = tr.O.digest;
      racy = Some k.Kernel.k_racy;
    }
  in
  let shuffled racy =
    let a = Array.of_list (List.filter (fun k -> k.Kernel.k_racy = racy) Kernel.all) in
    for i = Array.length a - 1 downto 1 do
      let j = Random.State.int rng (i + 1) in
      let t = a.(i) in
      a.(i) <- a.(j);
      a.(j) <- t
    done;
    Array.map payload a
  in
  let racy = shuffled true and safe = shuffled false in
  let n = max (Array.length racy) (Array.length safe) in
  Array.init (2 * n) (fun j ->
      let side = if j mod 2 = 0 then racy else safe in
      side.(j / 2 mod Array.length side))

let large_payload tr ~tool =
  {
    S.hello = S.hello ~session:("large-" ^ tool) ~tool ~nprocs:tr.O.nprocs;
    body = tr.O.text;
    expect = (if tool = "baseline" then O.empty_digest else tr.O.digest);
    racy = None;
  }

type inputs = {
  seed : int;
  trace : O.trace;
  serve : (S.daemon * S.payload array) option;
}

let setup ~daemon_exe ~seed = function
  | Minivite_online -> { seed; trace = record_minivite seed; serve = None }
  | Minivite_replay_j2 ->
      let trace = record_minivite seed in
      (* Spawns the worker domains, so the first timed pass does not. *)
      ignore (O.tool Toolbox.Contribution ~nprocs:trace.O.nprocs ~jobs:2);
      { seed; trace; serve = None }
  | Cfd_replay -> { seed; trace = record_cfd seed; serve = None }
  | Serve_mixed ->
      let trace = record_cfd seed in
      let small = small_payloads seed in
      { seed; trace; serve = Some (S.start_daemon ~exe:daemon_exe, small) }

(* Set-up is repeated and its median reported; the last copy is kept. *)
let setup_repeats = 5

let timed_setup ~daemon_exe ~seed w =
  let rec go i times =
    let inputs, t =
      between_calibrations (fun () ->
          let t0 = now () in
          let inputs = setup ~daemon_exe ~seed w in
          (inputs, now () -. t0))
    in
    if i + 1 < setup_repeats then begin
      Option.iter (fun (d, _) -> ignore (S.stop_daemon d)) inputs.serve;
      go (i + 1) (t :: times)
    end
    else (inputs, t :: times)
  in
  go 0 []

(* ---- Checks ---- *)

let attempted = ref 0
let failed = ref 0

let check ok =
  incr attempted;
  if not ok then incr failed

(* ---- Passes ---- *)

(* What one analysed pass runs: the simulator with the detector attached,
   or a streaming replay of the recorded trace at some shard count. *)
type pass = Online | Replay of int

let pass_of = function
  | Minivite_online -> Online
  | Minivite_replay_j2 -> Replay 2
  | Cfd_replay | Serve_mixed -> Replay 1

(* The simulator with the detector attached, or the detector fed the
   trace text; returns the verdict digest. *)
let detect pass ~seed ~nprocs text =
  match pass with
  | Online ->
      let t = O.tool Toolbox.Contribution ~nprocs ~jobs:1 in
      ignore (minivite_run ~seed ~observer:t.Tool.observer ());
      O.verdict t
  | Replay jobs -> O.replay text (O.tool Toolbox.Contribution ~nprocs ~jobs)

(* One analysed pass, trace (or program) in to verdict out; wall seconds.
   Each timed pass starts from a collected heap, so its time does not
   depend on the garbage an earlier pass left. *)
let tool_pass pass inputs =
  let tr = inputs.trace in
  Gc.full_major ();
  let t0 = now () in
  let digest = detect pass ~seed:inputs.seed ~nprocs:tr.O.nprocs tr.O.text in
  let wall = now () -. t0 in
  check (digest = tr.O.digest);
  wall

(* The same pass without a detector: the paper's Baseline. *)
let baseline_pass pass inputs =
  let tr = inputs.trace in
  Gc.full_major ();
  let t0 = now () in
  (match pass with
  | Online -> ignore (minivite_run ~seed:inputs.seed ())
  | Replay _ -> check (O.replay tr.O.text Tool.baseline = O.empty_digest));
  now () -. t0

(* Calls [f 0], [f 1], ... for [seconds], and at least three times. *)
let until ~seconds f =
  let deadline = now () +. seconds in
  let rec go i =
    f i;
    if i < 2 || now () < deadline then go (i + 1)
  in
  go 0

(* Runs [a] and [b] in an order that alternates with [i], so neither
   always runs in the other's leftover heap. *)
let alternate i a b =
  if i mod 2 = 0 then (a (); b ()) else (b (); a ())

let push r x = r := x :: !r

(* Let the last small session finish, stop the daemon, and count the
   small sessions against the run. *)
let finish_serve l d =
  S.drain l;
  let st = S.stop_daemon d in
  let s = l.S.stats in
  attempted := !attempted + s.S.done_;
  failed := !failed + s.S.bad;
  (st, s)

(* ---- Peak RSS, in a fresh process ----

   A process's resident set after many passes depends on how its
   allocator happened to keep the memory earlier work freed: the same
   pass reported 83 MB in one run and 124 MB in the next. So the peak RSS
   of a pass is taken in a child process that runs nothing else. *)

let peak_rss_probes = 3

(* The child's side: reads "nprocs length" on a line and then that many
   bytes of trace text (none for the online pass), runs one detector
   pass, and prints its verdict digest and its VmHWM in MB. *)
let peak_rss_child w ~seed =
  let nprocs, len = Scanf.sscanf (input_line stdin) "%d %d" (fun n l -> (n, l)) in
  let text = really_input_string stdin len in
  let digest = detect (pass_of w) ~seed ~nprocs text in
  Printf.printf "%s %.6f\n%!" digest (vm_hwm_mb "self");
  exit 0

let peak_rss_probe ~name w inputs =
  let tr = inputs.trace in
  let text = match pass_of w with Online -> "" | Replay _ -> tr.O.text in
  let req_r, req_w = Unix.pipe ~cloexec:true () in
  let rep_r, rep_w = Unix.pipe ~cloexec:true () in
  let exe = Sys.executable_name in
  let pid =
    Unix.create_process exe
      [| exe; "--peak-rss"; name; string_of_int inputs.seed |]
      req_r rep_w Unix.stderr
  in
  Unix.close req_r;
  Unix.close rep_w;
  let oc = Unix.out_channel_of_descr req_w in
  Printf.fprintf oc "%d %d\n%s" tr.O.nprocs (String.length text) text;
  close_out oc;
  let ic = Unix.in_channel_of_descr rep_r in
  let reply = In_channel.input_all ic in
  close_in ic;
  ignore (Unix.waitpid [] pid);
  match Scanf.sscanf_opt reply "%s %f" (fun digest mb -> (digest, mb)) with
  | Some (digest, mb) ->
      check (digest = tr.O.digest);
      mb
  | None -> failwith "peak-RSS child printed no result"

(* ---- End-to-end (untraced) ---- *)

(* Every timed call runs between two calibration-kernel timings (see
   [Measure.between_calibrations]) and is scaled by them, so a change in
   machine speed between calls, or between runs, is taken out call by
   call. The metrics are computed twice from the same calls: as measured,
   for the line before the result, and scaled, for the result. *)
let end_to_end ~seconds ~setup ~name w inputs =
  let tr = inputs.trace in
  let events = float_of_int tr.O.events in
  let walls = ref [] and bases = ref [] in
  let first = ref true in
  let timed samples f =
    let r, t = between_calibrations ~fresh:!first f in
    first := false;
    push samples t;
    r
  in
  let report ~rss ~latencies_ms ~sessions_per_s =
    let metrics view =
      let values r = List.map (value view) !r in
      [
        m "setup_s" "s" (median (List.map (value view) setup));
        (* Work over time: the mean pass, so costs that land on some
           passes only count in full. *)
        m "events_per_s" "events/s" (events /. mean (values walls));
        m "detector_s" "s" (trimmed_mean (List.map2 (difference view) !walls !bases));
        m "peak_rss_mb" "MB" rss;
        m "verdict_p50_ms" "ms" (median (latencies_ms view));
        m "sessions_per_s" "1/s" (sessions_per_s view);
      ]
    in
    Printf.printf "calibration kernel median %.2f ms (reference %.0f ms); unscaled:%s\n"
      (median !calibs *. 1000.0) (calib_ref *. 1000.0)
      (String.concat ""
         (List.map (fun x -> Printf.sprintf " %s=%.6g" x.name x.value) (metrics Raw)));
    metrics Scaled
  in
  match inputs.serve with
  | None ->
      let pass = pass_of w in
      (match pass with Replay jobs -> work_domains := jobs | Online -> ());
      let run f () = ((), f pass inputs) in
      until ~seconds (fun i ->
          alternate i
            (fun () -> timed bases (run baseline_pass))
            (fun () -> timed walls (run tool_pass)));
      Printf.printf "%d detector passes and %d baseline passes\n" (List.length !walls)
        (List.length !bases);
      let peaks = List.init peak_rss_probes (fun _ -> peak_rss_probe ~name w inputs) in
      report ~rss:(median peaks)
        ~latencies_ms:(fun view -> List.map (fun t -> value view t *. 1000.0) !walls)
        ~sessions_per_s:(fun view -> 1.0 /. mean (List.map (value view) !walls))
  | Some (daemon, small) ->
      let l = S.load ~port:daemon.S.port small in
      (* Small-session latencies, each with the kernel times around the
         large session it ran beside. *)
      let latencies = ref [] and last = ref None in
      let take_latencies (t : timing) =
        let fresh = List.length l.S.stats.S.latencies_ms - List.length !latencies in
        List.iteri
          (fun i x -> if i < fresh then push latencies { t with value = x })
          l.S.stats.S.latencies_ms
      in
      let large tool samples () =
        let r = timed samples (fun () ->
            let r = S.run_large l (large_payload tr ~tool) in
            (r, r.S.wall))
        in
        check (r.S.ok && float_of_int r.S.events = events);
        last := Some (List.hd !samples);
        take_latencies (List.hd !samples)
      in
      until ~seconds (fun i -> alternate i (large "baseline" bases) (large "contribution" walls));
      let st, s = finish_serve l daemon in
      take_latencies (Option.get !last);
      Printf.printf
        "%d large sessions per tool; %d small sessions, %d bad; their p%d latency %.3f ms \
         (unscaled)\n"
        (List.length !walls) s.S.done_ s.S.bad (tail_rank s.S.done_) (tail s.S.latencies_ms);
      let busy view = List.fold_left (fun acc t -> acc +. value view t) 0.0 (!walls @ !bases) in
      report ~rss:st.S.rss_mb
        ~latencies_ms:(fun view -> List.map (value view) !latencies)
          (* The closed loop runs while a large session streams. *)
        ~sessions_per_s:(fun view -> float_of_int s.S.done_ /. busy view)

(* ---- Per-layer (traced) ---- *)

(* Counters the parallel engine keeps only under Obs, read from one extra
   Obs-on pass that nothing else is timed from. *)
let par_counters tr ~jobs =
  Obs.reset ();
  Obs.enable ();
  let digest = O.replay tr.O.text (O.tool Toolbox.Contribution ~nprocs:tr.O.nprocs ~jobs) in
  Obs.disable ();
  check (digest = tr.O.digest);
  let counter name =
    List.find_map
      (fun c -> if c.Obs.c_name = name then Some (float_of_int c.Obs.c_value) else None)
      (Obs.all_counters ())
  in
  let wait_ns =
    List.find_map
      (fun h ->
        if Rma_obs.Histogram.name h = "par.barrier_wait_ns" then Some (Rma_obs.Histogram.sum h)
        else None)
      (Obs.all_histograms ())
  in
  let get = Option.value ~default:0.0 in
  let r = (get (counter "par.shard_inserts"), get (counter "par.barriers"), get wait_ns /. 1e9) in
  Obs.reset ();
  r

let per_layer ~seconds w inputs =
  let tr = inputs.trace in
  let pass = pass_of w in
  let jobs = match pass with Replay j -> j | Online -> 1 in
  let untraced = ref [] and traced = ref [] and decode = ref [] and access = ref [] in
  let sync = ref [] and observer = ref [] and observer_j1 = ref [] and sim_self = ref [] in
  let baseline = ref [] and critical = ref [] and insert = ref [] and gcs = ref [] in
  let large = ref [] and blocked = ref [] in
  let races = ref 0 and sim_events = ref 0 and sim_accesses = ref 0 and work = ref None in
  let load = Option.map (fun ((d : S.daemon), small) -> S.load ~port:d.S.port small) inputs.serve in
  let traced_pass pass =
    let jobs = match pass with Replay j -> j | Online -> 1 in
    let p = O.probe () in
    (* From a collected heap, as [tool_pass] starts. *)
    Gc.full_major ();
    let g0 = Gc.quick_stat () and cp0 = Rma_par.critical_path_total () in
    (* [tool_pass] with every call into the detector and the codec
       timed, and the simulator's own wall clock kept to split it from
       the detector. *)
    let t0 = now () in
    let t = O.tool Toolbox.Contribution ~nprocs:tr.O.nprocs ~jobs in
    let digest =
      match pass with
      | Online ->
          let observer = O.traced_observer p t.Tool.observer in
          let r, _ = minivite_run ~seed:inputs.seed ~observer () in
          push sim_self (r.Mpi_sim.Runtime.wall_seconds -. O.observer_s p);
          sim_events := r.Mpi_sim.Runtime.events_emitted;
          sim_accesses := r.Mpi_sim.Runtime.accesses_emitted;
          O.verdict ~probe:p t
      | Replay _ -> O.replay ~probe:p tr.O.text t
    in
    let wall = now () -. t0 in
    check (digest = tr.O.digest);
    races := t.Tool.race_count ();
    push gcs (gc_delta g0 (Gc.quick_stat ()));
    (wall, p, Rma_par.critical_path_total () -. cp0)
  in
  until ~seconds (fun i ->
      ignore (calib ());
      Option.iter
        (fun l ->
          let r = S.run_large l (large_payload tr ~tool:"contribution") in
          check r.S.ok;
          push large r.S.wall;
          push blocked r.S.blocked)
        load;
      if pass = Online then push baseline (baseline_pass pass inputs);
      alternate i
        (fun () -> push untraced (tool_pass pass inputs))
        (fun () ->
          let wall, p, cp = traced_pass pass in
          push traced wall;
          push decode (busy p.O.decode);
          push access (busy p.O.access);
          push sync (busy p.O.sync);
          push observer (O.observer_s p);
          push critical cp);
      (* The hand-off is what a shard count above one adds to the
         detector's own time on the same decoded events. *)
      if jobs > 1 then begin
        let _, p, _ = traced_pass (Replay 1) in
        push observer_j1 (O.observer_s p)
      end;
      let sw = O.store_pass tr in
      check (O.store_matches tr sw);
      push insert (busy sw.O.insert);
      work := Some sw);
  let shard_inserts, barriers, barrier_wait =
    if jobs > 1 then par_counters tr ~jobs else (0.0, 0.0, 0.0)
  in
  let serve =
    match (load, inputs.serve) with
    | Some l, Some (d, _) ->
        Some (finish_serve l d)
    | _ -> None
  in
  let sw = Option.get !work in
  let med r = median !r in
  let f = float_of_int in
  let insert_s = med insert and observer_s = med observer in
  let decode_s = if pass = Online then 0.0 else med decode in
  let observer_1 = if jobs > 1 then med observer_j1 else observer_s in
  let handoff = observer_s -. observer_1 in
  let sim_self_s = if pass = Online then med sim_self else 0.0 in
  let wire = if serve <> None then med large -. med untraced else 0.0 in
  let analyzer_self = observer_1 -. insert_s in
  let ledger, ledger_wall =
    let layers = sim_self_s +. analyzer_self +. insert_s +. handoff +. decode_s in
    match serve with
    | None -> (layers, med traced)
    | Some _ ->
        (* The daemon runs untraced: its layers get their traced shares
           of the untraced replay, and the wire the rest of the session. *)
        ((layers *. med untraced /. med traced) +. wire, med large)
  in
  let gc_med g = median (List.map g !gcs) in
  let lines = if pass = Online then 0 else O.lines tr in
  let serve_m name unit_ get = m name unit_ (match serve with Some x -> get x | None -> 0.0) in
  let coverage = ledger /. ledger_wall in
  Printf.printf "%d traced rounds; ledger covers %.1f%% of the traced wall%s\n"
    (List.length !traced) (100.0 *. coverage)
    (if Float.abs (coverage -. 1.0) > 0.1 then " (outside the 10% target)" else "");
  [
    m "mpi_sim.baseline_s" "s" (if pass = Online then med baseline else 0.0);
    m "mpi_sim.self_s" "s" sim_self_s;
    m "mpi_sim.events" "count" (f !sim_events);
    m "mpi_sim.accesses" "count" (f !sim_accesses);
    m "rma_analyzer.observer_s" "s" observer_s;
    m "rma_analyzer.access_s" "s" (med access);
    m "rma_analyzer.sync_s" "s" (med sync);
    m "rma_analyzer.self_s" "s" analyzer_self;
    m "rma_analyzer.races" "count" (f !races);
    m "store.insert_s" "s" insert_s;
    m "store.ns_per_insert" "ns" (insert_s /. f sw.O.inserts *. 1e9);
    m "store.inserts" "count" (f sw.O.inserts);
    m "store.fragments" "count" (f sw.O.fragments);
    m "store.merges" "count" (f sw.O.merges);
    m "store.nodes_peak" "count" (f sw.O.nodes_peak);
    m "store.tree_ops" "count" (f sw.O.tree_ops);
    m "store.race_checks" "count" (f sw.O.race_checks);
    m "store.finger_hits" "count" (f sw.O.finger_hits);
    m "store.finger_hit_ratio" "ratio" (f sw.O.finger_hits /. f sw.O.inserts);
    m "rma_par.handoff_s" "s" handoff;
    m "rma_par.shard_inserts" "count" shard_inserts;
    m "rma_par.barriers" "count" barriers;
    m "rma_par.barrier_wait_s" "s" barrier_wait;
    m "rma_par.critical_path_s" "s" (if jobs > 1 then med critical else 0.0);
    m "codec.decode_s" "s" decode_s;
    m "codec.ns_per_line" "ns" (if lines = 0 then 0.0 else decode_s /. f lines *. 1e9);
    m "codec.lines" "count" (f lines);
    m "codec.bytes" "count" (if pass = Online then 0.0 else f (String.length tr.O.text));
    m "serve.wire_s" "s" wire;
    serve_m "serve.admit_ms" "ms" (fun (_, s) -> median s.S.admit_ms);
    serve_m "serve.verdict_p99_ms" "ms" (fun (_, s) -> tail s.S.latencies_ms);
    m "serve.client_blocked_s" "s" (if serve <> None then med blocked else 0.0);
    serve_m "serve.events_ingested" "count" (fun (st, _) -> f st.S.ingested);
    serve_m "serve.races_streamed" "count" (fun (st, _) -> f st.S.streamed);
    serve_m "serve.shed" "count" (fun (st, _) -> f st.S.shed);
    serve_m "serve.protocol_errors" "count" (fun (st, _) -> f st.S.protocol_errors);
    m "gc.minor_mb" "MB" (gc_med (fun g -> g.minor_mb));
    m "gc.promoted_mb" "MB" (gc_med (fun g -> g.promoted_mb));
    m "gc.major_collections" "count" (gc_med (fun g -> f g.major_collections));
    m "gc.heap_top_mb" "MB" (words_mb (f (Gc.quick_stat ()).Gc.top_heap_words));
    m "ledger.coverage" "ratio" coverage;
    m "trace.overhead_x" "x" (med traced /. med untraced);
    m "machine.calib_ms" "ms" (median !calibs *. 1000.0);
  ]

(* ---- Main ---- *)

let () =
  if Array.length Sys.argv = 2 && Sys.argv.(1) = "--calibrate" then calibration_child ();
  if Array.length Sys.argv = 4 && Sys.argv.(1) = "--peak-rss" then
    peak_rss_child (List.assoc Sys.argv.(2) workloads) ~seed:(int_of_string Sys.argv.(3));
  let workload = ref "" and seed = ref 1 and seconds = ref 10.0 in
  let trace = ref 0 and daemon = ref "" in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME");
      ("--seed", Arg.Set_int seed, "N");
      ("--seconds", Arg.Set_float seconds, "S");
      ("--trace", Arg.Set_int trace, "0|1");
      ("--daemon", Arg.Set_string daemon, "PATH to the rma_race executable (serve-mixed)");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "perfbench --workload NAME --seed N --seconds S --trace 0|1 --daemon EXE";
  let w =
    match List.assoc_opt !workload workloads with
    | Some w -> w
    | None ->
        prerr_endline ("perfbench: unknown workload " ^ !workload);
        exit 2
  in
  let inputs, setup = timed_setup ~daemon_exe:!daemon ~seed:!seed w in
  let tr = inputs.trace in
  let b = tr.O.bst in
  Printf.printf
    "%s seed %d: %d ranks, %d events, %d trace bytes, %d races expected (digest %s); store: %d \
     inserts, %d fragments, %d merges, %d peak nodes; set-up %.3f s\n%!"
    !workload !seed tr.O.nprocs tr.O.events (String.length tr.O.text) tr.O.races
    tr.O.digest b.Tool.inserts_total b.Tool.fragments_total b.Tool.merges_total
    b.Tool.nodes_peak_total (median (List.map (value Raw) setup));
  let metrics =
    if !trace = 0 then end_to_end ~seconds:!seconds ~setup ~name:!workload w inputs
    else per_layer ~seconds:!seconds w inputs
  in
  print_endline (result_line ~correct:(!failed = 0) ~attempted:!attempted ~failed:!failed metrics)
