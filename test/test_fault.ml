(* The fault-injection and resource-governance layer ([Rma_fault],
   [Rma_store.Governor], [Rma_par] recovery, [Rma_trace.Codec]
   injection): spec parsing, deterministic replay of fault schedules,
   budget enforcement on all three stores under each policy, shard
   crash/overflow recovery, and the 500-plan soak proving faults are
   either recovered with identical verdicts or reported as degradation
   — never silent verdict changes (DESIGN.md §11). *)

open Rma_access
open Rma_store
open Rma_analysis
module Event = Mpi_sim.Event
module Json = Rma_util.Json
module Race_export = Rma_report.Race_export
module Plan = Rma_fault.Plan
module Budget = Rma_fault.Budget

let mk_access ?(issuer = 0) ?(kind = Access_kind.Rma_read) ~seq ~line lo hi =
  Access.make
    ~interval:(Interval.make ~lo ~hi)
    ~kind ~issuer ~seq
    ~debug:(Debug_info.make ~file:"fault.c" ~line ~operation:"op")

(* --- spec parsing ---------------------------------------------------- *)

let test_plan_spec () =
  (match Plan.of_spec "seed=42,worker_crash=0.05,trace_truncate=0.1" with
  | Error e -> Alcotest.failf "spec rejected: %s" e
  | Ok p ->
      Alcotest.(check int) "seed parsed" 42 p.Plan.seed;
      Alcotest.(check (float 0.0)) "worker_crash parsed" 0.05 p.Plan.worker_crash;
      Alcotest.(check (float 0.0)) "trace_truncate parsed" 0.1 p.Plan.trace_truncate;
      Alcotest.(check int) "max_retries defaulted" 3 p.Plan.max_retries;
      (* to_spec/of_spec is a round trip. *)
      Alcotest.(check bool) "spec round-trips" true (Plan.of_spec (Plan.to_spec p) = Ok p));
  Alcotest.(check bool) "empty spec is the default plan" true (Plan.of_spec "" = Ok Plan.default);
  List.iter
    (fun bad ->
      match Plan.of_spec bad with
      | Error _ -> ()
      | Ok _ -> Alcotest.failf "bad spec %S accepted" bad)
    [ "bogus=1"; "worker_crash=1.5"; "worker_crash=-0.1"; "seed=abc"; "worker_crash"; "max_retries=-1" ]

let test_budget_spec () =
  (match Budget.of_spec "nodes=4096,policy=spill" with
  | Error e -> Alcotest.failf "spec rejected: %s" e
  | Ok b ->
      Alcotest.(check (option int)) "node cap parsed" (Some 4096) b.Budget.max_nodes;
      Alcotest.(check bool) "spill policy" true (b.Budget.policy = Budget.Spill_oldest_epoch);
      Alcotest.(check bool) "spec round-trips" true (Budget.of_spec (Budget.to_spec b) = Ok b));
  (match Budget.of_spec "4096:coarsen" with
  | Error e -> Alcotest.failf "shorthand rejected: %s" e
  | Ok b ->
      Alcotest.(check (option int)) "shorthand node cap" (Some 4096) b.Budget.max_nodes;
      Alcotest.(check bool) "shorthand policy" true (b.Budget.policy = Budget.Coarsen));
  (match Budget.of_spec "bytes=1048576,policy=fail" with
  | Error e -> Alcotest.failf "byte spec rejected: %s" e
  | Ok b ->
      Alcotest.(check (option int)) "byte cap parsed" (Some 1048576) b.Budget.max_bytes;
      Alcotest.(check bool) "fail alias" true (b.Budget.policy = Budget.Fail_fast));
  Alcotest.(check bool) "empty spec is unbounded" true (Budget.of_spec "" = Ok Budget.unbounded);
  List.iter
    (fun bad ->
      match Budget.of_spec bad with
      | Error _ -> ()
      | Ok _ -> Alcotest.failf "bad budget %S accepted" bad)
    [ "nodes=0"; "nodes=-5"; "policy=wat"; "0:spill"; "4096:wat"; "stuff=1" ]

(* --- deterministic firing -------------------------------------------- *)

let test_fire_deterministic () =
  let plan = { Plan.default with Plan.seed = 42; worker_crash = 0.5; trace_corrupt = 0.25 } in
  let record inj site n = List.init n (fun _ -> Rma_fault.fire inj site) in
  let crashes1, corrupts1, hits1 =
    let inj = Rma_fault.create plan in
    let c = record inj Rma_fault.Worker_crash 200 in
    let t = record inj Rma_fault.Trace_corrupt 100 in
    (c, t, Rma_fault.fired inj Rma_fault.Worker_crash)
  in
  (* Same plan, opposite interleaving: each site's schedule depends only
     on its own ordinals, so the answers are identical. *)
  let crashes2, corrupts2, hits2 =
    let inj = Rma_fault.create plan in
    let t = record inj Rma_fault.Trace_corrupt 100 in
    let c = record inj Rma_fault.Worker_crash 200 in
    (c, t, Rma_fault.fired inj Rma_fault.Worker_crash)
  in
  Alcotest.(check (list bool)) "crash schedule replays" crashes1 crashes2;
  Alcotest.(check (list bool)) "corrupt schedule replays" corrupts1 corrupts2;
  Alcotest.(check int) "fired counts the trues" hits1
    (List.length (List.filter Fun.id crashes1));
  Alcotest.(check int) "fired agrees across runs" hits1 hits2;
  Alcotest.(check bool) "a 0.5 rate fires sometimes" true (hits1 > 0);
  Alcotest.(check bool) "a 0.5 rate misses sometimes" true (hits1 < 200);
  (* A different seed produces a different schedule. *)
  let crashes3 =
    record (Rma_fault.create { plan with Plan.seed = 43 }) Rma_fault.Worker_crash 200
  in
  Alcotest.(check bool) "seed changes the schedule" false (crashes1 = crashes3);
  (* Two injectors of one plan keep separate ordinals: drawing from one
     never moves the other's schedule. *)
  let a = Rma_fault.create plan and b = Rma_fault.create plan in
  let a1 = record a Rma_fault.Worker_crash 100 in
  ignore (record b Rma_fault.Worker_crash 37);
  let a2 = record a Rma_fault.Worker_crash 100 in
  Alcotest.(check (list bool)) "an injector's schedule is its own" crashes1 (a1 @ a2);
  Alcotest.(check int) "ordinals count per injector" 37 (Rma_fault.ordinal b Rma_fault.Worker_crash);
  let quiet = Rma_fault.create Plan.default in
  Alcotest.(check bool) "rate 0, no faults" false (Rma_fault.fire quiet Rma_fault.Worker_crash);
  Alcotest.(check int) "rate 0, no counts" 0 (Rma_fault.fired quiet Rma_fault.Worker_crash)

(* --- budget governance on the stores --------------------------------- *)

let spill_budget cap =
  { Budget.max_nodes = Some cap; max_bytes = None; policy = Budget.Spill_oldest_epoch }

let test_disjoint_spill () =
  let cap = 8 in
  let store = Disjoint_store.create ~budget:(spill_budget cap) () in
  (* 32 pairwise-distant same-kind accesses (gaps prevent merging) over
     four epochs. *)
  for i = 1 to 32 do
    (match Disjoint_store.insert store (mk_access ~seq:i ~line:i (i * 10) ((i * 10) + 3)) with
    | Store_intf.Inserted -> ()
    | Store_intf.Race_detected _ -> Alcotest.fail "reads cannot race");
    if i mod 8 = 0 then Disjoint_store.note_epoch store
  done;
  let st = Disjoint_store.stats store in
  Alcotest.(check bool) "node count capped" true (st.Store_intf.nodes <= cap);
  Alcotest.(check int) "every insert accepted" 32 st.Store_intf.inserts;
  Alcotest.(check int) "evictions reported as degraded drops" (32 - st.Store_intf.nodes)
    st.Store_intf.degraded_drops;
  (* Oldest-first: the survivors are the newest accesses. *)
  let seqs = List.map (fun a -> a.Access.seq) (Disjoint_store.to_list store) in
  List.iter
    (fun seq -> Alcotest.(check bool) (Printf.sprintf "seq %d survived" seq) true (seq > 32 - cap))
    seqs

let test_disjoint_fail_fast () =
  let budget = { Budget.max_nodes = Some 4; max_bytes = None; policy = Budget.Fail_fast } in
  let store = Disjoint_store.create ~budget () in
  let insert i = ignore (Disjoint_store.insert store (mk_access ~seq:i ~line:i (i * 10) (i * 10))) in
  for i = 1 to 4 do insert i done;
  (match insert 5 with
  | () -> Alcotest.fail "insert past a fail-fast budget did not raise"
  | exception Budget.Exhausted _ -> ());
  (* Still over budget, so the next insert keeps failing: the analysis
     cannot silently continue past the first Exhausted. *)
  match insert 6 with
  | () -> Alcotest.fail "insert after Exhausted did not raise again"
  | exception Budget.Exhausted _ ->
      Alcotest.(check int) "no degraded drops under fail-fast" 0
        (Disjoint_store.stats store).Store_intf.degraded_drops

let test_disjoint_coarsen () =
  let budget = { Budget.max_nodes = Some 4; max_bytes = None; policy = Budget.Coarsen } in
  let store = Disjoint_store.create ~budget () in
  (* Adjacent same-kind same-issuer accesses with distinct source lines:
     regular merging refuses them (debug info differs), coarsening
     collapses them. *)
  for i = 0 to 11 do
    ignore (Disjoint_store.insert store (mk_access ~seq:(i + 1) ~line:(i + 1) i i))
  done;
  let st = Disjoint_store.stats store in
  Alcotest.(check bool) "coarsened under the cap" true (st.Store_intf.nodes <= 4);
  Alcotest.(check bool) "coarsening reported as degraded drops" true
    (st.Store_intf.degraded_drops > 0);
  (* Coverage is exact: the coarse node(s) span the same bytes. *)
  let covered =
    List.fold_left
      (fun acc a -> acc + Interval.length a.Access.interval)
      0 (Disjoint_store.to_list store)
  in
  Alcotest.(check int) "no byte lost or invented" 12 covered;
  (* The coarse node still races like the originals would. *)
  match
    Disjoint_store.insert store
      (mk_access ~kind:Access_kind.Local_write ~issuer:0 ~seq:99 ~line:99 5 5)
  with
  | Store_intf.Race_detected _ -> ()
  | Store_intf.Inserted -> Alcotest.fail "write over a coarsened read did not race"

let test_legacy_and_strided_budgets () =
  (* Byte caps translate per store: 448 bytes / 112 per node = 4 nodes in
     the legacy store. *)
  let budget = { Budget.max_nodes = None; max_bytes = Some 448; policy = Budget.Fail_fast } in
  let store = Legacy_store.create ~budget () in
  let insert i = ignore (Legacy_store.insert store (mk_access ~seq:i ~line:i (i * 10) (i * 10))) in
  (for i = 1 to 4 do insert i done);
  (match insert 5 with
  | () -> Alcotest.fail "legacy store ignored its byte budget"
  | exception Budget.Exhausted _ -> ());
  let strided = Strided_store.create ~budget:(spill_budget 4) () in
  for i = 1 to 16 do
    ignore (Strided_store.insert strided (mk_access ~seq:i ~line:i (i * 100) ((i * 100) + 3)));
    if i mod 4 = 0 then Strided_store.note_epoch strided
  done;
  let st = Strided_store.stats strided in
  Alcotest.(check bool) "strided regions capped" true (st.Store_intf.nodes <= 4);
  Alcotest.(check bool) "strided spills reported" true (st.Store_intf.degraded_drops > 0)

(* --- parallel engine recovery ---------------------------------------- *)

(* Submit [n] order-tagged tasks across the engine's shards and assert
   every task ran exactly once, in submission order per shard. *)
let run_tagged_tasks engine ~jobs ~n =
  let logs = Array.init jobs (fun _ -> ref []) in
  for i = 0 to n - 1 do
    let shard = i mod jobs in
    Rma_par.submit engine ~shard (fun () -> logs.(shard) := i :: !(logs.(shard)))
  done;
  Rma_par.barrier engine;
  Array.iteri
    (fun shard log ->
      let got = List.rev !log in
      let expected = List.init (n / jobs) (fun k -> (k * jobs) + shard) in
      Alcotest.(check (list int))
        (Printf.sprintf "shard %d ran every task in order" shard)
        expected got)
    logs

let engine plan = Rma_par.create ~jobs:2 ~fault:(Rma_fault.create plan) ()

let test_par_crash_recovery () =
  let e = engine { Plan.default with Plan.seed = 11; worker_crash = 0.3; max_retries = 5 } in
  run_tagged_tasks e ~jobs:2 ~n:200;
  let s = Rma_par.recovery_stats e in
  Alcotest.(check bool) "crashes were injected" true (s.Rma_par.crashes > 0);
  Alcotest.(check bool) "every crash was recovered or degraded" true
    (s.Rma_par.recoveries > 0 || s.Rma_par.fallbacks > 0)

let test_par_retries_exhaust_to_inline () =
  (* Rate 1.0: the shard crashes on every submit and every replay, so
     recovery must exhaust its retries and degrade to inline execution —
     still running every task, in order. *)
  let e = engine { Plan.default with Plan.seed = 5; worker_crash = 1.0; max_retries = 2 } in
  run_tagged_tasks e ~jobs:2 ~n:40;
  let s = Rma_par.recovery_stats e in
  Alcotest.(check bool) "fallback engaged" true (s.Rma_par.fallbacks > 0);
  Alcotest.(check bool) "crashes counted" true (s.Rma_par.crashes > 0)

let test_par_queue_overflow_degrades_inline () =
  let e = engine { Plan.default with Plan.seed = 3; queue_overflow = 1.0 } in
  run_tagged_tasks e ~jobs:2 ~n:40;
  let s = Rma_par.recovery_stats e in
  Alcotest.(check int) "every submit overflowed to inline" 40 s.Rma_par.overflows;
  Alcotest.(check int) "no crashes involved" 0 s.Rma_par.crashes

(* --- trace codec injection ------------------------------------------- *)

let sample_events =
  [
    Event.Win_created { win = 0; rank = 0; base = 0; size = 256; sim_time = 0.0 };
    Event.Epoch_opened { win = 0; rank = 0; sim_time = 1.0 };
    Event.Access
      {
        Event.space = 0;
        access = mk_access ~seq:1 ~line:7 0 7;
        win = Some 0;
        relevant = true;
        on_stack = false;
        sim_time = 2.0;
      };
    Event.Epoch_closed { win = 0; rank = 0; sim_time = 3.0 };
  ]

let write_trace ?fault events =
  let path = Filename.temp_file "fault_trace" ".txt" in
  let oc = open_out_bin path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> Rma_trace.Codec.write_all ?fault oc events);
  let ic = open_in_bin path in
  let s =
    Fun.protect
      ~finally:(fun () -> close_in ic)
      (fun () -> really_input_string ic (in_channel_length ic))
  in
  Sys.remove path;
  s

let read_trace s =
  let path = Filename.temp_file "fault_trace" ".txt" in
  let oc = open_out_bin path in
  Fun.protect ~finally:(fun () -> close_out oc) (fun () -> output_string oc s);
  let ic = open_in path in
  let r = Fun.protect ~finally:(fun () -> close_in ic) (fun () -> Rma_trace.Codec.read_all ic) in
  Sys.remove path;
  r

let test_codec_truncation_detected () =
  let clean = write_trace sample_events in
  (match read_trace clean with
  | Ok evs -> Alcotest.(check int) "clean trace round-trips" 4 (List.length evs)
  | Error e -> Alcotest.failf "clean trace rejected: %s" (Rma_trace.Codec.error_to_string e));
  let truncated =
    let fault = Rma_fault.create { Plan.default with Plan.seed = 9; trace_truncate = 1.0 } in
    let s = write_trace ~fault sample_events in
    Alcotest.(check bool) "truncation fired" true
      (Rma_fault.fired fault Rma_fault.Trace_truncate > 0);
    s
  in
  Alcotest.(check bool) "truncated stream is shorter" true
    (String.length truncated < String.length clean);
  match read_trace truncated with
  | Ok _ -> Alcotest.fail "truncated trace read back as complete"
  | Error e ->
      Alcotest.(check bool) "error is structured with a line number" true (e.Rma_trace.Codec.at_line >= 1)

let test_codec_corruption_deterministic_and_total () =
  let plan = { Plan.default with Plan.seed = 13; trace_corrupt = 1.0 } in
  let corrupted1 = write_trace ~fault:(Rma_fault.create plan) sample_events in
  let corrupted2 = write_trace ~fault:(Rma_fault.create plan) sample_events in
  Alcotest.(check string) "same plan writes identical corruption" corrupted1 corrupted2;
  let clean = write_trace sample_events in
  Alcotest.(check bool) "corruption changed the bytes" false (String.equal clean corrupted1);
  (* Totality: a corrupted stream decodes to Ok or a structured Error —
     never an exception. *)
  match read_trace corrupted1 with
  | Ok evs -> Alcotest.(check bool) "no events invented" true (List.length evs <= 4)
  | Error _ -> ()

(* --- soak: 500 seeded plans, no silent verdict change ---------------- *)

(* A deterministic event stream (8 ranks would be overkill here; 4 ranks
   x 2 windows keeps 500 runs fast) with epoch cycling, modelled on
   test_par's soak generator. *)
let soak_events ~nprocs ~wins ~n =
  let seed = ref 246_813_579 in
  let rand m =
    seed := ((!seed * 1103515245) + 12345) land 0x3FFFFFFF;
    !seed mod m
  in
  let events = ref [] in
  let push e = events := e :: !events in
  for w = 0 to wins - 1 do
    push (Event.Win_created { win = w; rank = 0; base = 0; size = 4096; sim_time = 0.0 });
    for r = 0 to nprocs - 1 do
      push (Event.Epoch_opened { win = w; rank = r; sim_time = 0.0 })
    done
  done;
  for i = 1 to n do
    let sim_time = float_of_int i in
    if i mod 53 = 0 then begin
      let win = rand wins and rank = rand nprocs in
      push (Event.Epoch_closed { win; rank; sim_time });
      push (Event.Epoch_opened { win; rank; sim_time })
    end
    else begin
      let kind = List.nth Access_kind.all (rand 5) in
      let space = rand nprocs in
      let issuer = if Access_kind.is_local kind then space else rand nprocs in
      let lo = rand 192 in
      let access =
        Access.make
          ~interval:(Interval.make ~lo ~hi:(lo + rand 8))
          ~kind ~issuer ~seq:i
          ~debug:(Debug_info.make ~file:"soak.c" ~line:(1 + rand 30) ~operation:"op")
      in
      push
        (Event.Access
           { space; access; win = Some (rand wins); relevant = true; on_stack = false; sim_time })
    end
  done;
  for w = 0 to wins - 1 do
    for r = 0 to nprocs - 1 do
      push (Event.Epoch_closed { win = w; rank = r; sim_time = float_of_int (n + 1) })
    done
  done;
  List.rev !events

let soak_plans = 500

let test_soak_500_plans_no_silent_change () =
  let nprocs = 4 in
  let events = soak_events ~nprocs ~wins:2 ~n:400 in
  let run ?budget ?fault ~jobs () =
    let tool =
      Rma_analyzer.create ~nprocs ~mode:Tool.Collect ~jobs ?budget ?fault Rma_analyzer.Contribution
    in
    List.iter (fun e -> ignore (tool.Tool.observer e)) events;
    let json = Json.to_string (Race_export.to_json ~generator:"fault-soak" (tool.Tool.races ())) in
    (json, (tool.Tool.bst_summary ()).Tool.degraded_drops_total)
  in
  let clean_json, clean_drops = run ~jobs:1 () in
  Alcotest.(check int) "clean run is not degraded" 0 clean_drops;
  let budget = spill_budget 48 in
  let silent = ref [] in
  for seed = 1 to soak_plans do
    let plan =
      { Plan.default with Plan.seed; worker_crash = 0.05; queue_overflow = 0.03; max_retries = 2 }
    in
    let fault = Rma_fault.create plan in
    if seed mod 3 = 0 then begin
      (* Budgeted leg: the verdict may legitimately change, but only
         with the degradation reported. *)
      let json, drops = run ~budget ~fault ~jobs:2 () in
      if (not (String.equal json clean_json)) && drops = 0 then
        silent := (seed, "budgeted verdict changed with zero degraded_drops") :: !silent
    end
    else begin
      (* Fault-only leg: engine crashes and overflows are recovered;
         the verdict must be byte-identical. *)
      let json, drops = run ~fault ~jobs:2 () in
      if not (String.equal json clean_json) then
        silent := (seed, "engine faults changed the verdict") :: !silent;
      if drops <> 0 then silent := (seed, "unbudgeted run claimed degradation") :: !silent
    end
  done;
  match !silent with
  | [] -> ()
  | (seed, why) :: _ ->
      Alcotest.failf "%d of %d plans violated the contract; first: seed %d (%s)"
        (List.length !silent) soak_plans seed why

let suite =
  [
    Alcotest.test_case "fault-plan specs parse and round-trip" `Quick test_plan_spec;
    Alcotest.test_case "budget specs parse and round-trip" `Quick test_budget_spec;
    Alcotest.test_case "fire replays per-site deterministic schedules" `Quick
      test_fire_deterministic;
    Alcotest.test_case "disjoint store spills oldest epochs at the cap" `Quick test_disjoint_spill;
    Alcotest.test_case "fail-fast budget raises Exhausted" `Quick test_disjoint_fail_fast;
    Alcotest.test_case "coarsen merges past debug info, coverage-exact" `Quick
      test_disjoint_coarsen;
    Alcotest.test_case "legacy byte cap and strided spill budgets" `Quick
      test_legacy_and_strided_budgets;
    Alcotest.test_case "crashed shards replay their journal at the barrier" `Quick
      test_par_crash_recovery;
    Alcotest.test_case "exhausted retries degrade to inline, tasks intact" `Quick
      test_par_retries_exhaust_to_inline;
    Alcotest.test_case "queue overflow degrades single submits inline" `Quick
      test_par_queue_overflow_degrades_inline;
    Alcotest.test_case "trace truncation is detected on read-back" `Quick
      test_codec_truncation_detected;
    Alcotest.test_case "trace corruption is deterministic; decoding total" `Quick
      test_codec_corruption_deterministic_and_total;
    Alcotest.test_case "soak: 500 fault plans, zero silent verdict changes" `Quick
      test_soak_500_plans_no_silent_change;
  ]
