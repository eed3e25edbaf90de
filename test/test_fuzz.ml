open Mpi_sim
open Rma_analysis

(* Differential fuzzing: random structured MPI-RMA programs run under
   every detector. The programs may or may not race; the invariants are
   about tool behaviour, not ground truth:

   - nothing crashes, deadlocks or corrupts the simulator;
   - every tool's verdict is deterministic in the scheduler seed;
   - MUST-RMA is sound w.r.t. the post-mortem analysis (same
     happens-before model, strictly less information: stack-blind and
     shadow eviction) — if the post-mortem pass finds no race, MUST must
     not either;
   - legacy races on contribution-silent runs are explained by its two
     published deviations (order-insensitivity or the dominance
     absorption the contribution introduces). *)

type action =
  | Put of { target : int; disp : int; len : int }
  | Get of { target : int; disp : int; len : int }
  | Acc of { target : int; disp : int }
  | Load_win of { disp : int; len : int }
  | Store_win of { disp : int; len : int }
  | Load_buf of { off : int; len : int }
  | Store_buf of { off : int; len : int }

type round = { actions : action array array; barrier_after : bool }

type sync_style = Lock_all | Fence_rounds | One_epoch

type fuzz_program = { rounds : round list; sync : sync_style }

let nprocs = 3
let win_bytes = 64
let buf_bytes = 64

let action_gen =
  QCheck.Gen.(
    let* kind = int_range 0 6 in
    let* target = int_range 0 (nprocs - 1) in
    let* disp = int_range 0 (win_bytes - 9) in
    let* off = int_range 0 (buf_bytes - 9) in
    let* len = int_range 1 8 in
    return
      (match kind with
      | 0 -> Put { target; disp; len }
      | 1 -> Get { target; disp; len }
      | 2 -> Acc { target; disp = disp land lnot 7 }
      | 3 -> Load_win { disp; len }
      | 4 -> Store_win { disp; len }
      | 5 -> Load_buf { off; len }
      | _ -> Store_buf { off; len }))

let round_gen =
  QCheck.Gen.(
    let* actions =
      array_size (return nprocs) (array_size (int_range 0 3) action_gen)
    in
    let* barrier_after = bool in
    return { actions; barrier_after })

let program_gen =
  QCheck.Gen.(
    let* rounds = list_size (int_range 1 4) round_gen in
    let* sync = oneofl [ Lock_all; Fence_rounds; One_epoch ] in
    return { rounds; sync })

let print_action = function
  | Put { target; disp; len } -> Printf.sprintf "Put(t%d,%d,%d)" target disp len
  | Get { target; disp; len } -> Printf.sprintf "Get(t%d,%d,%d)" target disp len
  | Acc { target; disp } -> Printf.sprintf "Acc(t%d,%d)" target disp
  | Load_win { disp; len } -> Printf.sprintf "LoadW(%d,%d)" disp len
  | Store_win { disp; len } -> Printf.sprintf "StoreW(%d,%d)" disp len
  | Load_buf { off; len } -> Printf.sprintf "LoadB(%d,%d)" off len
  | Store_buf { off; len } -> Printf.sprintf "StoreB(%d,%d)" off len

let print_program p =
  String.concat " | "
    (List.map
       (fun r ->
         Printf.sprintf "[%s]%s"
           (String.concat " ; "
              (Array.to_list
                 (Array.map
                    (fun acts -> String.concat "," (Array.to_list (Array.map print_action acts)))
                    r.actions)))
           (if r.barrier_after then "B" else ""))
       p.rounds)
  ^
  match p.sync with
  | Lock_all -> " (lock_all/round)"
  | Fence_rounds -> " (fence rounds)"
  | One_epoch -> " (one epoch)"

let arb_program = QCheck.make ~print:print_program program_gen

(* Line numbers identify the (round, rank, index) of each action so
   reports are attributable. *)
let run_program p () =
  let rank = Mpi.comm_rank () in
  let win_base = Mpi.alloc ~label:"window" ~exposed:true win_bytes in
  let buf = Mpi.alloc ~label:"buffer" ~exposed:true buf_bytes in
  let win = Mpi.win_create ~base:win_base ~size:win_bytes in
  let act_line ri i = (ri * 100) + (rank * 10) + i in
  let run_action ri i a =
    let loc op = Mpi.loc ~file:"fuzz.c" ~line:(act_line ri i) op in
    match a with
    | Put { target; disp; len } ->
        Mpi.put ~loc:(loc "MPI_Put") win ~target ~target_disp:disp
          ~origin_addr:(buf + ((i * 8) mod (buf_bytes - len)))
          ~len
    | Get { target; disp; len } ->
        Mpi.get ~loc:(loc "MPI_Get") win ~target ~target_disp:disp
          ~origin_addr:(buf + ((i * 8) mod (buf_bytes - len)))
          ~len
    | Acc { target; disp } ->
        Mpi.accumulate ~loc:(loc "MPI_Accumulate") win ~target ~target_disp:disp
          ~origin_addr:(buf + (i * 8 mod (buf_bytes - 8)))
          ~len:8 ~op:Runtime.Sum
    | Load_win { disp; len } -> ignore (Mpi.load ~loc:(loc "Load") ~addr:(win_base + disp) ~len ())
    | Store_win { disp; len } ->
        Mpi.store ~loc:(loc "Store") ~addr:(win_base + disp) (Bytes.make len 'f')
    | Load_buf { off; len } -> ignore (Mpi.load ~loc:(loc "Load") ~addr:(buf + off) ~len ())
    | Store_buf { off; len } -> Mpi.store ~loc:(loc "Store") ~addr:(buf + off) (Bytes.make len 'f')
  in
  (match p.sync with
  | One_epoch -> Mpi.win_lock_all win
  | Fence_rounds -> Mpi.win_fence win
  | Lock_all -> ());
  List.iteri
    (fun ri r ->
      if p.sync = Lock_all then Mpi.win_lock_all win;
      Array.iteri (fun i a -> run_action ri i a) r.actions.(rank);
      (match p.sync with
      | Lock_all -> Mpi.win_unlock_all win
      | Fence_rounds -> Mpi.win_fence win
      | One_epoch -> ());
      if r.barrier_after then Mpi.barrier ())
    p.rounds;
  (match p.sync with One_epoch -> Mpi.win_unlock_all win | Fence_rounds | Lock_all -> ());
  Mpi.win_free win

let quiet = { Config.default with Config.analysis_overhead_scale = 0.0 }

let races_of tool p seed =
  tool.Tool.reset ();
  (try ignore (Runtime.run ~nprocs ~seed ~config:quiet ~observer:tool.Tool.observer (run_program p))
   with Report.Race_abort _ -> ());
  tool.Tool.race_count ()

let record p seed =
  let recorder = Rma_trace.Recorder.create () in
  ignore
    (Runtime.run ~nprocs ~seed ~config:quiet
       ~observer:(Rma_trace.Recorder.observer recorder)
       (run_program p));
  Rma_trace.Recorder.events recorder

let prop_no_crash_any_tool =
  QCheck.Test.make ~name:"fuzz: all tools survive random programs" ~count:150 arb_program
    (fun p ->
      let tools =
        [
          Rma_analyzer.create ~nprocs ~mode:Tool.Collect Rma_analyzer.Legacy;
          Rma_analyzer.create ~nprocs ~mode:Tool.Collect Rma_analyzer.Contribution;
          Rma_analyzer.create ~nprocs ~mode:Tool.Collect Rma_analyzer.Fragmentation_only;
          Rma_analyzer.create ~nprocs ~mode:Tool.Collect Rma_analyzer.Strided_extension;
          Must_rma.create ~nprocs ();
        ]
      in
      List.iter (fun tool -> ignore (races_of tool p 7)) tools;
      true)

let prop_verdict_deterministic =
  QCheck.Test.make ~name:"fuzz: verdicts deterministic per seed" ~count:75 arb_program
    (fun p ->
      let tool = Rma_analyzer.create ~nprocs ~mode:Tool.Collect Rma_analyzer.Contribution in
      let a = races_of tool p 13 and b = races_of tool p 13 in
      a = b)

let prop_must_sound_wrt_post_mortem =
  QCheck.Test.make ~name:"fuzz: post-mortem silent => MUST silent" ~count:100 arb_program
    (fun p ->
      let events = record p 5 in
      let pm = Rma_trace.Post_mortem.analyze events in
      if pm.Rma_trace.Post_mortem.distinct_pairs = 0 then begin
        let must = Must_rma.create ~nprocs () in
        races_of must p 5 = 0
      end
      else true)

let prop_post_mortem_deterministic_on_trace =
  QCheck.Test.make ~name:"fuzz: post-mortem is a pure function of the trace" ~count:75 arb_program
    (fun p ->
      let events = record p 9 in
      let a = (Rma_trace.Post_mortem.analyze events).Rma_trace.Post_mortem.distinct_pairs in
      let b = (Rma_trace.Post_mortem.analyze events).Rma_trace.Post_mortem.distinct_pairs in
      a = b)

(* --- codec totality under hostile bytes ----------------------------- *)

(* Write a recorded stream through the real framing writer (no fault
   injector, so the base bytes are well-formed), then attack the bytes
   directly. The invariant is totality: [read_all]
   returns [Ok] or a structured [Error] — it never raises and never
   loops — and a complete parse is only reported for complete streams. *)

let trace_bytes events =
  let path = Filename.temp_file "fuzz_codec" ".txt" in
  let oc = open_out_bin path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> Rma_trace.Codec.write_all oc events);
  let ic = open_in_bin path in
  let s =
    Fun.protect
      ~finally:(fun () -> close_in ic)
      (fun () -> really_input_string ic (in_channel_length ic))
  in
  Sys.remove path;
  s

(* Read the bytes back with [Codec.read_all] and with the split-based
   reader it replaced: the result, down to the error's line and reason,
   must be the same. *)
let read_trace_bytes s =
  let path = Filename.temp_file "fuzz_codec" ".txt" in
  let oc = open_out_bin path in
  Fun.protect ~finally:(fun () -> close_out oc) (fun () -> output_string oc s);
  let read f =
    let ic = open_in path in
    Fun.protect ~finally:(fun () -> close_in ic) (fun () -> f ic)
  in
  let r = read Rma_trace.Codec.read_all in
  let oracle = read Test_trace.Split_oracle.read_all_raw in
  Sys.remove path;
  if compare r oracle <> 0 then
    QCheck.Test.fail_reportf "read_all disagrees with the split-based reader on %S" s;
  r

let prop_truncated_trace_structured_error =
  QCheck.Test.make ~name:"fuzz: truncated traces yield Error, never raise"
    ~count:50
    QCheck.(pair arb_program small_nat)
    (fun (p, cut_seed) ->
      let events = record p 17 in
      let s = trace_bytes events in
      let n = List.length events in
      (* Several cuts per stream, spread deterministically. *)
      List.for_all
        (fun k ->
          let cut = (cut_seed + (k * 7919)) mod (String.length s + 1) in
          match read_trace_bytes (String.sub s 0 cut) with
          | Ok evs ->
              (* [Ok] may only report the complete stream — losing at
                 most the final newline, which carries no data. Any cut
                 that drops an event or the footer must be an error. *)
              cut >= String.length s - 1 && List.length evs = n
          | Error e -> e.Rma_trace.Codec.at_line >= 1)
        [ 0; 1; 2; 3 ])

let prop_bitflipped_trace_never_raises =
  QCheck.Test.make ~name:"fuzz: bit-flipped traces decode totally"
    ~count:50
    QCheck.(pair arb_program small_nat)
    (fun (p, flip_seed) ->
      let events = record p 29 in
      let s = trace_bytes events in
      List.for_all
        (fun k ->
          let pos = (flip_seed + (k * 6131)) mod String.length s in
          let bit = (flip_seed + k) mod 8 in
          let b = Bytes.of_string s in
          Bytes.set b pos (Char.chr (Char.code (Bytes.get b pos) lxor (1 lsl bit)));
          match read_trace_bytes (Bytes.to_string b) with
          | Ok evs -> List.length evs <= List.length events
          | Error e -> e.Rma_trace.Codec.at_line >= 1)
        [ 0; 1; 2; 3 ])

let prop_trace_roundtrip_preserves_analysis =
  QCheck.Test.make ~name:"fuzz: codec roundtrip preserves post-mortem result" ~count:50
    arb_program
    (fun p ->
      let events = record p 21 in
      let reencoded =
        List.map
          (fun e ->
            match Rma_trace.Codec.decode_event (Rma_trace.Codec.encode_event e) with
            | Ok d -> d
            | Error msg -> QCheck.Test.fail_reportf "codec failure: %s" msg)
          events
      in
      (Rma_trace.Post_mortem.analyze events).Rma_trace.Post_mortem.distinct_pairs
      = (Rma_trace.Post_mortem.analyze reencoded).Rma_trace.Post_mortem.distinct_pairs)

let suite =
  [
    QCheck_alcotest.to_alcotest prop_no_crash_any_tool;
    QCheck_alcotest.to_alcotest prop_verdict_deterministic;
    QCheck_alcotest.to_alcotest prop_must_sound_wrt_post_mortem;
    QCheck_alcotest.to_alcotest prop_post_mortem_deterministic_on_trace;
    QCheck_alcotest.to_alcotest prop_trace_roundtrip_preserves_analysis;
    QCheck_alcotest.to_alcotest prop_truncated_trace_structured_error;
    QCheck_alcotest.to_alcotest prop_bitflipped_trace_never_raises;
  ]
