open Mpi_sim
open Rma_trace
open Rma_analysis

(* --- Codec --- *)

let sample_events () =
  (* Record a small real run for realistic event variety. *)
  let recorder = Recorder.create () in
  let _ =
    Runtime.run ~nprocs:2 ~seed:4 ~config:Config.quiet_network ~observer:(Recorder.observer recorder)
      (fun () ->
        let rank = Mpi.comm_rank () in
        let base = Mpi.alloc ~exposed:true 16 in
        let win = Mpi.win_create ~base ~size:16 in
        Mpi.win_lock_all win;
        if rank = 0 then begin
          let src = Mpi.alloc ~exposed:true ~storage:Memory.Stack 8 in
          Mpi.store_i64 ~loc:(Mpi.loc ~file:"file with spaces.c" ~line:3 "Store") ~addr:src 5L;
          Mpi.put win ~loc:(Mpi.loc ~file:"t%09.c" ~line:4 "MPI_Put") ~target:1 ~target_disp:0
            ~origin_addr:src ~len:8
        end;
        Mpi.win_flush_all win;
        Mpi.barrier ();
        Mpi.win_unlock_all win;
        Mpi.allreduce_int 1 ~op:Runtime.Sum |> ignore;
        Mpi.win_free win)
  in
  Recorder.events recorder

let test_codec_roundtrip_real_run () =
  let events = sample_events () in
  Alcotest.(check bool) "has events" true (List.length events > 10);
  List.iter
    (fun e ->
      match Codec.decode_event (Codec.encode_event e) with
      | Ok d ->
          Alcotest.(check string) "roundtrip" (Codec.encode_event e) (Codec.encode_event d)
      | Error msg -> Alcotest.failf "decode failed: %s" msg)
    events

let test_codec_escaping () =
  List.iter
    (fun s -> Alcotest.(check string) "escape roundtrip" s (Codec.unescape (Codec.escape s)))
    [ "plain"; "with\ttab"; "with\nnewline"; "percent%09"; "%"; "" ]

let test_codec_rejects_garbage () =
  Alcotest.(check bool) "garbage rejected" true
    (Result.is_error (Codec.decode_event "Q\tnot\ta\tthing"));
  Alcotest.(check bool) "bad int rejected" true
    (Result.is_error (Codec.decode_event "Z\tnotanint\t0.0"));
  Alcotest.(check bool) "inverted interval rejected" true
    (Result.is_error
       (Codec.decode_event "A\t0\tLR\t9\t3\t0\t1\t-\t1\t0\t0.0\tf.c\t1\top"))

let test_save_load_file () =
  let recorder = Recorder.create () in
  List.iter (fun e -> ignore (Recorder.observer recorder e)) (sample_events ());
  let path = Filename.temp_file "rma_trace" ".txt" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Recorder.save recorder ~path;
      match Recorder.load ~path with
      | Error e -> Alcotest.failf "load failed: %s" e
      | Ok events ->
          Alcotest.(check int) "same length" (Recorder.length recorder) (List.length events);
          List.iter2
            (fun a b ->
              Alcotest.(check string) "same event" (Codec.encode_event a) (Codec.encode_event b))
            (Recorder.events recorder) events)

(* --- Replay --- *)

let racy_program () =
  let rank = Mpi.comm_rank () in
  let base = Mpi.alloc ~exposed:true 8 in
  let win = Mpi.win_create ~base ~size:8 in
  Mpi.win_lock_all win;
  if rank = 0 then begin
    let buf = Mpi.alloc ~exposed:true 8 in
    Mpi.get win ~loc:(Mpi.loc ~file:"replay.c" ~line:10 "MPI_Get") ~target:1 ~target_disp:0
      ~origin_addr:buf ~len:8;
    ignore (Mpi.load ~loc:(Mpi.loc ~file:"replay.c" ~line:11 "Load") ~addr:buf ~len:8 ())
  end;
  Mpi.win_unlock_all win;
  Mpi.win_free win

let record_run program =
  let recorder = Recorder.create () in
  let _ =
    Runtime.run ~nprocs:2 ~seed:2 ~config:Config.quiet_network
      ~observer:(Recorder.observer recorder) program
  in
  Recorder.events recorder

let test_replay_through_online_tool () =
  let events = record_run racy_program in
  let tool = Rma_analyzer.create ~nprocs:2 ~mode:Tool.Collect Rma_analyzer.Contribution in
  let races = Recorder.replay events ~tool in
  Alcotest.(check bool) "race found on replay" true (races <> [])

let test_tee_records_and_forwards () =
  let recorder = Recorder.create () in
  let tool = Rma_analyzer.create ~nprocs:2 ~mode:Tool.Collect Rma_analyzer.Contribution in
  let _ =
    Runtime.run ~nprocs:2 ~seed:2 ~config:Config.quiet_network
      ~observer:(Recorder.tee recorder tool.Tool.observer)
      racy_program
  in
  Alcotest.(check bool) "tool saw events" true (Tool.flagged tool);
  Alcotest.(check bool) "recorder saw events" true (Recorder.length recorder > 0)

(* --- Post-mortem --- *)

let test_post_mortem_finds_race () =
  let events = record_run racy_program in
  let result = Post_mortem.analyze events in
  Alcotest.(check bool) "found" true (result.Post_mortem.distinct_pairs >= 1);
  match Post_mortem.to_reports result with
  | [] -> Alcotest.fail "no report"
  | r :: _ ->
      Alcotest.(check string) "tool name" "MC-Checker (post-mortem)" r.Report.tool

let test_post_mortem_silent_on_safe_run () =
  let safe_program () =
    let rank = Mpi.comm_rank () in
    let base = Mpi.alloc ~exposed:true 8 in
    let win = Mpi.win_create ~base ~size:8 in
    Mpi.win_lock_all win;
    if rank = 0 then begin
      let buf = Mpi.alloc ~exposed:true 8 in
      ignore (Mpi.load ~addr:buf ~len:8 ());
      Mpi.get win ~target:1 ~target_disp:0 ~origin_addr:buf ~len:8
    end;
    Mpi.win_unlock_all win;
    Mpi.barrier ();
    if rank = 1 then ignore (Mpi.load ~addr:base ~len:8 ());
    Mpi.win_free win
  in
  let result = Post_mortem.analyze (record_run safe_program) in
  Alcotest.(check int) "no races" 0 result.Post_mortem.distinct_pairs

let test_post_mortem_enumerates_all_pairs () =
  (* Two independent races in one epoch: the on-the-fly tool reports the
     first and refuses the access; the post-mortem pass must find both
     statement pairs. *)
  let program () =
    let rank = Mpi.comm_rank () in
    let base = Mpi.alloc ~exposed:true 32 in
    let win = Mpi.win_create ~base ~size:32 in
    Mpi.win_lock_all win;
    if rank = 0 then begin
      let src = Mpi.alloc ~exposed:true 16 in
      Mpi.put win ~loc:(Mpi.loc ~file:"pm.c" ~line:1 "MPI_Put") ~target:1 ~target_disp:0
        ~origin_addr:src ~len:8;
      Mpi.put win ~loc:(Mpi.loc ~file:"pm.c" ~line:2 "MPI_Put") ~target:1 ~target_disp:0
        ~origin_addr:src ~len:8;
      Mpi.put win ~loc:(Mpi.loc ~file:"pm.c" ~line:3 "MPI_Put") ~target:1 ~target_disp:16
        ~origin_addr:(src + 8) ~len:8;
      Mpi.put win ~loc:(Mpi.loc ~file:"pm.c" ~line:4 "MPI_Put") ~target:1 ~target_disp:16
        ~origin_addr:(src + 8) ~len:8
    end;
    Mpi.win_unlock_all win;
    Mpi.win_free win
  in
  let result = Post_mortem.analyze (record_run program) in
  (* Pairs: (1,2) and (3,4) on the target window, plus origin-side
     RMA_read overlaps are read/read (safe). *)
  Alcotest.(check bool) "at least two distinct pairs" true
    (result.Post_mortem.distinct_pairs >= 2)

let test_post_mortem_suite_is_complete () =
  (* With full traces (no alias filter, no stack blindness), the
     post-mortem analysis classifies the entire 154-code suite
     perfectly. *)
  let confusion =
    List.fold_left
      (fun (fp, fn, tp, tn) s ->
        let recorder = Recorder.create () in
        (try
           ignore
             (Runtime.run ~nprocs:3 ~seed:11
                ~config:{ Config.default with Config.analysis_overhead_scale = 0.0 }
                ~observer:(Recorder.observer recorder)
                (Rma_microbench.Runner.program s))
         with Report.Race_abort _ -> ());
        let result = Post_mortem.analyze (Recorder.events recorder) in
        let flagged = result.Post_mortem.distinct_pairs > 0 in
        match (s.Rma_microbench.Scenario.racy, flagged) with
        | true, true -> (fp, fn, tp + 1, tn)
        | true, false -> (fp, fn + 1, tp, tn)
        | false, true -> (fp + 1, fn, tp, tn)
        | false, false -> (fp, fn, tp, tn + 1))
      (0, 0, 0, 0) Rma_microbench.Scenario.all
  in
  Alcotest.(check (list int)) "FP FN TP TN" [ 0; 0; 47; 107 ]
    (let fp, fn, tp, tn = confusion in
     [ fp; fn; tp; tn ])

let suite =
  [
    Alcotest.test_case "codec roundtrip on a real run" `Quick test_codec_roundtrip_real_run;
    Alcotest.test_case "codec escaping" `Quick test_codec_escaping;
    Alcotest.test_case "codec rejects garbage" `Quick test_codec_rejects_garbage;
    Alcotest.test_case "save/load file" `Quick test_save_load_file;
    Alcotest.test_case "replay through an online tool" `Quick test_replay_through_online_tool;
    Alcotest.test_case "tee records and forwards" `Quick test_tee_records_and_forwards;
    Alcotest.test_case "post-mortem finds the race" `Quick test_post_mortem_finds_race;
    Alcotest.test_case "post-mortem silent on safe run" `Quick test_post_mortem_silent_on_safe_run;
    Alcotest.test_case "post-mortem enumerates all pairs" `Quick
      test_post_mortem_enumerates_all_pairs;
    Alcotest.test_case "post-mortem suite is complete" `Slow test_post_mortem_suite_is_complete;
  ]

(* --- Hybrid thread fields on access records (PR 8) --- *)

let hybrid_sample_events () =
  let recorder = Recorder.create () in
  let _ =
    Runtime.run ~nprocs:2 ~seed:4 ~config:Config.quiet_network
      ~observer:(Recorder.observer recorder) (fun () ->
        let rank = Mpi.comm_rank () in
        let base = Mpi.alloc ~exposed:true 16 in
        let win = Mpi.win_create ~base ~size:16 in
        Mpi.win_lock_all win;
        if rank = 0 then begin
          let t =
            Mpi.thread_spawn (fun () ->
                ignore (Mpi.load ~loc:(Mpi.loc ~file:"hyb.c" ~line:7 "Load") ~addr:base ~len:8 ()))
          in
          Mpi.thread_join t
        end;
        Mpi.win_unlock_all win;
        Mpi.win_free win)
  in
  Recorder.events recorder

let test_codec_roundtrip_thread_fields () =
  let events = hybrid_sample_events () in
  let threaded =
    List.filter
      (fun e ->
        match e with
        | Event.Access a -> a.Event.access.Rma_access.Access.thread.Rma_access.Access.tid <> 0
        | _ -> false)
      events
  in
  Alcotest.(check bool) "run produced thread-issued accesses" true (threaded <> []);
  List.iter
    (fun e ->
      match Codec.decode_event (Codec.encode_event e) with
      | Ok d ->
          Alcotest.(check string) "thread-field roundtrip" (Codec.encode_event e)
            (Codec.encode_event d);
          (match (e, d) with
          | Event.Access a, Event.Access b ->
              Alcotest.(check bool) "decoded access equal" true
                (Rma_access.Access.equal a.Event.access b.Event.access)
          | _ -> ())
      | Error msg -> Alcotest.failf "decode failed: %s" msg)
    events

let test_codec_single_thread_arity_unchanged () =
  (* Thread-free runs must keep the 14-field A-record arity so existing
     trace files (and their consumers) are byte-stable. *)
  List.iter
    (fun e ->
      match e with
      | Event.Access _ ->
          let line = Codec.encode_event e in
          Alcotest.(check int)
            ("14 fields: " ^ line)
            14
            (List.length (String.split_on_char '\t' line))
      | _ -> ())
    (sample_events ());
  (* And thread-issued accesses carry exactly three extra fields. *)
  List.iter
    (fun e ->
      match e with
      | Event.Access a when a.Event.access.Rma_access.Access.thread.Rma_access.Access.tid <> 0 ->
          let line = Codec.encode_event e in
          Alcotest.(check int)
            ("17 fields: " ^ line)
            17
            (List.length (String.split_on_char '\t' line))
      | _ -> ())
    (hybrid_sample_events ())

let test_codec_rejects_bad_thread_fields () =
  Alcotest.(check bool) "partial thread fields rejected" true
    (Result.is_error
       (Codec.decode_event "A\t0\tLR\t3\t9\t0\t1\t-\t1\t0\t0.0\tf.c\t1\top\t1"));
  Alcotest.(check bool) "bad thread view rejected" true
    (Result.is_error
       (Codec.decode_event "A\t0\tLR\t3\t9\t0\t1\t-\t1\t0\t0.0\tf.c\t1\top\t1\t1\tnot-a-pair"))

let suite =
  suite
  @ [
      Alcotest.test_case "codec roundtrips thread fields" `Quick test_codec_roundtrip_thread_fields;
      Alcotest.test_case "codec arity: 14 plain / 17 threaded" `Quick
        test_codec_single_thread_arity_unchanged;
      Alcotest.test_case "codec rejects malformed thread fields" `Quick
        test_codec_rejects_bad_thread_fields;
    ]

(* --- Differential decoder oracle ------------------------------------- *)

(* The split-based decoder and file reader that [Codec]'s cursor decoder
   and its [Incremental]-driven [read_all] replaced, copied verbatim
   (helpers included). Every [Ok] value and every [Error] reason of the
   codec must stay identical to this grammar's. *)
module Split_oracle = struct
  open Rma_access
  module Event = Mpi_sim.Event

  let header = Codec.header
  let legacy_header = Codec.legacy_header
  let footer_prefix = "rma-trace-end"
  let unescape = Codec.unescape

  type error = Codec.error = { at_line : int; reason : string }

  let kind_of_str = function
    | "LR" -> Ok Access_kind.Local_read
    | "LW" -> Ok Access_kind.Local_write
    | "RR" -> Ok Access_kind.Rma_read
    | "RW" -> Ok Access_kind.Rma_write
    | "RA" -> Ok Access_kind.Rma_accumulate
    | other -> Error (Printf.sprintf "unknown access kind %S" other)

  let opt_int_of_str = function
    | "-" -> Ok None
    | s -> ( match int_of_string_opt s with Some i -> Ok (Some i) | None -> Error ("bad int " ^ s))

  let ( let* ) r f = Result.bind r f

  let int_field s =
    match int_of_string_opt s with Some i -> Ok i | None -> Error ("bad int " ^ s)

  let float_field s =
    match float_of_string_opt s with Some f -> Ok f | None -> Error ("bad float " ^ s)

  let bool_field = function
    | "1" -> Ok true
    | "0" -> Ok false
    | s -> Error ("bad bool " ^ s)

  let tview_field s =
    let pair p =
      match String.split_on_char ':' p with
      | [ c; v ] -> (
          match (int_of_string_opt c, int_of_string_opt v) with
          | Some c, Some v -> Ok (c, v)
          | _ -> Error ("bad thread-view pair " ^ p))
      | _ -> Error ("bad thread-view pair " ^ p)
    in
    let rec go acc = function
      | [] -> Ok (List.rev acc)
      | p :: rest ->
          let* cv = pair p in
          go (cv :: acc) rest
    in
    if s = "" then Ok [] else go [] (String.split_on_char ',' s)

  let decode_event_exn line =
    match String.split_on_char '\t' line with
    | "A" :: space :: kind :: lo :: hi :: issuer :: seq :: win :: relevant :: on_stack :: time
      :: file :: lnum :: op :: thread_fields ->
        let* space = int_field space in
        let* kind = kind_of_str kind in
        let* lo = int_field lo in
        let* hi = int_field hi in
        let* issuer = int_field issuer in
        let* seq = int_field seq in
        let* win = opt_int_of_str win in
        let* relevant = bool_field relevant in
        let* on_stack = bool_field on_stack in
        let* sim_time = float_field time in
        let* line_number = int_field lnum in
        if lo > hi then Error (Printf.sprintf "inverted interval [%s...%s]" (string_of_int lo) (string_of_int hi))
        else begin
          let debug =
            Debug_info.make ~file:(unescape file) ~line:line_number ~operation:(unescape op)
          in
          let* thread =
            match thread_fields with
            | [] -> Ok (Access.default_thread ~issuer)
            | [ tid; tstamp; tview ] ->
                let* tid = int_field tid in
                let* tstamp = int_field tstamp in
                let* tview = tview_field tview in
                Ok { Access.tid; tstamp; tview }
            | _ -> Error "malformed thread fields on access record"
          in
          let access =
            Access.make_threaded ~thread ~interval:(Interval.make ~lo ~hi) ~kind ~issuer ~seq ~debug
          in
          Ok (Event.Access { Event.space; access; win; relevant; on_stack; sim_time })
        end
    | [ "C"; kind; rank; time ] ->
        let* kind =
          match kind with
          | "barrier" -> Ok Event.Barrier
          | "allreduce" -> Ok Event.Allreduce
          | "fence" -> Ok Event.Fence
          | other -> Error ("unknown collective " ^ other)
        in
        let* rank = int_field rank in
        let* sim_time = float_field time in
        Ok (Event.Collective { kind; rank; sim_time })
    | [ "W"; win; rank; base; size; time ] ->
        let* win = int_field win in
        let* rank = int_field rank in
        let* base = int_field base in
        let* size = int_field size in
        let* sim_time = float_field time in
        Ok (Event.Win_created { win; rank; base; size; sim_time })
    | [ "X"; win; rank; time ] ->
        let* win = int_field win in
        let* rank = int_field rank in
        let* sim_time = float_field time in
        Ok (Event.Win_freed { win; rank; sim_time })
    | [ "O"; win; rank; time ] ->
        let* win = int_field win in
        let* rank = int_field rank in
        let* sim_time = float_field time in
        Ok (Event.Epoch_opened { win; rank; sim_time })
    | [ "E"; win; rank; time ] ->
        let* win = int_field win in
        let* rank = int_field rank in
        let* sim_time = float_field time in
        Ok (Event.Epoch_closed { win; rank; sim_time })
    | [ "L"; win; rank; target; time ] ->
        let* win = int_field win in
        let* rank = int_field rank in
        let* target = opt_int_of_str target in
        let* sim_time = float_field time in
        Ok (Event.Flushed { win; rank; target; sim_time })
    | [ "Z"; rank; time ] ->
        let* rank = int_field rank in
        let* sim_time = float_field time in
        Ok (Event.Finished { rank; sim_time })
    | _ -> Error (Printf.sprintf "malformed trace line %S" line)

  (* The grammar above is already total over well-formed OCaml strings,
     but "never raises" is a contract the fuzz suite enforces against
     arbitrary bytes — the catch-all keeps it robust against any future
     field parser that throws. *)
  let decode_event line =
    match decode_event_exn line with
    | r -> r
    | exception e -> Error (Printf.sprintf "decode failure: %s" (Printexc.to_string e))

  let parse_footer line =
    match String.split_on_char ' ' line with
    | [ p; n ] when p = footer_prefix -> int_of_string_opt n
    | _ -> None

  let read_all_raw ic =
    match input_line ic with
    | exception End_of_file -> Error { at_line = 1; reason = "empty trace" }
    | first when first <> header && first <> legacy_header ->
        Error { at_line = 1; reason = Printf.sprintf "bad header %S" first }
    | first ->
        let framed = first = header in
        let rec go lineno acc =
          match input_line ic with
          | exception End_of_file ->
              if framed then
                Error { at_line = lineno; reason = "truncated trace: missing rma-trace-end footer" }
              else Ok (List.rev acc)
          | line when framed && String.length line >= String.length footer_prefix
                      && String.sub line 0 (String.length footer_prefix) = footer_prefix -> (
              match parse_footer line with
              | Some n when n = List.length acc -> Ok (List.rev acc)
              | Some n ->
                  Error
                    {
                      at_line = lineno;
                      reason =
                        Printf.sprintf "footer count %d disagrees with %d decoded events" n
                          (List.length acc);
                    }
              | None -> Error { at_line = lineno; reason = "malformed rma-trace-end footer" })
          | line when String.trim line = "" -> go (lineno + 1) acc
          | line -> (
              match decode_event line with
              | Ok e -> go (lineno + 1) (e :: acc)
              | Error reason -> Error { at_line = lineno; reason })
        in
        go 2 []
end

(* Feed [lines] to one [Incremental] decoder, so its memo carries across
   lines, and check each step against the oracle's decode of that line.
   After an [Error] the stream is abandoned for a fresh decoder, as the
   interface asks. Blank lines must be skipped, as the split-based
   reader skipped them; footer-shaped lines are framing, not records. *)
let check_incremental_against_oracle lines =
  let fresh () =
    let dec = Codec.Incremental.create () in
    ignore (Codec.Incremental.feed dec Codec.header);
    dec
  in
  let dec = ref (fresh ()) in
  List.for_all
    (fun line ->
      if String.trim line = "" then Codec.Incremental.feed !dec line = Ok Codec.Incremental.Skip
      else if String.starts_with ~prefix:Split_oracle.footer_prefix line then true
      else
        match (Codec.Incremental.feed !dec line, Split_oracle.decode_event line) with
        | Ok (Codec.Incremental.Event e), Ok o -> compare e o = 0
        | Error err, Error reason ->
            dec := fresh ();
            err.Codec.reason = reason
        | _ -> false)
    lines

let check_against_oracle lines =
  List.for_all
    (fun line -> compare (Codec.decode_event line) (Split_oracle.decode_event line) = 0)
    lines
  && check_incremental_against_oracle lines

(* Random events of every record type, with field values well beyond
   what a simulated run writes: negative and 62-bit ints, special and
   huge floats, text with tabs, newlines and percent signs. Text comes
   mostly from a small pool, so the decoder's intern cache sees repeats,
   evictions and near misses. *)
let text_gen =
  QCheck.Gen.(
    frequency
      [
        (3, oneofl [ "./exchange.c"; "Load"; "MPI_Put"; "a.c"; "a.cc"; "" ]);
        ( 1,
          map (String.concat "")
            (list_size (int_bound 5)
               (oneofl
                  [ "a"; "/"; "."; "%"; "%25"; "\t"; "\n"; "\r"; " "; "%41"; "%zz"; "\xc3\xbc" ]))
        );
      ])

let int_gen =
  QCheck.Gen.(
    frequency
      [
        (4, small_nat); (2, int); (1, map (fun i -> -i) small_nat); (1, oneofl [ max_int; min_int ]);
      ])

let float_gen =
  QCheck.Gen.(
    frequency
      [
        (4, map (fun i -> float_of_int i /. 1e9) (int_bound 1_000_000_000));
        (2, float);
        (1, oneofl [ nan; infinity; neg_infinity; -0.0; 1e300; 5e-324; 9007199254740993.0 ]);
      ])

let event_gen =
  let open QCheck.Gen in
  let open Rma_access in
  let access =
    int_gen >>= fun space ->
    oneofl Access_kind.[ Local_read; Local_write; Rma_read; Rma_write; Rma_accumulate ]
    >>= fun kind ->
    int_gen >>= fun lo ->
    small_nat >>= fun width ->
    small_nat >>= fun issuer ->
    int_gen >>= fun seq ->
    opt int_gen >>= fun win ->
    bool >>= fun relevant ->
    bool >>= fun on_stack ->
    float_gen >>= fun sim_time ->
    text_gen >>= fun file ->
    int_gen >>= fun line ->
    text_gen >>= fun operation ->
    frequency
      [
        (3, return (Access.default_thread ~issuer));
        ( 1,
          int_range 1 3 >>= fun tid ->
          small_nat >>= fun tstamp ->
          list_size (int_bound 3) (pair int_gen int_gen) >>= fun tview ->
          return { Access.tid; tstamp; tview } );
      ]
    >>= fun thread ->
    let hi = if lo > max_int - width then max_int else lo + width in
    let debug = Debug_info.make ~file ~line ~operation in
    let access =
      Access.make_threaded ~thread ~interval:(Interval.make ~lo ~hi) ~kind ~issuer ~seq ~debug
    in
    return (Event.Access { Event.space; access; win; relevant; on_stack; sim_time })
  in
  frequency
    [
      (6, access);
      ( 1,
        map3
          (fun kind rank sim_time -> Event.Collective { kind; rank; sim_time })
          (oneofl Event.[ Barrier; Allreduce; Fence ])
          int_gen float_gen );
      ( 1,
        map3
          (fun (win, rank) (base, size) sim_time ->
            Event.Win_created { win; rank; base; size; sim_time })
          (pair int_gen int_gen) (pair int_gen int_gen) float_gen );
      ( 1,
        map3 (fun win rank sim_time -> Event.Win_freed { win; rank; sim_time }) int_gen int_gen float_gen
      );
      ( 1,
        map3
          (fun win rank sim_time -> Event.Epoch_opened { win; rank; sim_time })
          int_gen int_gen float_gen );
      ( 1,
        map3
          (fun win rank sim_time -> Event.Epoch_closed { win; rank; sim_time })
          int_gen int_gen float_gen );
      ( 1,
        map3
          (fun (win, rank) target sim_time -> Event.Flushed { win; rank; target; sim_time })
          (pair int_gen int_gen) (opt int_gen) float_gen );
      (1, map2 (fun rank sim_time -> Event.Finished { rank; sim_time }) int_gen float_gen);
    ]

(* Field values that probe each parser's fast path and its fallback. *)
let hostile_tokens =
  [
    "%zz"; "%41"; "%"; "-"; "--1"; "1234567890123456789"; "-1234567890123456789";
    "9999999999999999999"; "-9999999999999999999"; "4611686018427387904";
    "123456789012345678"; "-123456789012345678"; "99999999999999999999"; "0000000000000000000001";
    "1_000"; "0x1F"; "0b101"; "+5"; "-0"; "1e5"; "inf"; "-inf"; "nan"; " 1.0"; "1.0 "; "1.";
    ".5"; "-3"; "-1"; ""; "0.1234567890123456"; "9007199254740993.5"; "9007199254740992.0";
    "00.000000001"; "1.000_000"; "LR"; "RA"; "Lr"; "barrier"; "fence"; "1"; "0"; "2"; "1:2,3:4";
    "1:2,"; "a:b"; "A"; "\r";
  ]

let nth_tab line k =
  let rec go i seen =
    match String.index_from_opt line i '\t' with
    | None -> None
    | Some j -> if seen = k then Some j else go (j + 1) (seen + 1)
  in
  go 0 0

let replace_field line k token =
  let fields = String.split_on_char '\t' line in
  let k = k mod List.length fields in
  String.concat "\t" (List.mapi (fun i f -> if i = k then token else f) fields)

let mutation_gen line =
  let open QCheck.Gen in
  let n = String.length line in
  frequency
    [
      (2, return line);
      ( 2,
        map2
          (fun p bit ->
            if n = 0 then line
            else begin
              let b = Bytes.of_string line in
              let p = p mod n in
              Bytes.set b p (Char.chr (Char.code (Bytes.get b p) lxor (1 lsl bit)));
              Bytes.to_string b
            end)
          nat (int_bound 7) );
      (1, map (fun p -> String.sub line 0 (p mod (n + 1))) nat);
      ( 1,
        map
          (fun p ->
            let p = p mod (n + 1) in
            String.sub line 0 p ^ "\t" ^ String.sub line p (n - p))
          nat );
      ( 1,
        map
          (fun k ->
            match nth_tab line k with
            | None -> line
            | Some j -> String.sub line 0 j ^ String.sub line (j + 1) (n - j - 1))
          (int_bound 16) );
      (4, map2 (replace_field line) (int_bound 16) (oneofl hostile_tokens));
      (1, return (line ^ "\r"));
      (1, map (String.concat "") (list_size (int_bound 3) (oneofl [ " "; "\t"; "\r"; "\012" ])));
    ]

let mutated_line_gen =
  QCheck.Gen.(
    event_gen >>= fun e ->
    let line = Codec.encode_event e in
    mutation_gen line >>= fun once ->
    frequency [ (3, return once); (1, mutation_gen once) ])

let prop_decoder_matches_split_oracle =
  QCheck.Test.make ~name:"cursor decoder matches the split-based oracle" ~count:400
    (QCheck.make
       ~print:QCheck.Print.(list (fun s -> Printf.sprintf "%S" s))
       QCheck.Gen.(list_size (int_range 1 30) mutated_line_gen))
    check_against_oracle

(* Every line of a recorded CFD-Proxy and MiniVite trace decodes to the
   same value under both decoders, through [decode_event] and through
   one [Incremental] stream. *)
let test_app_traces_match_split_oracle () =
  let lines run =
    let r = Recorder.create () in
    run (Recorder.observer r);
    List.map Codec.encode_event (Recorder.events r)
  in
  let cfd =
    lines (fun observer -> ignore (Cfd_proxy.Halo.run Test_apps.small_cfd ~nprocs:6 ~observer ()))
  in
  let minivite =
    lines (fun observer ->
        ignore
          (Minivite.Louvain.run
             { Test_apps.small_minivite with Minivite.Louvain.inject_race = true }
             ~nprocs:4 ~observer ()))
  in
  List.iter
    (fun (name, lines) ->
      Alcotest.(check bool) (name ^ " trace recorded") true (List.length lines > 1000);
      Alcotest.(check bool) (name ^ " lines decode") true
        (List.for_all (fun l -> Result.is_ok (Codec.decode_event l)) lines);
      Alcotest.(check bool) (name ^ " matches the oracle") true (check_against_oracle lines))
    [ ("cfd", cfd); ("minivite", minivite) ]

let suite =
  suite
  @ [
      QCheck_alcotest.to_alcotest ~rand:(Random.State.make [| 12 |])
        prop_decoder_matches_split_oracle;
      Alcotest.test_case "app traces decode as the split-based oracle" `Quick
        test_app_traces_match_split_oracle;
    ]
