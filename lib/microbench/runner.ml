open Mpi_sim

type verdict = {
  scenario : Scenario.t;
  flagged : bool;
  reports : Rma_analysis.Report.t list;
}

type outcome = True_positive | False_positive | True_negative | False_negative

let classify v =
  match (v.scenario.Scenario.racy, v.flagged) with
  | true, true -> True_positive
  | true, false -> False_negative
  | false, true -> False_positive
  | false, false -> True_negative

let outcome_name = function
  | True_positive -> "TP"
  | False_positive -> "FP"
  | True_negative -> "TN"
  | False_negative -> "FN"

(* Scenario memory layout, per rank:
   - a 64-byte window (exposed; stack storage when the scenario says the
     shared location is a stack array inside the window);
   - in-window shared location: window displacement 8 (second location
     16 for disjoint variants);
   - out-of-window shared location: a dedicated 8-byte buffer;
   - each RMA call uses a private window displacement (24 for the first
     operation, 32 for the second) for the side of the call that does
     NOT touch the shared location, so the two operations can only ever
     conflict through the shared location itself. *)

let shared_disp = 8
let disjoint_disp = 16
let private_disp = function `First -> 24 | `Second -> 32

let program scenario () =
  let open Scenario in
  let s = scenario in
  let rank = Mpi.comm_rank () in
  let in_window = match s.place with Origin_in | Target_in -> true | _ -> false in
  let owner = place_owner_rank s.place in
  let win_storage =
    if in_window && s.stack_shared && rank = owner then Memory.Stack else Memory.Heap
  in
  let win_base = Mpi.alloc ~label:"window" ~storage:win_storage ~exposed:true 64 in
  (* The out-of-window shared buffer lives in the owner's space; other
     ranks allocate a placeholder to keep layouts identical. *)
  let shared_buf =
    let storage = if s.stack_shared && not in_window then Memory.Stack else Memory.Heap in
    Mpi.alloc ~label:"shared" ~storage ~exposed:true 8
  in
  let win = Mpi.win_create ~base:win_base ~size:64 in
  Mpi.win_lock_all win;
  let loc_of which =
    let op, _ = (match which with `First -> s.first | `Second -> s.second) in
    let line = match which with `First -> 10 | `Second -> 20 in
    let mpi_name =
      match op with
      | Get -> "MPI_Get"
      | Put -> "MPI_Put"
      | Load -> "Load"
      | Store -> "Store"
    in
    Mpi.loc ~file:(s.name ^ ".c") ~line mpi_name
  in
  (* Address of the location an operation touches in the shared place:
     the canonical shared location for the first op (and the second in
     overlapping variants), a disjoint one otherwise. *)
  let place_addr which =
    let use_disjoint = s.variant = Disjoint && which = `Second in
    if in_window then win_base + if use_disjoint then disjoint_disp else shared_disp
    else if use_disjoint then Mpi.alloc ~label:"disjoint" ~exposed:true 8
    else shared_buf
  in
  let run_op which (op, actor) role =
    if rank = actor_rank actor then begin
      let loc = loc_of which in
      match (op, role) with
      | Load, As_local -> ignore (Mpi.load ~loc ~addr:(place_addr which) ~len:8 ())
      | Store, As_local -> Mpi.store ~loc ~addr:(place_addr which) (Bytes.make 8 'x')
      | (Get | Put), As_origin_buffer ->
          (* The shared location is this rank's local buffer; the remote
             side goes to a private slot in the other rank's window. *)
          let target = if actor_rank actor = 0 then 1 else 0 in
          let disp = private_disp which in
          let origin_addr = place_addr which in
          if op = Get then Mpi.get ~loc win ~target ~target_disp:disp ~origin_addr ~len:8
          else Mpi.put ~loc win ~target ~target_disp:disp ~origin_addr ~len:8
      | (Get | Put), As_remote_target ->
          (* The shared location is in the owner's window; this rank
             supplies a private origin buffer. *)
          let target = owner in
          let disp =
            if s.variant = Disjoint && which = `Second then disjoint_disp else shared_disp
          in
          let origin_addr = Mpi.alloc ~label:"private_origin" ~exposed:true 8 in
          if op = Get then Mpi.get ~loc win ~target ~target_disp:disp ~origin_addr ~len:8
          else Mpi.put ~loc win ~target ~target_disp:disp ~origin_addr ~len:8
      | (Load | Store), (As_origin_buffer | As_remote_target) | (Get | Put), As_local ->
          invalid_arg "Runner.program: inconsistent scenario"
    end
  in
  (* Same-process pairs follow program order naturally. Cross-process
     pairs are deliberately unsynchronised, as in the suite's C codes:
     cross-process conflicts are direction-independent, so the verdict
     does not depend on the interleaving. *)
  run_op `First s.first s.first_role;
  run_op `Second s.second s.second_role;
  Mpi.win_unlock_all win;
  Mpi.win_free win

let run ?(seed = 11) ~tool scenario =
  tool.Rma_analysis.Tool.reset ();
  let config = { Config.default with Config.analysis_overhead_scale = 0.0 } in
  (try ignore (Runtime.run ~nprocs:3 ~seed ~config ~observer:tool.Rma_analysis.Tool.observer (program scenario))
   with Rma_analysis.Report.Race_abort _ -> ());
  let reports = tool.Rma_analysis.Tool.races () in
  { scenario; flagged = reports <> []; reports }

type confusion = { tp : int; fp : int; tn : int; fn : int; dropped : int }

let score ?seed ~tool scenarios =
  List.fold_left
    (fun acc scenario ->
      let verdict = run ?seed ~tool scenario in
      (* Each run resets the tool, so dropped reports must be tallied
         per scenario to make report-cap truncation visible in Table 3. *)
      let acc = { acc with dropped = acc.dropped + Rma_analysis.Tool.dropped_races tool } in
      match classify verdict with
      | True_positive -> { acc with tp = acc.tp + 1 }
      | False_positive -> { acc with fp = acc.fp + 1 }
      | True_negative -> { acc with tn = acc.tn + 1 }
      | False_negative -> { acc with fn = acc.fn + 1 })
    { tp = 0; fp = 0; tn = 0; fn = 0; dropped = 0 }
    scenarios

(* A race SITE pair: the canonical (sorted) source-location pair of a
   report's two sides. Verdicts compared across interleave seeds or
   analysis modes must compare these sets, not booleans or report
   counts — ids, detection order and the observed/predicted partition
   are all schedule-dependent, the site-pair set is not. *)
type race_site = { site_file : string; site_line : int; site_op : string }

type race_pair = { pair_a : race_site; pair_b : race_site; pair_predicted : bool }

let site_of_access (a : Rma_access.Access.t) =
  {
    site_file = a.Rma_access.Access.debug.Rma_access.Debug_info.file;
    site_line = a.Rma_access.Access.debug.Rma_access.Debug_info.line;
    site_op = a.Rma_access.Access.debug.Rma_access.Debug_info.operation;
  }

let pair_sites p = (p.pair_a, p.pair_b)

(* Canonicalized, deduplicated, sorted. When the same site pair shows up
   both observed and predicted (possible across runs being unioned, not
   within one report list), the observed verdict wins. *)
let pairs_of_reports reports =
  let tbl = Hashtbl.create 16 in
  List.iter
    (fun (r : Rma_analysis.Report.t) ->
      let a = site_of_access r.Rma_analysis.Report.existing in
      let b = site_of_access r.Rma_analysis.Report.incoming in
      let a, b = if a <= b then (a, b) else (b, a) in
      let predicted = r.Rma_analysis.Report.provenance.Rma_analysis.Report.predicted in
      match Hashtbl.find_opt tbl (a, b) with
      | Some false -> ()
      | Some true -> if not predicted then Hashtbl.replace tbl (a, b) predicted
      | None -> Hashtbl.replace tbl (a, b) predicted)
    reports;
  Hashtbl.fold (fun (a, b) predicted acc -> { pair_a = a; pair_b = b; pair_predicted = predicted } :: acc) tbl []
  |> List.sort compare

type kernel_verdict = {
  kernel : Scenario.Kernel.t;
  k_flagged : bool;
  k_reports : Rma_analysis.Report.t list;
  k_pairs : race_pair list;
      (** Canonical site-pair set of [k_reports] — the full verdict, not
          the [k_flagged] boolean. *)
}

let run_kernel ?(seed = 11) ?interleave_seed ~tool (kernel : Scenario.Kernel.t) =
  tool.Rma_analysis.Tool.reset ();
  let config = { Config.default with Config.analysis_overhead_scale = 0.0 } in
  (try
     ignore
       (Runtime.run ~nprocs:kernel.Scenario.Kernel.k_nprocs ~seed ?interleave_seed ~config
          ~observer:tool.Rma_analysis.Tool.observer kernel.Scenario.Kernel.k_program)
   with Rma_analysis.Report.Race_abort _ -> ());
  let k_reports = tool.Rma_analysis.Tool.races () in
  { kernel; k_flagged = k_reports <> []; k_reports; k_pairs = pairs_of_reports k_reports }
