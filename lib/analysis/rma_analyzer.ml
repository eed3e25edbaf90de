open Rma_access
open Rma_store
module Event = Mpi_sim.Event
module Config = Mpi_sim.Config
module Obs = Rma_obs.Obs
module Events = Rma_obs.Events
module Telemetry = Rma_obs.Telemetry
module Vclock = Rma_vclock.Vclock

(* Telemetry sampling rides the epoch-close path (the natural heartbeat
   of a run) but is rate-limited so epoch-dense workloads don't pay a
   /proc read per epoch. *)
let telemetry_interval = 0.25
let last_telemetry = ref 0.0

let sample_telemetry () =
  let now = Rma_util.Timer.now () in
  if now -. !last_telemetry >= telemetry_interval then begin
    last_telemetry := now;
    Telemetry.sample ()
  end

type policy = Legacy | Contribution | Fragmentation_only | Order_blind | Strided_extension

let policy_name = function
  | Legacy -> "RMA-Analyzer"
  | Contribution -> "Our Contribution"
  | Fragmentation_only -> "Fragmentation-only (ablation)"
  | Order_blind -> "Order-blind (ablation)"
  | Strided_extension -> "Strided-merging extension"

(* One store behind the [Store_intf.S] contract; [new_tree] is the only
   place that maps a policy to an implementation. *)
type store = Store : (module Store_intf.S with type t = 's) * 's -> store

let store_insert (Store ((module S), s)) access = S.insert s access
let store_stats (Store ((module S), s)) = S.stats s
let store_size (Store ((module S), s)) = S.size s
let store_clear (Store ((module S), s)) = S.clear s
let store_to_list (Store ((module S), s)) = S.to_list s
let store_note_epoch (Store ((module S), s)) = S.note_epoch s

(* Has budget governance ever dropped or coarsened a node of this
   store? Races detected afterwards carry downgraded confidence. *)
let store_degraded store = (store_stats store).Store_intf.degraded_drops > 0

type tree = {
  store : store;
  recorder : Flight_recorder.t option;
      (* Only the disjoint store keeps interval history. The legacy store
         never merges (every access stays its own node, so its debug info
         survives unmodified), and the strided store's regions keep one
         uniform debug info by construction. *)
  mutable epoch_open : bool;
  mutable nodes_at_last_close : int option;
  mutable epoch_span : Obs.span option;  (* open Epoch_opened..Epoch_closed trace span *)
}

(* A race detected on a worker domain, parked until the next barrier.
   Everything the sequential [record_race] needs is captured at
   detection time — in particular the flight-recorder histories, which
   must be read before later inserts evolve the recorder's ring — except
   the race id, which is globally ordered and therefore assigned on the
   caller thread during the merge. *)
type pending_race = {
  p_tag : int;  (** Global submission index — the sequential insert order. *)
  p_space : int;
  p_win : Event.win_id;
  p_existing : Access.t;
  p_incoming : Access.t;
  p_sim_time : float;
  p_prov : Report.provenance;  (** [id = 0]; patched during the merge. *)
  p_predicted : bool;
      (** Fired in a weak (synchronization-only) tree: replayed through
          the predictive classifier, not [record_race]. *)
}

(* Canonical source-site pair of a conflict, the dedup key between the
   observed and the weak analysis: the same pair of source lines must
   not be reported both as an observed and as a predicted race, and a
   weak tree (which is cleared more rarely) must not re-report a pair
   against several surviving older nodes. *)
type site = string * int * string

let site_of (a : Access.t) =
  ( a.Access.debug.Debug_info.file,
    a.Access.debug.Debug_info.line,
    a.Access.debug.Debug_info.operation )

let pair_key_of a b : site * site =
  let sa = site_of a and sb = site_of b in
  if sa <= sb then (sa, sb) else (sb, sa)

(* Parallel half of the analyzer: the engine plus per-shard race
   buffers. A buffer is written only by its shard's worker domain and
   drained by the caller right after a barrier, so no locking beyond the
   engine's own is needed. *)
type par = {
  engine : Rma_par.t;
  mutable next_tag : int;
  shard_races : pending_race list ref array;  (** Newest first, per shard. *)
}

(* Predictive half of the analyzer (DESIGN.md §15): a second set of
   (space, window) trees sharing the store machinery but cleared only at
   TRUE synchronization edges — fence completion, and collective
   barriers whose outstanding one-sided traffic was flushed — never at
   the schedule-dependent all-ranks-closed point the observed trees
   clear at. Conflicts surviving in a weak tree are unordered under MPI
   semantics alone: some legal schedule overlaps them ("schedulable
   races", reported as [predicted] with a witness reordering). *)
type predictive = {
  weak_trees : (int * Event.win_id, tree) Hashtbl.t;
  weak_phase : (Event.win_id, int) Hashtbl.t;
      (* Synchronization phases of a window: bumped on every weak clear.
         Two accesses in the same phase are weak-concurrent. *)
  last_closed : (int, Event.win_id) Hashtbl.t;
      (* rank -> window of the rank's most recent Epoch_closed.
         [Collective Fence] events carry no window id, so a fence
         arrival is attributed to the rank's last-closed window (the
         runtime dispatches a fence batch as close-all / fence-all /
         reopen-all, so the correlation is exact for the common
         single-window-per-fence shape; multi-window fence programs are
         a documented approximation). *)
  fence_arrivals : (Event.win_id, (int, unit) Hashtbl.t) Hashtbl.t;
      (* Distinct ranks whose fence arrival named the window; at
         [nprocs] the fence has completed and the window's weak trees
         clear — fence completion orders every rank's operations. *)
  coll_arrivals : (int, unit) Hashtbl.t;
      (* Distinct ranks inside the current Barrier/Allreduce. *)
  unflushed : (Event.win_id * int, unit) Hashtbl.t;
      (* (window, issuer) pairs with one-sided operations not yet
         completed by that issuer's flush / unlock / fence. A barrier
         orders ranks but completes nothing: it only clears a window's
         weak trees when no rank holds unflushed traffic on it
         (flush-then-barrier is the MiniVite-style sync idiom). *)
  clocks : Vclock.Dual.t array;
      (* Per-rank observed/weak clock pair, witness evidence only. *)
  observed_pairs : (site * site, unit) Hashtbl.t;
  predicted_pairs : (site * site, unit) Hashtbl.t;
  mutable predicted : Report.t list;  (* newest first; ids assigned on read *)
  mutable predicted_count : int;
}

type state = {
  nprocs : int;
  config : Config.t;
  mode : Tool.mode;
  flush_clears : bool;
  budget : Rma_fault.Budget.t option;
      (* Per-tool budget; [None] = unbounded stores. *)
  policy : policy;
  name : string;
  max_reports : int;
  par : par option;  (** [None] = today's sequential path, byte for byte. *)
  trees : (int * Event.win_id, tree) Hashtbl.t;  (* (space, window) *)
  epoch_closers : (Event.win_id, (int, unit) Hashtbl.t) Hashtbl.t;
      (* The DISTINCT ranks that closed an epoch on a window since the
         last global clear. The §5.1 protocol ends every epoch with an
         MPI_Reduce and a wait for pending remote-access notifications,
         so a window's trees are only cleared once EVERY rank has closed
         — otherwise a target would drop remote accesses from origins
         still inside their epoch. A per-window set (not a close-event
         count): one rank closing several epochs before the others close
         any must not reach [nprocs] on its own. *)
  mutable races : Report.t list;
  mutable race_count : int;
  predictive : predictive option;  (** [None] = observed-only, byte for byte. *)
}

let new_tree st =
  let disjoint ?order_aware ?merge () =
    let s = Disjoint_store.create ?order_aware ?merge ?budget:st.budget () in
    (Store ((module Disjoint_store), s), Disjoint_store.recorder s)
  in
  let store, recorder =
    match st.policy with
    | Legacy -> (Store ((module Legacy_store), Legacy_store.create ?budget:st.budget ()), None)
    | Contribution -> disjoint ()
    | Fragmentation_only -> disjoint ~merge:false ()
    | Order_blind -> disjoint ~order_aware:false ()
    | Strided_extension ->
        (Store ((module Strided_store), Strided_store.create ?budget:st.budget ()), None)
  in
  { store; recorder; epoch_open = false; nodes_at_last_close = None; epoch_span = None }

let find_tree st trees key =
  match Hashtbl.find_opt trees key with
  | Some t -> t
  | None ->
      let t = new_tree st in
      Hashtbl.replace trees key t;
      t

let tree_for st key = find_tree st st.trees key

let obs_races = Obs.counter ~help:"Race reports recorded by the analyzer" "analyzer.races"

let obs_nodes_at_close =
  Obs.histogram ~unit_:"nodes" ~help:"Tree size sampled at each epoch close (Table 4 metric)"
    "analyzer.nodes_at_close"

let obs_tree_nodes =
  Obs.gauge ~help:"Tree size at the most recent epoch close" "analyzer.tree_nodes"

let obs_epoch_closes = Obs.counter ~help:"Epoch close events observed" "analyzer.epoch_closes"

let obs_window_clears =
  Obs.counter ~help:"Global window clears (all ranks closed)" "analyzer.window_clears"

let record_race st ~space ~win ~existing ~incoming ~sim_time ~provenance =
  let report = Report.make ~tool:st.name ~space ~win ~existing ~incoming ~sim_time ~provenance () in
  (match st.predictive with
  | Some p -> Hashtbl.replace p.observed_pairs (pair_key_of existing incoming) ()
  | None -> ());
  st.race_count <- st.race_count + 1;
  Obs.incr obs_races;
  if st.race_count <= st.max_reports then st.races <- report :: st.races;
  match st.mode with
  | Tool.Abort_on_race -> raise (Report.Race_abort report)
  | Tool.Collect -> ()

(* Provenance of a conflict inside one tree: the next race id, plus —
   when the flight recorder is on — the tree's epoch and the original
   accesses behind each side's byte range. *)
let provenance_of st tree ~existing ~incoming =
  let id = st.race_count + 1 in
  let degraded = store_degraded tree.store in
  match tree.recorder with
  | None -> { Report.empty_provenance with Report.id; degraded }
  | Some r ->
      {
        Report.empty_provenance with
        Report.id;
        epoch = Some (Flight_recorder.current_epoch r);
        existing_history = Flight_recorder.history r existing.Access.interval;
        incoming_history = Flight_recorder.history r incoming.Access.interval;
        degraded;
      }

(* Worker-side provenance: like [provenance_of] minus the race id,
   which only exists once races are merged back into global order. *)
let worker_provenance tree ~existing ~incoming =
  let degraded = store_degraded tree.store in
  match tree.recorder with
  | None -> { Report.empty_provenance with Report.degraded = degraded }
  | Some r ->
      {
        Report.empty_provenance with
        Report.epoch = Some (Flight_recorder.current_epoch r);
        existing_history = Flight_recorder.history r existing.Access.interval;
        incoming_history = Flight_recorder.history r incoming.Access.interval;
        degraded;
      }

(* ---- Predictive (weak-order) half, DESIGN.md §15 ---- *)

let obs_predicted =
  Obs.counter ~help:"Predicted (schedulable) races recorded by the analyzer"
    "analyzer.predicted_races"

let weak_tree_for st p key = find_tree st p.weak_trees key

let weak_clear_window p win =
  Hashtbl.iter (fun (_, w) t -> if w = win then store_clear t.store) p.weak_trees;
  let phase = Option.value (Hashtbl.find_opt p.weak_phase win) ~default:0 in
  Hashtbl.replace p.weak_phase win (phase + 1)

(* A conflict surfaced by a weak tree. [Race_rule.check_weak] excuses
   same-rank pairs (ordered by the rank's own completion edges under
   every schedule — or already observed, since a weak tree is only
   cleared when its observed counterpart also cleared); what survives is
   deduplicated against the observed reports and previously predicted
   pairs by canonical source-site pair, then recorded with a witness.
   Predicted races never abort: the observed run did NOT take the racing
   schedule, so there is nothing to stop. *)
let consider_predicted st p ~space ~win ~existing ~incoming ~sim_time ~prov_base =
  let order_aware =
    match st.policy with Legacy | Order_blind -> false | _ -> true
  in
  match Race_rule.check_weak ~order_aware ~existing ~incoming with
  | Race_rule.No_race | Race_rule.Race _ -> ()
  | Race_rule.Predicted _ ->
      let key = pair_key_of existing incoming in
      if (not (Hashtbl.mem p.observed_pairs key)) && not (Hashtbl.mem p.predicted_pairs key)
      then begin
        Hashtbl.replace p.predicted_pairs key ();
        let phase = Option.value (Hashtbl.find_opt p.weak_phase win) ~default:0 in
        let clock_of (a : Access.t) which =
          if a.Access.issuer >= 0 && a.Access.issuer < Array.length p.clocks then
            Vclock.components (which p.clocks.(a.Access.issuer))
          else []
        in
        let describe (a : Access.t) =
          Printf.sprintf "%s by rank %d at %s:%d"
            (Access_kind.to_string a.Access.kind)
            a.Access.issuer a.Access.debug.Debug_info.file a.Access.debug.Debug_info.line
        in
        let reorder =
          Printf.sprintf
            "hold rank %d before its next epoch close so the %s is still in flight when the %s \
             executes; no fence or fully flushed barrier on window %d separates the two accesses \
             (weak phase %d)"
            existing.Access.issuer (describe existing) (describe incoming) win phase
        in
        let witness =
          {
            Report.w_phase = phase;
            w_existing_clock = clock_of existing Vclock.Dual.weak;
            w_incoming_clock = clock_of incoming Vclock.Dual.weak;
            w_observed_existing = clock_of existing Vclock.Dual.observed;
            w_observed_incoming = clock_of incoming Vclock.Dual.observed;
            w_reorder = reorder;
          }
        in
        let provenance =
          { prov_base with Report.predicted = true; witness = Some witness }
        in
        let report =
          Report.make ~tool:st.name ~space ~win:(Some win) ~existing ~incoming ~sim_time
            ~provenance ()
        in
        p.predicted <- report :: p.predicted;
        p.predicted_count <- p.predicted_count + 1;
        Obs.incr obs_predicted
      end

let insert_into st key access ~sim_time =
  let tree = tree_for st key in
  match st.par with
  | None -> (
      match store_insert tree.store access with
      | Store_intf.Inserted -> ()
      | Store_intf.Race_detected { existing; incoming } ->
          let space, win = key in
          let provenance = provenance_of st tree ~existing ~incoming in
          record_race st ~space ~win:(Some win) ~existing ~incoming ~sim_time ~provenance)
  | Some p ->
      (* The tree is resolved (and created) here on the caller thread;
         the worker only runs the store operation. The tag is the global
         submission index: sorting merged races by it reproduces the
         exact sequential detection order, so ids, the [max_reports]
         truncation point and the report list are all byte-identical. *)
      let space, win = key in
      let tag = p.next_tag in
      p.next_tag <- tag + 1;
      let shard = Rma_par.shard_of p.engine ~space ~win in
      let buf = p.shard_races.(shard) in
      Rma_par.submit p.engine ~shard (fun () ->
          match store_insert tree.store access with
          | Store_intf.Inserted -> ()
          | Store_intf.Race_detected { existing; incoming } ->
              let p_prov = worker_provenance tree ~existing ~incoming in
              buf :=
                {
                  p_tag = tag;
                  p_space = space;
                  p_win = win;
                  p_existing = existing;
                  p_incoming = incoming;
                  p_sim_time = sim_time;
                  p_prov;
                  p_predicted = false;
                }
                :: !buf)

(* Weak-tree counterpart of [insert_into]: same store machinery, same
   shard (the weak tree of a (space, win) key hashes identically, so its
   operations are FIFO-ordered after the observed insert of the same
   access — the observed race of a pair always merges before the weak
   conflict, which the dedup in [consider_predicted] relies on). *)
let weak_insert_into st p key access ~sim_time =
  let tree = weak_tree_for st p key in
  match st.par with
  | None -> (
      match store_insert tree.store access with
      | Store_intf.Inserted -> ()
      | Store_intf.Race_detected { existing; incoming } ->
          let space, win = key in
          let prov_base = worker_provenance tree ~existing ~incoming in
          consider_predicted st p ~space ~win ~existing ~incoming ~sim_time ~prov_base)
  | Some par ->
      let space, win = key in
      let tag = par.next_tag in
      par.next_tag <- tag + 1;
      let shard = Rma_par.shard_of par.engine ~space ~win in
      let buf = par.shard_races.(shard) in
      Rma_par.submit par.engine ~shard (fun () ->
          match store_insert tree.store access with
          | Store_intf.Inserted -> ()
          | Store_intf.Race_detected { existing; incoming } ->
              let p_prov = worker_provenance tree ~existing ~incoming in
              buf :=
                {
                  p_tag = tag;
                  p_space = space;
                  p_win = win;
                  p_existing = existing;
                  p_incoming = incoming;
                  p_sim_time = sim_time;
                  p_prov;
                  p_predicted = true;
                }
                :: !buf)

(* Drain the shard race buffers (caller thread, after a barrier) and
   replay them through [record_race] in submission order. *)
let merge_pending st p =
  let pending =
    Array.fold_left
      (fun acc buf ->
        let races = !buf in
        buf := [];
        List.rev_append races acc)
      [] p.shard_races
  in
  match pending with
  | [] -> ()
  | pending ->
      let pending = List.sort (fun a b -> compare a.p_tag b.p_tag) pending in
      List.iter
        (fun pr ->
          if pr.p_predicted then
            match st.predictive with
            | Some p ->
                consider_predicted st p ~space:pr.p_space ~win:pr.p_win ~existing:pr.p_existing
                  ~incoming:pr.p_incoming ~sim_time:pr.p_sim_time ~prov_base:pr.p_prov
            | None -> ()
          else
            let provenance = { pr.p_prov with Report.id = st.race_count + 1 } in
            record_race st ~space:pr.p_space ~win:(Some pr.p_win) ~existing:pr.p_existing
              ~incoming:pr.p_incoming ~sim_time:pr.p_sim_time ~provenance)
        pending

(* Epoch barrier: wait for every in-flight store operation, restore the
   sequential race order, and — when the config says the analyzer times
   itself — return the critical-path cost model's simulated seconds:
   the busiest shard's measured work since the last barrier, scaled
   exactly like the runtime scales inline observer time. *)
let sync st =
  match st.par with
  | None -> 0.0
  | Some p ->
      Rma_par.barrier p.engine;
      merge_pending st p;
      let work = Rma_par.take_work_seconds p.engine in
      if st.config.Config.analysis_self_timed then
        work *. st.config.Config.analysis_overhead_scale
      else 0.0

(* Which trees receive a local access: the window containing it when its
   epoch is open, otherwise every open epoch of the rank (the analyzer
   only collects accesses "contained within each epoch", §5.1). *)
let local_targets st ~space ~win =
  match win with
  | Some w -> (
      match Hashtbl.find_opt st.trees (space, w) with
      | Some t when t.epoch_open -> [ (space, w) ]
      | _ -> [])
  | None ->
      Hashtbl.fold
        (fun (sp, w) t acc -> if sp = space && t.epoch_open then (sp, w) :: acc else acc)
        st.trees []

let on_access st (a : Event.access_event) =
  if not a.Event.relevant then 0.0 (* filtered out by the alias analysis *)
  else begin
    let access = a.Event.access in
    let is_rma = Access_kind.is_rma access.Access.kind in
    let keys =
      if is_rma then
        match a.Event.win with Some w -> [ (a.Event.space, w) ] | None -> []
      else local_targets st ~space:a.Event.space ~win:a.Event.win
    in
    List.iter (fun key -> insert_into st key access ~sim_time:a.Event.sim_time) keys;
    (match st.predictive with
    | Some p ->
        (* The issuer now has uncompleted one-sided traffic on the
           window, until its next flush / unlock / fence: a barrier
           reached before that cannot weakly synchronise the window. *)
        if is_rma then
          List.iter (fun (_, w) -> Hashtbl.replace p.unflushed (w, access.Access.issuer) ()) keys;
        List.iter (fun key -> weak_insert_into st p key access ~sim_time:a.Event.sim_time) keys
    | None -> ());
    (* The origin's notification MPI_Send towards the target (§5.1):
       charged on the target-side event of cross-rank operations. *)
    if is_rma && a.Event.space <> access.Access.issuer then
      Config.message_cost st.config ~bytes_count:32
    else 0.0
  end

(* True-synchronization edges for the weak order (everything else —
   epoch closes included — is schedule-induced and leaves weak trees
   alone). A fence completion orders every rank's operations on its
   window; the fence [Collective] event carries no window id, so the
   arrival is attributed to the rank's last-closed window (exact for the
   runtime's close-all / fence-all / reopen-all dispatch). A barrier or
   allreduce orders ranks but completes no one-sided traffic: it clears
   a window only when no rank holds unflushed operations on it — the
   flush-then-barrier idiom MiniVite uses. *)
let predictive_collective st p ~kind ~rank =
  match kind with
  | Event.Fence -> (
      match Hashtbl.find_opt p.last_closed rank with
      | None -> ()
      | Some win ->
          let arrivals =
            match Hashtbl.find_opt p.fence_arrivals win with
            | Some set -> set
            | None ->
                let set = Hashtbl.create st.nprocs in
                Hashtbl.replace p.fence_arrivals win set;
                set
          in
          Hashtbl.replace arrivals rank ();
          if Hashtbl.length arrivals >= st.nprocs then begin
            Hashtbl.remove p.fence_arrivals win;
            weak_clear_window p win;
            Vclock.Dual.sync_step p.clocks
          end)
  | Event.Barrier | Event.Allreduce ->
      Hashtbl.replace p.coll_arrivals rank ();
      if Hashtbl.length p.coll_arrivals >= st.nprocs then begin
        Hashtbl.reset p.coll_arrivals;
        let wins = Hashtbl.create 4 in
        Hashtbl.iter (fun (_, w) _ -> Hashtbl.replace wins w ()) p.weak_trees;
        Hashtbl.iter
          (fun w () ->
            let flushed = ref true in
            for r = 0 to st.nprocs - 1 do
              if Hashtbl.mem p.unflushed (w, r) then flushed := false
            done;
            if !flushed then weak_clear_window p w)
          wins;
        if Hashtbl.length p.unflushed = 0 then Vclock.Dual.sync_step p.clocks
      end

let observer st event =
  (* Parallel engines synchronise exactly where the sequential analyzer
     touches whole trees: epoch boundaries (note_epoch / size sampling /
     window clears) and the flush-clears ablation. The barrier drains
     every shard queue first, so the main-thread code below always sees
     the same store states a sequential run would. *)
  let barrier_cost =
    match (st.par, event) with
    | Some _, (Event.Epoch_opened _ | Event.Epoch_closed _) -> sync st
    | Some _, Event.Flushed _ when st.flush_clears -> sync st
    (* Weak clears at collectives touch whole weak trees; drain in-flight
       shard operations first, exactly like epoch boundaries do. *)
    | Some _, Event.Collective _ when st.predictive <> None -> sync st
    | _ -> 0.0
  in
  barrier_cost
  +.
  match event with
  | Event.Access a -> on_access st a
  | Event.Epoch_opened { win; rank; sim_time } ->
      let tree = tree_for st (rank, win) in
      tree.epoch_open <- true;
      store_note_epoch tree.store;
      if Obs.is_enabled () then begin
        tree.epoch_span <-
          Obs.start_span ~cat:"epoch" ~pid:(Obs.sim_pid ()) ~tid:rank ~at:sim_time
            (Printf.sprintf "epoch win=%d" win);
        Events.emit
          ~span_id:(Obs.span_id tree.epoch_span)
          ~kv:
            [ ("event", "epoch_open"); ("win", string_of_int win); ("rank", string_of_int rank) ]
          Events.Debug "analyzer"
      end;
      0.0
  | Event.Epoch_closed { win; rank; sim_time } ->
      (* Wall time of the whole close handling (size sampling, journal,
         window clear) feeds the epoch-close latency SLO; timed only
         under Obs so the sequential hot path stays clock-free. *)
      let close_t0 = if Obs.is_enabled () then Rma_util.Timer.now () else 0.0 in
      let tree = tree_for st (rank, win) in
      tree.epoch_open <- false;
      let nodes = store_size tree.store in
      tree.nodes_at_last_close <- Some nodes;
      if Obs.is_enabled () then begin
        Events.emit
          ~span_id:(Obs.span_id tree.epoch_span)
          ~kv:
            [
              ("event", "epoch_close");
              ("win", string_of_int win);
              ("rank", string_of_int rank);
              ("nodes", string_of_int nodes);
            ]
          Events.Debug "analyzer";
        Obs.finish_span ~at:sim_time ~args:[ ("nodes", string_of_int nodes) ] tree.epoch_span;
        tree.epoch_span <- None;
        Obs.observe_int obs_nodes_at_close nodes;
        Obs.set_gauge obs_tree_nodes (float_of_int nodes);
        Obs.incr obs_epoch_closes;
        sample_telemetry ()
      end;
      let closers =
        match Hashtbl.find_opt st.epoch_closers win with
        | Some set -> set
        | None ->
            let set = Hashtbl.create st.nprocs in
            Hashtbl.replace st.epoch_closers win set;
            set
      in
      Hashtbl.replace closers rank ();
      if Hashtbl.length closers >= st.nprocs then begin
        Hashtbl.remove st.epoch_closers win;
        Obs.incr obs_window_clears;
        (* NOT mirrored on the weak trees: this point depends on the
           schedule the run took (unlock_all is not collective), which is
           exactly the gap the predictive analysis exists to close. *)
        Hashtbl.iter (fun (_, w) t -> if w = win then store_clear t.store) st.trees
      end;
      (match st.predictive with
      | Some p ->
          Hashtbl.replace p.last_closed rank win;
          (* The rank's own unlock/complete finishes its one-sided
             operations on the window. *)
          Hashtbl.remove p.unflushed (win, rank);
          if rank >= 0 && rank < Array.length p.clocks then
            Vclock.Dual.local_step p.clocks.(rank) ~rank
      | None -> ());
      (* The end-of-epoch MPI_Reduce counting remote accesses (§5.1). *)
      let cost = Config.collective_cost st.config ~nprocs:st.nprocs ~bytes_count:8 in
      if close_t0 > 0.0 then Telemetry.note_epoch_close (Rma_util.Timer.now () -. close_t0);
      cost
  | Event.Flushed { win; rank; _ } ->
      (* Deliberately untreated by default: MPI_Win_flush only orders the
         caller's operations, so clearing the tree here causes false
         negatives for third-party origins (§6(2)). [flush_clears] exists
         as the negative ablation demonstrating exactly that. *)
      if st.flush_clears then begin
        match Hashtbl.find_opt st.trees (rank, win) with
        | Some tree -> store_clear tree.store
        | None -> ()
      end;
      (* For the weak order a flush DOES matter — not as a clear (it
         orders only the caller's operations, §6(2)) but as completion:
         the caller no longer holds unflushed traffic on the window, so
         a subsequent barrier can weakly synchronise it. *)
      (match st.predictive with
      | Some p -> Hashtbl.remove p.unflushed (win, rank)
      | None -> ());
      0.0
  | Event.Collective { kind; rank; _ } ->
      (match st.predictive with
      | Some p -> predictive_collective st p ~kind ~rank
      | None -> ());
      0.0
  | Event.Win_created _ | Event.Win_freed _ | Event.Finished _ -> 0.0

let bst_summary st () =
  Hashtbl.fold
    (fun _ tree acc ->
      let stats = store_stats tree.store in
      let final =
        match tree.nodes_at_last_close with
        | Some n when not tree.epoch_open -> n
        | _ -> stats.Store_intf.nodes
      in
      {
        Tool.stores = acc.Tool.stores + 1;
        nodes_final_total = acc.Tool.nodes_final_total + final;
        nodes_peak_total = acc.Tool.nodes_peak_total + stats.Store_intf.peak_nodes;
        inserts_total = acc.Tool.inserts_total + stats.Store_intf.inserts;
        fragments_total = acc.Tool.fragments_total + stats.Store_intf.fragments_created;
        merges_total = acc.Tool.merges_total + stats.Store_intf.merges_performed;
        degraded_drops_total = acc.Tool.degraded_drops_total + stats.Store_intf.degraded_drops;
      })
    st.trees Tool.empty_bst_summary

let make_state ~nprocs ?(config = Config.default) ?(mode = Tool.Abort_on_race)
    ?(flush_clears = false) ?(max_reports = 1000) ?(jobs = 1) ?queue_capacity ?budget
    ?(predictive = false) ?fault policy =
  (* Abort_on_race must raise from inside the racing insert's event —
     mid-stream, before later events run — which an asynchronous engine
     cannot reproduce; it stays on the sequential path regardless of
     [jobs]. *)
  let jobs = match mode with Tool.Abort_on_race -> 1 | Tool.Collect -> max 1 jobs in
  let par =
    if jobs <= 1 then None
    else
      Some
        {
          engine = Rma_par.create ~jobs ?queue_capacity ?fault ();
          next_tag = 0;
          shard_races = Array.init jobs (fun _ -> ref []);
        }
  in
  {
    nprocs;
    config;
    mode;
    flush_clears;
    budget;
    policy;
    name = policy_name policy;
    max_reports;
    par;
    trees = Hashtbl.create 16;
    epoch_closers = Hashtbl.create 4;
    races = [];
    race_count = 0;
    predictive =
      (if not predictive then None
       else
         Some
           {
             weak_trees = Hashtbl.create 16;
             weak_phase = Hashtbl.create 4;
             last_closed = Hashtbl.create 8;
             fence_arrivals = Hashtbl.create 4;
             coll_arrivals = Hashtbl.create 8;
             unflushed = Hashtbl.create 16;
             clocks = Array.init nprocs (fun _ -> Vclock.Dual.create ());
             observed_pairs = Hashtbl.create 16;
             predicted_pairs = Hashtbl.create 16;
             predicted = [];
             predicted_count = 0;
           });
  }

(* Predicted reports in detection order, re-filtered against the pairs
   the observed analysis ended up reporting (a pair predicted early in
   the run may be observed later, e.g. across loop iterations; observed
   wins) and numbered after the observed races. Recomputed on every
   read — reads are idempotent. *)
let predicted_reports st =
  match st.predictive with
  | None -> []
  | Some p ->
      List.rev p.predicted
      |> List.filter (fun r ->
             not (Hashtbl.mem p.observed_pairs (pair_key_of r.Report.existing r.Report.incoming)))
      |> List.mapi (fun i r ->
             { r with Report.provenance = { r.Report.provenance with Report.id = st.race_count + i + 1 } })

(* Every externally observable read syncs first: a caller sampling races
   or tree statistics mid-stream must see exactly the sequential state. *)
let tool_of_state st =
  let settle () = ignore (sync st) in
  {
    Tool.name = st.name;
    observer = observer st;
    races =
      (fun () ->
        settle ();
        List.rev st.races @ predicted_reports st);
    race_count =
      (fun () ->
        settle ();
        st.race_count + List.length (predicted_reports st));
    bst_summary =
      (fun () ->
        settle ();
        bst_summary st ());
    reset =
      (fun () ->
        settle ();
        (match st.par with Some p -> p.next_tag <- 0 | None -> ());
        Hashtbl.reset st.trees;
        Hashtbl.reset st.epoch_closers;
        st.races <- [];
        st.race_count <- 0;
        match st.predictive with
        | None -> ()
        | Some p ->
            Hashtbl.reset p.weak_trees;
            Hashtbl.reset p.weak_phase;
            Hashtbl.reset p.last_closed;
            Hashtbl.reset p.fence_arrivals;
            Hashtbl.reset p.coll_arrivals;
            Hashtbl.reset p.unflushed;
            Array.iter Vclock.Dual.reset p.clocks;
            Hashtbl.reset p.observed_pairs;
            Hashtbl.reset p.predicted_pairs;
            p.predicted <- [];
            p.predicted_count <- 0);
  }

let create ~nprocs ?config ?mode ?flush_clears ?max_reports ?jobs ?queue_capacity ?budget
    ?predictive ?fault policy =
  tool_of_state
    (make_state ~nprocs ?config ?mode ?flush_clears ?max_reports ?jobs ?queue_capacity ?budget
       ?predictive ?fault policy)

let create_inspectable ~nprocs ?config ?mode ?flush_clears ?max_reports ?jobs ?queue_capacity
    ?budget ?predictive ?fault policy =
  let st =
    make_state ~nprocs ?config ?mode ?flush_clears ?max_reports ?jobs ?queue_capacity ?budget
      ?predictive ?fault policy
  in
  let dump () =
    ignore (sync st);
    Hashtbl.fold (fun key tree acc -> (key, store_to_list tree.store) :: acc) st.trees []
    |> List.sort (fun (a, _) (b, _) -> compare a b)
  in
  (tool_of_state st, dump)
