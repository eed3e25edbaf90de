open Rma_access
module Budget = Rma_fault.Budget
module Obs = Rma_obs.Obs

type t = {
  budget : Budget.t;
  cap : int;
  mutable max_seq : int;  (* highest sequence number absorbed so far *)
  mutable watermark : int;  (* max_seq as of the last epoch boundary *)
  mutable drops : int;
}

let obs_drops =
  Obs.counter ~help:"Store nodes evicted or coarsened away by budget governance"
    "store.degraded_drops"

let create ?budget ~bytes_per_node () =
  match budget with
  | None -> None
  | Some b when Budget.is_unbounded b -> None
  | Some b ->
      let node_cap = match b.Budget.max_nodes with Some n -> n | None -> max_int in
      let byte_cap =
        match b.Budget.max_bytes with Some n -> max 1 (n / bytes_per_node) | None -> max_int
      in
      Some { budget = b; cap = max 1 (min node_cap byte_cap); max_seq = -1; watermark = -1; drops = 0 }

let budget t = t.budget
let cap t = t.cap
let over t ~size = size > t.cap

let observe_seq t seq =
  match t with None -> () | Some g -> if seq > g.max_seq then g.max_seq <- seq

let note_epoch t = match t with None -> () | Some g -> g.watermark <- g.max_seq
let completed_epoch t ~seq = seq <= t.watermark

let spill_victims t ~size ~seq_of nodes =
  let excess = size - t.cap in
  if excess <= 0 then []
  else begin
    let completed, current = List.partition (fun n -> completed_epoch t ~seq:(seq_of n)) nodes in
    let by_seq = List.sort (fun a b -> compare (seq_of a) (seq_of b)) in
    let rec take k = function
      | [] -> []
      | _ when k = 0 -> []
      | n :: rest -> n :: take (k - 1) rest
    in
    take excess (by_seq completed @ by_seq current)
  end

(* Greedy left-to-right run merging over the in-order list: the §4.2
   precondition minus debug-info equality. The most recent member wins
   the merged node's identity, mirroring [Access.most_recent]. *)
let coarsen_accesses accesses =
  let joinable a b =
    Access_kind.equal a.Access.kind b.Access.kind
    && a.Access.issuer = b.Access.issuer
    && (Interval.overlaps a.Access.interval b.Access.interval
       || Interval.adjacent a.Access.interval b.Access.interval)
  in
  let join a b =
    Access.with_interval (Access.most_recent a b)
      (Interval.hull a.Access.interval b.Access.interval)
  in
  let rec go merged acc = function
    | [] -> (List.rev acc, merged)
    | x :: rest -> (
        match acc with
        | prev :: acc' when joinable prev x -> go (merged + 1) (join prev x :: acc') rest
        | _ -> go merged (x :: acc) rest)
  in
  go 0 [] accesses

let record_drops t n =
  if n > 0 then begin
    t.drops <- t.drops + n;
    Obs.add obs_drops n;
    (* Degradation is exactly what an operator must not miss: journal
       every batch of drops with the policy that caused it. Runs on
       whichever domain the store insert ran on; the event carries that
       domain's shard stamp. *)
    Rma_obs.Events.emit
      ~kv:
        [
          ("event", "budget_degradation");
          ("policy", Budget.policy_name t.budget.Budget.policy);
          ("drops", string_of_int n);
          ("total_drops", string_of_int t.drops);
          ("cap", string_of_int t.cap);
        ]
      Rma_obs.Events.Warn "governor"
  end

let drops = function None -> 0 | Some g -> g.drops
let degraded t = drops t > 0

let exhausted ~store ~size t =
  Rma_obs.Events.emit
    ~kv:
      [
        ("event", "budget_exhausted");
        ("store", store);
        ("size", string_of_int size);
        ("cap", string_of_int t.cap);
      ]
    Rma_obs.Events.Error "governor";
  raise
    (Budget.Exhausted
       (Printf.sprintf "%s store over budget: %d nodes > cap %d (%s)" store size t.cap
          (Budget.to_spec t.budget)))
