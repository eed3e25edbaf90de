type kind = Baseline | Legacy | Must | Contribution | Fragmentation_only | Order_blind | Strided

let all = [ Baseline; Legacy; Must; Contribution; Fragmentation_only; Order_blind; Strided ]

let name = function
  | Baseline -> "Baseline"
  | Legacy -> "RMA-Analyzer"
  | Must -> "MUST-RMA"
  | Contribution -> "Our Contribution"
  | Fragmentation_only -> "Fragmentation-only"
  | Order_blind -> "Order-blind"
  | Strided -> "Strided extension"

let slug = function
  | Baseline -> "baseline"
  | Legacy -> "legacy"
  | Must -> "must"
  | Contribution -> "contribution"
  | Fragmentation_only -> "frag-only"
  | Order_blind -> "order-blind"
  | Strided -> "strided"

let of_slug s = List.find_opt (fun k -> String.equal (slug k) s) all

let make kind ~nprocs ?(config = Mpi_sim.Config.default) ?(mode = Tool.Collect)
    ?batch_inserts:_ ?jobs ?budget ?predictive ?fault () =
  let analyzer = Rma_analyzer.create ~nprocs ~config ~mode ?jobs ?budget ?predictive ?fault in
  match kind with
  | Baseline -> Tool.baseline
  | Legacy -> analyzer Rma_analyzer.Legacy
  | Must -> Must_rma.create ~nprocs ~config ~mode ()
  | Contribution -> analyzer Rma_analyzer.Contribution
  | Fragmentation_only -> analyzer Rma_analyzer.Fragmentation_only
  | Order_blind -> analyzer Rma_analyzer.Order_blind
  | Strided -> analyzer Rma_analyzer.Strided_extension
