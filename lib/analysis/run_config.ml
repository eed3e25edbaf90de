type t = {
  jobs : int;
  predictive : bool;
  budget : Rma_fault.Budget.t option;
  fault : Rma_fault.t option;
}

let default = { jobs = 1; predictive = false; budget = None; fault = None }

let make ?(jobs = default.jobs) ?(predictive = default.predictive) ?budget ?fault () =
  {
    jobs = Rma_par.clamp_jobs jobs;
    predictive;
    budget;
    fault = Option.map Rma_fault.create fault;
  }

let tool t kind ~nprocs ?config ?mode () =
  Toolbox.make kind ~nprocs ?config ?mode ~jobs:t.jobs ?budget:t.budget ~predictive:t.predictive
    ?fault:t.fault ()

let sim_config t config =
  if t.jobs > 1 then { config with Mpi_sim.Config.analysis_self_timed = true } else config

let journal_kv t =
  [ ("jobs", string_of_int t.jobs) ]
  @ (match t.fault with
    | Some inj -> [ ("fault", Rma_fault.Plan.to_spec (Rma_fault.plan_of inj)) ]
    | None -> [])
  @ (match t.budget with Some b -> [ ("budget", Rma_fault.Budget.to_spec b) ] | None -> [])
  @ if t.predictive then [ ("predictive", "true") ] else []
