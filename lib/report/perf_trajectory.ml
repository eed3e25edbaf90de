module Json = Rma_util.Json
module Obs = Rma_obs.Obs

let schema_version = 1

type sample = {
  name : string;
  wall_seconds : float;
  peak_rss_bytes : float;
      (* Process high-water RSS observed by the end of the experiment
         (monotone across a bench run). Gated, looser threshold than
         wall time; skipped when the baseline predates the field. *)
  events_per_sec : float;
      (* Store events processed / wall seconds for this experiment.
         Gated as higher-is-better, same skip rule. *)
  critical_path_ms : float;
      (* Accumulated parallel-engine critical path during the
         experiment (Rma_par, DESIGN.md §13). Informational: the number
         that explains a speedup ceiling, not a gate. *)
  metrics : (string * float) list;
}

type record = {
  schema_version : int;
  generator : string;
  scale : float;
  samples : sample list;
  counters : (string * int) list;
}

let make ~generator ~scale samples =
  {
    schema_version;
    generator;
    scale;
    samples;
    counters =
      List.map (fun (c : Obs.counter) -> (c.Obs.c_name, c.Obs.c_value)) (Obs.all_counters ());
  }

(* ------------------------------------------------------------------ *)
(* JSON                                                                *)
(* ------------------------------------------------------------------ *)

let json_of_sample s =
  Json.Obj
    [
      ("name", Json.String s.name);
      ("wall_seconds", Json.Float s.wall_seconds);
      ("peak_rss_bytes", Json.Float s.peak_rss_bytes);
      ("events_per_sec", Json.Float s.events_per_sec);
      ("critical_path_ms", Json.Float s.critical_path_ms);
      ("metrics", Json.Obj (List.map (fun (k, v) -> (k, Json.Float v)) s.metrics));
    ]

let to_json r =
  Json.Obj
    [
      ("schema_version", Json.Int r.schema_version);
      ("generator", Json.String r.generator);
      ("scale", Json.Float r.scale);
      ("samples", Json.List (List.map json_of_sample r.samples));
      ("counters", Json.Obj (List.map (fun (k, v) -> (k, Json.Int v)) r.counters));
    ]

let ( let* ) r f = match r with Ok v -> f v | Error _ as e -> e

let field name conv j =
  match Option.bind (Json.member name j) conv with
  | Some v -> Ok v
  | None -> Error (Printf.sprintf "missing or ill-typed field %S" name)

let rec map_result f = function
  | [] -> Ok []
  | x :: rest ->
      let* y = f x in
      let* ys = map_result f rest in
      Ok (y :: ys)

let optional_float name j =
  match Option.bind (Json.member name j) Json.to_float with Some v -> v | None -> 0.0

let sample_of_json j =
  let* name = field "name" Json.to_str j in
  let* wall_seconds = field "wall_seconds" Json.to_float j in
  (* Absent in records written before the telemetry fields existed
     (still schema 1): default 0.0, and comparisons skip zeros. *)
  let peak_rss_bytes = optional_float "peak_rss_bytes" j in
  let events_per_sec = optional_float "events_per_sec" j in
  let critical_path_ms = optional_float "critical_path_ms" j in
  let* metrics_obj = field "metrics" Json.to_obj j in
  let* metrics =
    map_result
      (fun (k, v) ->
        match Json.to_float v with
        | Some f -> Ok (k, f)
        | None -> Error (Printf.sprintf "ill-typed metric %S" k))
      metrics_obj
  in
  Ok { name; wall_seconds; peak_rss_bytes; events_per_sec; critical_path_ms; metrics }

let of_json j =
  let* version = field "schema_version" Json.to_int j in
  if version <> schema_version then
    Error
      (Printf.sprintf "unsupported bench schema version %d (expected %d)" version schema_version)
  else
    let* generator = field "generator" Json.to_str j in
    let* scale = field "scale" Json.to_float j in
    let* samples_json = field "samples" Json.to_list j in
    let* samples = map_result sample_of_json samples_json in
    let* counters_obj = field "counters" Json.to_obj j in
    let* counters =
      map_result
        (fun (k, v) ->
          match Json.to_int v with
          | Some i -> Ok (k, i)
          | None -> Error (Printf.sprintf "ill-typed counter %S" k))
        counters_obj
    in
    Ok { schema_version = version; generator; scale; samples; counters }

let write ~path r = Json.write ~path (to_json r)

let load ~path =
  let* j = Json.load ~path in
  of_json j

(* ------------------------------------------------------------------ *)
(* Comparison                                                          *)
(* ------------------------------------------------------------------ *)

type delta = {
  sample_name : string;
  metric : string;
  old_value : float;
  new_value : float;
  ratio : float;
  regression : bool;
}

let contains_sub ~sub s =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  go 0

let lower_is_better metric =
  List.exists
    (fun sub -> contains_sub ~sub metric)
    [ "seconds"; "time"; "_ns"; "nodes"; "dropped"; "_fp"; "_fn"; "_ops" ]

(* Wall times below this are scheduling noise at CI scale; never flag
   them. *)
let absolute_floor = 1e-3

let delta_of ~threshold ~sample_name ~metric ~old_value ~new_value =
  let ratio =
    if old_value = 0.0 && new_value = 0.0 then 1.0
    else if old_value = 0.0 then Float.infinity
    else new_value /. old_value
  in
  let regression =
    lower_is_better metric
    && new_value > absolute_floor
    && new_value -. old_value > threshold *. Float.abs old_value
    && new_value -. old_value > absolute_floor
  in
  { sample_name; metric; old_value; new_value; ratio; regression }

let default_rss_threshold = 1.0
let default_eps_threshold = 0.5

(* The telemetry fields gate with their own, looser thresholds: RSS and
   throughput are an order noisier than wall time at CI scale, so they
   get +100% / -50% defaults rather than wall time's +50%. Peak RSS
   regresses upward; events/sec regresses downward (higher is better) —
   the one metric where [lower_is_better] gets the direction wrong, so
   the regression test is spelled out here. [critical_path_ms] stays
   informational: it is a steering signal (which shard chain to shorten)
   rather than a promise. Each is skipped when the baseline predates the
   field (old value 0). *)
let telemetry_deltas ~rss_threshold ~eps_threshold old_s new_s =
  let mk metric old_value new_value regression =
    if old_value <= 0.0 then None
    else
      let ratio = new_value /. old_value in
      Some { sample_name = old_s.name; metric; old_value; new_value; ratio; regression }
  in
  List.filter_map Fun.id
    [
      mk "peak_rss_bytes" old_s.peak_rss_bytes new_s.peak_rss_bytes
        (new_s.peak_rss_bytes -. old_s.peak_rss_bytes > rss_threshold *. old_s.peak_rss_bytes);
      mk "events_per_sec" old_s.events_per_sec new_s.events_per_sec
        (old_s.events_per_sec -. new_s.events_per_sec > eps_threshold *. old_s.events_per_sec);
      mk "critical_path_ms" old_s.critical_path_ms new_s.critical_path_ms false;
    ]

let compare_records ?(threshold = 0.5) ?(rss_threshold = default_rss_threshold)
    ?(eps_threshold = default_eps_threshold) old_r new_r =
  List.concat_map
    (fun old_s ->
      match List.find_opt (fun s -> String.equal s.name old_s.name) new_r.samples with
      | None -> []
      | Some new_s ->
          delta_of ~threshold ~sample_name:old_s.name ~metric:"wall_seconds"
            ~old_value:old_s.wall_seconds ~new_value:new_s.wall_seconds
          :: telemetry_deltas ~rss_threshold ~eps_threshold old_s new_s
          @ List.filter_map
               (fun (metric, old_value) ->
                 match List.assoc_opt metric new_s.metrics with
                 | None -> None
                 | Some new_value ->
                     Some (delta_of ~threshold ~sample_name:old_s.name ~metric ~old_value ~new_value))
               old_s.metrics)
    old_r.samples

let regressions deltas = List.filter (fun d -> d.regression) deltas

let missing_from_baseline ~old_record ~new_record =
  List.filter_map
    (fun s ->
      if List.exists (fun o -> String.equal o.name s.name) old_record.samples then None
      else Some s.name)
    new_record.samples

let missing_from_candidate ~old_record ~new_record =
  List.filter_map
    (fun s ->
      if List.exists (fun n -> String.equal n.name s.name) new_record.samples then None
      else Some s.name)
    old_record.samples

let missing_metrics ~old_record ~new_record =
  List.concat_map
    (fun old_s ->
      match List.find_opt (fun s -> String.equal s.name old_s.name) new_record.samples with
      | None -> []
      | Some new_s ->
          List.filter_map
            (fun (metric, _) ->
              if List.mem_assoc metric new_s.metrics then None else Some (old_s.name, metric))
            old_s.metrics)
    old_record.samples

let render_comparison ?(threshold = 0.5) ?rss_threshold ?eps_threshold ~old_record ~new_record ()
    =
  let deltas = compare_records ~threshold ?rss_threshold ?eps_threshold old_record new_record in
  let module Table = Rma_util.Text_table in
  let t =
    Table.create
      ~title:
        (Printf.sprintf "Perf trajectory: %s -> %s (threshold +%.0f%%)" old_record.generator
           new_record.generator (100.0 *. threshold))
      ~columns:
        [ ("Experiment", Table.Left); ("Metric", Table.Left); ("Old", Table.Right);
          ("New", Table.Right); ("Ratio", Table.Right); ("", Table.Left) ]
      ()
  in
  let interesting d =
    (* Keep the table readable: changed metrics plus all regressions. *)
    d.regression || Float.abs (d.ratio -. 1.0) > 0.02
  in
  let shown = List.filter interesting deltas in
  List.iter
    (fun d ->
      Table.add_row t
        [
          d.sample_name; d.metric; Printf.sprintf "%.6g" d.old_value;
          Printf.sprintf "%.6g" d.new_value;
          (if Float.is_finite d.ratio then Printf.sprintf "%.2fx" d.ratio else "inf");
          (if d.regression then "REGRESSION" else "");
        ])
    shown;
  let regs = regressions deltas in
  (* An experiment in the current run with no baseline sample is a
     comparison failure, not something to skip silently: it means the
     checked-in baseline predates the experiment and must be
     regenerated, otherwise the new numbers are never tracked. The
     reverse holds too: a baseline experiment the candidate never ran
     would otherwise let a run that silently dropped (or crashed out of)
     an experiment pass the gate with fewer comparisons. *)
  let missing = missing_from_baseline ~old_record ~new_record in
  let lost = missing_from_candidate ~old_record ~new_record in
  let dropped = missing_metrics ~old_record ~new_record in
  let summary =
    if missing <> [] then
      Printf.sprintf
        "FAIL: baseline %s has no sample for experiment%s %s present in the current run — \
         regenerate the baseline record so %s tracked"
        old_record.generator
        (if List.length missing = 1 then "" else "s")
        (String.concat ", " missing)
        (if List.length missing = 1 then "it is" else "they are")
    else if lost <> [] then
      Printf.sprintf
        "FAIL: candidate %s is missing baseline experiment%s %s — the run dropped coverage, so \
         these metrics are no longer tracked"
        new_record.generator
        (if List.length lost = 1 then "" else "s")
        (String.concat ", " lost)
    else if dropped <> [] then
      Printf.sprintf
        "FAIL: candidate %s no longer emits baseline metric%s %s — the run dropped coverage, so \
         %s no longer tracked"
        new_record.generator
        (if List.length dropped = 1 then "" else "s")
        (String.concat ", " (List.map (fun (s, m) -> s ^ "/" ^ m) dropped))
        (if List.length dropped = 1 then "it is" else "they are")
    else if deltas = [] then "no comparable metrics (disjoint experiment sets?)"
    else if regs = [] then
      Printf.sprintf "OK: %d metrics compared, %d changed beyond 2%%, no regressions past +%.0f%%"
        (List.length deltas) (List.length shown) (100.0 *. threshold)
    else
      Printf.sprintf "REGRESSIONS: %d of %d metrics regressed past threshold" (List.length regs)
        (List.length deltas)
  in
  let body = if shown = [] then summary ^ "\n" else Table.render t ^ summary ^ "\n" in
  (body, regs <> [] || missing <> [] || lost <> [] || dropped <> [])
