(* Clocks, sample statistics, process memory, machine speed and the
   result line. *)

let now = Unix.gettimeofday

(* Cost of one [now ()] reading, subtracted from per-call timers so a
   layer timed around millions of short calls is not billed for the
   clock itself. Median of many back-to-back pairs. *)
let clock_cost =
  lazy
    (let n = 2001 in
     let samples =
       Array.init n (fun _ ->
           let t0 = now () in
           let t1 = now () in
           t1 -. t0)
     in
     Array.sort compare samples;
     samples.(n / 2))

(* An accumulator for a layer timed around many calls. *)
type timer = { mutable total : float; mutable calls : int }

let timer () = { total = 0.0; calls = 0 }

let charge t dt =
  t.total <- t.total +. dt;
  t.calls <- t.calls + 1

(* Seconds spent inside the timed calls, clock cost removed. *)
let busy t = Float.max 0.0 (t.total -. (float_of_int t.calls *. Lazy.force clock_cost))

let sorted xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  a

let median xs =
  match xs with
  | [] -> nan
  | _ ->
      let a = sorted xs in
      let n = Array.length a in
      if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

let mean xs = List.fold_left ( +. ) 0.0 xs /. float_of_int (List.length xs)

(* Mean of the middle 60%: robust to single hiccups, yet still averages
   over the two modes that amortised costs such as major collections
   give a pass's time, where a median flips between them. *)
let trimmed_mean xs =
  let a = sorted xs in
  let n = Array.length a in
  let cut = n / 5 in
  mean (Array.to_list (Array.sub a cut (n - (2 * cut))))

(* Nearest-rank percentile, [p] in (0, 100]. *)
let percentile p xs =
  match xs with
  | [] -> nan
  | _ ->
      let a = sorted xs in
      let n = Array.length a in
      let rank = int_of_float (Float.ceil (p /. 100.0 *. float_of_int n)) in
      a.(max 0 (min (n - 1) (rank - 1)))

(* The highest whole percentile up to 99 that leaves at least ten
   samples above it: the tail the sample count can support. Never below
   the median. *)
let tail_rank n =
  if n <= 20 then 50 else min 99 (100 * (n - 10) / n)

let tail xs =
  match tail_rank (List.length xs) with 50 -> median xs | r -> percentile (float_of_int r) xs

(* Peak resident set of a process (VmHWM, kB in /proc) in MB. *)
let vm_hwm_mb pid =
  let path = Printf.sprintf "/proc/%s/status" pid in
  match open_in path with
  | exception Sys_error _ -> nan
  | ic ->
      Fun.protect ~finally:(fun () -> close_in ic) @@ fun () ->
      let rec scan () =
        match input_line ic with
        | exception End_of_file -> nan
        | line -> (
            match Scanf.sscanf_opt line "VmHWM: %d kB" (fun kb -> kb) with
            | Some kb -> float_of_int kb /. 1024.0
            | None -> scan ())
      in
      scan ()

(* GC activity between two [Gc.quick_stat] readings. *)
type gc_delta = {
  minor_mb : float;
  promoted_mb : float;
  major_collections : int;
  heap_top_mb : float;
}

let words_mb w = w *. float_of_int (Sys.word_size / 8) /. 1048576.0

let gc_delta (a : Gc.stat) (b : Gc.stat) =
  {
    minor_mb = words_mb (b.Gc.minor_words -. a.Gc.minor_words);
    promoted_mb = words_mb (b.Gc.promoted_words -. a.Gc.promoted_words);
    major_collections = b.Gc.major_collections - a.Gc.major_collections;
    heap_top_mb = words_mb (float_of_int b.Gc.top_heap_words);
  }

(* One metric of the result line. *)
type metric = { name : string; value : float; unit_ : string }

let m name unit_ value = { name; value; unit_ }

let json_number v =
  if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.0f" v
  else if Float.is_finite v then Printf.sprintf "%.17g" v
  else "null"

(* The run's result: the last line of standard output. *)
let result_line ~correct ~attempted ~failed metrics =
  let body =
    metrics
    |> List.map (fun x ->
           Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" x.name (json_number x.value) x.unit_)
    |> String.concat ", "
  in
  Printf.sprintf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}" correct
    attempted failed body

(* ---- Machine speed ----

   The machines this runs on change speed by up to 3x within minutes and
   by 1.7x from one second to the next, each CPU on its own, and the
   change hits allocation-heavy work such as the detector's far harder
   than plain arithmetic. Each run therefore times a fixed calibration
   kernel before and after every timed call, and scales the call to the
   speed at which the kernel takes [calib_ref] seconds. The kernel is
   allocation-heavy too: it parses a text stream into short-lived records
   and a hash table of cells whose lists grow, so that minor collections,
   promotion and major slices all take part. It runs in a child process
   from a collected heap, so it shares neither heap nor peak RSS with the
   program under test, and a change to the program cannot move it. *)

let calib_ref = 0.05

let kernel_text =
  lazy (String.concat "\t" (List.init 150_000 (fun i -> string_of_int (i * 7919 mod 1_000_003))))

type cell = { first : int; mutable later : int list }

let kernel_work text =
  let table = Hashtbl.create 1024 in
  let recent = ref [] and count = ref 0 and acc = ref 0 in
  String.iter
    (fun c ->
      if c = '\t' then begin
        incr count;
        let key = !acc land 65535 in
        (match Hashtbl.find_opt table key with
        | Some cell -> cell.later <- !acc :: cell.later
        | None -> Hashtbl.replace table key { first = !acc; later = [] });
        let record = Array.make 6 !acc in
        recent := (record.(3), string_of_int !acc) :: (if !count land 1023 = 0 then [] else !recent);
        acc := 0
      end
      else acc := (!acc * 10) + Char.code c - 48)
    text;
  let total = Hashtbl.fold (fun _ cell n -> n + cell.first + List.length cell.later) table 0 in
  ignore (Sys.opaque_identity (total, !recent))

(* The kernel's text cut into [domains] parts at tabs, and the time until
   as many domains, one part each, are all done. *)
let kernel ~domains =
  let text = Lazy.force kernel_text in
  let len = String.length text in
  let cut k =
    if k = 0 then 0 else if k = domains then len else String.index_from text (k * len / domains) '\t'
  in
  let parts = List.init domains (fun k -> String.sub text (cut k) (cut (k + 1) - cut k)) in
  Gc.full_major ();
  let t0 = now () in
  let others = List.map (fun part -> Domain.spawn (fun () -> kernel_work part)) (List.tl parts) in
  kernel_work (List.hd parts);
  List.iter Domain.join others;
  now () -. t0

(* The child's side: one kernel time per request byte, until EOF. The
   byte is the digit of the number of domains to run the kernel in. *)
let calibration_child () =
  try
    while true do
      let domains = Char.code (input_char stdin) - Char.code '0' in
      Printf.printf "%.9f\n%!" (kernel ~domains)
    done
  with End_of_file -> exit 0

let calibrator =
  lazy
    (let req_r, req_w = Unix.pipe ~cloexec:true () in
     let rep_r, rep_w = Unix.pipe ~cloexec:true () in
     let exe = Sys.executable_name in
     let pid = Unix.create_process exe [| exe; "--calibrate" |] req_r rep_w Unix.stderr in
     Unix.close req_r;
     Unix.close rep_w;
     let oc = Unix.out_channel_of_descr req_w in
     at_exit (fun () ->
         close_out_noerr oc;
         ignore (Unix.waitpid [] pid));
     (oc, Unix.in_channel_of_descr rep_r))

let kernel_time ~domains =
  let oc, ic = Lazy.force calibrator in
  output_char oc (Char.chr (Char.code '0' + domains));
  flush oc;
  float_of_string (input_line ic)

(* How many domains the work being timed runs in. Two domains lose time
   whenever either of their CPUs stalls, at every stop-the-world minor
   collection, and a kernel in one domain does not see that: in one slow
   spell a two-domain pass took 0.7 to 2.1 s, and scaled by the
   one-domain kernel its median still spread 0.33 over five runs, by the
   two-domain kernel 0.05. *)
let work_domains = ref 1

(* A calibration reading: the kernel in one domain, and in as many
   domains as the work (the same time when that is one). *)
type reading = { one : float; all : float }

(* Every one-domain kernel time taken in the run, latest first. *)
let calibs = ref []

let calib () =
  let one = kernel_time ~domains:1 in
  calibs := one :: !calibs;
  let all = if !work_domains = 1 then one else kernel_time ~domains:!work_domains in
  { one; all }

(* A timed call: its time, and the readings just before and after it. *)
type timing = { value : float; before : reading; after : reading }

(* The latest reading, taken right after the last timed call. *)
let last_calib = ref None

(* Runs [f], which returns its result and its time, between two readings.
   The reading after one call is the reading before the next, and the
   first call of a series takes a fresh one. *)
let between_calibrations ?(fresh = false) f =
  let before =
    match !last_calib with
    | Some r when not fresh -> r
    | _ -> calib ()
  in
  let r, value = f () in
  let after = calib () in
  last_calib := Some after;
  (r, { value; before; after })

(* A time as measured, or scaled to reference speed: by [calib_ref] over
   the mean of its two readings in as many domains as the work. *)
type view = Raw | Scaled

let value view t =
  match view with
  | Raw -> t.value
  | Scaled -> t.value *. 2.0 *. calib_ref /. (t.before.all +. t.after.all)

(* [a] minus [b], two calls run back to back. Scaled, both share the
   mean of their one-domain readings, the one between them counted twice.
   The detector pass and its Baseline need one factor, or the difference
   is also the difference of two scalings; and a Baseline pass runs in
   one domain even when the detector's runs in two. *)
let difference view a b =
  match view with
  | Raw -> a.value -. b.value
  | Scaled ->
      (a.value -. b.value) *. 4.0 *. calib_ref
      /. (a.before.one +. a.after.one +. b.before.one +. b.after.one)
