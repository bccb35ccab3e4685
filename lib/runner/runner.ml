module Experiment = Experiments.Experiment
module Manifest = Manifest

type status = Done | Failed of string

type job = {
  id : string;
  title : string;
  status : status;
  seconds : float;
  alloc_mb : float;
  minor_words : float;
  major_words : float;
  rows : int;
  rendered : string;
}

type report = {
  jobs : job list;
  pool_size : int;
  scale : float;
  total_seconds : float;
}

let failures r =
  List.filter_map (fun j -> match j.status with Failed m -> Some (j.id, m) | Done -> None) r.jobs

(* Wall clock and GC counters below feed timing metadata only
   (job seconds/alloc in reports and manifests); [strip_timings] zeroes
   them before any byte-for-byte comparison, so they are deliberately
   waived from the determinism effect pass. *)
let now () = Unix.gettimeofday () (* lint:ignore effect-nondet: timing metadata *)

(* One experiment, in whatever domain picked it up.  Everything the caller
   needs — including the rendered report and the failure, if any — comes
   back as an immutable [job]; an exception must never escape, or the pool
   would stop claiming jobs and the whole run would raise it.
   The word counts are the running domain's own: [Gc.minor_words] and the
   major and promoted counts of [Gc.counters].  [Gc.quick_stat] sums what
   the domains publish at their collections, so its deltas read 0 or
   another job's words, and the minor count of [Gc.counters] (which
   [Gc.allocated_bytes] takes) counts the minor heap's unfinished cycle
   at an eighth under OCaml 5.1.  [alloc_mb] is the exact word count:
   minor plus major less promoted (words the minor count already has). *)
let run_job ~scale (e : Experiment.t) =
  let t0 = now () in (* lint:ignore effect-nondet: timing metadata *)
  let minor0 = Gc.minor_words () and _, promoted0, major0 = Gc.counters () in (* lint:ignore effect-nondet: timing metadata *)
  let status, rows, rendered =
    match Experiment.run e ~scale with
    | output ->
        (Done, Sim_engine.Table.row_count output.Experiment.summary, Experiment.print_to_string output)
    | exception exn -> (Failed (Printexc.to_string exn), 0, "")
  in
  let minor1 = Gc.minor_words () and _, promoted1, major1 = Gc.counters () in (* lint:ignore effect-nondet: timing metadata *)
  let minor_words = minor1 -. minor0 and major_words = major1 -. major0 in
  let words = minor_words +. major_words -. (promoted1 -. promoted0) in
  {
    id = e.Experiment.id;
    title = e.Experiment.title;
    status;
    seconds = now () -. t0;
    alloc_mb = words *. float_of_int (Sys.word_size / 8) /. 1_048_576.0;
    minor_words;
    major_words;
    rows;
    rendered;
  }

let run_all ?pool_size ?(scale = 1.0) ?experiments () =
  if not (scale > 0.0) then invalid_arg "Runner.run_all: scale must be positive";
  let experiments = match experiments with Some es -> es | None -> Experiments.Registry.all in
  (* Delegates to the blessed config loader, which captured $DVFS_JOBS and
     the machine topology once at startup — keeps the pool sizing out of
     the effect pass's simulation-reachable ambient reads. *)
  let requested = match pool_size with Some p -> p | None -> Domconfig.default_jobs () in
  if requested < 1 then invalid_arg "Runner.run_all: pool_size must be positive";
  let pool_size = Stdlib.min requested (Stdlib.max (List.length experiments) 1) in
  let t0 = now () in
  (* Each job's result depends only on (id, scale) — the seed is derived
     from the id — and [run_job] never raises, so the report is identical
     for any pool. *)
  let jobs = Sim_engine.Pool.map ~jobs:pool_size (run_job ~scale) experiments in
  { jobs; pool_size; scale; total_seconds = now () -. t0 }

(* ------------------------------------------------------------------ *)
(* JSON manifest.  [strip_timings] zeroes the wall-clock/alloc fields so
   two runs of the same registry can be compared byte-for-byte; the other
   figures are rounded to the precision the trajectory files have always
   carried. *)

let manifest_json ?(strip_timings = false) ?analyze_seconds r =
  let time v = if strip_timings then 0.0 else v in
  let seconds v = Json.fixed 3 (time v) in
  let num i = Json.Num (float_of_int i) in
  let job j =
    let status, error =
      match j.status with
      | Done -> ("ok", [])
      | Failed m -> ("failed", [ ("error", Json.Str m) ])
    in
    Json.Obj
      ([ ("id", Json.Str j.id); ("status", Json.Str status) ]
      @ error
      @ [
          ("seconds", seconds j.seconds);
          ("alloc_mb", Json.fixed 1 (time j.alloc_mb));
          ("minor_words", Json.fixed 0 (time j.minor_words));
          ("major_words", Json.fixed 0 (time j.major_words));
          ("rows", num j.rows);
        ])
  in
  Json.to_string
    (Json.Obj
       ([
          ("schema", Json.Str "dvfs-bench-manifest/2");
          ("scale", Json.Num r.scale);
          ("jobs", num r.pool_size);
          ("host_domains", num (Stdlib.Domain.recommended_domain_count ()));
          ("total_seconds", seconds r.total_seconds);
        ]
       (* Optional key, still schema /2: manifests written without
          analyzer timing do not carry it. *)
       @ Option.fold ~none:[] ~some:(fun s -> [ ("analyze_seconds", seconds s) ]) analyze_seconds
       @ [ ("experiments", Json.Arr (List.map job r.jobs)) ]))
  ^ "\n"

let save_manifest ?strip_timings ?analyze_seconds r ~path =
  Out_channel.with_open_text path (fun oc ->
      output_string oc (manifest_json ?strip_timings ?analyze_seconds r))

let print_outputs ppf r =
  List.iter
    (fun j ->
      match j.status with
      | Done -> Format.pp_print_string ppf j.rendered
      | Failed msg -> Format.fprintf ppf "=== %s: FAILED ===@.%s@.@." j.id msg)
    r.jobs

let pp_summary ppf r =
  let failed = List.length (failures r) in
  Format.fprintf ppf "ran %d experiments on %d domain(s) in %.1fs wall@."
    (List.length r.jobs) r.pool_size r.total_seconds;
  List.iter
    (fun j ->
      Format.fprintf ppf "  %-18s %-6s %6.1fs wall %8.0f MB alloc %4d rows@." j.id
        (match j.status with Done -> "ok" | Failed _ -> "FAILED")
        j.seconds j.alloc_mb j.rows)
    r.jobs;
  if failed > 0 then Format.fprintf ppf "  %d experiment(s) FAILED@." failed
