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

let jobs_env_var = Domconfig.jobs_env_var

(* Delegates to the blessed config loader, which captured $DVFS_JOBS and
   the machine topology once at startup — keeps the pool sizing out of
   the effect pass's simulation-reachable ambient reads. *)
let default_pool_size () = Domconfig.default_jobs ()

(* Wall clock and GC counters below feed timing metadata only
   (job seconds/alloc in reports and manifests); [strip_timings] zeroes
   them before any byte-for-byte comparison, so they are deliberately
   waived from the determinism effect pass. *)
let now () = Unix.gettimeofday () (* lint:ignore effect-nondet: timing metadata *)

(* One experiment, in whatever domain picked it up.  Everything the caller
   needs — including the rendered report and the failure, if any — comes
   back as an immutable [job]; an exception must never escape, or it would
   take the whole worker (and its remaining share of the queue) with it.
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
  let experiments =
    Array.of_list (match experiments with Some es -> es | None -> Experiments.Registry.all)
  in
  let n = Array.length experiments in
  let requested = match pool_size with Some p -> p | None -> default_pool_size () in
  if requested < 1 then invalid_arg "Runner.run_all: pool_size must be positive";
  let pool_size = Stdlib.min requested (Stdlib.max n 1) in
  let t0 = now () in
  (* One atomic cell per job: the array itself is written only at creation,
     and each result is published through its cell, so the hand-off to the
     joining domain never relies on plain-array visibility (flagged by the
     domain-capture analysis pass). *)
  let results = Array.init n (fun _ -> Atomic.make None) in
  (* Self-scheduling shard: each worker claims the next unclaimed index.
     Assignment order is non-deterministic, but each job's result depends
     only on (id, scale) — the seed is derived from the id — and results
     land in registry order, so the report is identical for any pool. *)
  let next = Atomic.make 0 in
  let worker () =
    let rec loop () =
      let i = Atomic.fetch_and_add next 1 in
      if i < n then begin
        Atomic.set results.(i) (Some (run_job ~scale experiments.(i)));
        loop ()
      end
    in
    loop ()
  in
  if pool_size = 1 then worker ()
  else begin
    let domains = List.init (pool_size - 1) (fun _ -> Stdlib.Domain.spawn worker) in
    worker ();
    List.iter Stdlib.Domain.join domains
  end;
  let jobs =
    Array.to_list
      (Array.map
         (fun cell ->
           match Atomic.get cell with
           | Some job -> job
           (* unreachable: the workers only return once [next] has passed
              [n], and each claimed index is filled before the next claim. *)
           | None -> assert false)
         results)
  in
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
