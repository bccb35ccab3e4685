(** Parallel experiment runner.

    Shards the experiment registry across a pool of OCaml domains.  Three
    properties the callers (bench, CLI, tests) rely on:

    - {b Determinism}: each job's result depends only on its experiment id
      and the scale — every experiment runs with the canonical seed
      [Experiment.default_seed], derived from the id by {!Prng.derive} —
      and results are reported in registry order.  Outputs are therefore
      bit-identical for any pool size, including the serial case.
    - {b Failure isolation}: an experiment raising is recorded as a
      [Failed] job; the other jobs still run to completion.  Check
      {!failures} (the CLI exits non-zero when it is non-empty).
    - {b Accounting}: per-job wall-clock and allocated bytes, plus a
      machine-readable JSON manifest ({!manifest_json}) for the
      [BENCH_*.json] perf trajectory.  Allocation figures are the running
      domain's own words (minor plus major less promoted, see {!job}), so
      pool neighbours do not inflate them.  There is no per-job CPU time:
      the process-wide CPU clock would charge each job for its pool
      neighbours. *)

module Manifest = Manifest
(** Manifest reader + regression differ (see {!module-Manifest}). *)

type status = Done | Failed of string  (** [Failed] carries [Printexc.to_string]. *)

type job = {
  id : string;
  title : string;
  status : status;
  seconds : float;  (** wall clock *)
  alloc_mb : float;
      (** MB allocated by the job's domain: minor plus major words less
          promoted ones, times the word size *)
  minor_words : float;  (** minor-heap words allocated by the job's domain *)
  major_words : float;  (** major-heap words allocated by it, including promotions *)
  rows : int;  (** data rows in the summary table *)
  rendered : string;  (** [Experiment.print] output; [""] when failed *)
}

type report = {
  jobs : job list;  (** registry order, independent of completion order *)
  pool_size : int;  (** domains actually used *)
  scale : float;
  total_seconds : float;
}

val failures : report -> (string * string) list
(** [(id, error)] for every failed job, registry order. *)

val run_all :
  ?pool_size:int -> ?scale:float -> ?experiments:Experiments.Experiment.t list -> unit -> report
(** Runs [experiments] (default: the full registry) on [pool_size] domains
    (default: [Domconfig.default_jobs ()], capped at the number of
    experiments), through {!Sim_engine.Pool.map}.
    @raise Invalid_argument on a non-positive [pool_size] or [scale], or
    when [$DVFS_JOBS] is not a positive integer and [pool_size] is
    omitted. *)

val manifest_json : ?strip_timings:bool -> ?analyze_seconds:float -> report -> string
(** JSON manifest (schema [dvfs-bench-manifest/2], which extends [/1] with
    per-experiment [minor_words]/[major_words]; {!Manifest} reads both).
    [analyze_seconds] adds the optional static-analyzer wall-time key
    ({!Manifest} reads it back and loads a manifest without it as [0.]).
    Printed by {!Json.to_string}, with seconds rounded to 3 decimals,
    [alloc_mb] to 1 and word counts to integers.  With
    [~strip_timings:true] every timing/allocation field is zeroed, making
    manifests of identical registry runs byte-comparable. *)

val save_manifest :
  ?strip_timings:bool -> ?analyze_seconds:float -> report -> path:string -> unit

val print_outputs : Format.formatter -> report -> unit
(** Every job's rendered experiment output, registry order; failed jobs
    print a [FAILED] header with the error instead. *)

val pp_summary : Format.formatter -> report -> unit
(** Human-readable per-job timing table plus totals. *)
