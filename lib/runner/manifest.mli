(** Reader and regression differ for [BENCH_*.json] manifests.

    The writer is {!Runner.manifest_json}; this module is the other half of
    the perf-trajectory loop: load a checked-in baseline manifest, load a
    fresh run, and list the metrics that regressed beyond a tolerance.  It
    reads both schema versions — [dvfs-bench-manifest/2] (adds per-experiment
    [minor_words]/[major_words]) and the older [/1], whose missing word
    counters load as [0.].  The per-experiment [cpu_seconds] that older
    files of both schemas carry (a process-wide CPU-clock delta, so wrong
    under a pool) is ignored.  The JSON itself is read by {!Json.parse}. *)

exception Parse_error of string
(** Raised on malformed JSON (the message ends with the byte offset, as
    {!Json.error_to_string} prints it), an unsupported [schema] tag, or a
    missing / mistyped required field (the message names the field). *)

type experiment = {
  id : string;
  status : string;  (** ["ok"] or ["failed"] *)
  seconds : float;  (** wall clock *)
  alloc_mb : float;
  minor_words : float;  (** [0.] when loaded from a schema [/1] manifest *)
  major_words : float;  (** [0.] when loaded from a schema [/1] manifest *)
  rows : int;
}

type t = {
  schema : string;
  scale : float;
  jobs : int;
  host_domains : int;
  total_seconds : float;
  analyze_seconds : float;
      (** wall time of the [@analyze] static-analysis build, [0.] when the
          manifest carries no analyzer timing (older trajectory files) *)
  experiments : experiment list;
}

val of_string : string -> t
(** @raise Parse_error on malformed or unsupported input. *)

val load : string -> t
(** Reads and parses the file at the given path.
    @raise Parse_error on malformed or unsupported input.
    @raise Sys_error when the file cannot be read. *)

val total_alloc_mb : t -> float
(** Sum of [alloc_mb] over all experiments. *)

val read_analyze_timing : string -> float
(** Reads the [analyze_seconds] value from a [dvfs-analyze-timing/1]
    side-file (written by [analyze_main --timing]).
    @raise Parse_error on malformed or unsupported input.
    @raise Sys_error when the file cannot be read. *)

(** A metric that grew beyond the tolerance between two manifests. *)
type regression = {
  exp_id : string;  (** experiment id, or ["(total)"] for run-wide metrics *)
  metric : string;  (** ["seconds"], ["alloc_mb"] or ["total_seconds"] *)
  baseline : float;
  current : float;
  ratio : float;  (** [current /. baseline] *)
}

val diff : ?tolerance:float -> baseline:t -> current:t -> unit -> regression list
(** Metrics of [current] that exceed [baseline] by more than [tolerance]
    (a ratio; default [1.5], i.e. 50% head-room).  Compared per experiment
    present in both manifests with status ["ok"]: [seconds] and [alloc_mb],
    plus the run-wide [total_seconds] and [analyze_seconds] (the analyzer
    wall-time gate; skipped when either side carries no timing, since [0.]
    is below the noise floor).  Baseline values below a small noise
    floor are skipped, so sub-50ms experiments never trip the gate on
    scheduling jitter.  Experiments present on only one side are ignored —
    registry growth must not fail the perf gate.
    @raise Invalid_argument when [tolerance < 1.0]. *)

val pp_regression : Format.formatter -> regression -> unit
(** ["<id> <metric>: <old> -> <new> (<ratio>x)"]. *)
