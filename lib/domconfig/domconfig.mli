(** An [xl.cfg]-style textual configuration for simulated hosts.

    Xen administrators describe domains in small key=value config files;
    this module provides the equivalent for the simulator so scenarios can
    be written, versioned and replayed without recompiling.  Format:

    {v
# comments start with '#'
host arch=optiplex-755 scheduler=pas governor=none duration=600

domain name=Dom0  credit=10 dom0=true workload=idle
domain name=V20   credit=20 workload=web rate=0.2 from=50 until=500
domain name=V70   credit=70 workload=pi  work=100 duty=0.5
    v}

    Directives: one [host] line (anywhere; defaults apply if absent) and
    one [domain] line per domain.  Unknown keys are errors — typos in a
    config should never be silently ignored.

    Keys: [host]: [arch] (a {!Cpu_model.Arch.find} name or the shorthands
    [optiplex-755] / [elite-8300]), [scheduler] (a {!schedulers} name),
    [governor] (a {!governors} name), [duration] (seconds, (0, 1e9]).
    [domain]: [name], [credit] (percent, [0, 100]), [weight] (>= 1), [dom0]
    (bool), [vcpus] (>= 1), [workload] ([idle]|[busy]|[web]|[pi]) plus
    per-workload keys: web — [rate] (absolute work/s, >= 0), [from]/[until]
    (s in [0, 1e9], an optional non-empty active window), [timeout] (s in
    [1e-6, 1e9], default 10), [request_work] (s, > 0); pi — [work]
    (absolute s, > 0), [duty] (0, 1].  Numbers must be finite; a value out
    of range is a parse error at its line, so every configuration [parse]
    accepts also {!build}s. *)

type workload_spec =
  | Idle
  | Busy
  | Web of {
      rate : float;
      from_s : float option;
      until_s : float option;
      timeout_s : float;
      request_work : float;
    }
  | Pi of { work : float; duty : float }

type domain_spec = {
  name : string;
  credit : float;
  weight : int;
  dom0 : bool;
  vcpus : int;
  workload : workload_spec;
}

type sched_spec = Credit | Sedf | Credit2 | Pas_sched
type gov_spec = Performance | Powersave | Ondemand | Stable | Conservative | No_governor

val schedulers : (string * sched_spec) list
(** Every scheduler's config and command-line name: [credit], [sedf],
    [credit2], [pas]. *)

val governors : (string * gov_spec) list
(** Every governor's config and command-line name: [performance],
    [powersave], [ondemand], [stable] (alias [stable-ondemand]),
    [conservative], [none].  {!pp_spec} prints a value's first name. *)

type t = {
  arch : Cpu_model.Arch.t;
  scheduler : sched_spec;
  governor : gov_spec;
  duration_s : float;
  domains : domain_spec list;
}

val parse : string -> (t, string) result
(** Parses a whole configuration; the error string starts with
    [line N:], the offending line (the last line when no domain is
    declared). *)

val parse_file : string -> (t, string) result

type app = App_none | App_web of Workloads.Web_app.t | App_pi of Workloads.Pi_app.t
(** Handle to the concrete workload behind a domain, for reporting (request
    statistics, pi execution times). *)

type built = {
  sim : Simulator.t;
  host : Hypervisor.Host.t;
  domains : (domain_spec * Hypervisor.Domain.t * app) list;
  pas : Pas.Pas_sched.t option;
  duration : Sim_time.t;
}

val build : ?wrap:(Workloads.Workload.t -> Workloads.Workload.t) -> t -> built
(** Instantiates processor, workloads, domains, scheduler and governor.
    Does not run the simulation — call
    [Hypervisor.Host.run_for built.host built.duration].  [wrap] (default
    the identity) is applied to each workload before its domain is made,
    for a caller that interposes on the workloads. *)

val pp_spec : Format.formatter -> t -> unit
(** Round-trippable rendering of a parsed configuration: every float is
    printed as the shortest decimal that parses back to the same value. *)

val jobs_env_var : string
(** ["DVFS_JOBS"]. *)

val default_jobs : unit -> int
(** [$DVFS_JOBS] when set, else [Domain.recommended_domain_count ()] —
    both captured once at module initialization (before any worker
    domain spawns), so a run's pool sizing is a constant of the run.
    @raise Invalid_argument if [$DVFS_JOBS] is not a positive integer
    (validated at the call, so misconfiguration fails where the pool is
    sized, not at program load). *)
