(** A physical host: one or more frequency domains of one or more cores
    each, a set of domains, a VM scheduler and (optionally) a DVFS
    governor per frequency domain, driven by the discrete-event simulator.
    The default is one domain of one core: the paper's prototype.

    On every dispatch tick (default 1 ms) the host advances the
    workloads, then repeatedly asks the scheduler whom to run until the
    tick is spent or nobody runnable remains, once per core.  On several
    cores a domain may run on at most [Domain.vcpus] of them at once, and
    credits are percentages of the whole host (give the scheduler the
    core count as its [host_capacity]).  The first tick of a run of
    ticks one quantum apart advances every workload.  A later tick of the
    run advances only the workloads whose {!Workloads.Workload.due_at}
    has come (each posts it to the host, {!Workloads.Workload.post_due}),
    and none before the earliest of them: each other workload would only
    defer the tick.  The host credits the ticks it skipped for a workload
    with {!Workloads.Workload.defer_through} before it next executes or
    advances that workload, and in {!stop}.  Every accounting period
    (Xen: 30 ms) the scheduler refreshes its credit state.  Utilization
    windows are delivered to the governor and/or the scheduler's own DVFS
    observer (PAS): a governor sees the busiest core of its frequency
    domain (Linux's multi-core ondemand rule), PAS the busy fraction
    averaged over the cores.

    Metrics follow the paper's §4 definitions:
    - {e VM global load} — the domain's contribution to processor load
      (busy fraction of all cores' wall time);
    - {e Global load} — their sum;
    - {e Absolute load} — [Global load * ratio * cf], the load the same
      work would represent at maximum frequency; with several frequency
      domains, [ratio * cf] is the cores' mean speed. *)

type config = {
  quantum : Sim_time.t;  (** dispatch tick, default 1 ms *)
  account_period : Sim_time.t;  (** credit accounting, default 30 ms *)
  sample_period : Sim_time.t;  (** metric sampling, default 1 s *)
}

val default_config : config

type t

val create :
  ?config:config ->
  ?trace:Trace.t ->
  sim:Simulator.t ->
  processor:Cpu_model.Processor.t ->
  scheduler:Scheduler.t ->
  ?governor:Governors.Governor.t ->
  ?domains:(Cpu_model.Processor.t * Governors.Governor.t option) list ->
  unit ->
  t
(** Builds the host and arms its periodic events on [sim].  The simulation
    starts when the caller runs [sim].  [processor] is the first frequency
    domain and [governor] its governor; [domains] (default none) are the
    others, each with its own governor, and the host's cores are all
    their cores in order (per-core DVFS: one-core processors).  The
    host's energy is each domain's package reading weighted by its share
    of the cores.
    @raise Invalid_argument if [domains] is not empty and the scheduler
    observes utilization windows (PAS sets one frequency). *)

val sim : t -> Simulator.t
val processor : t -> Cpu_model.Processor.t
val scheduler : t -> Scheduler.t
val config : t -> config
val domains : t -> Domain.t list

val run_for : t -> Sim_time.t -> unit
(** Advances the simulation by the given duration. *)

val stop : t -> unit
(** Cancels the host's periodic events; the host stops dispatching and
    sampling.  Used when a cluster manager decommissions or rebuilds a
    node mid-simulation.  The ticks the host skipped are credited to its
    workloads first, so a workload driven on by another host continues
    its deferred run there. *)

val now : t -> Sim_time.t

val total_busy : t -> Sim_time.t
(** Cumulative busy CPU time since the start, summed over the cores. *)

val utilization_probe : t -> unit -> float
(** [utilization_probe host] returns a fresh probe: each call to the probe
    yields the busy fraction of the wall time elapsed since the probe's
    previous call, averaged over the cores (1.0 on the very first call of
    an always-busy host).
    Used by user-level PAS daemons and governors alike. *)

(** {1 Recorded series}

    Sampled every [sample_period]; loads are percentages. *)

val series_frequency : t -> Series.t
(** The first frequency domain's; {!frame} holds every domain's. *)

val series_global_load : t -> Series.t
val series_absolute_load : t -> Series.t

val series_domain_load : t -> Domain.t -> Series.t
(** The domain's VM global load.  @raise Not_found for a foreign domain. *)

val series_domain_absolute_load : t -> Domain.t -> Series.t
(** The domain's contribution converted to absolute load. *)

val frame : t -> Series.Frame.t
(** All series of this host bundled for CSV export. *)

val energy_joules : t -> float
val mean_watts : t -> float

(** {1 Microbenchmark hooks}

    Direct entry points to the host's periodic actions, so [bench/micro]
    can drive one dispatch or sample tick in isolation (outside the event
    queue) and measure its time and allocation.  Not for simulation logic:
    the simulator fires these through the handles armed by {!create}. *)
module Internal : sig
  val dispatch_tick : t -> unit -> unit
  (** One dispatch tick at the current simulated time. *)

  val sample : t -> unit -> unit
  (** One metric-sampling tick at the current simulated time. *)

  val reset_series : t -> unit
  (** Drops all recorded samples but keeps their storage ({!Series.reset}),
      so a benchmark can sample in a loop without unbounded growth and
      measure the steady state of the sampling path. *)
end
