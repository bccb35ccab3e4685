(** A simulated processor: architecture + cpufreq driver + energy meter.

    Work is measured in {e absolute seconds}: one unit is what the processor
    completes in one second of wall time at its maximum frequency.  At a
    lower frequency [f] the processor delivers [ratio_f * cf_f] units per
    second — the paper's ground-truth performance law (eq. (1)/(2)). *)

type t

val create : ?init_freq:Frequency.mhz -> Arch.t -> t
(** The initial frequency defaults to the architecture's maximum. *)

val arch : t -> Arch.t
val freq_table : t -> Frequency.table
val cpufreq : t -> Cpufreq.t

val current_freq : t -> Frequency.mhz
val set_freq : t -> now:Sim_time.t -> Frequency.mhz -> unit

val ratio : t -> float
(** [current / max]. *)

val cf : t -> float
(** Calibration factor at the current frequency. *)

val cf_at : t -> Frequency.mhz -> float
val ratio_at : t -> Frequency.mhz -> float

val speed : t -> float
(** Absolute work units delivered per second at the current frequency:
    [ratio * cf]. *)

val speed_at : t -> Frequency.mhz -> float

val lowest_sufficient : t -> threshold:float -> absolute_load:float -> Frequency.mhz
(** The lowest level [f], in ascending order, with
    [speed_at t f *. threshold >= absolute_load]; the maximum frequency if
    none qualifies.  The ondemand-style level search, without allocating. *)

val work_in : t -> Sim_time.t -> float
(** Absolute work completed by running flat-out for the given duration at
    the current frequency. *)

val record_power : t -> dt:Sim_time.t -> util:float -> unit
(** Accounts energy for an interval at the current frequency. *)

val record_busy : t -> dt:Sim_time.t -> busy:Sim_time.t -> unit
(** [record_power] with the utilization derived as [busy / dt] inside the
    meter, so the per-tick accounting path passes no freshly boxed float. *)

val energy_joules : t -> float
val mean_watts : t -> float
