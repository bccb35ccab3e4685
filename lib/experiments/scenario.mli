(** The paper's common experimental setup (§5.3).

    Two VMs — V20 (20 % credit) and V70 (70 % credit) — plus Dom0 holding
    the remaining 10 % with the highest priority, on the Optiplex 755.  Each
    VM runs the Web-app under a three-phase inactive/active/inactive
    profile; the active load is either {e exact} (100 % of the VM's
    capacity) or {e thrashing} (exceeding it).

    Default timeline (scaled by [scale]):
    V20 active over [500 s, 5000 s), V70 over [2500 s, 7000 s), total
    7500 s.  Phase A = V20 alone, phase B = both, phase C = V70 alone. *)

type load_kind = Exact | Thrashing

type spec = {
  sched : Domconfig.sched_spec;
  gov : Domconfig.gov_spec;
  load : load_kind;
  scale : float;  (** time compression: 1.0 = paper-length run *)
}

val spec :
  ?sched:Domconfig.sched_spec -> ?gov:Domconfig.gov_spec -> ?load:load_kind -> ?scale:float ->
  unit -> spec
(** Defaults: Credit scheduler, stable ondemand, exact load, scale 1.0. *)

val config : spec -> Domconfig.t
(** The scenario as a host configuration: Dom0, V20 and V70 as phased
    [web] domains with the scaled timeline.  Printed with
    {!Domconfig.pp_spec}, it replays under [experiments_main xl]. *)

type phase = A | B | C

type result

val run : spec -> result
(** [Domconfig.build] of {!config}, run for the scaled duration. *)

val host : result -> Hypervisor.Host.t
val v20 : result -> Hypervisor.Domain.t
val v70 : result -> Hypervisor.Domain.t
val dom0 : result -> Hypervisor.Domain.t
val pas : result -> Pas.Pas_sched.t option
val duration : result -> Sim_time.t

val phase_bounds : result -> phase -> Sim_time.t * Sim_time.t
(** The inner 80 % of each phase, so transients at phase switches do not
    pollute the means. *)

val phase_mean : result -> phase -> Series.t -> float

val v20_load : result -> Series.t
val v70_load : result -> Series.t
val v20_absolute : result -> Series.t
val v70_absolute : result -> Series.t
val frequency : result -> Series.t

val mean_frequency : result -> phase -> float

val deficit_between :
  Hypervisor.Host.t -> Hypervisor.Domain.t -> Sim_time.t -> Sim_time.t -> float
(** [deficit_between host d lo hi]: mean shortfall (in percentage points)
    of [d]'s absolute load below its credit, over the samples in
    [\[lo, hi\]]; 0 when there are none. *)

val sla_deficit : result -> Hypervisor.Domain.t -> float
(** {!deficit_between} over the inner 80 % of the domain's active window —
    the QoS-violation measure motivating the paper. *)

val run_switch :
  switch:Sim_time.t ->
  duration:Sim_time.t ->
  build_host:(Hypervisor.Domain.t list -> Hypervisor.Host.t) ->
  Hypervisor.Host.t * Hypervisor.Domain.t
(** The ablations' reactivity scenario: V20 thrashes throughout, V70 is
    busy until [switch] and then idle, so the host empties and the
    frequency drops; Dom0 idles.  [build_host] gets Dom0, V20 and V70 in
    that order; the host is run for [duration].  Returns it and V20. *)
