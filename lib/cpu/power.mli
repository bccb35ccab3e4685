(** Package power and energy accounting.

    The standard CMOS approximation: dynamic power scales with [V^2 * f] and
    utilization, on top of a static floor.  Voltage is modelled linear in
    frequency between [v_min] and [v_max].  The model drives the energy
    ablation experiments (the paper motivates PAS by energy but reports no
    Joule figures, so this is an extension, not a reproduction target). *)

type model

(** The static floor's dependence on frequency. *)
type leakage =
  | Constant  (** [idle_watts] at every level *)
  | Voltage_scaled
      (** [idle_watts * v(freq) / v_max]: leakage roughly proportional to
          voltage, so a clocked-down package also leaks less (the
          multi-core ablation's model) *)

val model :
  ?v_min:float ->
  ?v_max:float ->
  ?leakage:leakage ->
  ?reading_period:Sim_time.t ->
  idle_watts:float ->
  max_watts:float ->
  unit ->
  model
(** Defaults: [v_min = 0.8], [v_max = 1.2] (volts, relative scale),
    [Constant] leakage, and a zero [reading_period]: the meter prices
    every recorded interval at its own frequency.  A positive
    [reading_period] models a periodic meter: at each multiple of it of
    recorded time, before the interval that starts there, it prices the
    busy time since its previous reading at the frequency of that
    instant (the multi-core ablation's 10 ms meter).
    @raise Invalid_argument if [max_watts < idle_watts], voltages are not
    positive and ordered, or the reading period is negative. *)

val of_arch : ?leakage:leakage -> ?reading_period:Sim_time.t -> Arch.t -> model

val watts : model -> Frequency.table -> freq:Frequency.mhz -> util:float -> float
(** Instantaneous package power at the given frequency and utilization
    ([util] in [\[0,1\]], clamped): the static floor (see {!leakage})
    plus [(max_watts - idle_watts) * util * V^2 f / (V_max^2 f_max)]. *)

module Meter : sig
  type t

  val create : ?cores:int -> model -> Frequency.table -> t
  (** [cores] (default 1) is the number of cores the meter's package
      runs at one frequency: a recorded [busy] time is spread over
      [cores * dt] of capacity. *)

  val record : t -> dt:Sim_time.t -> freq:Frequency.mhz -> util:float -> unit
  (** Accumulates [watts * dt] for an interval during which frequency and
      utilization were constant. *)

  val record_busy : t -> dt:Sim_time.t -> busy:Sim_time.t -> freq:Frequency.mhz -> unit
  (** {!record} with [util = busy / (cores * dt)] computed inside the
      meter, keeping the per-tick float intermediates unboxed; a periodic
      meter (see {!model}) prices it at its next reading instead. *)

  val joules : t -> float
  val elapsed : t -> Sim_time.t
  val mean_watts : t -> float
  (** 0 before any interval is recorded (or read). *)
end
