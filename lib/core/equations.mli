(** The paper's proportionality model — equations (1) to (4) of §4.2 as pure
    functions.

    Conventions: loads and credits are percentages (0–100 for loads, credits
    may exceed 100 after compensation); [ratio] is [F_i / F_max]; [cf] is
    the per-frequency calibration factor. *)

exception Invalid_speed of { ratio : float; cf : float }
(** Raised by every function that divides by [ratio * cf] when that product
    is zero, negative or NaN — the division would otherwise return
    [inf]/[NaN] and silently poison credits downstream. *)

val frequency_ratio : Cpu_model.Frequency.table -> Cpu_model.Frequency.mhz -> float
(** [ratio_i = F_i / F_max].  @raise Not_found for a non-level frequency. *)

val absolute_load : global_load:float -> ratio:float -> cf:float -> float
(** The load the processor would show at maximum frequency:
    [Global_load * ratio * cf] (§4, variable definitions). *)

val load_at : absolute_load:float -> ratio:float -> cf:float -> float
(** Inverse of {!absolute_load}: the load a given absolute load represents
    at frequency [i] — eq. (1) rearranged: [L_i = L_max / (ratio_i * cf_i)].
    @raise Invalid_speed if [ratio * cf] is not positive. *)

val time_at : t_max:float -> ratio:float -> cf:float -> float
(** Eq. (2): execution time at frequency [i] of a computation taking
    [t_max] at maximum frequency (same credit): [T_i = T_max / (ratio*cf)].
    @raise Invalid_speed if [ratio * cf] is not positive. *)

val time_with_credit : t_init:float -> c_init:float -> c_new:float -> float
(** Eq. (3): execution time after a credit change (same frequency):
    [T_new = T_init * C_init / C_new].
    @raise Invalid_argument on non-positive credits. *)

val compensated_credit : initial:float -> ratio:float -> cf:float -> float
(** Eq. (4): the credit that restores, at frequency [i], the computing
    capacity the initial credit bought at maximum frequency:
    [C_j = C_init / (ratio_i * cf_i)].  May exceed 100.
    @raise Invalid_speed if [ratio * cf] is not positive. *)

val compensation_divisor : ratio:float -> cf:float -> float
(** [ratio * cf], the divisor of Eq. (4): [compensated_credit ~initial
    ~ratio ~cf] is exactly [initial /. compensation_divisor ~ratio ~cf].
    Lets a caller rescaling many credits check and compute it once.
    @raise Invalid_speed if [ratio * cf] is not positive. *)

val can_absorb :
  Cpu_model.Frequency.table ->
  Cpu_model.Calibration.t ->
  Cpu_model.Frequency.mhz ->
  absolute_load:float ->
  bool
(** Listing 1.1's test: [ratio_i * 100 * cf_i > absolute_load]. *)

val compute_new_freq :
  Cpu_model.Frequency.table ->
  Cpu_model.Calibration.t ->
  absolute_load:float ->
  Cpu_model.Frequency.mhz
(** Listing 1.1: the lowest frequency whose capacity strictly exceeds the
    absolute load; the maximum frequency if none qualifies. *)
