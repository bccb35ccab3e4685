(** The paper's [pi-app]: a CPU-bound batch job computing an approximation of
    π (§5.1).  It carries a fixed amount of absolute work; the measured
    output is its execution time, which is what Fig. 1, Table 2 and the
    proportionality validations (eq. (2)/(3)) observe.

    [duty_cycle] models an application that cannot keep a whole host CPU
    busy (a single guest process among guest-level overheads): the job
    accumulates CPU-time demand at [duty_cycle] seconds per second of wall
    time, so even on an idle work-conserving host it consumes at most that
    fraction of the processor.  The paper's Table 2 measurements imply a
    duty cycle of about 0.5 for pi-app on the Elite 8300 (SEDF finishes in
    616 s what the 20 %-capped run does in 1559 s). *)

type t

val create : ?duty_cycle:float -> work:float -> unit -> t
(** [work] in absolute seconds; [duty_cycle] in (0, 1], default 1.
    @raise Invalid_argument on a non-positive work amount or a duty cycle
    outside (0, 1]. *)

val workload : t -> Workload.t
(** The job as a workload.  Ticks that only add tokens to a job already
    holding some are deferred (see {!Workload.make}).  Call it at most once
    per job: each call makes a workload with its own deferred ticks, which
    another one's [execute] would not catch up. *)

val total_work : t -> float
val remaining_work : t -> float
val finished : t -> bool

val tokens : t -> Sim_time.t
(** The private CPU-time demand accumulator.  It lags while ticks are
    deferred and is exact after {!Workload.flush}; exposed so tests can
    check the replay bit for bit. *)

val start_time : t -> Sim_time.t option
(** Time of the first execution, [None] if it never ran. *)

val finish_time : t -> Sim_time.t option

val execution_time : t -> Sim_time.t option
(** [finish - start], the paper's measured quantity. *)

val reset : t -> unit
(** Restores the full work amount so the job can be run again.  Call
    {!Workload.flush} on the job's workload first: its deferred ticks
    happened before the reset. *)
