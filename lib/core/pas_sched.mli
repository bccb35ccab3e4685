(** The Power-Aware Scheduler (PAS) — the paper's contribution (§4), in its
    in-hypervisor form (the third implementation choice of §4.1, the one the
    paper's results are based on).

    PAS extends the Credit scheduler.  At every evaluation window it

    + averages the last three processor-utilization samples into the
      {e Global load} (footnote 5),
    + converts it to the {e Absolute load} using the current frequency's
      ratio and [cf],
    + picks the lowest frequency that absorbs the absolute load
      (Listing 1.1),
    + rescales {e every} domain's effective credit to
      [C_init / (ratio * cf)] (Listing 1.2) — so an active domain keeps the
      absolute capacity it paid for, and no domain ever receives more,
    + applies the frequency change.

    The credit sum may exceed 100 % at low frequency; the paper notes this
    is intentional (the new limits of lazy domains are simply never
    reached). *)

type t

val create :
  ?window:Sim_time.t ->
  ?account_period:Sim_time.t ->
  processor:Cpu_model.Processor.t ->
  Hypervisor.Domain.t list ->
  t
(** [window] is the utilization sampling period (default 100 ms);
    [account_period] is forwarded to the underlying Credit scheduler, and
    so is the processor's core count, as its [host_capacity].  PAS runs
    on a host of one frequency domain, [processor]; on several cores it
    reads the busy fraction averaged over them. *)

val scheduler : t -> Hypervisor.Scheduler.t
(** Plug this into {!Hypervisor.Host.create}; no separate governor is needed
    (nor allowed — PAS owns the frequency). *)

val evaluations : t -> int
(** Number of windows evaluated so far. *)

val frequency_decisions : t -> int
(** Number of evaluations that changed the processor frequency. *)

val last_absolute_load : t -> float
(** The absolute load (percent) computed at the latest evaluation. *)

val effective_credit : t -> Hypervisor.Domain.t -> float

val check_invariants : t -> now:Sim_time.t -> unit
(** Evaluates the PAS sanitizer invariants against the current state: the
    processor frequency is a table level, every capped effective credit is
    finite and non-negative, and credit conservation holds — the capped
    credits sum to [sum initial / (ratio * cf)] (Eq. 4 summed over
    domains).  A no-op unless the sanitizer is enabled ({!Analysis.enable});
    called automatically at the end of every evaluation window, and exposed
    so tests can drive it against deliberately corrupted state. *)
