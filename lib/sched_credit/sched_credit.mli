(** The Xen Credit scheduler, used as the paper's {e fix credit} scheduler
    (§3.1).

    Each domain's credit is a hard cap: per accounting period (30 ms in
    Xen) a domain may consume at most [credit% × period] of CPU time, and
    unused time is {e not} redistributed — the processor idles instead
    (non-work-conserving).  This is what makes the host look underloaded to
    a DVFS governor when a domain is lazy (Scenario 1, §3.2).

    Three special cases follow Xen:
    - Dom0 has strictly highest priority (§5.3: Dom0 is configured with the
      highest priority);
    - a domain created with a null credit has no cap and soaks up slices no
      capped domain wants, with no guarantee (§3.1);
    - a domain waking from idle gets BOOST priority for its next dispatch
      (Xen's latency fix for I/O-bound domains — cf. the scheduler
      comparison the paper cites as [6]); disable with [~boost:false].

    The {e effective} credit is what {!Scheduler.t.set_effective_credit}
    manipulates; the PAS policy rescales it as the frequency moves, while
    the {e initial} credit remains the sold SLA. *)

type t
(** A Credit scheduler's state, for callers that drive it beyond the
    {!Hypervisor.Scheduler.t} record (PAS rescales every cap in one pass). *)

val make :
  ?account_period:Sim_time.t ->
  ?host_capacity:int ->
  ?boost:bool ->
  Hypervisor.Domain.t list ->
  t
(** [account_period] must equal the host's accounting period (default
    30 ms) — quotas are refilled on {!Hypervisor.Scheduler.t.on_account_period}.
    [host_capacity] is the host's core count (default 1): a credit is a
    percentage of the {e whole} host, so quotas scale with it.
    @raise Invalid_argument on duplicate domains, a zero period, or
    [host_capacity < 1]. *)

val scheduler : t -> Hypervisor.Scheduler.t
(** The plug-in record over [t]; every call shares the same state. *)

val create :
  ?account_period:Sim_time.t ->
  ?host_capacity:int ->
  ?boost:bool ->
  Hypervisor.Domain.t list ->
  Hypervisor.Scheduler.t
(** [scheduler (make ...)]. *)

val rescale_capped : t -> divisor:Vec.Floats.cell -> unit
(** Sets every capped domain's effective credit to
    [initial /. divisor.value], in domain order, exactly as one {!Hypervisor.Scheduler.t.set_effective_credit}
    call per domain would (same sanitizer check, same in-flight quota
    adjustment) but in a single pass with no per-domain lookup.
    Uncapped domains are left alone.  The divisor travels in the caller's
    flat cell, so a freshly computed one is not boxed to cross the call.
    @raise Invalid_argument if a resulting credit is negative. *)

val rr_pointers : t -> int * int * int
(** The capped, boost and uncapped round-robin pointers, in that order —
    internal state exposed for differential tests. *)
