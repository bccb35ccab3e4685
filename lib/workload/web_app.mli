(** The paper's [Web-app]: a web server (Joomla CMS) receiving a load
    generated by httperf (§5.1).

    Modelled as an open-loop request injector feeding a FIFO work queue: the
    injector produces requests at a configured {e absolute work rate}
    (processor-seconds at maximum frequency, per second of wall time), each
    request costing [request_work] absolute seconds.  The paper's two load
    levels map directly:

    - {e exact load} — a rate equal to the VM's absolute capacity (100 % of
      its credit but not more, §5.3);
    - {e thrashing load} — a rate exceeding the VM's capacity.

    The rate follows a stepwise schedule, which is how the three-phase
    (inactive / active / inactive) execution profile is expressed. *)

type arrival = Deterministic | Poisson of Prng.t

type t

val create :
  ?request_work:float ->
  ?arrival:arrival ->
  ?timeout:Sim_time.t ->
  rate_schedule:(Sim_time.t * float) list ->
  unit ->
  t
(** [rate_schedule] is a stepwise function: [(t, r)] sets the injected rate
    to [r] absolute work units per second from time [t] on; the rate is 0
    before the first entry.  [request_work] defaults to 5 ms of absolute
    work per request.  When [timeout] is given, queued requests older than
    it are abandoned (an httperf client's give-up), so an overloaded VM's
    backlog does not outlive the load phase that created it.
    @raise Invalid_argument if the schedule is not sorted strictly by time,
    a rate is negative, [request_work] is not positive, or the timeout is
    zero. *)

val workload : t -> Workload.t
(** The server as a workload.  Ticks that neither inject nor expire a
    request, within one schedule segment, are deferred (see
    {!Workload.make}): only the private fractional-request carry lags
    until they are replayed.  Call it at most once per app: each call
    makes a workload with its own deferred ticks, which another one's
    [execute] would not catch up. *)

val current_rate : t -> now:Sim_time.t -> float

val queue_length : t -> int
(** Requests currently queued (including the one in service). *)

val queued_work : t -> float
(** Absolute work currently queued. *)

val injected_requests : t -> int
val completed_requests : t -> int

val timed_out_requests : t -> int
(** Requests abandoned because they outlived the timeout. *)

val injected_work : t -> float
val completed_work : t -> float

val response_times : t -> Stats.Running.t
(** Statistics over completed requests' response times, in seconds. *)

val carry : t -> float
(** The private fractional-request accumulator of deterministic arrivals.
    It lags while ticks are deferred and is exact after
    {!Workload.flush}; exposed so tests can check the replay bit for
    bit. *)
