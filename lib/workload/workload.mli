(** Abstract CPU workloads.

    A workload is what runs inside a VM (or inside a guest process).  The
    hypervisor drives it with two calls per dispatch tick:

    - [advance ~now ~dt] lets the workload generate demand (request arrivals,
      compute-burst tokens) for the elapsed interval, whether or not the VM
      was scheduled;
    - [execute ~now ~cpu_time ~speed] offers it up to [cpu_time] of processor
      time at [speed] absolute-work-units per second and returns how much of
      that time it actually consumed.

    Work is measured in {e absolute seconds} (processor seconds at maximum
    frequency), so a workload's demand is frequency-independent while the
    time it takes depends on the frequency — exactly the split the paper's
    equations (1)–(3) rely on. *)

type t

val make :
  name:string ->
  ?advance:(now:Sim_time.t -> dt:Sim_time.t -> unit) ->
  ?defer:
    (now:Sim_time.t -> dt:Sim_time.t -> Sim_time.t)
    * (now:Sim_time.t -> dt:Sim_time.t -> ticks:int -> unit) ->
  has_work:(unit -> bool) ->
  execute:(now:Sim_time.t -> cpu_time:Sim_time.t -> speed:float -> Sim_time.t) ->
  unit ->
  t
(** [execute] must return a duration no larger than [cpu_time]; the runtime
    checks this and raises [Invalid_argument] otherwise (a workload consuming
    more time than offered would corrupt the scheduler's accounting).

    {b Deferral.}  [~defer:(due, catch_up)] lets the workload skip ticks.
    [due ~now ~dt] names a tick after [now] no later than the first one at
    which advancing could change [has_work] or anything the workload's
    owner can observe, assuming a tick every [dt] from [now] on (a result
    at or before [now] means the next tick; an early answer only costs a
    real advance that changes nothing).  Such a workload is advanced for
    real only on that tick.  The ticks before it are counted and handed to
    one [catch_up ~now ~dt ~ticks] call before the next real advance or
    [execute], or by {!flush}: [ticks] deferred ticks, the last at [now]
    and each [dt] after the one before.  [catch_up] must leave the state
    exactly as that many [advance] calls at those instants would.  [due]
    is asked again after every real advance and every [execute].  In
    exchange the workload promises:

    - a deferred tick changes nothing observable: [has_work] and every
      public accessor are exact at every instant, and only private
      accumulators (a web-app's fractional carry, a pi-app's tokens) lag
      until the catch-up;
    - [has_work] changes only inside [advance] or [execute], or after a
      {!flush}.

    A tick that does not directly follow the last one with the same step
    (the first tick, a gap, a repeated instant, a changed [dt]) catches up
    and advances for real, so a host rebuilt mid-run never adds an instant
    its predecessor did not tick.  Without [~defer] the workload is advanced
    on every tick, as a host always did. *)

val never : Sim_time.t
(** The latest instant: a [due] answer meaning "no tick can change me". *)

val name : t -> string

val advance : t -> now:Sim_time.t -> dt:Sim_time.t -> unit
(** One tick: deferred or real, as {!make} describes. *)

val defers : t -> bool
(** True when the workload was made with [~defer]. *)

val flush : t -> unit
(** Replay the deferred ticks now and make the next tick a real advance.
    An owner that changes the workload's state outside [advance] and
    [execute] (such as [Pi_app.reset]) calls it first.  A host that skips
    quiet ticks reads {!due_at} only at its own advance loops and
    executes, so such a change belongs before the host is built or after
    it is stopped, not between two of its ticks. *)

val version : t -> int
(** A counter bumped by every real advance, every [execute] and every
    {!flush} of a workload made with [~defer].  While it stands still,
    [has_work] cannot have changed, so a scheduler that remembers the
    answer for a version need not ask again.  Meaningless without
    [~defer]: such a workload's [has_work] may change at any time. *)

(** The list an owner of many workloads keeps of those that may have
    changed [has_work] since it last looked. *)
module Changes : sig
  type t

  val none : t
  (** A list with no room: a workload reporting to it lists nothing. *)

  val create : int -> t
  (** An empty list for the ids [0 .. n - 1]. *)

  val pop : t -> int
  (** Takes a listed id off the list (the last listed first); -1 when
      the list is empty.  The id may be listed again. *)

  val clear : t -> unit
  (** Takes every id off the list. *)
end

val report_changes : t -> Changes.t -> int -> unit
(** [report_changes w c i] makes [w] list [i] on [c] at every real
    advance and every {!flush}, when [w] was made with [~defer]; executes
    do not list it.  An id stays listed, once, until {!Changes.pop} takes
    it off.  An owner that executes only the workloads it picked knows
    that, between two looks at [c], only the listed ones and those it
    executed can have changed [has_work].  A workload reports to one
    list: the last one given.
    @raise Invalid_argument if [i] is negative. *)

val post_due : t -> Sim_time.t array -> int -> unit
(** [post_due w dues i] stores {!due_at} in [dues.(i)] now and whenever
    it changes from then on, so a host that drives many workloads finds
    the due ones by reading one int array.  A workload posts to one
    array: the last one given.
    @raise Invalid_argument if [i] is not an index of [dues]. *)

val due_at : t -> Sim_time.t
(** The first tick [advance] would not defer, as of the last real
    advance or [execute]: 0 (the next tick) for a workload that advances
    but was made without [~defer], {!never} for one made without an
    [advance].  {!flush} of a workload made with [~defer] resets it to
    0. *)

val defer_through : t -> from:Sim_time.t -> now:Sim_time.t -> dt:Sim_time.t -> unit
(** [defer_through w ~from ~now ~dt] counts the ticks after [w]'s last
    tick up to and including [now], [dt] apart, as deferred, exactly as
    that many {!advance} calls would have.  It applies only when [w] was
    made with [~defer], its last real advance had step [dt] and its last
    tick is at or after [from]; otherwise (or with [now] not after the
    last tick) it does nothing.  The caller vouches that each of these
    ticks precedes {!due_at} and that since [from], the start of its own
    run of ticks [dt] apart (at which it advanced [w]), nothing but its
    own {!advance} and {!execute} calls reached [w]: a host that skips
    the [advance] calls of quiet ticks credits them this way before the
    next [advance] or [execute] of [w]. *)

val advances : t -> bool
(** False when the workload was made without an [advance] (the default
    no-op), so a host may skip advancing it without changing anything. *)

val has_work : t -> bool
(** True when the workload would use CPU if scheduled right now. *)

val may_work : t -> bool
(** False for {!idle} workloads, whose [has_work] is always false: a
    scheduler may skip asking them without changing anything. *)

val execute : t -> now:Sim_time.t -> cpu_time:Sim_time.t -> speed:float -> Sim_time.t
(** @raise Invalid_argument if [speed <= 0]. *)

val idle : unit -> t
(** A workload that never runs — for lazy VMs that exist but demand nothing. *)

val busy_loop : unit -> t
(** A workload with unbounded demand — consumes everything it is offered. *)
