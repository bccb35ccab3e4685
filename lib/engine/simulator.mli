(** Discrete-event simulation core.

    A simulator owns a clock and an event queue.  Events scheduled for the
    same instant fire in scheduling order (FIFO), which keeps runs
    deterministic.  Handlers may schedule further events, including at the
    current instant, and cancel any event, their own included; they must
    not step their own simulator ({!step}, {!run_until}, {!run}). *)

type t

type handle
(** Identifies a scheduled event so it can be cancelled. *)

val create : unit -> t

val now : t -> Sim_time.t
(** Current simulated time. *)

val at : t -> Sim_time.t -> (unit -> unit) -> handle
(** [at sim time f] runs [f] when the clock reaches [time].
    @raise Invalid_argument if [time] is in the past. *)

val after : t -> Sim_time.t -> (unit -> unit) -> handle
(** [after sim delay f] runs [f] at [now sim + delay]. *)

val every : t -> ?start:Sim_time.t -> Sim_time.t -> (unit -> unit) -> handle
(** [every sim ~start period f] runs [f] at [start] (default: one period from
    now) and then every [period].  Cancelling the handle stops the cycle.
    @raise Invalid_argument if [period] is zero. *)

val cancel : t -> handle -> unit
(** Cancelling an already-fired or already-cancelled event is a no-op.
    Cancelled events are compacted out of the queue once they outnumber the
    live ones, so a cancellation-heavy workload cannot bloat the heap. *)

val pending : t -> int
(** Number of {e live} events still queued.  Cancelled-but-uncollected
    events are excluded, so the count is reliable for assertions; so is a
    periodic event while its own action runs. *)

val step : t -> bool
(** Executes the next event.  Returns [false] when the queue is empty.
    Popping a cancelled event counts as a step but runs nothing. *)

val run_until : t -> Sim_time.t -> unit
(** Executes every event scheduled strictly before or at [t_end], then
    advances the clock to exactly [t_end]. *)

val run : t -> unit
(** Runs until the event queue is exhausted. *)
