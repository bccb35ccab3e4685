(** Simulated time.

    Time is represented as an integer number of microseconds since the start
    of the simulation.  An integer representation keeps event ordering exact
    (no floating-point drift over long runs) while one microsecond is far
    below every period the simulator uses (the shortest is the 1 ms dispatch
    tick). *)

type t = int
(** Microseconds since simulation start.  Always non-negative. *)

val zero : t

val of_us : int -> t
(** [of_us n] is [n] microseconds.  Raises [Invalid_argument] if [n < 0]. *)

val of_ms : int -> t
val of_sec : int -> t

val of_sec_f : float -> t
(** [of_sec_f s] rounds [s] seconds to the nearest microsecond, halves
    away from zero.  Raises [Invalid_argument] if [s] is negative or NaN. *)

val round_half_away : float -> int
(** [round_half_away x] is [int_of_float (Float.round x)] for
    [0 <= x < 2^62], computed with integer truncation instead of a libm
    call.  [of_sec_f] and the local copies of it on the simulator's hot
    paths round this way. *)

val to_us : t -> int
val to_ms : t -> float
val to_sec : t -> float

val add : t -> t -> t
val sub : t -> t -> t
(** [sub a b] is [a - b].  Raises [Invalid_argument] if the result would be
    negative. *)

val diff : t -> t -> t
(** [diff a b] is [abs (a - b)]. *)

val ( + ) : t -> t -> t
val ( - ) : t -> t -> t

val compare : t -> t -> int
val equal : t -> t -> bool
val min : t -> t -> t
val max : t -> t -> t

val pp : Format.formatter -> t -> unit
(** Prints a human-readable duration, e.g. ["1.500s"] or ["250us"]. *)

val to_string : t -> string
