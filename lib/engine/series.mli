(** Named time series.

    A series is an append-only sequence of (time, value) samples; times must
    be non-decreasing.  [Frame] groups several series over a common clock for
    CSV export and plotting (one frame per experiment figure). *)

type t

val create : name:string -> t
val name : t -> string
val length : t -> int

val add : t -> Sim_time.t -> float -> unit
(** @raise Invalid_argument if the time is earlier than the previous sample. *)

type cell = Vec.Floats.cell = { mutable value : float }
(** Reusable scratch slot for {!add_cell} (see {!Vec.Floats.cell}). *)

val cell : unit -> cell

val add_cell : t -> Sim_time.t -> cell -> unit
(** [add_cell t time c] records [c.value] at [time] — like {!add}, but the
    sample travels through the caller-owned flat cell instead of a float
    argument, so a periodic sampler's recording path stays allocation-free
    even without cross-module inlining (no boxing at the call boundary; a
    [dune build --profile dev] build compiles with -opaque).
    @raise Invalid_argument if the time is earlier than the previous
    sample. *)

val times : t -> Sim_time.t array
val values : t -> float array
val get : t -> int -> Sim_time.t * float

val last_value : t -> float option

val nth_value : t -> int -> float
(** The value of the [i]th sample (0-based) without the pair allocation of
    {!get}.  @raise Invalid_argument on an out-of-range index. *)

val reset : t -> unit
(** Drop all samples but keep the sample storage, so refilling to a similar
    length allocates nothing.  Used by the microbenchmarks to measure the
    steady-state sampling path; times may restart from zero afterwards. *)

val value_at : t -> Sim_time.t -> float option
(** Step interpolation: the value of the latest sample at or before the
    instant, [None] before the first sample. *)

val mean : t -> float
val mean_between : t -> Sim_time.t -> Sim_time.t -> float
(** Mean of samples with time in [\[t0, t1\]]; 0 if none fall in range. *)

val map_values : (float -> float) -> t -> t

module Frame : sig
  type series = t
  type t

  val create : ?time_label:string -> unit -> t
  val add_series : t -> series -> unit
  val series : t -> series list

  val to_csv : t -> string
  (** Header [time,<name>,...]; rows are the union of all sample times with
      step interpolation, times printed in seconds. *)

  val save_csv : t -> string -> unit
  (** Writes [to_csv] to the given path. *)
end
