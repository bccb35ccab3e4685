(** The VM-scheduler plug-in interface.

    A scheduler is a record of closures so that Credit, SEDF, Credit2 and
    PAS can be swapped into the host without a functor ceremony.  The host
    calls, in order, on each dispatch tick: {!pick} (possibly several times
    as workloads drain), then {!charge} for the time actually consumed; and
    {!on_account_period} every accounting period (Xen: 30 ms).

    [set_effective_credit]/[effective_credit] expose the run-time credit a
    DVFS-aware policy manipulates (the paper's Listing 1.2 calls
    [setCredit]); schedulers without that notion may ignore it.

    [observe_window] lets a scheduler that embeds DVFS policy (PAS) receive
    processor-utilization samples: the host calls it every [window_period]
    with the busy fraction of the elapsed window. *)

(** Reusable set of domains, indexed by {!Domain.id}.  The host keeps one
    mask per instance and clears it at the top of every dispatch tick, so
    the pick loop passes exclusions without building a list. *)
module Mask : sig
  type t

  val create : unit -> t
  (** Fresh empty mask.  Grows on demand; no domain-count up front. *)

  val clear : t -> unit
  (** Remove every member (the per-tick reset).  Costs the number of
      members added since the last clear, however large the ids. *)

  val add : t -> Domain.t -> unit
  val mem : t -> Domain.t -> bool

  val of_list : Domain.t list -> t
  (** Convenience for tests and one-off callers. *)
end

type slice = { domain : Domain.t; mutable max_slice : Sim_time.t }
(** A dispatch decision: run [domain] for at most [max_slice].  Schedulers
    may return the same slice record (and its [option] wrapper) from every
    [pick] call, mutating [max_slice] in place — callers must consume the
    decision before asking for the next one and must not retain it. *)

type t = {
  name : string;
  domains : unit -> Domain.t list;
  pick : now:Sim_time.t -> remaining:Sim_time.t -> exclude:Mask.t -> slice option;
      (** Choose whom to run for (part of) the current tick.  [exclude]
          holds domains that already declined CPU this tick; the scheduler
          must not return them, and must never return a zero-length slice. *)
  charge : domain:Domain.t -> now:Sim_time.t -> used:Sim_time.t -> unit;
  on_account_period : now:Sim_time.t -> unit;
  set_effective_credit : Domain.t -> float -> unit;
  effective_credit : Domain.t -> float;
  observe_window : (now:Sim_time.t -> busy_fraction:float -> unit) option;
  window_period : Sim_time.t;
}

val make :
  name:string ->
  domains:(unit -> Domain.t list) ->
  pick:(now:Sim_time.t -> remaining:Sim_time.t -> exclude:Mask.t -> slice option) ->
  charge:(domain:Domain.t -> now:Sim_time.t -> used:Sim_time.t -> unit) ->
  ?on_account_period:(now:Sim_time.t -> unit) ->
  ?set_effective_credit:(Domain.t -> float -> unit) ->
  ?effective_credit:(Domain.t -> float) ->
  ?observe_window:(now:Sim_time.t -> busy_fraction:float -> unit) ->
  ?window_period:Sim_time.t ->
  unit ->
  t
(** Defaults: account period and credit setters are no-ops,
    [effective_credit] falls back to the domain's initial credit, no window
    observation, [window_period] 100 ms. *)

val excluded : Domain.t -> Mask.t -> bool
(** Membership helper for implementing [pick]; same as {!Mask.mem} with the
    arguments flipped. *)
