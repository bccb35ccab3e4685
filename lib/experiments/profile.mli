(** The execution-profile experiments: Figures 2–10 (§5.3–§5.7).

    All nine figures run the same V20/V70 three-phase scenario and differ
    only in scheduler, governor, load level and whether global or absolute
    loads are plotted.  Each experiment reports phase means of both views
    plus the mean frequency, so every claim the paper attaches to a figure
    can be checked numerically. *)

type view = Global | Absolute  (** which load series the plot shows *)

val make :
  id:string -> title:string -> paper_ref:string -> sched:Domconfig.sched_spec ->
  gov:Domconfig.gov_spec -> load:Scenario.load_kind -> view:view -> expected:string list ->
  Experiment.t
(** One run of the scenario: a phase-mean table of both load views and
    the frequency, the load and frequency plots, the series frame, and
    notes — [expected] first, then V20's SLA deficit, the energy and,
    under PAS, its decision counts. *)

val fig2 : Experiment.t
(** Credit scheduler, performance governor, exact load: the reference
    profile at maximum frequency. *)

val fig3 : Experiment.t
(** Credit + stock ondemand: the aggressive governor oscillates. *)

val fig4 : Experiment.t
(** Credit + the authors' stable governor: same means, no oscillation. *)

val fig5 : Experiment.t
(** Absolute-load view of fig4: V20 only gets ~12 % absolute while V70 is
    lazy — the fix-credit + DVFS failure (Scenario 1). *)

val fig6 : Experiment.t
(** SEDF, exact load, global loads: V20 climbs to ~33 % thanks to unused
    slices. *)

val fig7 : Experiment.t
(** SEDF, exact load, absolute loads: V20 keeps its 20 % — SEDF "solves"
    the exact case. *)

val fig8 : Experiment.t
(** SEDF, thrashing load: V20 devours ~90 % and pins the frequency at
    maximum — the variable-credit failure (Scenario 2). *)

val fig9 : Experiment.t
(** PAS, thrashing load, global loads: V20 is granted exactly the
    compensated credit (~33 % at 1600 MHz, 20 % at 2667 MHz). *)

val fig10 : Experiment.t
(** PAS, thrashing load, absolute loads: V20 holds 20 % absolute throughout
    while the frequency stays low whenever V70 is lazy. *)

val all : Experiment.t list
