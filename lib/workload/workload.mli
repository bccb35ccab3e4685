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
  has_work:(unit -> bool) ->
  execute:(now:Sim_time.t -> cpu_time:Sim_time.t -> speed:float -> Sim_time.t) ->
  unit ->
  t
(** [execute] must return a duration no larger than [cpu_time]; the runtime
    checks this and raises [Invalid_argument] otherwise (a workload consuming
    more time than offered would corrupt the scheduler's accounting). *)

val name : t -> string

val advance : t -> now:Sim_time.t -> dt:Sim_time.t -> unit

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
