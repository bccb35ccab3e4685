(** A domain (virtual machine) as the hypervisor sees it.

    Each domain is created with a CPU credit — the percentage of the
    processor's capacity {e at maximum frequency} that its owner bought
    (§3.1: the credit corresponds to an SLA).  A credit of 0 means
    "uncapped": no guarantee, but the domain may soak up otherwise-unused
    slices (the Xen Credit scheduler's null-credit special case).

    The domain's workload is opaque to the hypervisor (two-level
    scheduling): the hypervisor only asks whether the domain would run and
    offers it CPU time. *)

type t

val create :
  ?weight:int ->
  ?is_dom0:bool ->
  ?vcpus:int ->
  name:string ->
  credit_pct:float ->
  Workloads.Workload.t ->
  t
(** Default weight 256 (Xen's default), [is_dom0] false, one vCPU.
    [vcpus] bounds the domain's parallelism on an SMP host (a single-host
    run ignores it).
    @raise Invalid_argument if the credit is outside \[0, 100\], the
    weight is not positive, or [vcpus < 1]. *)

val id : t -> int
(** Unique across the program run. *)

val name : t -> string

val initial_credit : t -> float
(** The credit the domain was created with — the paper's [C_init], never
    modified afterwards. *)

val uncapped : t -> bool
(** True when the initial credit is 0. *)

val weight : t -> int
val is_dom0 : t -> bool

val vcpus : t -> int
(** Number of virtual CPUs; caps how many physical cores may run this
    domain simultaneously. *)

val workload : t -> Workloads.Workload.t

val advancing : t list -> Workloads.Workload.t array
(** The workloads of the given domains, in order, leaving out those made
    without an [advance] (see {!Workloads.Workload.advances}): the set a
    dispatch tick must advance.  Fixed at creation, since a workload's
    [advance] never changes. *)

val runnable : t -> bool
(** The domain has work it would execute if scheduled now. *)

val may_run : t -> bool
(** False when the domain's workload can never have work
    ({!Workloads.Workload.may_work}): {!runnable} is then always false. *)

val cpu_time : t -> Sim_time.t
(** Cumulative CPU time granted by the hypervisor. *)

val charge : t -> Sim_time.t -> unit

val equal : t -> t -> bool
val compare : t -> t -> int
val pp : Format.formatter -> t -> unit
