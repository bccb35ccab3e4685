(** Small measurement rigs shared by the validation, Fig. 1, Table 1 and
    Table 2 experiments: single-purpose hosts with the frequency pinned or a
    specific governor, returning one scalar measurement. *)

val pi_to_completion :
  now:(unit -> Sim_time.t) ->
  run_for:(Sim_time.t -> unit) ->
  chunk:Sim_time.t ->
  limit:Sim_time.t ->
  failure:string ->
  Workloads.Pi_app.t ->
  Sim_time.t
(** Runs a host ([now] and [run_for] are its clock and its run) [chunk]
    at a time until the pi app finishes; returns the app's execution time.
    @raise Failure with [failure] once the clock reaches [limit] with the
    app unfinished. *)

val run_pi :
  ?arch:Cpu_model.Arch.t ->
  ?freq:Cpu_model.Frequency.mhz ->
  ?credit:float ->
  ?duty_cycle:float ->
  ?max_sim_time:Sim_time.t ->
  work:float ->
  unit ->
  float
(** Executes one pi-app of [work] absolute seconds in a VM with the given
    credit (default 100) on a host pinned at [freq] (default the maximum),
    with an idle Dom0, under the Credit scheduler.  Returns the execution
    time in seconds.
    @raise Failure if the job does not finish within [max_sim_time]
    (default 20 000 simulated seconds). *)

val measure_load :
  ?arch:Cpu_model.Arch.t ->
  ?freq:Cpu_model.Frequency.mhz ->
  ?warmup:Sim_time.t ->
  ?measure:Sim_time.t ->
  rate:float ->
  unit ->
  float
(** Mean global load (fraction of wall time busy, 0–1) of a host pinned at
    [freq] running a single uncapped VM with a Web-app injecting [rate]
    absolute work per second.  Defaults: 60 s warmup, 240 s measurement. *)

val measure_cf :
  ?arch:Cpu_model.Arch.t ->
  ?rate:float ->
  Cpu_model.Frequency.mhz ->
  float
(** The §5.2 calibration procedure: measure the same workload's load at
    maximum frequency and at the given frequency, then recover
    [cf = L_max / (L_i * ratio_i)] from eq. (1). *)
