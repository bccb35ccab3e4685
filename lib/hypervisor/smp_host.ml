module Smp = Cpu_model.Smp
module Frequency = Cpu_model.Frequency
module Calibration = Cpu_model.Calibration

type dvfs_policy = {
  policy_name : string;
  period : Sim_time.t;
  decide : now:Sim_time.t -> domain:int -> core_utils:float array -> unit;
}

let rec lowest_sufficient_from table cal ~absolute_load ~threshold i =
  if i >= Frequency.count table then Frequency.max_freq table
  else begin
    let f = Frequency.nth table i in
    if Calibration.effective_speed cal table f *. threshold >= absolute_load then f
    else lowest_sufficient_from table cal ~absolute_load ~threshold (i + 1)
  end

let lowest_sufficient smp ~absolute_load ~threshold =
  lowest_sufficient_from (Smp.freq_table smp)
    (Smp.arch smp).Cpu_model.Arch.calibration ~absolute_load ~threshold 0

let ondemand_max_core ?(up_threshold = 0.8) smp ~period =
  let table = Smp.freq_table smp in
  let cal = (Smp.arch smp).Cpu_model.Arch.calibration in
  let decide ~now ~domain ~core_utils =
    let busiest = Array.fold_left Float.max 0.0 core_utils in
    let freq = Smp.current_freq smp ~domain in
    let target =
      if busiest >= up_threshold then Frequency.max_freq table
      else begin
        let speed = Calibration.effective_speed cal table freq in
        lowest_sufficient smp ~absolute_load:(busiest *. speed) ~threshold:up_threshold
      end
    in
    Smp.set_freq smp ~now ~domain target
  in
  { policy_name = "ondemand-max-core"; period; decide }

let performance_policy smp =
  let table = Smp.freq_table smp in
  {
    policy_name = "performance";
    period = Sim_time.of_sec 1;
    decide =
      (fun ~now ~domain ~core_utils:_ ->
        Smp.set_freq smp ~now ~domain (Frequency.max_freq table));
  }

(* Per-domain work counters live in an all-float sub-record so the per-tick
   accumulation stores into a flat float block instead of boxing. *)
type work_acc = { mutable work : float; mutable last_work : float }

type domain_state = {
  domain : Domain.t;
  cap : Sim_time.t; (* vcpus * quantum: the parallelism bound per tick *)
  acc : work_acc;
  mutable tick_used : Sim_time.t; (* CPU time consumed this tick *)
  load : Series.t;
  absolute : Series.t;
  mutable last_cpu_time : Sim_time.t;
}

type t = {
  sim : Simulator.t;
  smp : Smp.t;
  scheduler : Scheduler.t;
  quantum : Sim_time.t;
  sample_period : Sim_time.t;
  doms : domain_state array;
  advancing : Workloads.Workload.t array; (* see {!Domain.advancing} *)
  core_busy : Sim_time.t array;
  freq_series : Series.t array; (* one per DVFS domain *)
  exclude : Scheduler.Mask.t; (* scratch exclusion set reused every tick *)
  scratch : Series.cell; (* box-free sample hand-off, reused every sample *)
}

(* Local copy of [Sim_time.to_sec]'s expression ([to_us] is the identity on
   the int representation, so the result is bit-identical); keeps the float
   conversion in this unit instead of boxing at a cross-library call on
   every tick in a [--profile dev] build, which compiles with -opaque (the
   shipped release build inlines across units). *)
let[@inline always] sec_of time = float_of_int (Sim_time.to_us time) /. 1e6

let sim t = t.sim
let smp t = t.smp
let scheduler t = t.scheduler
let domains t = Array.to_list (Array.map (fun st -> st.domain) t.doms)
let now t = Simulator.now t.sim

let rec index_of doms d i =
  if i >= Array.length doms then raise Not_found
  else if Domain.equal doms.(i).domain d then i
  else index_of doms d (i + 1)

let state t d = t.doms.(index_of t.doms d 0)

(* The pick/execute/charge loop of one core's share of a dispatch tick.
   The exclusion mask is maintained incrementally: a domain is marked when
   it drains (consumes less than offered, or is offered nothing) and when
   it crosses its parallelism cap.  [tick_used] only grows within a tick,
   so this is equivalent to the cap scan the old list-building code ran
   before every pick — without allocating a fresh list per pick. *)
let rec core_loop t ~core ~current ~speed ~remaining =
  if Sim_time.compare remaining Sim_time.zero > 0 then
    match t.scheduler.Scheduler.pick ~now:current ~remaining ~exclude:t.exclude with
    | None -> ()
    | Some slice ->
        let domain = slice.Scheduler.domain in
        let st = t.doms.(index_of t.doms domain 0) in
        let headroom = Sim_time.sub st.cap st.tick_used in
        let offered =
          Sim_time.min (Sim_time.min slice.Scheduler.max_slice remaining) headroom
        in
        if Sim_time.equal offered Sim_time.zero then begin
          Scheduler.Mask.add t.exclude domain;
          core_loop t ~core ~current ~speed ~remaining
        end
        else begin
          let used =
            Workloads.Workload.execute (Domain.workload domain) ~now:current
              ~cpu_time:offered ~speed
          in
          if Sim_time.compare used offered < 0 then Scheduler.Mask.add t.exclude domain;
          if Sim_time.compare used Sim_time.zero > 0 then begin
            t.scheduler.Scheduler.charge ~domain ~now:current ~used;
            Domain.charge domain used;
            st.tick_used <- Sim_time.add st.tick_used used;
            if Sim_time.compare st.tick_used st.cap >= 0 then
              Scheduler.Mask.add t.exclude domain;
            st.acc.work <- st.acc.work +. (sec_of used *. speed);
            t.core_busy.(core) <- Sim_time.add t.core_busy.(core) used;
            core_loop t ~core ~current ~speed ~remaining:(Sim_time.sub remaining used)
          end
          else core_loop t ~core ~current ~speed ~remaining
        end

(* One dispatch tick over all cores.  Each domain may consume at most
   [vcpus * quantum] CPU time per tick (its parallelism bound). *)
(* alloc: none *)
let dispatch_tick t () =
  let current = now t in
  let quantum = t.quantum in
  for i = 0 to Array.length t.doms - 1 do
    t.doms.(i).tick_used <- Sim_time.zero
  done;
  for i = 0 to Array.length t.advancing - 1 do
    Workloads.Workload.advance t.advancing.(i) ~now:current ~dt:quantum
  done;
  Scheduler.Mask.clear t.exclude;
  for core = 0 to Smp.cores t.smp - 1 do
    (* [speed_of_core] hands back the frequency domain's cached boxed
       float, shared by every execute call on this core this tick. *)
    let speed = Smp.speed_of_core t.smp core in
    core_loop t ~core ~current ~speed ~remaining:quantum
  done

(* As in [Host.sample], freshly computed samples travel through the scratch
   cell so the sampling tick allocates nothing in steady state. *)
(* alloc: none *)
let sample t () =
  let current = now t in
  let dt = sec_of t.sample_period in
  let host_time = dt *. float_of_int (Smp.cores t.smp) in
  let cell = t.scratch in
  for i = 0 to Array.length t.doms - 1 do
    let st = t.doms.(i) in
    let used = Sim_time.diff (Domain.cpu_time st.domain) st.last_cpu_time in
    st.last_cpu_time <- Domain.cpu_time st.domain;
    let work_done = st.acc.work -. st.acc.last_work in
    st.acc.last_work <- st.acc.work;
    cell.Series.value <- sec_of used /. host_time *. 100.0;
    Series.add_cell st.load current cell;
    cell.Series.value <- work_done /. host_time *. 100.0;
    Series.add_cell st.absolute current cell
  done;
  for domain = 0 to Array.length t.freq_series - 1 do
    cell.Series.value <- float_of_int (Smp.current_freq t.smp ~domain);
    Series.add_cell t.freq_series.(domain) current cell
  done

let create ?(quantum = Sim_time.of_ms 1) ?(account_period = Sim_time.of_ms 30)
    ?(sample_period = Sim_time.of_sec 1) ~sim ~smp ~scheduler ?dvfs () =
  let doms =
    Array.of_list
      (List.map
         (fun d ->
           {
             domain = d;
             cap = Sim_time.of_us (Domain.vcpus d * Sim_time.to_us quantum);
             acc = { work = 0.0; last_work = 0.0 };
             tick_used = Sim_time.zero;
             load = Series.create ~name:(Domain.name d ^ ".load");
             absolute = Series.create ~name:(Domain.name d ^ ".absolute");
             last_cpu_time = Domain.cpu_time d;
           })
         (scheduler.Scheduler.domains ()))
  in
  let t =
    {
      sim;
      smp;
      scheduler;
      quantum;
      sample_period;
      doms;
      advancing = Domain.advancing (scheduler.Scheduler.domains ());
      core_busy = Array.make (Smp.cores smp) Sim_time.zero;
      freq_series =
        Array.init (Smp.domain_count smp) (fun i ->
            Series.create ~name:(Printf.sprintf "freq_domain%d" i));
      exclude = Scheduler.Mask.create ();
      scratch = Series.cell ();
    }
  in
  ignore (Simulator.every sim quantum (dispatch_tick t));
  ignore
    (Simulator.every sim account_period (fun () ->
         scheduler.Scheduler.on_account_period ~now:(now t)));
  ignore (Simulator.every sim sample_period (sample t));
  (* Energy accounting window: 10 ms granularity using core_busy deltas.
     The cursor and utilization arrays are allocated once here and reused
     every window ([Smp.record_power] does not retain [core_utils]). *)
  let energy_period = Sim_time.of_ms 10 in
  let ncores = Smp.cores smp in
  let last_energy = Array.make ncores Sim_time.zero in
  let energy_utils = Array.make ncores 0.0 in
  ignore
    (Simulator.every sim energy_period (fun () ->
         for c = 0 to ncores - 1 do
           let delta = Sim_time.diff t.core_busy.(c) last_energy.(c) in
           last_energy.(c) <- t.core_busy.(c);
           energy_utils.(c) <- sec_of delta /. sec_of energy_period
         done;
         Smp.record_power smp ~dt:energy_period ~core_utils:energy_utils));
  (match dvfs with
  | Some policy ->
      let last = Array.make ncores Sim_time.zero in
      let window_utils = Array.make ncores 0.0 in
      (* Member core lists and the per-domain utilization buffers handed to
         [decide] are precomputed; [decide] must not retain [core_utils]
         across windows. *)
      let members =
        Array.init (Smp.domain_count smp) (fun d ->
            Array.of_list (Smp.cores_of_domain smp d))
      in
      let member_utils =
        Array.map (fun m -> Array.make (Array.length m) 0.0) members
      in
      ignore
        (Simulator.every sim policy.period (fun () ->
             for c = 0 to ncores - 1 do
               let delta = Sim_time.diff t.core_busy.(c) last.(c) in
               last.(c) <- t.core_busy.(c);
               window_utils.(c) <- sec_of delta /. sec_of policy.period
             done;
             for domain = 0 to Array.length members - 1 do
               let m = members.(domain) in
               let utils = member_utils.(domain) in
               for i = 0 to Array.length m - 1 do
                 utils.(i) <- window_utils.(m.(i))
               done;
               policy.decide ~now:(now t) ~domain ~core_utils:utils
             done))
  | None -> ());
  t

let run_for t duration = Simulator.run_until t.sim (Sim_time.add (now t) duration)
let core_busy t core = t.core_busy.(core)

let total_busy t =
  Array.fold_left (fun acc b -> Sim_time.add acc b) Sim_time.zero t.core_busy

let domain_work t d = (state t d).acc.work
let series_domain_load t d = (state t d).load
let series_domain_absolute_load t d = (state t d).absolute

let series_domain_frequency t ~domain =
  if domain < 0 || domain >= Array.length t.freq_series then
    invalid_arg "Smp_host.series_domain_frequency: domain out of range";
  t.freq_series.(domain)

let energy_joules t = Smp.energy_joules t.smp
let mean_watts t = Smp.mean_watts t.smp

module Internal = struct
  let dispatch_tick = dispatch_tick
  let sample = sample

  let reset_series t =
    Array.iter Series.reset t.freq_series;
    Array.iter
      (fun st ->
        Series.reset st.load;
        Series.reset st.absolute)
      t.doms
end
