module Processor = Cpu_model.Processor

let inv_tick_util =
  Analysis.Invariant.register "host.tick-utilization"
    ~doc:"the busy share of every dispatch tick, over all the host's cores, falls in [0, 1]"

type config = {
  quantum : Sim_time.t;
  account_period : Sim_time.t;
  sample_period : Sim_time.t;
}

let default_config =
  {
    quantum = Sim_time.of_ms 1;
    account_period = Sim_time.of_ms 30;
    sample_period = Sim_time.of_sec 1;
  }

type domain_metrics = {
  domain : Domain.t;
  load : Series.t;
  absolute : Series.t;
  mutable last_cpu_time : Sim_time.t;
}

(* A frequency domain: a processor [cpu] whose cores are the host's cores
   [first_core] to [first_core + Processor.cores cpu - 1]. *)
type freq_domain = {
  cpu : Processor.t;
  first_core : int;
  freq_series : Series.t;
  probe_busy : Sim_time.t array; (* its governor's per-core cursor (multi-core host) *)
  mutable probe_time : Sim_time.t;
}

type t = {
  sim : Simulator.t;
  processor : Processor.t; (* [freq_domains.(0)]'s *)
  freq_domains : freq_domain array;
  cores : int; (* over every frequency domain *)
  core_busy : Sim_time.t array; (* per core; kept on a multi-core host only *)
  caps : Sim_time.t array; (* per domain, [vcpus * quantum]; multi-core host only *)
  tick_used : Sim_time.t array; (* per domain, granted this tick; multi-core host only *)
  scheduler : Scheduler.t;
  config : config;
  trace : Trace.t option;
  mutable handles : Simulator.handle list;
  mutable total_busy : Sim_time.t;
  global_series : Series.t;
  absolute_series : Series.t;
  domain_metrics : domain_metrics array;
  advancing : Workloads.Workload.t array; (* see {!Domain.advancing} *)
  dues : Sim_time.t array; (* [advancing.(i)]'s due tick, posted by it *)
  polled_only : bool; (* static: no advancing workload defers *)
  mutable last_tick : Sim_time.t; (* the last dispatch tick's instant; -1 before any *)
  mutable run_start : Sim_time.t; (* first tick of the current run [quantum] apart; -1 before any *)
  mutable next_due : Sim_time.t; (* no advancing workload is due before this tick *)
  exclude : Scheduler.Mask.t; (* scratch exclusion set reused every tick *)
  scratch : Series.cell; (* box-free sample hand-off, reused every sample *)
  mutable probe_last_busy : Sim_time.t; (* shared window/governor probe state *)
  mutable probe_last_time : Sim_time.t;
}

let sim t = t.sim
let processor t = t.processor
let scheduler t = t.scheduler
let config t = t.config
let domains t = t.scheduler.Scheduler.domains ()
let now t = Simulator.now t.sim
let total_busy t = t.total_busy

(* Local copy of [Sim_time.to_sec]'s expression ([to_us] is the identity on
   the int representation, so the result is bit-identical).  The
   cross-library call would return a freshly boxed float on every tick when
   cross-module inlining is off: the shipped release build inlines it, but
   [dune build --profile dev] compiles with -opaque, the case the
   allocation prover's BoundedAlloc tier models. *)
let[@inline always] sec_of time = float_of_int (Sim_time.to_us time) /. 1e6

(* The busy fraction of [elapsed] over all cores; on one core
   [sec_of elapsed *. 1.0] is [sec_of elapsed] to the bit. *)
let busy_fraction t ~busy ~elapsed =
  if Sim_time.equal elapsed Sim_time.zero then 0.0
  else sec_of busy /. (sec_of elapsed *. float_of_int t.cores)

let utilization_probe t =
  let last_busy = ref t.total_busy and last_time = ref (now t) in
  fun () ->
    let busy = Sim_time.diff t.total_busy !last_busy in
    let elapsed = Sim_time.diff (now t) !last_time in
    last_busy := t.total_busy;
    last_time := now t;
    busy_fraction t ~busy ~elapsed

(* The built-in window/governor probe: same sampling rule as
   {!utilization_probe}, but the cursor lives in the host record, so arming
   the periodic observers allocates no ref cells and the per-window call
   touches no closure environment. *)
let probe_window t =
  let busy = Sim_time.diff t.total_busy t.probe_last_busy in
  let elapsed = Sim_time.diff (now t) t.probe_last_time in
  t.probe_last_busy <- t.total_busy;
  t.probe_last_time <- now t;
  busy_fraction t ~busy ~elapsed

(* A multi-core host's governor probe: the busy fraction of the busiest
   core of the governor's frequency domain, as Linux's ondemand reads a
   package. *)
let probe_busiest t fd =
  let elapsed = Sim_time.diff (now t) fd.probe_time in
  fd.probe_time <- now t;
  let busiest = ref Sim_time.zero in
  for i = 0 to Array.length fd.probe_busy - 1 do
    let busy = t.core_busy.(fd.first_core + i) in
    busiest := Sim_time.max !busiest (Sim_time.diff busy fd.probe_busy.(i));
    fd.probe_busy.(i) <- busy
  done;
  if Sim_time.equal elapsed Sim_time.zero then 0.0
  else sec_of !busiest /. sec_of elapsed

let rec metrics_index metrics d i =
  if i >= Array.length metrics then raise Not_found
  else if Domain.equal metrics.(i).domain d then i
  else metrics_index metrics d (i + 1)

let metrics_for t d = t.domain_metrics.(metrics_index t.domain_metrics d 0)

(* On a multi-core host a domain runs on at most [vcpus] cores at once:
   it is granted at most its cap per tick over all cores. *)
let[@inline never] headroom t domain =
  let i = metrics_index t.domain_metrics domain 0 in
  Sim_time.sub t.caps.(i) t.tick_used.(i)

let[@inline never] charge_cap t domain ~used =
  let i = metrics_index t.domain_metrics domain 0 in
  t.tick_used.(i) <- Sim_time.add t.tick_used.(i) used;
  if Sim_time.compare t.tick_used.(i) t.caps.(i) >= 0 then Scheduler.Mask.add t.exclude domain

(* The pick/execute/charge loop of one core's dispatch tick, written as a
   module-level tail recursion over immediate ints so the per-tick hot path
   allocates nothing: the scheduler returns a reused slice cell, exclusions
   go through the scratch mask, and [speed] is the processor's cached boxed
   float passed by pointer.  Only a multi-core host applies the per-domain
   [vcpus] cap. *)
let rec tick_loop t ~current ~speed ~remaining ~busy =
  if Sim_time.compare remaining Sim_time.zero <= 0 then busy
  else
    match t.scheduler.Scheduler.pick ~now:current ~remaining ~exclude:t.exclude with
    | None -> busy
    | Some slice ->
        let domain = slice.Scheduler.domain in
        let offered = Sim_time.min slice.Scheduler.max_slice remaining in
        let offered = if t.cores > 1 then Sim_time.min offered (headroom t domain) else offered in
        if Sim_time.equal offered Sim_time.zero then begin
          Scheduler.Mask.add t.exclude domain;
          tick_loop t ~current ~speed ~remaining ~busy
        end
        else begin
          (* The workload sees every tick this host skipped, then the
             execute, which may pull its due tick earlier. *)
          let w = Domain.workload domain in
          Workloads.Workload.defer_through w ~from:t.run_start ~now:current ~dt:t.config.quantum;
          let used = Workloads.Workload.execute w ~now:current ~cpu_time:offered ~speed in
          let due = Workloads.Workload.due_at w in
          if due < t.next_due then t.next_due <- due;
          (* A domain that consumes less than it is offered has drained its
             demand and sits out the rest of the tick (also the safety net
             against zero-length-progress livelock). *)
          if Sim_time.compare used offered < 0 then Scheduler.Mask.add t.exclude domain;
          if Sim_time.compare used Sim_time.zero > 0 then begin
            t.scheduler.Scheduler.charge ~domain ~now:current ~used;
            Domain.charge domain used;
            if t.cores > 1 then charge_cap t domain ~used;
            tick_loop t ~current ~speed
              ~remaining:(Sim_time.sub remaining used)
              ~busy:(Sim_time.add busy used)
          end
          else tick_loop t ~current ~speed ~remaining ~busy
        end

(* Off-by-default sanitizer: the enabled check stays in the caller, so the
   tick pays one branch when sanitizers are off. *)
(* alloc: cold *)
let[@inline never] check_tick_util ~current ~util =
  if Float.is_finite util && util >= 0.0 && util <= 1.0 then
    Analysis.Check.pass inv_tick_util
  else
    Analysis.Check.fail inv_tick_util ~time_s:(Sim_time.to_sec current) ~component:"host"
      (Printf.sprintf "tick utilization = %.9g outside [0, 1]" util)

(* Credit every advancing workload with the ticks this host skipped in its
   current run, through [last_tick]: ticks each workload's own [advance]
   would have deferred. *)
let credit_skipped t =
  for i = 0 to Array.length t.advancing - 1 do
    Workloads.Workload.defer_through t.advancing.(i) ~from:t.run_start ~now:t.last_tick
      ~dt:t.config.quantum
  done

let rec min_due (dues : Sim_time.t array) i (acc : Sim_time.t) =
  if i >= Array.length dues then acc
  else
    let d = Array.unsafe_get dues i in
    min_due dues (i + 1) (if d < acc then d else acc)

(* The first tick of a run (the host's first, or one after a gap or at a
   repeated instant): advance every workload, each after crediting the
   ticks skipped before it. *)
let advance_all t ~current ~quantum =
  for i = 0 to Array.length t.advancing - 1 do
    let w = t.advancing.(i) in
    Workloads.Workload.defer_through w ~from:t.run_start ~now:t.last_tick ~dt:quantum;
    Workloads.Workload.advance w ~now:current ~dt:quantum
  done;
  t.run_start <- current;
  t.next_due <- (if t.polled_only then Sim_time.zero else min_due t.dues 0 Workloads.Workload.never)

(* A tick of the run at or after [next_due]: advance the workloads whose
   due tick has come, each after crediting the ticks skipped before it;
   the others would only defer this tick and are credited later.  Each
   workload posts its due tick to [dues], so the loop reads one int array
   and touches only the records it advances.  Without a deferring
   workload every one is due on every tick. *)
(* alloc: none *)
let advance_due t ~current ~quantum =
  if t.polled_only then
    for i = 0 to Array.length t.advancing - 1 do
      Workloads.Workload.advance t.advancing.(i) ~now:current ~dt:quantum
    done
  else begin
    let next_due = ref Workloads.Workload.never in
    for i = 0 to Array.length t.dues - 1 do
      let due =
        if Array.unsafe_get t.dues i <= current then begin
          let w = t.advancing.(i) in
          Workloads.Workload.defer_through w ~from:t.run_start ~now:t.last_tick ~dt:quantum;
          Workloads.Workload.advance w ~now:current ~dt:quantum;
          Array.unsafe_get t.dues i
        end
        else Array.unsafe_get t.dues i
      in
      if due < !next_due then next_due := due
    done;
    t.next_due <- !next_due
  end

(* A multi-core host's share of the tick: every core in turn, each at
   its frequency domain's speed, each domain metered for its cores' busy
   time. *)
let[@inline never] dispatch_cores t ~current ~quantum =
  Array.fill t.tick_used 0 (Array.length t.tick_used) Sim_time.zero;
  let busy = ref Sim_time.zero in
  for d = 0 to Array.length t.freq_domains - 1 do
    let fd = t.freq_domains.(d) in
    let speed = Processor.speed fd.cpu in
    let domain_busy = ref Sim_time.zero in
    for core = fd.first_core to fd.first_core + Processor.cores fd.cpu - 1 do
      let core_busy = tick_loop t ~current ~speed ~remaining:quantum ~busy:Sim_time.zero in
      t.core_busy.(core) <- Sim_time.add t.core_busy.(core) core_busy;
      domain_busy := Sim_time.add !domain_busy core_busy
    done;
    Processor.record_busy fd.cpu ~dt:quantum ~busy:!domain_busy;
    busy := Sim_time.add !busy !domain_busy
  done;
  t.total_busy <- Sim_time.add t.total_busy !busy;
  if Analysis.Config.enabled () then
    check_tick_util ~current ~util:(sec_of !busy /. (sec_of quantum *. float_of_int t.cores))

(* One dispatch tick: advance workloads, then hand out the tick to domains
   as the scheduler directs.  A tick that directly follows the last one
   and precedes every workload's due tick would only be deferred by each
   [advance], so the loop is skipped; a later tick of the run advances
   only the due workloads.  Skipped ticks are credited later. *)
(* alloc: none *)
let dispatch_tick t () =
  let current = now t in
  let quantum = t.config.quantum in
  if current <> t.last_tick + quantum then advance_all t ~current ~quantum
  else if current >= t.next_due then advance_due t ~current ~quantum;
  t.last_tick <- current;
  Scheduler.Mask.clear t.exclude;
  if t.cores = 1 then begin
    let speed = Processor.speed t.processor in
    let busy = tick_loop t ~current ~speed ~remaining:quantum ~busy:Sim_time.zero in
    t.total_busy <- Sim_time.add t.total_busy busy;
    if Analysis.Config.enabled () then
      check_tick_util ~current ~util:(sec_of busy /. sec_of quantum);
    Processor.record_busy t.processor ~dt:quantum ~busy
  end
  else dispatch_cores t ~current ~quantum

(* Trace runs are observability runs, not perf runs; the [match t.trace]
   dispatch stays in the caller. *)
(* alloc: cold *)
let[@inline never] trace_freq_change t tr ~current ~freq =
  let series = t.freq_domains.(0).freq_series in
  let n = Series.length series in
  if n > 0 then begin
    let prev = Series.nth_value series (n - 1) in
    if int_of_float prev <> freq then
      Trace.recordf tr ~time:current ~source:"dvfs" "frequency %d -> %d MHz"
        (int_of_float prev) freq
  end

(* The mean speed of the host's cores, into [cell]: several frequency
   domains' absolute load. *)
let[@inline never] mean_speed t (cell : Series.cell) =
  let sum = ref 0.0 in
  for d = 0 to Array.length t.freq_domains - 1 do
    let p = t.freq_domains.(d).cpu in
    sum := !sum +. (Processor.speed p *. float_of_int (Processor.cores p))
  done;
  cell.Series.value <- !sum /. float_of_int t.cores

(* Samples travel through the host's scratch cell ({!Series.add_cell}):
   each freshly computed float is stored into the flat cell and copied into
   the series' float vector without ever being a call argument, so the
   sampling tick allocates nothing in steady state.  A load is a share of
   all cores' time; several frequency domains convert it to absolute load
   at their cores' mean speed. *)
(* alloc: none *)
let sample t () =
  let current = now t in
  let dt = sec_of t.config.sample_period *. float_of_int t.cores in
  let cell = t.scratch in
  let one_domain = Array.length t.freq_domains = 1 in
  if not one_domain then mean_speed t cell;
  let ratio = if one_domain then Processor.ratio t.processor else cell.Series.value in
  let cf = if one_domain then Processor.cf t.processor else 1.0 in
  let global = ref 0.0 in
  for i = 0 to Array.length t.domain_metrics - 1 do
    let m = t.domain_metrics.(i) in
    let used = Sim_time.diff (Domain.cpu_time m.domain) m.last_cpu_time in
    m.last_cpu_time <- Domain.cpu_time m.domain;
    let load_pct = sec_of used /. dt *. 100.0 in
    global := !global +. load_pct;
    cell.Series.value <- load_pct;
    Series.add_cell m.load current cell;
    cell.Series.value <- load_pct *. ratio *. cf;
    Series.add_cell m.absolute current cell
  done;
  (match t.trace with
  | Some tr -> trace_freq_change t tr ~current ~freq:(Processor.current_freq t.processor)
  | None -> ());
  for d = 0 to Array.length t.freq_domains - 1 do
    let fd = t.freq_domains.(d) in
    cell.Series.value <- float_of_int (Processor.current_freq fd.cpu);
    Series.add_cell fd.freq_series current cell
  done;
  cell.Series.value <- !global;
  Series.add_cell t.global_series current cell;
  cell.Series.value <- !global *. ratio *. cf;
  Series.add_cell t.absolute_series current cell

let create ?(config = default_config) ?trace ~sim ~processor ~scheduler ?governor
    ?(domains = []) () =
  if domains <> [] && Option.is_some scheduler.Scheduler.observe_window then
    invalid_arg "Host.create: a scheduler that sets the frequency needs one frequency domain";
  let dom_list = scheduler.Scheduler.domains () in
  let doms = Array.of_list dom_list in
  let domain_metrics =
    Array.map
      (fun d ->
        {
          domain = d;
          load = Series.create ~name:(Domain.name d ^ ".load");
          absolute = Series.create ~name:(Domain.name d ^ ".absolute");
          last_cpu_time = Domain.cpu_time d;
        })
      doms
  in
  let governed = Array.of_list ((processor, governor) :: domains) in
  let cores = ref 0 in
  let freq_domains =
    Array.mapi
      (fun i (p, _) ->
        let first_core = !cores in
        cores := first_core + Processor.cores p;
        {
          cpu = p;
          first_core;
          freq_series =
            Series.create ~name:(if i = 0 then "freq_mhz" else Printf.sprintf "freq_mhz.%d" i);
          probe_busy = Array.make (Processor.cores p) Sim_time.zero;
          probe_time = Simulator.now sim;
        })
      governed
  in
  let cores = !cores in
  let advancing = Domain.advancing dom_list in
  (* A workload that never defers is due on every tick and posts
     nothing, so a host of such workloads keeps no due array. *)
  let polled_only = not (Array.exists Workloads.Workload.defers advancing) in
  let dues = if polled_only then [||] else Array.make (Array.length advancing) Sim_time.zero in
  if not polled_only then
    for i = 0 to Array.length advancing - 1 do
      Workloads.Workload.post_due advancing.(i) dues i
    done;
  let t =
    {
      sim;
      processor;
      freq_domains;
      cores;
      core_busy = (if cores > 1 then Array.make cores Sim_time.zero else [||]);
      caps =
        (if cores > 1 then
           Array.map (fun d -> Sim_time.of_us (Domain.vcpus d * Sim_time.to_us config.quantum)) doms
         else [||]);
      tick_used = (if cores > 1 then Array.make (Array.length doms) Sim_time.zero else [||]);
      scheduler;
      config;
      trace;
      handles = [];
      total_busy = Sim_time.zero;
      global_series = Series.create ~name:"global_load";
      absolute_series = Series.create ~name:"absolute_load";
      domain_metrics;
      advancing;
      dues;
      polled_only;
      last_tick = -1;
      run_start = -1;
      next_due = Sim_time.zero;
      exclude = Scheduler.Mask.create ();
      scratch = Series.cell ();
      probe_last_busy = Sim_time.zero;
      probe_last_time = Simulator.now sim;
    }
  in
  let arm handle = t.handles <- handle :: t.handles in
  arm (Simulator.every sim config.quantum (dispatch_tick t));
  arm
    (Simulator.every sim config.account_period (fun () ->
         scheduler.Scheduler.on_account_period ~now:(now t)));
  arm (Simulator.every sim config.sample_period (sample t));
  (match scheduler.Scheduler.observe_window with
  | Some observe ->
      arm
        (Simulator.every sim scheduler.Scheduler.window_period (fun () ->
             observe ~now:(now t) ~busy_fraction:(probe_window t)))
  | None -> ());
  (* Each governor reads the busiest core of its own frequency domain; on
     one core that is the host's probe. *)
  Array.iteri
    (fun i (_, governor) ->
      match governor with
      | Some gov ->
          let fd = t.freq_domains.(i) in
          let observe = gov.Governors.Governor.observe in
          arm
            (Simulator.every sim gov.Governors.Governor.period
               (if cores = 1 then fun () -> observe ~now:(now t) ~busy_fraction:(probe_window t)
                else fun () -> observe ~now:(now t) ~busy_fraction:(probe_busiest t fd)))
      | None -> ())
    governed;
  (match trace with
  | Some tr ->
      Trace.recordf tr ~time:(Simulator.now sim) ~source:"host" "host created (%s)"
        scheduler.Scheduler.name
  | None -> ());
  t

let run_for t duration = Simulator.run_until t.sim (Sim_time.add (now t) duration)

(* The skipped ticks are credited so that a workload moving to another
   host carries its deferred run there. *)
let stop t =
  List.iter (Simulator.cancel t.sim) t.handles;
  t.handles <- [];
  credit_skipped t

let series_frequency t = t.freq_domains.(0).freq_series
let series_global_load t = t.global_series
let series_absolute_load t = t.absolute_series
let series_domain_load t d = (metrics_for t d).load
let series_domain_absolute_load t d = (metrics_for t d).absolute

let frame t =
  let frame = Series.Frame.create () in
  Array.iter (fun fd -> Series.Frame.add_series frame fd.freq_series) t.freq_domains;
  Array.iter
    (fun m ->
      Series.Frame.add_series frame m.load;
      Series.Frame.add_series frame m.absolute)
    t.domain_metrics;
  Series.Frame.add_series frame t.global_series;
  Series.Frame.add_series frame t.absolute_series;
  frame

(* Each domain's meter prices the whole package at its frequency; several
   domains share the package by their cores. *)
let package t reading =
  if Array.length t.freq_domains = 1 then reading t.processor
  else
    Array.fold_left
      (fun sum fd ->
        let p = fd.cpu in
        sum +. (reading p *. float_of_int (Processor.cores p) /. float_of_int t.cores))
      0.0 t.freq_domains

let energy_joules t = package t Processor.energy_joules
let mean_watts t = package t Processor.mean_watts

module Internal = struct
  let dispatch_tick = dispatch_tick
  let sample = sample

  let reset_series t =
    Array.iter (fun fd -> Series.reset fd.freq_series) t.freq_domains;
    Series.reset t.global_series;
    Series.reset t.absolute_series;
    Array.iter
      (fun m ->
        Series.reset m.load;
        Series.reset m.absolute)
      t.domain_metrics
end
