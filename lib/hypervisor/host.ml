module Processor = Cpu_model.Processor

let inv_tick_util =
  Analysis.Invariant.register "host.tick-utilization"
    ~doc:"the busy share of every dispatch tick falls in [0, 1]"

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

type t = {
  sim : Simulator.t;
  processor : Processor.t;
  scheduler : Scheduler.t;
  config : config;
  trace : Trace.t option;
  mutable handles : Simulator.handle list;
  mutable total_busy : Sim_time.t;
  freq_series : Series.t;
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

let utilization_probe t =
  let last_busy = ref t.total_busy and last_time = ref (now t) in
  fun () ->
    let busy = Sim_time.diff t.total_busy !last_busy in
    let elapsed = Sim_time.diff (now t) !last_time in
    last_busy := t.total_busy;
    last_time := now t;
    if Sim_time.equal elapsed Sim_time.zero then 0.0
    else sec_of busy /. sec_of elapsed

(* The built-in window/governor probe: same sampling rule as
   {!utilization_probe}, but the cursor lives in the host record, so arming
   the periodic observers allocates no ref cells and the per-window call
   touches no closure environment. *)
let probe_window t =
  let busy = Sim_time.diff t.total_busy t.probe_last_busy in
  let elapsed = Sim_time.diff (now t) t.probe_last_time in
  t.probe_last_busy <- t.total_busy;
  t.probe_last_time <- now t;
  if Sim_time.equal elapsed Sim_time.zero then 0.0
  else sec_of busy /. sec_of elapsed

(* The pick/execute/charge loop of one dispatch tick, written as a
   module-level tail recursion over immediate ints so the per-tick hot path
   allocates nothing: the scheduler returns a reused slice cell, exclusions
   go through the scratch mask, and [speed] is the processor's cached boxed
   float passed by pointer. *)
let rec tick_loop t ~current ~speed ~remaining ~busy =
  if Sim_time.compare remaining Sim_time.zero <= 0 then busy
  else
    match t.scheduler.Scheduler.pick ~now:current ~remaining ~exclude:t.exclude with
    | None -> busy
    | Some slice ->
        let domain = slice.Scheduler.domain in
        let offered = Sim_time.min slice.Scheduler.max_slice remaining in
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

(* One dispatch tick: advance workloads, then hand out the tick to domains
   as the scheduler directs.  A tick that directly follows the last one
   and precedes every workload's due tick would only be deferred by each
   [advance], so the loop is skipped; a later tick of the run advances
   only the due workloads.  Skipped ticks are credited later. *)
(* alloc: none *)
let dispatch_tick t () =
  let current = now t in
  let quantum = t.config.quantum in
  let speed = Processor.speed t.processor in
  if current <> t.last_tick + quantum then advance_all t ~current ~quantum
  else if current >= t.next_due then advance_due t ~current ~quantum;
  t.last_tick <- current;
  Scheduler.Mask.clear t.exclude;
  let busy = tick_loop t ~current ~speed ~remaining:quantum ~busy:Sim_time.zero in
  t.total_busy <- Sim_time.add t.total_busy busy;
  if Analysis.Config.enabled () then
    check_tick_util ~current ~util:(sec_of busy /. sec_of quantum);
  Processor.record_busy t.processor ~dt:quantum ~busy

(* Trace runs are observability runs, not perf runs; the [match t.trace]
   dispatch stays in the caller. *)
(* alloc: cold *)
let[@inline never] trace_freq_change t tr ~current ~freq =
  let n = Series.length t.freq_series in
  if n > 0 then begin
    let prev = Series.nth_value t.freq_series (n - 1) in
    if int_of_float prev <> freq then
      Trace.recordf tr ~time:current ~source:"dvfs" "frequency %d -> %d MHz"
        (int_of_float prev) freq
  end

(* Samples travel through the host's scratch cell ({!Series.add_cell}):
   each freshly computed float is stored into the flat cell and copied into
   the series' float vector without ever being a call argument, so the
   sampling tick allocates nothing in steady state. *)
(* alloc: none *)
let sample t () =
  let current = now t in
  let dt = sec_of t.config.sample_period in
  let ratio = Processor.ratio t.processor and cf = Processor.cf t.processor in
  let cell = t.scratch in
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
  let freq = Processor.current_freq t.processor in
  (match t.trace with
  | Some tr -> trace_freq_change t tr ~current ~freq
  | None -> ());
  cell.Series.value <- float_of_int freq;
  Series.add_cell t.freq_series current cell;
  cell.Series.value <- !global;
  Series.add_cell t.global_series current cell;
  cell.Series.value <- !global *. ratio *. cf;
  Series.add_cell t.absolute_series current cell

let create ?(config = default_config) ?trace ~sim ~processor ~scheduler ?governor () =
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
      scheduler;
      config;
      trace;
      handles = [];
      total_busy = Sim_time.zero;
      freq_series = Series.create ~name:"freq_mhz";
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
  (match governor with
  | Some gov ->
      arm
        (Simulator.every sim gov.Governors.Governor.period (fun () ->
             gov.Governors.Governor.observe ~now:(now t) ~busy_fraction:(probe_window t)))
  | None -> ());
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

let series_frequency t = t.freq_series
let series_global_load t = t.global_series
let series_absolute_load t = t.absolute_series

let rec metrics_index metrics d i =
  if i >= Array.length metrics then raise Not_found
  else if Domain.equal metrics.(i).domain d then i
  else metrics_index metrics d (i + 1)

let metrics_for t d = t.domain_metrics.(metrics_index t.domain_metrics d 0)
let series_domain_load t d = (metrics_for t d).load
let series_domain_absolute_load t d = (metrics_for t d).absolute

let frame t =
  let frame = Series.Frame.create () in
  Series.Frame.add_series frame t.freq_series;
  Array.iter
    (fun m ->
      Series.Frame.add_series frame m.load;
      Series.Frame.add_series frame m.absolute)
    t.domain_metrics;
  Series.Frame.add_series frame t.global_series;
  Series.Frame.add_series frame t.absolute_series;
  frame

let energy_joules t = Processor.energy_joules t.processor
let mean_watts t = Processor.mean_watts t.processor

module Internal = struct
  let dispatch_tick = dispatch_tick
  let sample = sample

  let reset_series t =
    Series.reset t.freq_series;
    Series.reset t.global_series;
    Series.reset t.absolute_series;
    Array.iter
      (fun m ->
        Series.reset m.load;
        Series.reset m.absolute)
      t.domain_metrics
end
