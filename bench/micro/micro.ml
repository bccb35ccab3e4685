(* Per-subsystem microbenchmarks with an allocation meter, plus the
   manifest regression gate.

   [micro run] measures each hot path in a tight loop and reports ns/op and
   words/op (from {!allocated_words} deltas).  The dispatch-tick and
   sample-tick paths are engineered to allocate nothing in steady state;
   [--check] turns that property into an exit code so CI can gate on it.

   [micro compare OLD.json NEW.json] diffs two [BENCH_*.json] manifests
   (schema /1 or /2) through {!Runner.Manifest} and exits non-zero when any
   per-experiment or total metric regressed beyond the tolerance.

   Measurements are wall-clock and machine-dependent; only the words/op
   figures (and the compare gate's generous tolerance) are meant to be
   stable across hosts. *)

module Domain = Hypervisor.Domain
module Scheduler = Hypervisor.Scheduler
module Host = Hypervisor.Host
module Processor = Cpu_model.Processor
module Sim_time = Sim_engine.Sim_time
module Simulator = Sim_engine.Simulator
module Series = Sim_engine.Series
module Open_loop = Workloads.Open_loop

type result = { name : string; ops : int; ns_per_op : float; words_per_op : float }

(* Words this domain has allocated: minor words plus the words allocated
   straight on the major heap (major words less those promoted from the
   minor heap, which the minor count already has).  Not
   [Gc.allocated_bytes]: under OCaml 5.1 it takes the minor count of
   [Gc.counters], which counts the minor heap's unfinished cycle at an
   eighth, so a figure read with it depends on where the last minor
   collection fell. *)
let allocated_words () =
  let _, promoted, major = Gc.counters () in
  Gc.minor_words () +. major -. promoted

(* Warm up, optionally reset (drop warm-up samples while keeping grown
   storage), then measure a tight loop.  The loop starts on a compacted
   heap, so that it does not run on whatever heap start-up and earlier
   benches left.  The timer is read outside the allocation window so its
   boxes are not billed to [f]; the meter's own constant overhead (a few
   words) is amortised over [ops]. *)
let measure ~name ~ops ?(warmup = 0) ?reset f =
  for _ = 1 to warmup do
    f ()
  done;
  (match reset with Some r -> r () | None -> ());
  Gc.compact ();
  let t0 = Unix.gettimeofday () in
  let a0 = allocated_words () in
  for _ = 1 to ops do
    f ()
  done;
  let a1 = allocated_words () in
  let t1 = Unix.gettimeofday () in
  {
    name;
    ops;
    ns_per_op = (t1 -. t0) *. 1e9 /. float_of_int ops;
    words_per_op = (a1 -. a0) /. float_of_int ops;
  }

(* ------------------------------------------------------------------ *)
(* Fixtures *)

(* Uncapped (credit 0) domains stay eligible without the 30 ms accounting
   refill, so a bench driving [dispatch_tick] directly — outside the event
   queue, where on_account_period never fires — keeps dispatching real work
   on every measured tick instead of decaying to idle picks. *)
let busy_domains () =
  [
    Domain.create ~is_dom0:true ~name:"dom0" ~credit_pct:0.0 (Workloads.Workload.busy_loop ());
    Domain.create ~name:"a" ~credit_pct:0.0 (Workloads.Workload.busy_loop ());
    Domain.create ~name:"b" ~credit_pct:0.0 (Workloads.Workload.busy_loop ());
  ]

let contended_domains () =
  [
    Domain.create ~is_dom0:true ~name:"dom0" ~credit_pct:10.0 (Workloads.Workload.busy_loop ());
    Domain.create ~name:"a" ~credit_pct:20.0 (Workloads.Workload.busy_loop ());
    Domain.create ~name:"b" ~credit_pct:70.0 (Workloads.Workload.busy_loop ());
  ]

let bench_queue_push_pop () =
  measure ~name:"queue/push-pop-1k" ~ops:300 ~warmup:20 (fun () ->
      let sim = Simulator.create () in
      for i = 0 to 999 do
        ignore (Simulator.at sim (Sim_time.of_us ((i * 7919) mod 65536)) (fun () -> ()))
      done;
      Simulator.run sim)

let bench_queue_cancel_compact () =
  let handles = Array.make 1000 None in
  measure ~name:"queue/cancel-compact-1k" ~ops:300 ~warmup:20 (fun () ->
      let sim = Simulator.create () in
      for i = 0 to 999 do
        handles.(i) <-
          Some (Simulator.at sim (Sim_time.of_us ((i * 7919) mod 65536)) (fun () -> ()))
      done;
      (* Cancel 70% — enough to trip the cancelled>live compaction. *)
      for i = 0 to 999 do
        if i mod 10 < 7 then
          match handles.(i) with Some h -> Simulator.cancel sim h | None -> ()
      done;
      Simulator.run sim)

let bench_every_steady () =
  let sim = Simulator.create () in
  ignore (Simulator.every sim (Sim_time.of_ms 1) (fun () -> ()));
  measure ~name:"sim/every-steady" ~ops:200_000 ~warmup:1_000 (fun () ->
      ignore (Simulator.step sim))

let make_host domains =
  let sim = Simulator.create () in
  let processor = Processor.create Cpu_model.Arch.optiplex_755 in
  let scheduler = Sched_credit.create domains in
  Host.create ~sim ~processor ~scheduler ()

let bench_dispatch_tick () =
  let host = make_host (busy_domains ()) in
  measure ~name:"host/dispatch-tick" ~ops:100_000 ~warmup:1_000 (fun () ->
      Host.Internal.dispatch_tick host ())

(* Capped domains with the 30 ms accounting refill folded in — the cadence
   a simulated host actually runs.  The refill copies each domain's cached
   full-period quota, so this path is gated at 0 words/op too. *)
let bench_dispatch_tick_capped () =
  let host = make_host (contended_domains ()) in
  let scheduler = Host.scheduler host in
  let ticks = ref 0 in
  measure ~name:"host/dispatch-tick-capped" ~ops:100_000 ~warmup:1_000 (fun () ->
      incr ticks;
      if !ticks mod 30 = 0 then
        scheduler.Scheduler.on_account_period ~now:(Host.now host);
      Host.Internal.dispatch_tick host ())

let bench_sample_tick () =
  let host = make_host (busy_domains ()) in
  let ops = 100_000 in
  (* The warm-up grows every series vector to [ops] capacity; the reset
     empties them without shrinking, so the measured loop appends into
     existing storage and the steady-state sampling path shows through. *)
  measure ~name:"host/sample-tick" ~ops ~warmup:ops
    ~reset:(fun () -> Host.Internal.reset_series host)
    (fun () -> Host.Internal.sample host ())

(* One package of two cores: the multi-core share of the tick, the
   per-domain vCPU cap included. *)
let make_2core_host () =
  let sim = Simulator.create () in
  let processor = Processor.create ~cores:2 Cpu_model.Arch.optiplex_755 in
  let scheduler = Sched_credit.create ~host_capacity:2 (busy_domains ()) in
  Host.create ~sim ~processor ~scheduler ()

let bench_dispatch_tick_2core () =
  let host = make_2core_host () in
  measure ~name:"host/dispatch-tick-2core" ~ops:100_000 ~warmup:1_000 (fun () ->
      Host.Internal.dispatch_tick host ())

let bench_sample_tick_2core () =
  let host = make_2core_host () in
  let ops = 100_000 in
  measure ~name:"host/sample-tick-2core" ~ops ~warmup:ops
    ~reset:(fun () -> Host.Internal.reset_series host)
    (fun () -> Host.Internal.sample host ())

(* A 16-node cluster's queue, with room to spare: 80 periodic chains at
   the host periods (1 ms dispatch, 30 ms accounting, 100 ms window, 1 s
   sampling, 4 s governor), so each op fires the earliest event and
   re-arms it one period on, in place.  The heap reaches its steady
   capacity when the chains are armed; any words/op left is a real per-op
   allocation in the re-arm path. *)
let bench_sim_rearm () =
  let sim = Simulator.create () in
  let periods = [| 1; 30; 100; 1_000; 4_000 |] in
  for i = 0 to 79 do
    ignore
      (Simulator.every sim
         ~start:(Sim_time.of_us (1 + i))
         (Sim_time.of_ms periods.(i mod 5))
         (fun () -> ()))
  done;
  measure ~name:"sim/heap-rearm" ~ops:200_000 ~warmup:20_000 (fun () ->
      ignore (Simulator.step sim))

(* One-shots fired and freed: the reset queues one no-op event per op
   (the allocation stays outside the measured window), and each op pops
   the earliest. *)
let bench_sim_pop () =
  let ops = 100_000 in
  let sim = Simulator.create () in
  let noop () = () in
  measure ~name:"sim/heap-pop" ~ops
    ~reset:(fun () ->
      for i = 1 to ops do
        ignore (Simulator.at sim (Sim_time.of_us ((i * 7919) mod 1_000_003)) noop)
      done)
    (fun () -> ignore (Simulator.step sim))

(* One host's energy meter over a tick stream: idle, fully busy and
   partial 1 ms ticks, with a level change every 97 ticks and a 2 ms tick
   now and then. *)
let bench_record_busy () =
  let arch = Cpu_model.Arch.optiplex_755 in
  let table = arch.Cpu_model.Arch.freq_table in
  let levels = Cpu_model.Frequency.levels table in
  let meter = Cpu_model.Power.Meter.create (Cpu_model.Power.of_arch arch) table in
  let busy = [| 0; 1_000; 1_000; 0; 370; 1_000; 0; 0; 1_000; 12 |] in
  let tick = ref 0 in
  measure ~name:"power/record-busy" ~ops:200_000 ~warmup:1_000 (fun () ->
      let i = !tick in
      tick := i + 1;
      let dt = Sim_time.of_us (if i mod 1_009 = 0 then 2_000 else 1_000) in
      let freq = levels.(i / 97 mod Array.length levels) in
      Cpu_model.Power.Meter.record_busy meter ~dt ~busy:(Sim_time.of_us busy.(i mod 10)) ~freq)

(* Parse and build of one dense-pas host configuration: Dom0 and 24
   guests (web, pi and idle) under PAS.  A set-up figure measured in a
   fresh loop, unlike a whole-run set-up time taken after a simulation
   has grown the heap. *)
let dense_config =
  let guest i =
    let credit = 2 + (i mod 3) in
    let rate = float_of_int credit /. 100.0 in
    let workload =
      if i < 4 then Printf.sprintf "web rate=%g from=%d until=%d" rate (5 + i) (60 + i)
      else if i < 8 then Printf.sprintf "web rate=%g from=%d until=%d" (rate *. 3.0) i (50 + i)
      else if i < 14 then
        Printf.sprintf "pi work=%g duty=%g" (rate *. 90.0) (0.3 +. (0.1 *. float_of_int (i - 8)))
      else if i < 20 then "idle"
      else Printf.sprintf "web rate=%g" (rate *. 2.5)
    in
    Printf.sprintf "domain name=G%02d credit=%d workload=%s\n" i credit workload
  in
  String.concat ""
    ("host arch=optiplex-755 scheduler=pas governor=none duration=90\n\
      domain name=Dom0 credit=10 dom0=true workload=idle\n"
    :: List.init 24 guest)

let bench_domconfig_dense () =
  measure ~name:"setup/domconfig-dense" ~ops:2_000 ~warmup:200 (fun () ->
      match Domconfig.parse dense_config with
      | Ok cfg -> ignore (Domconfig.build cfg)
      | Error e -> failwith e)

let bench_series_add_cell () =
  let s = Series.create ~name:"bench" in
  let cell = Series.cell () in
  let i = ref 0 in
  let ops = 100_000 in
  measure ~name:"series/add-cell" ~ops ~warmup:ops
    ~reset:(fun () ->
      Series.reset s;
      i := 0)
    (fun () ->
      cell.Series.value <- float_of_int !i;
      Series.add_cell s (Sim_time.of_us !i) cell;
      incr i)

(* Drain mode: a primed backlog is served with [now] frozen, so the
   measured loop never enters arrival injection — the one stage allowed to
   allocate (it draws from the boxed-state Prng) — and words/op isolates
   the pool/ring service path. *)
let bench_openloop_step () =
  let station =
    Open_loop.create ~seed:7 ~servers:2 ~rate:100.0 ~service_mean:100.0 ()
  in
  let now = Sim_time.of_sec 100 in
  let dt = Sim_time.of_ms 1 in
  (* One long prime injects ~10k requests of 100 absolute seconds each —
     backlog for far more service than the measured loop performs. *)
  Open_loop.step station ~now ~dt:(Sim_time.of_us 1) ~speed:1.0;
  measure ~name:"openloop/step" ~ops:100_000 ~warmup:1_000
    ~reset:(fun () -> Open_loop.reset_stats station)
    (fun () -> Open_loop.step station ~now ~dt ~speed:1.0)

let bench_credit_pick () =
  let scheduler = Sched_credit.create (busy_domains ()) in
  let exclude = Scheduler.Mask.create () in
  let now = Sim_time.zero and remaining = Sim_time.of_ms 1 in
  measure ~name:"credit/pick" ~ops:100_000 ~warmup:1_000 (fun () ->
      ignore (scheduler.Scheduler.pick ~now ~remaining ~exclude))

let bench_credit_charge () =
  let domains = contended_domains () in
  let scheduler = Sched_credit.create ~host_capacity:4 domains in
  let domain = List.nth domains 1 in
  let now = Sim_time.zero and used = Sim_time.of_us 10 in
  measure ~name:"credit/charge" ~ops:100_000 ~warmup:1_000 (fun () ->
      scheduler.Scheduler.charge ~domain ~now ~used)

(* 24 domains, the density of a consolidated PAS host: a capped dom0 and
   23 capped guests of which one in three has work.  Each op is one pick
   and the charge of what it picked, with the 30 ms refill folded in every
   300 ops, so the scans see quota exhaustion and rotation. *)
let bench_credit_pick_dense () =
  let domains =
    Domain.create ~is_dom0:true ~name:"dom0" ~credit_pct:10.0 (Workloads.Workload.idle ())
    :: List.init 23 (fun i ->
           let w =
             if i mod 3 = 0 then Workloads.Workload.busy_loop () else Workloads.Workload.idle ()
           in
           Domain.create ~name:(Printf.sprintf "g%d" i) ~credit_pct:3.5 w)
  in
  let scheduler = Sched_credit.create domains in
  let exclude = Scheduler.Mask.create () in
  let now = Sim_time.zero and remaining = Sim_time.of_ms 1 in
  let used = Sim_time.of_us 100 in
  let ops = ref 0 in
  measure ~name:"credit/pick-dense" ~ops:100_000 ~warmup:1_000 (fun () ->
      incr ops;
      if !ops mod 300 = 0 then scheduler.Scheduler.on_account_period ~now;
      match scheduler.Scheduler.pick ~now ~remaining ~exclude with
      | Some slice -> scheduler.Scheduler.charge ~domain:slice.Scheduler.domain ~now ~used
      | None -> ())

let bench_credit_account () =
  let scheduler = Sched_credit.create ~host_capacity:4 (contended_domains ()) in
  let now = Sim_time.zero in
  measure ~name:"credit/account" ~ops:100_000 ~warmup:1_000 (fun () ->
      scheduler.Scheduler.on_account_period ~now)

(* One pick and the charge of what it picked on the three contended
   domains, for the schedulers that have no zero-alloc root. *)
let bench_pick_charge name create () =
  let scheduler = create (contended_domains ()) in
  let exclude = Scheduler.Mask.create () in
  let now = Sim_time.zero and remaining = Sim_time.of_ms 1 and used = Sim_time.of_us 10 in
  measure ~name ~ops:100_000 ~warmup:1_000 (fun () ->
      match scheduler.Scheduler.pick ~now ~remaining ~exclude with
      | Some slice -> scheduler.Scheduler.charge ~domain:slice.Scheduler.domain ~now ~used
      | None -> ())

(* Listing 1.1's frequency search over the Optiplex table, at loads
   stepping through 0-100. *)
let bench_compute_new_freq () =
  let arch = Cpu_model.Arch.optiplex_755 in
  let load = ref 0 in
  measure ~name:"pas/compute-new-freq" ~ops:100_000 ~warmup:1_000 (fun () ->
      load := (!load + 7) mod 101;
      ignore
        (Pas.Equations.compute_new_freq arch.Cpu_model.Arch.freq_table
           arch.Cpu_model.Arch.calibration ~absolute_load:(float_of_int !load)))

(* A phased deterministic web guest advanced tick by tick, with a client
   timeout so the backlog (nobody serves it here) stays bounded: each op
   runs the segment lookup, expiry and request injection. *)
let bench_web_advance () =
  let app =
    Workloads.Web_app.create ~timeout:(Sim_time.of_ms 200)
      ~rate_schedule:
        [ (Sim_time.zero, 0.3); (Sim_time.of_sec 1, 0.9); (Sim_time.of_sec 1_000, 0.0) ]
      ()
  in
  let w = Workloads.Web_app.workload app in
  let now = ref Sim_time.zero and dt = Sim_time.of_ms 1 in
  measure ~name:"web/advance" ~ops:100_000 ~warmup:2_000 (fun () ->
      now := Sim_time.add !now dt;
      Workloads.Workload.advance w ~now:!now ~dt)

let bench_pi_advance () =
  let app = Workloads.Pi_app.create ~duty_cycle:0.5 ~work:1e9 () in
  let w = Workloads.Pi_app.workload app in
  let now = Sim_time.zero and dt = Sim_time.of_ms 1 in
  measure ~name:"pi/advance" ~ops:100_000 ~warmup:1_000 (fun () ->
      Workloads.Workload.advance w ~now ~dt)

(* A web guest served a slice after every tick, at a rate the slices
   keep up with: each execute catches up the deferred tick and recomputes
   the due tick. *)
let bench_web_defer () =
  let app =
    Workloads.Web_app.create ~timeout:(Sim_time.of_sec 1)
      ~rate_schedule:[ (Sim_time.zero, 0.08) ] ()
  in
  let w = Workloads.Web_app.workload app in
  let now = ref Sim_time.zero and dt = Sim_time.of_ms 1 and slice = Sim_time.of_us 100 in
  measure ~name:"web/defer" ~ops:100_000 ~warmup:2_000 (fun () ->
      now := Sim_time.add !now dt;
      Workloads.Workload.advance w ~now:!now ~dt;
      ignore (Workloads.Workload.execute w ~now:!now ~cpu_time:slice ~speed:1.0))

(* A pi job offered more than it earns per tick, so every execute drains
   its tokens and the due tick flips between "next tick" and "never";
   between executes the ticks are deferred and caught up. *)
let bench_pi_defer () =
  let app = Workloads.Pi_app.create ~duty_cycle:0.5 ~work:1e9 () in
  let w = Workloads.Pi_app.workload app in
  let now = ref Sim_time.zero and dt = Sim_time.of_ms 1 and ticks = ref 0 in
  measure ~name:"pi/defer" ~ops:100_000 ~warmup:1_000 (fun () ->
      now := Sim_time.add !now dt;
      incr ticks;
      Workloads.Workload.advance w ~now:!now ~dt;
      if !ticks mod 3 = 0 then
        ignore (Workloads.Workload.execute w ~now:!now ~cpu_time:dt ~speed:1.0))

(* A dense-pas host on Credit: Dom0 and 24 capped guests — 12 web (four
   at exact load and four thrashing within a window, four thrashing
   throughout), 6 pi jobs and 6 idle guests.  The host's own events are
   cancelled and a no-op 1 ms event moves the clock, so each op is one
   dispatch tick at the next millisecond (with the 30 ms refill) and the
   workloads see contiguous ticks, as in a run. *)
let bench_dispatch_tick_dense () =
  let sec = Sim_time.of_sec in
  let web ?window rate =
    let rate_schedule =
      match window with
      | Some (a, b) -> [ (sec a, rate); (sec b, 0.0) ]
      | None -> [ (Sim_time.zero, rate) ]
    in
    Workloads.Web_app.workload
      (Workloads.Web_app.create ~timeout:(sec 2) ~rate_schedule ())
  in
  let guest i =
    let credit = float_of_int (2 + (i mod 3)) in
    let w =
      if i < 4 then web ~window:(1 + i, 60 + i) (credit /. 100.0)
      else if i < 8 then web ~window:(i, 50 + i) (credit /. 100.0 *. 3.0)
      else if i < 12 then web (credit /. 100.0 *. 2.5)
      else if i < 18 then
        Workloads.Pi_app.workload
          (Workloads.Pi_app.create ~duty_cycle:(0.3 +. (0.1 *. float_of_int (i - 12))) ~work:1e6 ())
      else Workloads.Workload.idle ()
    in
    Domain.create ~name:(Printf.sprintf "G%02d" i) ~credit_pct:credit w
  in
  let domains =
    Domain.create ~is_dom0:true ~name:"dom0" ~credit_pct:10.0 (Workloads.Workload.idle ())
    :: List.init 24 guest
  in
  let sim = Simulator.create () in
  let processor = Processor.create Cpu_model.Arch.optiplex_755 in
  let scheduler = Sched_credit.create domains in
  let host = Host.create ~sim ~processor ~scheduler () in
  Host.stop host;
  ignore (Simulator.every sim (Sim_time.of_ms 1) (fun () -> ()));
  let ticks = ref 0 in
  (* The warm-up outlasts the 2 s timeout of the phases that start by
     then, so the request rings have reached their steady size. *)
  measure ~name:"host/dispatch-tick-dense" ~ops:100_000 ~warmup:20_000 (fun () ->
      ignore (Simulator.step sim);
      incr ticks;
      if !ticks mod 30 = 0 then scheduler.Scheduler.on_account_period ~now:(Host.now host);
      Host.Internal.dispatch_tick host ())

(* A host of Dom0 and 24 capped web guests, every one deferring, at
   rates each guest's credit covers and staggered so that their requests
   (0.5 ms of work each) arrive on different ticks: one every 17 to 56
   ticks.  Driven
   as [host/dispatch-tick-dense]: each op is one dispatch tick at the next
   millisecond, with the 30 ms refill.  A loop tick advances only the due
   guests and a pick asks only the listed ones and the last pick. *)
let bench_dispatch_tick_staggered () =
  let guest i =
    let credit = 3.0 +. (0.125 *. float_of_int (i mod 4)) in
    let rate = credit /. 100.0 *. (0.3 +. (0.025 *. float_of_int i)) in
    let app =
      Workloads.Web_app.create ~request_work:0.0005 ~timeout:(Sim_time.of_ms (200 + (37 * i)))
        ~rate_schedule:[ (Sim_time.of_ms i, rate) ] ()
    in
    Domain.create ~name:(Printf.sprintf "S%02d" i) ~credit_pct:credit
      (Workloads.Web_app.workload app)
  in
  let domains =
    Domain.create ~is_dom0:true ~name:"dom0" ~credit_pct:10.0 (Workloads.Workload.idle ())
    :: List.init 24 guest
  in
  let sim = Simulator.create () in
  let processor = Processor.create Cpu_model.Arch.optiplex_755 in
  let scheduler = Sched_credit.create domains in
  let host = Host.create ~sim ~processor ~scheduler () in
  Host.stop host;
  ignore (Simulator.every sim (Sim_time.of_ms 1) (fun () -> ()));
  let ticks = ref 0 in
  measure ~name:"host/dispatch-tick-staggered" ~ops:100_000 ~warmup:5_000 (fun () ->
      ignore (Simulator.step sim);
      incr ticks;
      if !ticks mod 30 = 0 then scheduler.Scheduler.on_account_period ~now:(Host.now host);
      Host.Internal.dispatch_tick host ())

(* A web guest ticked only at its due ticks, as a host that skips quiet
   ticks drives it: each op credits the skipped ticks, makes the real
   advance that injects the next request (the walk record's crossing),
   serves the request, and lets [due] walk the carry to the next
   crossing, 50 additions on. *)
let bench_web_due () =
  let app =
    Workloads.Web_app.create ~timeout:(Sim_time.of_sec 1)
      ~rate_schedule:[ (Sim_time.zero, 0.1) ] ()
  in
  let w = Workloads.Web_app.workload app in
  let dt = Sim_time.of_ms 1 in
  Workloads.Workload.advance w ~now:dt ~dt;
  measure ~name:"web/due" ~ops:100_000 ~warmup:2_000 (fun () ->
      let due = Workloads.Workload.due_at w in
      Workloads.Workload.defer_through w ~from:Sim_time.zero ~now:(Sim_time.sub due dt) ~dt;
      Workloads.Workload.advance w ~now:due ~dt;
      ignore (Workloads.Workload.execute w ~now:due ~cpu_time:dt ~speed:10.0))

(* Window observers are fed busy fractions the host computes, boxed once
   per call at the caller.  These cycle through a list of boxed samples
   (0 and 1 included), so words/op counts the observer's own body: the
   level search, the frequency change and, for PAS, the credit rescale.
   The cycle makes every observer change frequency on some windows. *)
let busy_cycle = [ 0.05; 0.95; 0.5; 0.0; 1.0; 0.3; 0.8; 0.62; 0.12; 0.4 ]

let bench_observer ~name ~period observe =
  let rest = ref busy_cycle and now = ref Sim_time.zero in
  measure ~name ~ops:100_000 ~warmup:1_000 (fun () ->
      now := Sim_time.add !now period;
      match !rest with
      | x :: tl ->
          rest := tl;
          observe ~now:!now ~busy_fraction:x
      | [] -> rest := busy_cycle)

(* A PAS host's window: Dom0 and 12 capped guests on the Optiplex table,
   every evaluation rescaling all of them. *)
let bench_pas_window () =
  let domains =
    Domain.create ~is_dom0:true ~name:"dom0" ~credit_pct:10.0 (Workloads.Workload.idle ())
    :: List.init 12 (fun i ->
           Domain.create ~name:(Printf.sprintf "g%d" i)
             ~credit_pct:(float_of_int (2 + (i mod 5)))
             (Workloads.Workload.busy_loop ()))
  in
  let processor = Processor.create Cpu_model.Arch.optiplex_755 in
  let pas = Pas.Pas_sched.create ~processor domains in
  match (Pas.Pas_sched.scheduler pas).Scheduler.observe_window with
  | Some observe -> bench_observer ~name:"pas/window" ~period:(Sim_time.of_ms 100) observe
  | None -> invalid_arg "pas/window: PAS has no window observer"

let bench_governor name create () =
  let processor = Processor.create Cpu_model.Arch.optiplex_755 in
  let g = create processor in
  bench_observer ~name ~period:g.Governors.Governor.period g.Governors.Governor.observe

let bench_frame_csv () =
  let frame = Series.Frame.create () in
  for j = 0 to 3 do
    let s = Series.create ~name:(Printf.sprintf "s%d" j) in
    for i = 0 to 511 do
      Series.add s (Sim_time.of_us ((i * 1000) + (j * 250))) (float_of_int ((i * 13) + j))
    done;
    Series.Frame.add_series frame s
  done;
  measure ~name:"series/frame-csv-4x512" ~ops:300 ~warmup:20 (fun () ->
      ignore (Series.Frame.to_csv frame))

let all_benches =
  [
    bench_queue_push_pop;
    bench_queue_cancel_compact;
    bench_every_steady;
    bench_dispatch_tick;
    bench_dispatch_tick_capped;
    bench_dispatch_tick_dense;
    bench_sample_tick;
    bench_dispatch_tick_2core;
    bench_sample_tick_2core;
    bench_sim_rearm;
    bench_sim_pop;
    bench_record_busy;
    bench_series_add_cell;
    bench_openloop_step;
    bench_credit_pick;
    bench_credit_charge;
    bench_credit_pick_dense;
    bench_credit_account;
    bench_web_advance;
    bench_pi_advance;
    bench_web_defer;
    bench_pi_defer;
    bench_pas_window;
    bench_governor "governor/ondemand" (fun p -> Governors.Ondemand.create p);
    bench_governor "governor/stable-ondemand" (fun p -> Governors.Stable_ondemand.create p);
    bench_governor "governor/conservative" (fun p -> Governors.Conservative.create p);
    bench_frame_csv;
    bench_domconfig_dense;
    bench_pick_charge "sedf/pick-charge" (fun d -> Sched_sedf.create d);
    bench_pick_charge "credit2/pick-charge" (fun d -> Sched_credit2.create d);
    bench_compute_new_freq;
    bench_dispatch_tick_staggered;
    bench_web_due;
  ]

(* Paths whose steady state must not allocate, each tied to the statically
   annotated hot root it exercises (the key [analyze_main --alloc-roots]
   prints).  The consistency test diffs the two sides: a root without a
   measuring bench and a bench without a proving root both fail, so the
   static prover and this dynamic meter can never drift apart.  words/op
   below the epsilon is measurement noise (the meter's own constant boxes
   amortised over the op count), not a per-op allocation. *)
let zero_alloc_roots =
  [
    ("host/dispatch-tick", "Host.dispatch_tick");
    ("host/dispatch-tick-capped", "Host.dispatch_tick");
    ("host/dispatch-tick-dense", "Host.dispatch_tick");
    ("host/sample-tick", "Host.sample");
    ("host/dispatch-tick-2core", "Host.dispatch_tick");
    ("host/sample-tick-2core", "Host.sample");
    ("sim/heap-rearm", "Simulator.rearm");
    ("sim/heap-pop", "Simulator.pop");
    ("power/record-busy", "Power.Meter.record_busy");
    ("series/add-cell", "Series.add_cell");
    ("openloop/step", "Open_loop.step");
    ("credit/pick", "Sched_credit.pick");
    ("credit/charge", "Sched_credit.charge");
    ("credit/pick-dense", "Sched_credit.pick");
    ("credit/account", "Sched_credit.on_account_period");
    ("web/advance", "Web_app.advance");
    ("pi/advance", "Pi_app.advance");
    ("web/defer", "Web_app.due");
    ("web/defer", "Web_app.catch_up");
    ("pi/defer", "Pi_app.due");
    ("pi/defer", "Pi_app.catch_up");
    ("host/dispatch-tick-staggered", "Host.dispatch_tick");
    ("host/dispatch-tick-staggered", "Host.advance_due");
    ("host/dispatch-tick-staggered", "Sched_credit.wake_changed");
    ("web/due", "Web_app.due");
    ("web/due", "Web_app.walk");
    ("pas/window", "Pas_sched.evaluate");
    ("governor/ondemand", "Ondemand.observe");
    ("governor/stable-ondemand", "Stable_ondemand.observe");
    ("governor/conservative", "Conservative.observe");
  ]

let zero_alloc_names =
  List.fold_left
    (fun names (bench, _) -> if List.mem bench names then names else names @ [ bench ])
    [] zero_alloc_roots
let zero_alloc_epsilon = 0.01

let results_json results =
  let result r =
    Json.Obj
      [
        ("name", Json.Str r.name);
        ("ops", Json.Num (float_of_int r.ops));
        ("ns_per_op", Json.fixed 1 r.ns_per_op);
        ("words_per_op", Json.fixed 4 r.words_per_op);
      ]
  in
  Json.to_string
    (Json.Obj
       [ ("schema", Json.Str "dvfs-microbench/1"); ("results", Json.Arr (List.map result results)) ])
  ^ "\n"

let run_benches ~out ~check =
  if Analysis.Config.enabled () then
    print_endline
      "note: the invariant sanitizer is enabled (DVFS_SANITIZE); words/op includes its checks";
  let results = List.map (fun b -> b ()) all_benches in
  Printf.printf "%-28s %12s %12s\n" "benchmark" "ns/op" "words/op";
  List.iter
    (fun r -> Printf.printf "%-28s %12.1f %12.4f\n" r.name r.ns_per_op r.words_per_op)
    results;
  (match out with
  | Some path ->
      Out_channel.with_open_text path (fun oc -> output_string oc (results_json results));
      Printf.printf "wrote %s\n" path
  | None -> ());
  if check then begin
    let offenders =
      List.filter
        (fun r -> List.mem r.name zero_alloc_names && r.words_per_op > zero_alloc_epsilon)
        results
    in
    if offenders <> [] then begin
      List.iter
        (fun r ->
          Printf.eprintf "FAIL %s allocates %.4f words/op (limit %.4f)\n" r.name
            r.words_per_op zero_alloc_epsilon)
        offenders;
      exit 1
    end;
    Printf.printf "zero-alloc check passed (%s)\n" (String.concat ", " zero_alloc_names)
  end

(* ------------------------------------------------------------------ *)
(* Manifest regression gate *)

let compare_manifests ~baseline_path ~current_path ~tolerance =
  let module M = Runner.Manifest in
  let load path =
    try M.load path with
    | M.Parse_error msg ->
        Printf.eprintf "error: %s: %s\n" path msg;
        exit 2
    | Sys_error msg ->
        Printf.eprintf "error: %s\n" msg;
        exit 2
  in
  let baseline = load baseline_path and current = load current_path in
  Printf.printf "baseline %s (%s): total %.3fs, %.1f MB alloc\n" baseline_path
    baseline.M.schema baseline.M.total_seconds (M.total_alloc_mb baseline);
  Printf.printf "current  %s (%s): total %.3fs, %.1f MB alloc\n" current_path
    current.M.schema current.M.total_seconds (M.total_alloc_mb current);
  match M.diff ~tolerance ~baseline ~current () with
  | [] -> Printf.printf "no regression beyond %.2fx tolerance\n" tolerance
  | regressions ->
      List.iter
        (fun r -> Format.printf "REGRESSION %a@." M.pp_regression r)
        regressions;
      Printf.eprintf "%d metric(s) regressed beyond %.2fx tolerance\n"
        (List.length regressions) tolerance;
      exit 1

(* ------------------------------------------------------------------ *)
(* CLI *)

let usage () =
  prerr_endline
    "usage: micro run [--out FILE] [--check]\n\
    \       micro roots\n\
    \       micro compare BASELINE.json CURRENT.json [--tolerance T]";
  exit 2

let () =
  match Array.to_list Sys.argv with
  | [ _; "roots" ] ->
      (* The dynamic half of the zero-alloc consistency contract: the hot
         root keys this binary's --check gate measures, in the same
         one-per-line form analyze_main --alloc-roots prints. *)
      List.iter print_endline
        (List.sort_uniq String.compare (List.map snd zero_alloc_roots))
  | _ :: "run" :: rest ->
      let rec parse out check = function
        | [] -> run_benches ~out ~check
        | "--out" :: path :: rest -> parse (Some path) check rest
        | "--check" :: rest -> parse out true rest
        | _ -> usage ()
      in
      parse None false rest
  | _ :: "compare" :: baseline_path :: current_path :: rest ->
      let tolerance =
        match rest with
        | [] -> 1.5
        | [ "--tolerance"; t ] -> (
            match float_of_string_opt t with
            | Some f when f >= 1.0 -> f
            | Some _ | None ->
                prerr_endline "error: --tolerance must be a number >= 1.0";
                exit 2)
        | _ -> usage ()
      in
      compare_manifests ~baseline_path ~current_path ~tolerance
  | _ -> usage ()
