(* Per-subsystem microbenchmarks with an allocation meter, plus the
   manifest regression gate.

   [micro run] measures each hot path in a tight loop and reports ns/op and
   words/op (from [Gc.allocated_bytes] deltas).  The dispatch-tick and
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
module Smp_host = Hypervisor.Smp_host
module Processor = Cpu_model.Processor
module Sim_time = Sim_engine.Sim_time
module Simulator = Sim_engine.Simulator
module Series = Sim_engine.Series
module Calendar = Sim_engine.Calendar
module Open_loop = Workloads.Open_loop

type result = { name : string; ops : int; ns_per_op : float; words_per_op : float }

let word_bytes = float_of_int (Sys.word_size / 8)

(* Warm up, optionally reset (drop warm-up samples while keeping grown
   storage), then measure a tight loop.  The timer is read outside the
   allocation window so its boxes are not billed to [f]; the meter's own
   constant overhead (a few words) is amortised over [ops]. *)
let measure ~name ~ops ?(warmup = 0) ?reset f =
  for _ = 1 to warmup do
    f ()
  done;
  (match reset with Some r -> r () | None -> ());
  Gc.minor ();
  let t0 = Unix.gettimeofday () in
  let a0 = Gc.allocated_bytes () in
  for _ = 1 to ops do
    f ()
  done;
  let a1 = Gc.allocated_bytes () in
  let t1 = Unix.gettimeofday () in
  {
    name;
    ops;
    ns_per_op = (t1 -. t0) *. 1e9 /. float_of_int ops;
    words_per_op = (a1 -. a0) /. word_bytes /. float_of_int ops;
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

let bench_smp_dispatch_tick () =
  let sim = Simulator.create () in
  let smp = Cpu_model.Smp.create ~cores:2 Cpu_model.Arch.optiplex_755 in
  let scheduler = Sched_credit.create ~host_capacity:2 (busy_domains ()) in
  let host = Smp_host.create ~sim ~smp ~scheduler () in
  measure ~name:"smp/dispatch-tick" ~ops:100_000 ~warmup:1_000 (fun () ->
      Smp_host.Internal.dispatch_tick host ())

let bench_smp_sample_tick () =
  let sim = Simulator.create () in
  let smp = Cpu_model.Smp.create ~cores:2 Cpu_model.Arch.optiplex_755 in
  let scheduler = Sched_credit.create ~host_capacity:2 (busy_domains ()) in
  let host = Smp_host.create ~sim ~smp ~scheduler () in
  let ops = 100_000 in
  measure ~name:"smp/sample-tick" ~ops ~warmup:ops
    ~reset:(fun () -> Smp_host.Internal.reset_series host)
    (fun () -> Smp_host.Internal.sample host ())

(* Steady-state wheel traffic: every op pushes at a cursor that advances 16
   key units and pops the minimum, so occupancy, bucket spread, and heap
   capacities are all constant after warm-up — any words/op left is a real
   per-op allocation in the push/pop paths. *)
let bench_calendar name () =
  let cal = Calendar.create ~key:(fun x -> x) ~cmp:Int.compare in
  let cursor = ref 0 in
  for _ = 1 to 1024 do
    Calendar.push cal (!cursor * 16);
    incr cursor
  done;
  (* The warm-up must lap the whole wheel (256 buckets x 64 ops per bucket)
     so every slot's heap reaches its steady capacity before measuring. *)
  measure ~name ~ops:100_000 ~warmup:40_000 (fun () ->
      Calendar.push cal (!cursor * 16);
      incr cursor;
      ignore (Calendar.pop_exn cal))

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
    bench_smp_dispatch_tick;
    bench_smp_sample_tick;
    bench_calendar "calendar/push";
    bench_calendar "calendar/pop";
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
    ("smp/dispatch-tick", "Smp_host.dispatch_tick");
    ("smp/sample-tick", "Smp_host.sample");
    ("calendar/push", "Calendar.push");
    ("calendar/pop", "Calendar.pop_exn");
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
  let buf = Buffer.create 1024 in
  Buffer.add_string buf "{\n  \"schema\": \"dvfs-microbench/1\",\n  \"results\": [\n";
  List.iteri
    (fun i r ->
      Printf.bprintf buf
        "    {\"name\": \"%s\", \"ops\": %d, \"ns_per_op\": %.1f, \"words_per_op\": %.4f}%s\n"
        r.name r.ops r.ns_per_op r.words_per_op
        (if i = List.length results - 1 then "" else ","))
    results;
  Buffer.add_string buf "  ]\n}\n";
  Buffer.contents buf

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
      let oc = open_out path in
      Fun.protect
        ~finally:(fun () -> close_out oc)
        (fun () -> output_string oc (results_json results));
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
