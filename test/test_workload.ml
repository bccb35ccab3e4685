(* Tests for workloads: the abstract interface, pi-app, web-app (httperf
   model) and the phase-schedule builders. *)

module Workload = Workloads.Workload
module Pi_app = Workloads.Pi_app
module Web_app = Workloads.Web_app
module Phases = Workloads.Phases

let check_float = Alcotest.(check (float 1e-9))
let check_float_eps eps = Alcotest.(check (float eps))
let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let qtest ?(count = 100) name gen prop =
  QCheck_alcotest.to_alcotest (QCheck.Test.make ~count ~name gen prop)

let ms = Sim_time.of_ms
let sec = Sim_time.of_sec

(* ------------------------------------------------------------------ *)
(* Workload interface *)

let wl_idle () =
  let w = Workload.idle () in
  check_bool "never runnable" false (Workload.has_work w);
  check_int "consumes nothing" 0
    (Sim_time.to_us (Workload.execute w ~now:Sim_time.zero ~cpu_time:(ms 5) ~speed:1.0))

let wl_busy_loop () =
  let w = Workload.busy_loop () in
  check_bool "always runnable" true (Workload.has_work w);
  check_int "consumes everything" 5_000
    (Sim_time.to_us (Workload.execute w ~now:Sim_time.zero ~cpu_time:(ms 5) ~speed:0.5))

let wl_overconsume_detected () =
  let w =
    Workload.make ~name:"evil"
      ~has_work:(fun () -> true)
      ~execute:(fun ~now:_ ~cpu_time ~speed:_ -> Sim_time.add cpu_time (Sim_time.of_us 1))
      ()
  in
  Alcotest.check_raises "overconsumption"
    (Invalid_argument "Workload.execute: evil consumed more time than offered") (fun () ->
      ignore (Workload.execute w ~now:Sim_time.zero ~cpu_time:(ms 1) ~speed:1.0))

let wl_bad_speed () =
  let w = Workload.busy_loop () in
  Alcotest.check_raises "speed" (Invalid_argument "Workload.execute: speed must be positive")
    (fun () -> ignore (Workload.execute w ~now:Sim_time.zero ~cpu_time:(ms 1) ~speed:0.0))

(* ------------------------------------------------------------------ *)
(* Pi_app *)

(* Drive a pi-app by hand: advance and execute in fixed ticks at the given
   speed until it finishes or [limit] elapses; returns elapsed seconds. *)
let drive_pi ?w pi ~speed ~limit =
  let w = match w with Some w -> w | None -> Pi_app.workload pi in
  let tick = ms 1 in
  let rec loop now =
    if Pi_app.finished pi then Sim_time.to_sec now
    else if Sim_time.compare now limit > 0 then Sim_time.to_sec now
    else begin
      Workload.advance w ~now ~dt:tick;
      if Workload.has_work w then ignore (Workload.execute w ~now ~cpu_time:tick ~speed);
      loop (Sim_time.add now tick)
    end
  in
  loop Sim_time.zero

let pi_completes_at_full_speed () =
  let pi = Pi_app.create ~work:0.5 () in
  let elapsed = drive_pi pi ~speed:1.0 ~limit:(sec 2) in
  check_bool "finished" true (Pi_app.finished pi);
  check_float_eps 0.01 "took ~work seconds" 0.5 elapsed;
  match Pi_app.execution_time pi with
  | Some t -> check_float_eps 0.01 "execution_time" 0.5 (Sim_time.to_sec t)
  | None -> Alcotest.fail "no execution time"

let pi_scales_with_speed () =
  let pi = Pi_app.create ~work:0.5 () in
  let elapsed = drive_pi pi ~speed:0.5 ~limit:(sec 3) in
  check_float_eps 0.01 "twice as long at half speed" 1.0 elapsed

let pi_duty_cycle_limits () =
  let pi = Pi_app.create ~duty_cycle:0.25 ~work:0.25 () in
  let elapsed = drive_pi pi ~speed:1.0 ~limit:(sec 5) in
  (* 0.25 work at 25% duty: needs ~1s of wall time. *)
  check_float_eps 0.05 "duty-limited" 1.0 elapsed

let pi_tracking () =
  let pi = Pi_app.create ~work:1.0 () in
  check_float "total" 1.0 (Pi_app.total_work pi);
  check_float "remaining" 1.0 (Pi_app.remaining_work pi);
  check_bool "not started" true (Pi_app.start_time pi = None);
  check_bool "no exec time yet" true (Pi_app.execution_time pi = None);
  let w = Pi_app.workload pi in
  ignore (drive_pi ~w pi ~speed:1.0 ~limit:(sec 3));
  check_float "drained" 0.0 (Pi_app.remaining_work pi);
  Workload.flush w;
  Pi_app.reset pi;
  check_float "reset restores work" 1.0 (Pi_app.remaining_work pi);
  check_bool "reset clears times" true (Pi_app.start_time pi = None)

let pi_invalid () =
  Alcotest.check_raises "work" (Invalid_argument "Pi_app.create: work must be positive")
    (fun () -> ignore (Pi_app.create ~work:0.0 ()));
  Alcotest.check_raises "duty" (Invalid_argument "Pi_app.create: duty_cycle must be in (0, 1]")
    (fun () -> ignore (Pi_app.create ~duty_cycle:1.5 ~work:1.0 ()))

let pi_tiny_residue_finishes =
  qtest "pi-app always finishes, even with awkward work amounts"
    QCheck.(float_range 0.0001 0.01)
    (fun work ->
      let pi = Pi_app.create ~work () in
      ignore (drive_pi pi ~speed:0.73 ~limit:(sec 5));
      Pi_app.finished pi)

(* ------------------------------------------------------------------ *)
(* Web_app *)

let drive_web app ~speed ~ticks ~serve =
  let w = Web_app.workload app in
  let tick = ms 1 in
  let now = ref Sim_time.zero in
  for _ = 1 to ticks do
    Workload.advance w ~now:!now ~dt:tick;
    if serve && Workload.has_work w then
      ignore (Workload.execute w ~now:!now ~cpu_time:tick ~speed);
    now := Sim_time.add !now tick
  done

let web_deterministic_arrivals () =
  let app = Web_app.create ~request_work:0.005 ~rate_schedule:(Phases.constant ~rate:0.1) () in
  drive_web app ~speed:1.0 ~ticks:1000 ~serve:false;
  (* 0.1 work/s for 1 s = 0.1 work = 20 requests of 5 ms. *)
  check_int "injected" 20 (Web_app.injected_requests app);
  check_float_eps 1e-6 "injected work" 0.1 (Web_app.injected_work app);
  check_int "queued" 20 (Web_app.queue_length app)

let web_serves_fifo () =
  let app = Web_app.create ~request_work:0.005 ~rate_schedule:(Phases.constant ~rate:0.1) () in
  drive_web app ~speed:1.0 ~ticks:2000 ~serve:true;
  check_bool "served most" true (Web_app.completed_requests app >= 35);
  check_bool "queue small" true (Web_app.queue_length app <= 2);
  check_float_eps 1e-6 "completed work tracks"
    (float_of_int (Web_app.completed_requests app) *. 0.005)
    (Web_app.completed_work app)

let web_response_times () =
  let app = Web_app.create ~request_work:0.005 ~rate_schedule:(Phases.constant ~rate:0.1) () in
  drive_web app ~speed:1.0 ~ticks:2000 ~serve:true;
  let stats = Web_app.response_times app in
  check_bool "responses recorded" true (Stats.Running.count stats > 0);
  check_bool "responses small under light load" true (Stats.Running.mean stats < 0.5)

let web_overload_queues () =
  let app = Web_app.create ~request_work:0.005 ~rate_schedule:(Phases.constant ~rate:2.0) () in
  drive_web app ~speed:1.0 ~ticks:1000 ~serve:true;
  check_bool "queue grows under overload" true (Web_app.queue_length app > 50)

let web_timeout_expires () =
  let app =
    Web_app.create ~request_work:0.005 ~timeout:(ms 100)
      ~rate_schedule:[ (Sim_time.zero, 0.5); (ms 500, 0.0) ]
      ()
  in
  (* Inject without serving: after the schedule goes quiet, everything
     queued times out. *)
  drive_web app ~speed:1.0 ~ticks:1000 ~serve:false;
  check_int "all expired" 0 (Web_app.queue_length app);
  check_bool "counted" true (Web_app.timed_out_requests app > 0)

let web_rate_schedule () =
  let app =
    Web_app.create
      ~rate_schedule:[ (Sim_time.zero, 0.0); (sec 1, 0.3); (sec 2, 0.0) ]
      ()
  in
  check_float "before" 0.0 (Web_app.current_rate app ~now:(ms 500));
  check_float "during" 0.3 (Web_app.current_rate app ~now:(ms 1500));
  check_float "after" 0.0 (Web_app.current_rate app ~now:(sec 3))

let web_poisson_mean () =
  let rng = Prng.create ~seed:5 in
  let app =
    Web_app.create ~request_work:0.005 ~arrival:(Web_app.Poisson rng)
      ~rate_schedule:(Phases.constant ~rate:0.1) ()
  in
  drive_web app ~speed:1.0 ~ticks:60_000 ~serve:false;
  (* Expected: 0.1 * 60 / 0.005 = 1200 requests. *)
  let n = float_of_int (Web_app.injected_requests app) in
  check_bool "poisson mean in range" true (n > 1080.0 && n < 1320.0)

(* The queue is a ring that starts at 16 slots: fill it, serve part of it
   so the head sits mid-ring, then overflow it so it grows while wrapped.
   One request arrives per 1 ms tick (rate 1.0 x 1 ms / 1 ms of work). *)
let web_ring_grows_while_wrapped () =
  let app = Web_app.create ~request_work:0.001 ~rate_schedule:(Phases.constant ~rate:1.0) () in
  let w = Web_app.workload app in
  let tick = ref 0 in
  let advance n =
    for _ = 1 to n do
      incr tick;
      Workload.advance w ~now:(ms !tick) ~dt:(ms 1)
    done
  in
  let serve us = Workload.execute w ~now:(ms !tick) ~cpu_time:(Sim_time.of_us us) ~speed:1.0 in
  advance 16;
  check_int "ring full" 16 (Web_app.queue_length app);
  check_int "partial service" 5_500 (Sim_time.to_us (serve 5_500));
  check_int "five served" 5 (Web_app.completed_requests app);
  advance 10;
  check_int "grown past the ring" 21 (Web_app.queue_length app);
  check_float "queued work keeps the half-served head" 0.0205 (Web_app.queued_work app);
  check_int "drains the rest" 20_500 (Sim_time.to_us (serve 100_000));
  check_int "all served" 26 (Web_app.completed_requests app);
  check_int "empty" 0 (Web_app.queue_length app);
  check_int "one response time each" 26
    (Stats.Running.count (Web_app.response_times app));
  (* Request 6 arrived at 6 ms and was finished by the serve at 26 ms. *)
  check_float "longest wait" 0.020
    (Stats.Running.max (Web_app.response_times app))

let web_invalid () =
  Alcotest.check_raises "unsorted"
    (Invalid_argument "Web_app.create: schedule must be sorted strictly by time") (fun () ->
      ignore (Web_app.create ~rate_schedule:[ (sec 2, 0.1); (sec 1, 0.2) ] ()));
  Alcotest.check_raises "negative rate" (Invalid_argument "Web_app.create: negative rate")
    (fun () -> ignore (Web_app.create ~rate_schedule:[ (sec 1, -0.5) ] ()));
  Alcotest.check_raises "request work"
    (Invalid_argument "Web_app.create: request_work must be positive") (fun () ->
      ignore (Web_app.create ~request_work:0.0 ~rate_schedule:[] ()));
  Alcotest.check_raises "timeout" (Invalid_argument "Web_app.create: zero timeout") (fun () ->
      ignore (Web_app.create ~timeout:Sim_time.zero ~rate_schedule:[] ()))

let web_conservation =
  qtest "injected work = completed + queued, up to one in-service request"
    QCheck.(float_range 0.05 1.5)
    (fun rate ->
      let app = Web_app.create ~rate_schedule:(Phases.constant ~rate) () in
      drive_web app ~speed:1.0 ~ticks:2_000 ~serve:true;
      let injected = Web_app.injected_work app in
      let accounted = Web_app.completed_work app +. Web_app.queued_work app in
      (* The head request may be partially served: its progress is in
         neither bucket, so the gap is bounded by one request's work. *)
      injected -. accounted >= -1e-9 && injected -. accounted <= 0.005 +. 1e-9)

(* ------------------------------------------------------------------ *)
(* Closed-loop clients *)

let closed_loop_invalid () =
  Alcotest.check_raises "clients" (Invalid_argument "Closed_loop.create: clients must be positive")
    (fun () -> ignore (Workloads.Closed_loop.create ~clients:0 ~think_time:1.0 ~request_work:0.01 ()));
  Alcotest.check_raises "think"
    (Invalid_argument "Closed_loop.create: think_time must be non-negative") (fun () ->
      ignore (Workloads.Closed_loop.create ~clients:1 ~think_time:(-1.0) ~request_work:0.01 ()))

let closed_loop_offered () =
  let cl = Workloads.Closed_loop.create ~clients:4 ~think_time:2.0 ~request_work:0.01 () in
  check_float_eps 1e-9 "offered load" 0.02 (Workloads.Closed_loop.offered_load cl);
  (* Zero think time is legal (saturated clients) and offers unbounded load. *)
  let sat = Workloads.Closed_loop.create ~clients:2 ~think_time:0.0 ~request_work:0.01 () in
  check_bool "saturated offered load" true
    (Workloads.Closed_loop.offered_load sat = infinity)

(* Drive a closed loop by hand at 1 ms ticks and full speed. *)
let drive_closed cl ~ticks =
  let w = Workloads.Closed_loop.workload cl in
  let tick = ms 1 in
  let now = ref Sim_time.zero in
  for _ = 1 to ticks do
    Workload.advance w ~now:!now ~dt:tick;
    if Workload.has_work w then ignore (Workload.execute w ~now:!now ~cpu_time:tick ~speed:1.0);
    now := Sim_time.add !now tick
  done

let closed_loop_saturated () =
  (* think_time = 0: every completion resubmits instantly, so the server
     never idles and throughput is exactly 1 / request_work. *)
  let cl = Workloads.Closed_loop.create ~clients:3 ~think_time:0.0 ~request_work:0.01 () in
  drive_closed cl ~ticks:10_000;
  let served = Workloads.Closed_loop.completed_requests cl in
  (* 10 s of back-to-back 10 ms requests: 1000, minus boundary effects. *)
  check_bool "server never idles" true (served >= 995 && served <= 1000)

let closed_loop_matches_repairman () =
  (* Measured mean response vs the M/M/1//N machine-repairman closed form
     (lib/validate oracle): N = 3, T = 0.3 s, S = 0.03 s gives
     R = 35.9 ms.  300 s of 1 ms ticks ~ 2600 requests; the tolerance is
     15% relative + 2 ms for tick quantisation (arrivals and completions
     are only visible at tick boundaries). *)
  let clients = 3 and think_time = 0.3 and service_time = 0.03 in
  let cl =
    Workloads.Closed_loop.create ~seed:97 ~clients ~think_time ~request_work:service_time ()
  in
  drive_closed cl ~ticks:300_000;
  let oracle = Validate.Oracle.machine_repairman ~clients ~think_time ~service_time in
  let measured = Stats.Running.mean (Workloads.Closed_loop.response_times cl) in
  let slack = (0.15 *. oracle.Validate.Oracle.response) +. 0.002 in
  check_bool
    (Printf.sprintf "measured %.4f vs analytic %.4f" measured oracle.Validate.Oracle.response)
    true
    (Float.abs (measured -. oracle.Validate.Oracle.response) <= slack);
  (* Throughput must match too (Little's law on the same model). *)
  let x_measured = float_of_int (Workloads.Closed_loop.completed_requests cl) /. 300.0 in
  check_bool "throughput near analytic" true
    (Float.abs (x_measured -. oracle.Validate.Oracle.throughput)
    <= 0.1 *. oracle.Validate.Oracle.throughput)

let closed_loop_self_throttles () =
  let cl = Workloads.Closed_loop.create ~clients:2 ~think_time:0.5 ~request_work:0.005 () in
  let w = Workloads.Closed_loop.workload cl in
  let tick = ms 1 in
  let now = ref Sim_time.zero in
  while Sim_time.to_sec !now < 60.0 do
    Workload.advance w ~now:!now ~dt:tick;
    if Workload.has_work w then ignore (Workload.execute w ~now:!now ~cpu_time:tick ~speed:1.0);
    now := Sim_time.add !now tick
  done;
  let served = Workloads.Closed_loop.completed_requests cl in
  (* 2 clients cycling every ~0.505 s over 60 s: ~230 requests. *)
  check_bool "served a plausible count" true (served > 150 && served < 300);
  let stats = Workloads.Closed_loop.response_times cl in
  (* With a dedicated CPU, response ~ service time (5 ms) + tick quantisation. *)
  check_bool "fast responses" true (Stats.Running.mean stats < 0.01)

(* ------------------------------------------------------------------ *)
(* Markov-modulated load *)

let markov_starts_off () =
  let m = Workloads.Markov_load.create ~on_rate:0.5 ~off_rate:0.0 ~mean_on:10.0 ~mean_off:10.0 () in
  check_bool "starts off" true (Workloads.Markov_load.state_at m ~now:Sim_time.zero = `Off)

let markov_invalid () =
  Alcotest.check_raises "rate" (Invalid_argument "Markov_load.create: negative rate") (fun () ->
      ignore
        (Workloads.Markov_load.create ~on_rate:(-1.0) ~off_rate:0.0 ~mean_on:1.0 ~mean_off:1.0 ()));
  Alcotest.check_raises "sojourn"
    (Invalid_argument "Markov_load.create: sojourn means must be positive") (fun () ->
      ignore (Workloads.Markov_load.create ~on_rate:1.0 ~off_rate:0.0 ~mean_on:0.0 ~mean_off:1.0 ()))

let markov_flips_states () =
  let m =
    Workloads.Markov_load.create ~seed:3 ~on_rate:0.5 ~off_rate:0.0 ~mean_on:2.0 ~mean_off:2.0 ()
  in
  ignore (Workloads.Markov_load.state_at m ~now:(sec 200));
  check_bool "many flips over 100 mean sojourns" true (Workloads.Markov_load.transitions m > 20)

let markov_long_run_rate () =
  (* With equal sojourn means, the long-run injected rate tends to the
     average of the two state rates. *)
  let m =
    Workloads.Markov_load.create ~seed:5 ~on_rate:0.4 ~off_rate:0.0 ~mean_on:5.0 ~mean_off:5.0 ()
  in
  let w = Workloads.Markov_load.workload m ~request_work:0.005 in
  let tick = ms 10 in
  let horizon = 4_000.0 in
  let now = ref Sim_time.zero in
  while Sim_time.to_sec !now < horizon do
    Workload.advance w ~now:!now ~dt:tick;
    if Workload.has_work w then ignore (Workload.execute w ~now:!now ~cpu_time:tick ~speed:1.0);
    now := Sim_time.add !now tick
  done;
  let mean_rate = Workloads.Markov_load.injected_work m /. horizon in
  check_bool "long-run rate near 0.2"
    true
    (mean_rate > 0.15 && mean_rate < 0.25);
  (* Everything injected was served (capacity far exceeds demand). *)
  check_float_eps 0.01 "conservation"
    (Workloads.Markov_load.injected_work m)
    (Workloads.Markov_load.completed_work m +. Workloads.Markov_load.queued_work m)

(* ------------------------------------------------------------------ *)
(* Phases *)

let phases_exact_rate () =
  check_float "20%" 0.2 (Phases.exact_rate ~credit_pct:20.0);
  Alcotest.check_raises "range" (Invalid_argument "Phases.exact_rate: credit out of [0, 100]")
    (fun () -> ignore (Phases.exact_rate ~credit_pct:120.0))

let phases_thrashing () =
  check_float "default x3" 0.6 (Phases.thrashing_rate ~credit_pct:20.0 ());
  check_float "custom" 1.0 (Phases.thrashing_rate ~factor:5.0 ~credit_pct:20.0 ());
  Alcotest.check_raises "factor" (Invalid_argument "Phases.thrashing_rate: factor must exceed 1")
    (fun () -> ignore (Phases.thrashing_rate ~factor:1.0 ~credit_pct:20.0 ()))

let phases_three_phase () =
  let schedule = Phases.three_phase ~active_from:(sec 10) ~active_until:(sec 20) ~rate:0.5 in
  check_int "steps" 3 (List.length schedule);
  let app = Web_app.create ~rate_schedule:schedule () in
  check_float "inactive" 0.0 (Web_app.current_rate app ~now:(sec 5));
  check_float "active" 0.5 (Web_app.current_rate app ~now:(sec 15));
  check_float "inactive again" 0.0 (Web_app.current_rate app ~now:(sec 25))

let phases_three_phase_from_zero () =
  let schedule = Phases.three_phase ~active_from:Sim_time.zero ~active_until:(sec 5) ~rate:0.5 in
  check_int "two steps" 2 (List.length schedule)

let phases_invalid_window () =
  Alcotest.check_raises "empty window"
    (Invalid_argument "Phases.three_phase: empty active window") (fun () ->
      ignore (Phases.three_phase ~active_from:(sec 5) ~active_until:(sec 5) ~rate:0.1))

let phases_steps_validates () =
  Alcotest.check_raises "delegates validation"
    (Invalid_argument "Web_app.create: negative rate") (fun () ->
      ignore (Phases.steps [ (sec 1, -1.0) ]))

(* ------------------------------------------------------------------ *)
(* Deferral: a deferring web-app or pi-app against a second instance of
   the same workload advanced on every tick ({!Every_tick.wrap}). *)

let opt_us = function Some t -> string_of_int (Sim_time.to_us t) | None -> "-"

let observe_web app w ~now =
  let rt = Web_app.response_times app in
  Printf.sprintf "has_work=%b queue=%d queued=%h injected=%d completed=%d timed_out=%d \
                  injected_work=%h completed_work=%h responses=%d/%h/%h rate=%h"
    (Workload.has_work w) (Web_app.queue_length app) (Web_app.queued_work app)
    (Web_app.injected_requests app) (Web_app.completed_requests app)
    (Web_app.timed_out_requests app) (Web_app.injected_work app) (Web_app.completed_work app)
    (Stats.Running.count rt) (Stats.Running.mean rt) (Stats.Running.max rt)
    (Web_app.current_rate app ~now)

let observe_pi app w ~now:_ =
  Printf.sprintf "has_work=%b remaining=%h finished=%b start=%s finish=%s"
    (Workload.has_work w) (Pi_app.remaining_work app) (Pi_app.finished app)
    (opt_us (Pi_app.start_time app)) (opt_us (Pi_app.finish_time app))

(* One random interleaving of contiguous ticks, gaps, step changes,
   repeated instants, executes, flushes and (for pi) resets, driving both
   instances; after every step the observations must agree, and after a
   flush so must the private accumulator, bit for bit. *)
let drive_deferral ~seed ~rng ~deferring ~reference ~observe ~accumulator ~reset =
  let int n = Random.State.int rng n in
  let now = ref Sim_time.zero and dt = ref (Sim_time.of_ms 1) in
  let fail what a b =
    QCheck.Test.fail_reportf "seed %d at %d us: %s\n  deferring %s\n  reference %s" seed
      (Sim_time.to_us !now) what a b
  in
  let agree what =
    let a = observe `Deferring ~now:!now and b = observe `Reference ~now:!now in
    if not (String.equal a b) then fail what a b
  in
  let tick () =
    Workload.advance deferring ~now:!now ~dt:!dt;
    Workload.advance reference ~now:!now ~dt:!dt
  in
  for _ = 1 to 1_500 do
    let what =
      match int 100 with
      | k when k < 60 ->
          now := Sim_time.add !now !dt;
          tick ();
          "tick"
      | k when k < 63 ->
          now := Sim_time.add !now (Sim_time.of_us ((2 + int 5) * Sim_time.to_us !dt));
          tick ();
          "gap"
      | k when k < 65 ->
          dt := Sim_time.of_us (List.nth [ 500; 1_000; 1_500; 2_000 ] (int 4));
          now := Sim_time.add !now !dt;
          tick ();
          "step change"
      | k when k < 67 ->
          tick ();
          "repeated instant"
      | k when k < 87 ->
          let cpu_time = Sim_time.of_us (int 3_000) in
          let speed = 0.3 +. (0.1 *. float_of_int (int 8)) in
          let a = Workload.execute deferring ~now:!now ~cpu_time ~speed in
          let b = Workload.execute reference ~now:!now ~cpu_time ~speed in
          if not (Sim_time.equal a b) then
            fail "execute" (string_of_int (Sim_time.to_us a)) (string_of_int (Sim_time.to_us b));
          "execute"
      | k when k < 97 -> "query"
      | k when k < 99 || not (Option.is_some reset) ->
          Workload.flush deferring;
          let a = accumulator `Deferring and b = accumulator `Reference in
          if not (String.equal a b) then fail "accumulator after flush" a b;
          "flush"
      | _ ->
          Option.iter (fun r -> r ()) reset;
          "reset"
    in
    agree what
  done;
  true

let web_deferral_run seed =
  let rng = Random.State.make [| seed |] in
  let int n = Random.State.int rng n and chance p = Random.State.float rng 1.0 < p in
  let request_work = List.nth [ 0.001; 0.005; 0.0123; 0.02 ] (int 4) in
  let timeout = if chance 0.3 then None else Some (Sim_time.of_us (1 + int 400_000)) in
  let poisson = if chance 0.3 then Some (int 1_000_000) else None in
  let rate () =
    match int 4 with
    | 0 -> 0.0
    | 1 -> 1e-7 *. float_of_int (1 + int 10_000)
    | _ -> 0.005 +. (0.001 *. float_of_int (int 1_500))
  in
  let rec schedule t n =
    if n = 0 then []
    else
      let rate = rate () in
      let next =
        Sim_time.add t
          (if chance 0.5 then Sim_time.of_ms (1 + int 300) else Sim_time.of_us (1 + int 300_000))
      in
      (t, rate) :: schedule next (n - 1)
  in
  let rate_schedule = schedule (Sim_time.of_us (if chance 0.5 then 0 else int 3_000)) (int 6) in
  let make () =
    let arrival =
      match poisson with
      | Some s -> Web_app.Poisson (Prng.create ~seed:s)
      | None -> Web_app.Deterministic
    in
    Web_app.create ~request_work ~arrival ?timeout ~rate_schedule ()
  in
  let a = make () and b = make () in
  let wa = Web_app.workload a and wb = Every_tick.wrap (Web_app.workload b) in
  let pick = function `Deferring -> (a, wa) | `Reference -> (b, wb) in
  drive_deferral ~seed ~rng ~deferring:wa ~reference:wb
    ~observe:(fun side ~now -> let app, w = pick side in observe_web app w ~now)
    ~accumulator:(fun side -> Printf.sprintf "carry=%h" (Web_app.carry (fst (pick side))))
    ~reset:None

let pi_deferral_run seed =
  let rng = Random.State.make [| seed |] in
  let int n = Random.State.int rng n in
  let duty_cycle =
    match int 4 with
    | 0 -> 0.0001 *. float_of_int (1 + int 10)
    | _ -> 0.01 *. float_of_int (1 + int 100)
  in
  let work = 0.001 *. float_of_int (1 + int 500) in
  let a = Pi_app.create ~duty_cycle ~work () and b = Pi_app.create ~duty_cycle ~work () in
  let wa = Pi_app.workload a and wb = Every_tick.wrap (Pi_app.workload b) in
  let pick = function `Deferring -> (a, wa) | `Reference -> (b, wb) in
  drive_deferral ~seed ~rng ~deferring:wa ~reference:wb
    ~observe:(fun side ~now -> let app, w = pick side in observe_pi app w ~now)
    ~accumulator:(fun side -> string_of_int (Sim_time.to_us (Pi_app.tokens (fst (pick side)))))
    ~reset:
      (Some
         (fun () ->
           Workload.flush wa;
           Pi_app.reset a;
           Pi_app.reset b))

(* The mechanism itself, on a workload that records every advance and
   catch-up: deferred ticks are caught up in one call, naming the last
   deferred instant, the step and the count, before the due tick, an
   execute, a flush, or a tick that breaks the run (a gap or a changed
   step) — never covering an instant the caller did not tick. *)
let deferral_replays_own_instants () =
  let seen = ref [] in
  let w =
    Workload.make ~name:"recorder"
      ~advance:(fun ~now ~dt ->
        seen := Printf.sprintf "advance %d/%d" (Sim_time.to_us now) (Sim_time.to_us dt) :: !seen)
      ~defer:
        ( (fun ~now ~dt -> Sim_time.add now (Sim_time.of_us (5 * Sim_time.to_us dt))),
          fun ~now ~dt ~ticks ->
            seen :=
              Printf.sprintf "catch-up %d/%d x%d" (Sim_time.to_us now) (Sim_time.to_us dt) ticks
              :: !seen )
      ~has_work:(fun () -> false)
      ~execute:(fun ~now:_ ~cpu_time:_ ~speed:_ -> Sim_time.zero)
      ()
  in
  let tick t = Workload.advance w ~now:(ms t) ~dt:(ms 1) in
  let expect label l =
    Alcotest.(check (list string)) label l (List.rev !seen);
    seen := []
  in
  List.iter tick [ 1; 2; 3 ];
  expect "first tick real, next two deferred" [ "advance 1000/1000" ];
  List.iter tick [ 4; 5; 6 ];
  expect "due tick catches up the run first" [ "catch-up 5000/1000 x4"; "advance 6000/1000" ];
  List.iter tick [ 7; 8 ];
  ignore (Workload.execute w ~now:(ms 8) ~cpu_time:(ms 1) ~speed:1.0);
  expect "execute catches up" [ "catch-up 8000/1000 x2" ];
  tick 9;
  tick 11;
  expect "a gap catches up, then advances for real" [ "catch-up 9000/1000 x1"; "advance 11000/1000" ];
  tick 12;
  Workload.advance w ~now:(ms 14) ~dt:(ms 2);
  expect "a changed step catches up, then advances for real"
    [ "catch-up 12000/1000 x1"; "advance 14000/2000" ];
  Workload.advance w ~now:(ms 16) ~dt:(ms 2);
  Workload.flush w;
  expect "flush catches up" [ "catch-up 16000/2000 x1" ];
  Workload.advance w ~now:(ms 18) ~dt:(ms 2);
  expect "after a flush the next tick is real" [ "advance 18000/2000" ]

let web_deferral =
  qtest ~count:300 "deferring web-app matches every-tick advance" QCheck.(int_bound 1_000_000)
    web_deferral_run

let pi_deferral =
  qtest ~count:300 "deferring pi-app matches every-tick advance" QCheck.(int_bound 1_000_000)
    pi_deferral_run

(* The walk record against the plain per-tick loop.  A model keeps the
   fractional carry as an every-tick [advance] would: at each tick it adds
   [rate * dt / request_work] for the rate in force and injects the whole
   part.  The web-app behind a deferring workload must inject the same
   number of requests by every tick (executes and timeouts, which drive
   its due tick earlier, never touch the carry), and its carry must equal
   the model's bit for bit once the workload has replayed its deferred
   ticks (after an execute or a flush).  Between those, the [carry]
   accessor may lag, but only to the model's value at an instant already
   ticked since the last replay; reading it must change nothing. *)
let walk_record_run seed =
  let rng = Random.State.make [| seed |] in
  let int n = Random.State.int rng n and chance p = Random.State.float rng 1.0 < p in
  let request_work = List.nth [ 0.001; 0.005; 0.0123; 0.02; 0.0007 ] (int 5) in
  let timeout = if chance 0.3 then None else Some (Sim_time.of_us (1 + int 200_000)) in
  let rate () =
    match int 5 with
    | 0 -> 0.0
    | 1 -> 1e-7 *. float_of_int (1 + int 10_000)
    | 2 -> 0.0001 *. float_of_int (1 + int 100)
    | _ -> 0.005 +. (0.001 *. float_of_int (int 1_500))
  in
  let rec schedule t n =
    if n = 0 then []
    else
      let next =
        Sim_time.add t
          (if chance 0.5 then Sim_time.of_ms (1 + int 300) else Sim_time.of_us (1 + int 300_000))
      in
      (t, rate ()) :: schedule next (n - 1)
  in
  let rate_schedule = schedule (Sim_time.of_us (if chance 0.5 then 0 else int 3_000)) (1 + int 6) in
  let app = Web_app.create ~request_work ?timeout ~rate_schedule () in
  let w = Web_app.workload app in
  (* The model. *)
  let carry = ref 0.0 and injected = ref 0 and since_replay = ref [ 0.0 ] in
  let model_tick ~now ~dt =
    let rate =
      List.fold_left (fun r (at, x) -> if Sim_time.compare at now <= 0 then x else r) 0.0 rate_schedule
    in
    if rate > 0.0 then begin
      let expected = rate *. (float_of_int (Sim_time.to_us dt) /. 1e6) /. request_work in
      carry := !carry +. expected;
      let n = int_of_float !carry in
      carry := !carry -. float_of_int n;
      injected := !injected + n
    end;
    since_replay := !carry :: !since_replay
  in
  let now = ref Sim_time.zero and dt = ref (Sim_time.of_ms 1) in
  let fail what a b =
    QCheck.Test.fail_reportf "seed %d at %d us after %s: web-app %s, model %s" seed
      (Sim_time.to_us !now) what a b
  in
  let exact what =
    if Web_app.carry app <> !carry then
      fail what (Printf.sprintf "carry %h" (Web_app.carry app)) (Printf.sprintf "carry %h" !carry);
    since_replay := [ !carry ]
  in
  let tick () =
    Workload.advance w ~now:!now ~dt:!dt;
    model_tick ~now:!now ~dt:!dt
  in
  for _ = 1 to 2_000 do
    let what =
      match int 100 with
      | k when k < 70 ->
          now := Sim_time.add !now !dt;
          tick ();
          "tick"
      | k when k < 72 ->
          now := Sim_time.add !now (Sim_time.of_us ((2 + int 5) * Sim_time.to_us !dt));
          tick ();
          "gap"
      | k when k < 74 ->
          dt := Sim_time.of_us (List.nth [ 250; 500; 1_000; 2_000 ] (int 4));
          now := Sim_time.add !now !dt;
          tick ();
          "step change"
      | k when k < 75 ->
          tick ();
          "repeated instant"
      | k when k < 87 ->
          ignore
            (Workload.execute w ~now:!now ~cpu_time:(Sim_time.of_us (int 3_000))
               ~speed:(0.3 +. (0.1 *. float_of_int (int 8))));
          exact "execute";
          "execute"
      | k when k < 90 ->
          Workload.flush w;
          exact "flush";
          "flush"
      | _ ->
          let c = Web_app.carry app in
          if not (List.exists (fun m -> m = c) !since_replay) then
            fail "carry read" (Printf.sprintf "carry %h" c)
              (Printf.sprintf "carries since the last replay [%s]"
                 (String.concat "; " (List.map (Printf.sprintf "%h") !since_replay)));
          "carry read"
    in
    if Web_app.injected_requests app <> !injected then
      fail what
        (Printf.sprintf "%d injected" (Web_app.injected_requests app))
        (Printf.sprintf "%d injected" !injected)
  done;
  Workload.flush w;
  exact "final flush";
  true

let walk_record =
  qtest ~count:300 "walk record matches the per-tick carry loop" QCheck.(int_bound 1_000_000)
    walk_record_run

(* The segment cursor only speeds the lookup up: [current_rate] stays the
   schedule's value at any instant, earlier ones included. *)
let web_current_rate_any_instant () =
  let schedule = [ (ms 10, 0.1); (ms 20, 0.2); (ms 35, 0.0); (ms 50, 0.4) ] in
  let app = Web_app.create ~rate_schedule:schedule () in
  let w = Web_app.workload app in
  let expect t =
    List.fold_left (fun r (at, rate) -> if Sim_time.compare at t <= 0 then rate else r) 0.0 schedule
  in
  List.iter
    (fun t ->
      let t = ms t in
      Workload.advance w ~now:t ~dt:(ms 1);
      List.iter
        (fun q ->
          let q = ms q in
          check_float (Printf.sprintf "rate at %d ms" (Sim_time.to_us q / 1000)) (expect q)
            (Web_app.current_rate app ~now:q))
        [ 0; 9; 10; 19; 20; 34; 35; 49; 50; 70 ])
    [ 1; 15; 40; 60; 5 ]

let () =
  Alcotest.run "workloads"
    [
      ( "workload",
        [
          Alcotest.test_case "idle" `Quick wl_idle;
          Alcotest.test_case "busy loop" `Quick wl_busy_loop;
          Alcotest.test_case "overconsume detected" `Quick wl_overconsume_detected;
          Alcotest.test_case "bad speed" `Quick wl_bad_speed;
        ] );
      ( "pi_app",
        [
          Alcotest.test_case "completes at full speed" `Quick pi_completes_at_full_speed;
          Alcotest.test_case "scales with speed" `Quick pi_scales_with_speed;
          Alcotest.test_case "duty cycle limits" `Quick pi_duty_cycle_limits;
          Alcotest.test_case "tracking and reset" `Quick pi_tracking;
          Alcotest.test_case "invalid" `Quick pi_invalid;
          pi_tiny_residue_finishes;
        ] );
      ( "web_app",
        [
          Alcotest.test_case "deterministic arrivals" `Quick web_deterministic_arrivals;
          Alcotest.test_case "serves fifo" `Quick web_serves_fifo;
          Alcotest.test_case "response times" `Quick web_response_times;
          Alcotest.test_case "overload queues" `Quick web_overload_queues;
          Alcotest.test_case "timeout expires" `Quick web_timeout_expires;
          Alcotest.test_case "rate schedule" `Quick web_rate_schedule;
          Alcotest.test_case "poisson mean" `Quick web_poisson_mean;
          Alcotest.test_case "ring grows while wrapped" `Quick web_ring_grows_while_wrapped;
          Alcotest.test_case "invalid" `Quick web_invalid;
          Alcotest.test_case "current rate at any instant" `Quick web_current_rate_any_instant;
          web_conservation;
        ] );
      ( "deferral",
        [
          Alcotest.test_case "replays own instants" `Quick deferral_replays_own_instants;
          web_deferral;
          pi_deferral;
          walk_record;
        ] );
      ( "closed_loop",
        [
          Alcotest.test_case "invalid" `Quick closed_loop_invalid;
          Alcotest.test_case "offered load" `Quick closed_loop_offered;
          Alcotest.test_case "self throttles" `Quick closed_loop_self_throttles;
          Alcotest.test_case "saturated clients" `Quick closed_loop_saturated;
          Alcotest.test_case "matches machine repairman" `Quick closed_loop_matches_repairman;
        ] );
      ( "markov",
        [
          Alcotest.test_case "starts off" `Quick markov_starts_off;
          Alcotest.test_case "invalid" `Quick markov_invalid;
          Alcotest.test_case "flips states" `Quick markov_flips_states;
          Alcotest.test_case "long-run rate" `Quick markov_long_run_rate;
        ] );
      ( "phases",
        [
          Alcotest.test_case "exact rate" `Quick phases_exact_rate;
          Alcotest.test_case "thrashing" `Quick phases_thrashing;
          Alcotest.test_case "three phase" `Quick phases_three_phase;
          Alcotest.test_case "three phase from zero" `Quick phases_three_phase_from_zero;
          Alcotest.test_case "invalid window" `Quick phases_invalid_window;
          Alcotest.test_case "steps validates" `Quick phases_steps_validates;
        ] );
    ]
