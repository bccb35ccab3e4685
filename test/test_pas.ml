(* Tests for the paper's contribution: the equations of §4.2, the
   in-hypervisor PAS scheduler, and the user-level implementation variants. *)

module Workload = Workloads.Workload
module Domain = Hypervisor.Domain
module Scheduler = Hypervisor.Scheduler
module Host = Hypervisor.Host
module Processor = Cpu_model.Processor
module Frequency = Cpu_model.Frequency
module Calibration = Cpu_model.Calibration
module Equations = Pas.Equations

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_float = Alcotest.(check (float 1e-9))
let check_float_eps eps = Alcotest.(check (float eps))
let sec = Sim_time.of_sec

let qtest ?(count = 200) name gen prop =
  QCheck_alcotest.to_alcotest (QCheck.Test.make ~count ~name gen prop)

let optiplex = Cpu_model.Arch.optiplex_755
let table = optiplex.Cpu_model.Arch.freq_table

(* ------------------------------------------------------------------ *)
(* Equations *)

let eq_absolute_load () =
  (* The paper's running example: 20% global load at half frequency is a
     10% absolute load. *)
  check_float "paper example" 10.0 (Equations.absolute_load ~global_load:20.0 ~ratio:0.5 ~cf:1.0)

let eq_load_at_roundtrip =
  qtest "absolute_load and load_at are inverse"
    QCheck.(triple (float_range 0.0 100.0) (float_range 0.3 1.0) (float_range 0.7 1.0))
    (fun (load, ratio, cf) ->
      let abs = Equations.absolute_load ~global_load:load ~ratio ~cf in
      Float.abs (Equations.load_at ~absolute_load:abs ~ratio ~cf -. load) < 1e-9)

let eq_compensated_credit () =
  (* §4.2: 20% at ratio 0.5 becomes 40%. *)
  check_float "paper example" 40.0 (Equations.compensated_credit ~initial:20.0 ~ratio:0.5 ~cf:1.0);
  (* Fig. 9: 20% at 1600/2667 MHz becomes ~33%. *)
  check_float_eps 0.05 "fig9 value" 33.3
    (Equations.compensated_credit ~initial:20.0 ~ratio:(1600.0 /. 2667.0) ~cf:1.0)

let eq_compensation_preserves_capacity =
  qtest "compensated credit delivers the initial absolute capacity"
    QCheck.(pair (float_range 1.0 50.0) (float_range 0.3 1.0))
    (fun (credit, ratio) ->
      let cf = 0.95 in
      let compensated = Equations.compensated_credit ~initial:credit ~ratio ~cf in
      (* capacity = credit% x speed; must be invariant. *)
      Float.abs ((compensated *. ratio *. cf) -. credit) < 1e-9)

let eq_times () =
  check_float "eq2" 20.0 (Equations.time_at ~t_max:10.0 ~ratio:0.5 ~cf:1.0);
  check_float "eq3" 5.0 (Equations.time_with_credit ~t_init:10.0 ~c_init:10.0 ~c_new:20.0);
  Alcotest.check_raises "bad credit"
    (Invalid_argument "Equations.time_with_credit: credits must be positive") (fun () ->
      ignore (Equations.time_with_credit ~t_init:1.0 ~c_init:0.0 ~c_new:1.0));
  Alcotest.check_raises "bad speed" (Equations.Invalid_speed { ratio = 0.0; cf = 1.0 })
    (fun () -> ignore (Equations.time_at ~t_max:1.0 ~ratio:0.0 ~cf:1.0));
  (* NaN payloads defeat structural equality, so match by hand. *)
  check_bool "nan speed" true
    (match Equations.compensated_credit ~initial:10.0 ~ratio:Float.nan ~cf:1.0 with
    | (_ : float) -> false
    | exception Equations.Invalid_speed { ratio; cf = _ } -> Float.is_nan ratio)

let eq_compute_new_freq () =
  let cal = Calibration.ideal in
  check_int "idle -> min" 1600 (Equations.compute_new_freq table cal ~absolute_load:0.0);
  check_int "low -> min" 1600 (Equations.compute_new_freq table cal ~absolute_load:30.0);
  check_int "mid (1867/2667 = 70%% capacity)" 1867
    (Equations.compute_new_freq table cal ~absolute_load:65.0);
  check_int "mid-high" 2133 (Equations.compute_new_freq table cal ~absolute_load:75.0);
  check_int "full -> max" 2667 (Equations.compute_new_freq table cal ~absolute_load:99.0);
  check_int "overload -> max" 2667 (Equations.compute_new_freq table cal ~absolute_load:150.0)

let eq_compute_strict_boundary () =
  let cal = Calibration.ideal in
  (* Listing 1.1 uses a strict inequality: a load exactly equal to a level's
     capacity must push to the next level. *)
  let ratio_min = 1600.0 /. 2667.0 in
  check_int "boundary goes up" 1867
    (Equations.compute_new_freq table cal ~absolute_load:(ratio_min *. 100.0))

let eq_can_absorb () =
  let cal = Calibration.ideal in
  check_bool "min absorbs 30" true (Equations.can_absorb table cal 1600 ~absolute_load:30.0);
  check_bool "min rejects 70" false (Equations.can_absorb table cal 1600 ~absolute_load:70.0)

let eq_compute_monotone =
  qtest "chosen frequency is monotone in the load"
    QCheck.(pair (float_range 0.0 100.0) (float_range 0.0 100.0))
    (fun (l1, l2) ->
      let cal = Calibration.ideal in
      let lo = Float.min l1 l2 and hi = Float.max l1 l2 in
      Equations.compute_new_freq table cal ~absolute_load:lo
      <= Equations.compute_new_freq table cal ~absolute_load:hi)

(* ------------------------------------------------------------------ *)
(* PAS scheduler *)

let pas_host domains =
  let sim = Simulator.create () in
  let processor = Processor.create optiplex in
  let pas = Pas.Pas_sched.create ~processor domains in
  let host = Host.create ~sim ~processor ~scheduler:(Pas.Pas_sched.scheduler pas) () in
  (host, processor, pas)

let pas_lowers_frequency_when_idle () =
  let vm = Domain.create ~name:"vm" ~credit_pct:20.0 (Workload.idle ()) in
  let host, processor, pas = pas_host [ vm ] in
  Host.run_for host (sec 2);
  check_int "min frequency" 1600 (Processor.current_freq processor);
  check_bool "evaluations happened" true (Pas.Pas_sched.evaluations pas > 10)

let pas_compensates_credit () =
  (* Thrashing V20 alone: frequency drops to 1600 MHz and the effective
     credit must become 20 / (1600/2667) = 33.3% (cf = 1). *)
  let app = Workloads.Web_app.create ~rate_schedule:(Workloads.Phases.constant ~rate:1.0) () in
  let v20 = Domain.create ~name:"V20" ~credit_pct:20.0 (Workloads.Web_app.workload app) in
  let host, processor, pas = pas_host [ v20 ] in
  Host.run_for host (sec 20);
  check_int "frequency low" 1600 (Processor.current_freq processor);
  check_float_eps 0.1 "compensated credit" (20.0 *. 2667.0 /. 1600.0)
    (Pas.Pas_sched.effective_credit pas v20);
  (* The absolute capacity delivered must match the sold credit. *)
  let abs = Host.series_domain_absolute_load host v20 in
  check_float_eps 0.6 "absolute capacity preserved" 20.0
    (Series.mean_between abs (sec 5) (sec 20))

let pas_raises_frequency_under_load () =
  let app = Workloads.Web_app.create ~rate_schedule:(Workloads.Phases.constant ~rate:0.9) () in
  let hog = Domain.create ~name:"hog" ~credit_pct:90.0 (Workloads.Web_app.workload app) in
  let host, processor, _ = pas_host [ hog ] in
  Host.run_for host (sec 10);
  check_int "max frequency" 2667 (Processor.current_freq processor)

let pas_never_exceeds_absolute_credit () =
  (* "a VM is never given more computing capacity than its allocated
     credit" — even though the host is otherwise idle. *)
  let app = Workloads.Web_app.create ~rate_schedule:(Workloads.Phases.constant ~rate:1.5) () in
  let v20 = Domain.create ~name:"V20" ~credit_pct:20.0 (Workloads.Web_app.workload app) in
  let idle = Domain.create ~name:"V70" ~credit_pct:70.0 (Workload.idle ()) in
  let host, _, _ = pas_host [ v20; idle ] in
  Host.run_for host (sec 20);
  let abs = Host.series_domain_absolute_load host v20 in
  check_bool "capped at the sold capacity" true
    (Series.mean_between abs (sec 5) (sec 20) < 21.0)

let pas_credit_sum_may_exceed_100 () =
  (* §4.2's "important remark": at low frequency the credit sum exceeds
     100% because every domain is rescaled. *)
  let a = Domain.create ~name:"a" ~credit_pct:50.0 (Workload.idle ()) in
  let b = Domain.create ~name:"b" ~credit_pct:50.0 (Workload.idle ()) in
  let host, _, pas = pas_host [ a; b ] in
  Host.run_for host (sec 2);
  let sum = Pas.Pas_sched.effective_credit pas a +. Pas.Pas_sched.effective_credit pas b in
  check_bool "sum above 100" true (sum > 100.0)

let pas_tracks_decisions () =
  let app = Workloads.Web_app.create ~rate_schedule:(Workloads.Phases.constant ~rate:0.2) () in
  let vm = Domain.create ~name:"vm" ~credit_pct:20.0 (Workloads.Web_app.workload app) in
  let host, _, pas = pas_host [ vm ] in
  Host.run_for host (sec 5);
  check_bool "some decisions" true (Pas.Pas_sched.frequency_decisions pas >= 1);
  check_bool "absolute load sane" true
    (Pas.Pas_sched.last_absolute_load pas >= 0.0 && Pas.Pas_sched.last_absolute_load pas <= 100.0)

(* ------------------------------------------------------------------ *)
(* User-level variants *)

(* ------------------------------------------------------------------ *)
(* The allocation-free evaluation window against the reference body in
   window_reference.ml, bit for bit after every window. *)

module Reference = Window_reference

let fail fmt = QCheck.Test.fail_reportf fmt

(* A domain's remaining quota, read through [pick]: with every other domain
   excluded and a slice longer than any quota, a capped domain gets exactly
   its quota (an uncapped one the whole slice), or nothing at 0.  Both
   sides get the same probes, so the pick state they move stays equal. *)
let probe_quota sched domains d =
  let exclude = Scheduler.Mask.of_list (List.filter (fun x -> not (Domain.equal x d)) domains) in
  match sched.Scheduler.pick ~now:Sim_time.zero ~remaining:(sec 1000) ~exclude with
  | Some slice -> Sim_time.to_us slice.Scheduler.max_slice
  | None -> -1

let window_domains () =
  Domain.create ~is_dom0:true ~name:"dom0" ~credit_pct:10.0 (Workload.busy_loop ())
  :: List.mapi
       (fun i credit ->
         Domain.create ~name:(Printf.sprintf "g%d" i) ~credit_pct:credit (Workload.busy_loop ()))
       [ 2.0; 3.5; 0.0; 7.0; 20.0; 33.3 ]

let pas_window_matches_reference (i, samples) =
  let arch = Reference.arches.(i) in
  let domains = window_domains () in
  let processor = Processor.create arch and ref_processor = Processor.create arch in
  let pas = Pas.Pas_sched.create ~processor domains in
  let sched = Pas.Pas_sched.scheduler pas in
  let observe = Option.get sched.Scheduler.observe_window in
  let reference = Reference.Pas_window.create ~processor:ref_processor domains in
  let ref_sched = Reference.Pas_window.scheduler reference in
  List.iteri
    (fun k busy_fraction ->
      let now = Sim_time.of_ms (100 * (k + 1)) in
      let got = Reference.outcome (fun () -> observe ~now ~busy_fraction) in
      let want =
        Reference.outcome (fun () ->
            Reference.Pas_window.evaluate reference ~now ~busy_fraction)
      in
      if got <> want then fail "window %d: outcome differs" k;
      if Processor.current_freq processor <> Processor.current_freq ref_processor then
        fail "window %d: frequency %d, reference %d" k (Processor.current_freq processor)
          (Processor.current_freq ref_processor);
      if
        not
          (Reference.bits_equal (Pas.Pas_sched.last_absolute_load pas)
             reference.Reference.Pas_window.last_absolute_load)
      then fail "window %d: absolute load differs" k;
      if
        Pas.Pas_sched.evaluations pas <> reference.evaluations
        || Pas.Pas_sched.frequency_decisions pas <> reference.frequency_decisions
      then fail "window %d: counters differ" k;
      List.iter
        (fun d ->
          if
            not
              (Reference.bits_equal (Pas.Pas_sched.effective_credit pas d)
                 (ref_sched.Scheduler.effective_credit d))
          then fail "window %d: %s credit differs" k (Domain.name d);
          if probe_quota sched domains d <> probe_quota ref_sched domains d then
            fail "window %d: %s quota differs" k (Domain.name d))
        domains;
      (* Move the quotas between windows, the same way on both sides. *)
      let d = List.nth domains (k mod List.length domains) in
      let used = Sim_time.of_us (1 + (k * 7919 mod 13_000)) in
      sched.Scheduler.charge ~domain:d ~now ~used;
      ref_sched.Scheduler.charge ~domain:d ~now ~used;
      if k mod 3 = 2 then begin
        sched.Scheduler.on_account_period ~now;
        ref_sched.Scheduler.on_account_period ~now
      end)
    samples;
  true

(* The windows land exactly on a level's capacity: at 2000 MHz one window
   of 0.5 is an absolute load of exactly 50 %, the 1000 MHz level's
   capacity, which Listing 1.1's strict test does not take. *)
let pas_window_on_threshold () =
  let processor = Processor.create (Reference.arch "tie") in
  let pas = Pas.Pas_sched.create ~processor (window_domains ()) in
  let observe = Option.get (Pas.Pas_sched.scheduler pas).Scheduler.observe_window in
  observe ~now:(Sim_time.of_ms 100) ~busy_fraction:0.5;
  check_bool "exactly on the capacity" true (Pas.Pas_sched.last_absolute_load pas = 50.0);
  check_int "not absorbed" 2000 (Processor.current_freq processor);
  observe ~now:(Sim_time.of_ms 200) ~busy_fraction:0.25;
  check_int "absorbed below it" 1000 (Processor.current_freq processor)

(* An idle window on [invalid] picks the level whose [ratio * cf] rounds to
   0: the evaluation raises at that point, with that level's values. *)
let pas_window_invalid_speed () =
  let processor = Processor.create (Reference.arch "invalid") in
  let pas = Pas.Pas_sched.create ~processor (window_domains ()) in
  let observe = Option.get (Pas.Pas_sched.scheduler pas).Scheduler.observe_window in
  Alcotest.check_raises "invalid speed"
    (Equations.Invalid_speed { ratio = 0.5; cf = Int64.float_of_bits 1L })
    (fun () -> observe ~now:(Sim_time.of_ms 100) ~busy_fraction:0.0);
  check_int "frequency kept" 2000 (Processor.current_freq processor)

let credit_manager_compensates () =
  let app = Workloads.Web_app.create ~rate_schedule:(Workloads.Phases.constant ~rate:1.0) () in
  let v20 = Domain.create ~name:"V20" ~credit_pct:20.0 (Workloads.Web_app.workload app) in
  let domains = [ v20 ] in
  let sim = Simulator.create () in
  let processor = Processor.create optiplex in
  let scheduler = Sched_credit.create domains in
  let governor = Governors.Stable_ondemand.create processor in
  let host = Host.create ~sim ~processor ~scheduler ~governor () in
  let daemon = Pas.User_level.credit_manager ~sim ~processor ~scheduler domains in
  Host.run_for host (sec 30);
  check_int "governor lowered frequency" 1600 (Processor.current_freq processor);
  check_float_eps 0.1 "daemon compensated credit" (20.0 *. 2667.0 /. 1600.0)
    (scheduler.Scheduler.effective_credit v20);
  check_bool "adjustments counted" true (Pas.User_level.adjustments daemon >= 1);
  check_int "never touches frequency" 0 (Pas.User_level.frequency_requests daemon)

let full_manager_sets_both () =
  let app = Workloads.Web_app.create ~rate_schedule:(Workloads.Phases.constant ~rate:1.0) () in
  let v20 = Domain.create ~name:"V20" ~credit_pct:20.0 (Workloads.Web_app.workload app) in
  let domains = [ v20 ] in
  let sim = Simulator.create () in
  let processor = Processor.create optiplex in
  let scheduler = Sched_credit.create domains in
  let userspace = Governors.Userspace.create processor in
  let governor = Governors.Userspace.governor userspace in
  let host = Host.create ~sim ~processor ~scheduler ~governor () in
  let daemon =
    Pas.User_level.full_manager ~sim ~processor ~scheduler ~userspace
      ~utilization:(Host.utilization_probe host) domains
  in
  Host.run_for host (sec 30);
  check_int "frequency lowered via userspace" 1600 (Processor.current_freq processor);
  check_float_eps 0.1 "credit compensated" (20.0 *. 2667.0 /. 1600.0)
    (scheduler.Scheduler.effective_credit v20);
  check_bool "frequency requests counted" true (Pas.User_level.frequency_requests daemon >= 1)

let daemon_stop () =
  let v20 = Domain.create ~name:"V20" ~credit_pct:20.0 (Workload.idle ()) in
  let domains = [ v20 ] in
  let sim = Simulator.create () in
  let processor = Processor.create optiplex in
  let scheduler = Sched_credit.create domains in
  let host = Host.create ~sim ~processor ~scheduler () in
  let daemon = Pas.User_level.credit_manager ~sim ~processor ~scheduler domains in
  Pas.User_level.stop daemon;
  (* Drop the frequency by hand: a stopped daemon must not compensate. *)
  Processor.set_freq processor ~now:(Host.now host) 1600;
  Host.run_for host (sec 5);
  check_float "credit untouched" 20.0 (scheduler.Scheduler.effective_credit v20)

(* ------------------------------------------------------------------ *)
(* Metamorphic: PAS on a one-level P-state table is Credit *)

(* With a single P-state, ratio and cf are 1 at every evaluation: Listing
   1.1 keeps the only frequency and Listing 1.2 sets every effective
   credit to its initial one.  So PAS must leave a run exactly as plain
   Credit leaves it, bit for bit, whatever the guests. *)
let one_level =
  {
    optiplex with
    Cpu_model.Arch.name = "one P-state";
    freq_table = Frequency.create [ 2667 ];
    calibration = Calibration.ideal;
  }

type guest = Busy | Idle | Web of float | Pi of float * float

let gen_scenario =
  let open QCheck.Gen in
  let guest =
    oneof
      [
        return Busy;
        return Idle;
        map (fun r -> Web (0.5 +. (0.5 *. float_of_int r))) (int_range 0 40);
        map2
          (fun w d -> Pi (float_of_int w, 0.1 *. float_of_int d))
          (int_range 1 20) (int_range 1 10);
      ]
  in
  let credit = map float_of_int (oneof [ return 0; int_range 1 100 ]) in
  pair (int_range 2 15) (list_size (int_range 1 6) (pair guest credit))

let print_scenario (seconds, guests) =
  Printf.sprintf "%d s: %s" seconds
    (String.concat "; "
       (List.map
          (fun (g, credit) ->
            (match g with
            | Busy -> "busy"
            | Idle -> "idle"
            | Web rate -> Printf.sprintf "web %g/s" rate
            | Pi (work, duty) -> Printf.sprintf "pi %g s at %g" work duty)
            ^ Printf.sprintf " @ %g%%" credit)
          guests))

(* Everything a run leaves: energy, per-domain CPU time, the apps'
   counters and the host's series. *)
let run_one_level ~pas (seconds, guests) =
  let buf = Buffer.create 1024 in
  let report = ref [] in
  let dom0 = Domain.create ~is_dom0:true ~name:"Dom0" ~credit_pct:10.0 (Workload.idle ()) in
  let guests =
    List.mapi
      (fun i (g, credit) ->
        let w =
          match g with
          | Busy -> Workload.busy_loop ()
          | Idle -> Workload.idle ()
          | Web rate ->
              let app =
                Workloads.Web_app.create ~rate_schedule:(Workloads.Phases.constant ~rate) ()
              in
              report :=
                (fun () ->
                  let module W = Workloads.Web_app in
                  Printf.bprintf buf "web %d %d %d %h\n" (W.injected_requests app)
                    (W.completed_requests app) (W.timed_out_requests app)
                    (Stats.Running.mean (W.response_times app)))
                :: !report;
              Workloads.Web_app.workload app
          | Pi (work, duty_cycle) ->
              let app = Workloads.Pi_app.create ~duty_cycle ~work () in
              report :=
                (fun () -> Printf.bprintf buf "pi %h\n" (Workloads.Pi_app.remaining_work app))
                :: !report;
              Workloads.Pi_app.workload app
        in
        Domain.create ~name:(Printf.sprintf "g%d" i) ~credit_pct:credit w)
      guests
  in
  let domains = dom0 :: guests in
  let processor = Processor.create one_level in
  let scheduler =
    if pas then Pas.Pas_sched.scheduler (Pas.Pas_sched.create ~processor domains)
    else Sched_credit.create domains
  in
  let host = Host.create ~sim:(Simulator.create ()) ~processor ~scheduler () in
  Host.run_for host (sec seconds);
  Printf.bprintf buf "energy=%h\n" (Host.energy_joules host);
  List.iter
    (fun d -> Printf.bprintf buf "%s cpu=%d\n" (Domain.name d) (Sim_time.to_us (Domain.cpu_time d)))
    domains;
  List.iter (fun f -> f ()) (List.rev !report);
  Buffer.add_string buf (Series.Frame.to_csv (Host.frame host));
  Buffer.contents buf

let pas_is_credit_at_one_level scenario =
  let credit = run_one_level ~pas:false scenario and pas = run_one_level ~pas:true scenario in
  if not (String.equal credit pas) then
    QCheck.Test.fail_reportf "PAS and Credit differ on %s" (print_scenario scenario);
  true

let () =
  Alcotest.run "pas"
    [
      ( "equations",
        [
          Alcotest.test_case "absolute load" `Quick eq_absolute_load;
          eq_load_at_roundtrip;
          Alcotest.test_case "compensated credit" `Quick eq_compensated_credit;
          eq_compensation_preserves_capacity;
          Alcotest.test_case "times" `Quick eq_times;
          Alcotest.test_case "compute_new_freq" `Quick eq_compute_new_freq;
          Alcotest.test_case "strict boundary" `Quick eq_compute_strict_boundary;
          Alcotest.test_case "can_absorb" `Quick eq_can_absorb;
          eq_compute_monotone;
        ] );
      ( "pas scheduler",
        [
          Alcotest.test_case "lowers frequency when idle" `Quick pas_lowers_frequency_when_idle;
          Alcotest.test_case "compensates credit" `Quick pas_compensates_credit;
          Alcotest.test_case "raises frequency under load" `Quick pas_raises_frequency_under_load;
          Alcotest.test_case "never exceeds absolute credit" `Quick pas_never_exceeds_absolute_credit;
          Alcotest.test_case "credit sum may exceed 100" `Quick pas_credit_sum_may_exceed_100;
          Alcotest.test_case "tracks decisions" `Quick pas_tracks_decisions;
        ] );
      ( "window",
        [
          qtest ~count:300 "matches the reference evaluation bit for bit"
            Reference.arb_windows pas_window_matches_reference;
          Alcotest.test_case "on a level's threshold" `Quick pas_window_on_threshold;
          Alcotest.test_case "invalid speed" `Quick pas_window_invalid_speed;
        ] );
      ( "user level",
        [
          Alcotest.test_case "credit manager" `Quick credit_manager_compensates;
          Alcotest.test_case "full manager" `Quick full_manager_sets_both;
          Alcotest.test_case "stop" `Quick daemon_stop;
        ] );
      ( "metamorphic",
        [
          qtest "pas equals credit at one p-state"
            (QCheck.make ~print:print_scenario gen_scenario)
            pas_is_credit_at_one_level;
        ] );
    ]
