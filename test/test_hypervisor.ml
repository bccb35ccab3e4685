(* Tests for the hypervisor: domains, the scheduler interface and the host's
   dispatch/accounting/metrics machinery. *)

module Workload = Workloads.Workload
module Domain = Hypervisor.Domain
module Scheduler = Hypervisor.Scheduler
module Host = Hypervisor.Host
module Processor = Cpu_model.Processor

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_float_eps eps = Alcotest.(check (float eps))
let ms = Sim_time.of_ms
let sec = Sim_time.of_sec

(* ------------------------------------------------------------------ *)
(* Domain *)

let domain_create () =
  let d = Domain.create ~name:"vm" ~credit_pct:25.0 (Workload.busy_loop ()) in
  Alcotest.(check string) "name" "vm" (Domain.name d);
  check_float_eps 1e-9 "credit" 25.0 (Domain.initial_credit d);
  check_int "weight default" 256 (Domain.weight d);
  check_bool "not dom0" false (Domain.is_dom0 d);
  check_bool "not uncapped" false (Domain.uncapped d);
  check_bool "runnable" true (Domain.runnable d)

let domain_uncapped () =
  let d = Domain.create ~name:"best-effort" ~credit_pct:0.0 (Workload.idle ()) in
  check_bool "uncapped" true (Domain.uncapped d);
  check_bool "idle not runnable" false (Domain.runnable d)

let domain_invalid () =
  Alcotest.check_raises "credit" (Invalid_argument "Domain.create: credit out of [0, 100]")
    (fun () -> ignore (Domain.create ~name:"x" ~credit_pct:150.0 (Workload.idle ())));
  Alcotest.check_raises "weight" (Invalid_argument "Domain.create: weight must be positive")
    (fun () -> ignore (Domain.create ~weight:0 ~name:"x" ~credit_pct:10.0 (Workload.idle ())))

let domain_charge_and_identity () =
  let a = Domain.create ~name:"a" ~credit_pct:10.0 (Workload.idle ()) in
  let b = Domain.create ~name:"b" ~credit_pct:10.0 (Workload.idle ()) in
  check_bool "distinct ids" true (Domain.id a <> Domain.id b);
  check_bool "equal self" true (Domain.equal a a);
  check_bool "not equal" false (Domain.equal a b);
  Domain.charge a (ms 7);
  check_int "cpu time" 7_000 (Sim_time.to_us (Domain.cpu_time a))

(* ------------------------------------------------------------------ *)
(* Scheduler interface *)

let scheduler_defaults () =
  let d = Domain.create ~name:"d" ~credit_pct:30.0 (Workload.busy_loop ()) in
  let s =
    Scheduler.make ~name:"test"
      ~domains:(fun () -> [ d ])
      ~pick:(fun ~now:_ ~remaining ~exclude:_ ->
        Some { Scheduler.domain = d; max_slice = remaining })
      ~charge:(fun ~domain:_ ~now:_ ~used:_ -> ())
      ()
  in
  check_float_eps 1e-9 "effective credit defaults to initial" 30.0
    (s.Scheduler.effective_credit d);
  check_bool "no window observer" true (s.Scheduler.observe_window = None);
  s.Scheduler.on_account_period ~now:Sim_time.zero (* no-op default must not raise *)

let scheduler_excluded () =
  let a = Domain.create ~name:"a" ~credit_pct:10.0 (Workload.idle ()) in
  let b = Domain.create ~name:"b" ~credit_pct:10.0 (Workload.idle ()) in
  check_bool "present" true (Scheduler.excluded a (Scheduler.Mask.of_list [ b; a ]));
  check_bool "absent" false (Scheduler.excluded a (Scheduler.Mask.of_list [ b ]));
  let mask = Scheduler.Mask.of_list [ a; b ] in
  Scheduler.Mask.clear mask;
  check_bool "cleared" false (Scheduler.Mask.mem mask a);
  Scheduler.Mask.add mask a;
  check_bool "re-added" true (Scheduler.Mask.mem mask a)

(* Ids are process-global, so a long-lived mask sees ids well past its
   initial 64-byte buffer; clearing must forget every one of them, and a
   re-used mask must hold exactly what was added since. *)
let mask_clear_past_growth () =
  let ds = List.init 300 (fun i -> Domain.create ~name:(Printf.sprintf "m%d" i) ~credit_pct:1.0 (Workload.idle ())) in
  let mask = Scheduler.Mask.create () in
  List.iter (Scheduler.Mask.add mask) ds;
  List.iter (Scheduler.Mask.add mask) ds;
  check_bool "all members" true (List.for_all (Scheduler.Mask.mem mask) ds);
  Scheduler.Mask.clear mask;
  check_bool "none after clear" true (List.for_all (fun d -> not (Scheduler.Mask.mem mask d)) ds);
  let evens = List.filteri (fun i _ -> i mod 2 = 0) ds in
  List.iter (Scheduler.Mask.add mask) evens;
  List.iteri
    (fun i d -> check_bool (Printf.sprintf "member %d" i) (i mod 2 = 0) (Scheduler.Mask.mem mask d))
    ds;
  Scheduler.Mask.clear mask;
  check_bool "none after second clear" true
    (List.for_all (fun d -> not (Scheduler.Mask.mem mask d)) ds)

(* ------------------------------------------------------------------ *)
(* Host *)

let make_host ?config ?governor domains =
  let sim = Simulator.create () in
  let processor = Processor.create Cpu_model.Arch.optiplex_755 in
  let scheduler = Sched_credit.create domains in
  let host = Host.create ?config ~sim ~processor ~scheduler ?governor () in
  (host, processor)

let host_busy_loop_consumes_everything () =
  let d = Domain.create ~name:"hog" ~credit_pct:100.0 (Workload.busy_loop ()) in
  let host, _ = make_host [ d ] in
  Host.run_for host (sec 10);
  check_float_eps 0.02 "fully busy" 10.0 (Sim_time.to_sec (Host.total_busy host));
  check_float_eps 0.02 "domain charged" 10.0 (Sim_time.to_sec (Domain.cpu_time d))

let host_idle_when_no_work () =
  let d = Domain.create ~name:"sleeper" ~credit_pct:100.0 (Workload.idle ()) in
  let host, _ = make_host [ d ] in
  Host.run_for host (sec 5);
  check_int "never busy" 0 (Sim_time.to_us (Host.total_busy host))

let host_cap_enforced () =
  let d = Domain.create ~name:"capped" ~credit_pct:20.0 (Workload.busy_loop ()) in
  let host, _ = make_host [ d ] in
  Host.run_for host (sec 10);
  check_float_eps 0.05 "20% of 10s" 2.0 (Sim_time.to_sec (Host.total_busy host))

let host_utilization_probe () =
  let d = Domain.create ~name:"half" ~credit_pct:50.0 (Workload.busy_loop ()) in
  let host, _ = make_host [ d ] in
  let probe = Host.utilization_probe host in
  Host.run_for host (sec 2);
  check_float_eps 0.02 "50% busy" 0.5 (probe ());
  Host.run_for host (sec 2);
  check_float_eps 0.02 "window resets" 0.5 (probe ())

let host_series_sampled () =
  let d = Domain.create ~name:"vm" ~credit_pct:40.0 (Workload.busy_loop ()) in
  let host, _ = make_host [ d ] in
  Host.run_for host (sec 10);
  let s = Host.series_domain_load host d in
  check_int "ten samples" 10 (Series.length s);
  check_float_eps 0.5 "load ~40%" 40.0 (Series.mean s);
  let g = Host.series_global_load host in
  check_float_eps 0.5 "global ~40%" 40.0 (Series.mean g);
  let f = Host.series_frequency host in
  check_float_eps 1e-9 "freq at max (no governor)" 2667.0 (Series.mean f)

let host_absolute_load_scales () =
  let d = Domain.create ~name:"vm" ~credit_pct:40.0 (Workload.busy_loop ()) in
  let sim = Simulator.create () in
  let processor = Processor.create ~init_freq:1600 Cpu_model.Arch.optiplex_755 in
  let scheduler = Sched_credit.create [ d ] in
  let host = Host.create ~sim ~processor ~scheduler () in
  Host.run_for host (sec 10);
  let expected = 40.0 *. (1600.0 /. 2667.0) in
  check_float_eps 0.5 "absolute = load * ratio" expected
    (Series.mean (Host.series_domain_absolute_load host d))

let contains_substring haystack needle =
  let nh = String.length haystack and nn = String.length needle in
  let rec loop i = i + nn <= nh && (String.sub haystack i nn = needle || loop (i + 1)) in
  nn = 0 || loop 0

let host_frame_has_all_series () =
  let d = Domain.create ~name:"vm" ~credit_pct:40.0 (Workload.busy_loop ()) in
  let host, _ = make_host [ d ] in
  Host.run_for host (sec 3);
  let frame = Host.frame host in
  (* freq + (load + absolute per domain) + global + absolute *)
  check_int "series count" 5 (List.length (Series.Frame.series frame));
  let csv = Series.Frame.to_csv frame in
  check_bool "csv mentions domain" true (contains_substring csv "vm.load")

let host_energy_positive () =
  let d = Domain.create ~name:"vm" ~credit_pct:100.0 (Workload.busy_loop ()) in
  let host, _ = make_host [ d ] in
  Host.run_for host (sec 5);
  check_bool "energy accrued" true (Host.energy_joules host > 0.0);
  check_bool "mean watts sensible" true
    (Host.mean_watts host > 40.0 && Host.mean_watts host <= 95.5)

let host_governor_driven () =
  let d = Domain.create ~name:"light" ~credit_pct:20.0 (Workload.busy_loop ()) in
  let sim = Simulator.create () in
  let processor = Processor.create Cpu_model.Arch.optiplex_755 in
  let scheduler = Sched_credit.create [ d ] in
  let governor = Governors.Governor.powersave processor in
  let host = Host.create ~sim ~processor ~scheduler ~governor () in
  Host.run_for host (sec 5);
  check_int "powersave pinned min" 1600 (Processor.current_freq processor)

let host_trace_records_frequency_changes () =
  let d = Domain.create ~name:"vm" ~credit_pct:20.0 (Workload.busy_loop ()) in
  let sim = Simulator.create () in
  let processor = Processor.create Cpu_model.Arch.optiplex_755 in
  let scheduler = Sched_credit.create [ d ] in
  let trace = Trace.create () in
  let governor = Governors.Governor.powersave processor in
  let host = Host.create ~trace ~sim ~processor ~scheduler ~governor () in
  Host.run_for host (sec 5);
  let dvfs_entries = Trace.find trace ~source:"dvfs" in
  check_int "one transition recorded" 1 (List.length dvfs_entries);
  match dvfs_entries with
  | [ e ] -> check_bool "mentions both levels" true (String.length e.Trace.message > 10)
  | _ -> Alcotest.fail "expected one entry"

let host_stop_freezes () =
  let d = Domain.create ~name:"vm" ~credit_pct:100.0 (Workload.busy_loop ()) in
  let host, _ = make_host [ d ] in
  Host.run_for host (sec 2);
  Host.stop host;
  let before = Host.total_busy host in
  Host.run_for host (sec 2);
  check_int "no dispatch after stop" (Sim_time.to_us before)
    (Sim_time.to_us (Host.total_busy host))

let host_domains_accessor () =
  let a = Domain.create ~name:"a" ~credit_pct:10.0 (Workload.idle ()) in
  let b = Domain.create ~name:"b" ~credit_pct:10.0 (Workload.idle ()) in
  let host, _ = make_host [ a; b ] in
  check_int "two domains" 2 (List.length (Host.domains host));
  Alcotest.check_raises "foreign domain" Not_found (fun () ->
      ignore
        (Host.series_domain_load host
           (Domain.create ~name:"foreign" ~credit_pct:10.0 (Workload.idle ()))))

(* Workloads built without an [advance] share the default no-op and are
   left out of the tick's advance loop; a workload that wraps one (the
   per-layer probe's pattern) has an [advance] of its own and is still
   advanced on every tick. *)
let host_skips_default_advance () =
  let advanced = ref 0 in
  let inner = Workload.idle () in
  let wrapped =
    Workload.make ~name:"probe"
      ~advance:(fun ~now ~dt ->
        incr advanced;
        Workload.advance inner ~now ~dt)
      ~has_work:(fun () -> Workload.has_work inner)
      ~execute:(fun ~now ~cpu_time ~speed -> Workload.execute inner ~now ~cpu_time ~speed)
      ()
  in
  check_bool "idle has no advance" false (Workload.advances inner);
  check_bool "busy loop has no advance" false (Workload.advances (Workload.busy_loop ()));
  check_bool "wrapper has one" true (Workload.advances wrapped);
  let plain = Domain.create ~name:"plain" ~credit_pct:20.0 (Workload.busy_loop ()) in
  let lazy_ = Domain.create ~name:"lazy" ~credit_pct:20.0 (Workload.idle ()) in
  let probed = Domain.create ~name:"probed" ~credit_pct:20.0 wrapped in
  let advancing = Domain.advancing [ plain; lazy_; probed ] in
  check_int "only the wrapper is advanced" 1 (Array.length advancing);
  check_bool "and it is the wrapper" true (advancing.(0) == wrapped);
  let host, _ = make_host [ plain; lazy_; probed ] in
  Host.run_for host (sec 1);
  check_int "advanced on every tick" 1000 !advanced;
  check_float_eps 0.01 "plain still runs" 0.2 (Sim_time.to_sec (Domain.cpu_time plain))

(* Host-side deferral: a Credit host over 12 to 24 deferring web and pi
   guests against a twin whose guests are wrapped by {!Every_tick.wrap},
   so the twin advances every workload on every tick and its scheduler
   polls them all.  The web guests' load phases, rates and timeouts are
   staggered, so their due ticks fall apart and most loops of the
   deferring host advance a few of them.  Between random stretches of
   simulated time the hosts are stopped and rebuilt over the same
   domains (mostly in the middle of a run of skipped ticks; each rebuild
   makes a fresh scheduler, whose first pick must ask every guest), or
   dispatched once more at the current instant; low-duty pi jobs drain
   their tokens on execute, which pulls their due tick to the next one.
   Every observation must agree after every step, and the private
   accumulators once both sides are flushed. *)
let host_deferral_run seed =
  let rng = Random.State.make [| seed |] in
  let int n = Random.State.int rng n in
  let guests = List.init (12 + int 13) (fun i -> (i, int 3 < 2)) in
  let webs =
    List.filter_map
      (fun (i, web) ->
        if not web then None
        else begin
          let from = 1 + (i * 23) + int 300 and rate = 0.002 *. float_of_int (1 + (i * 3) + int 30) in
          Some
            ( [ (Sim_time.zero, 0.0); (ms from, rate); (ms (from + 1 + int 800), rate /. 3.0) ],
              ms (5 + (i * 13) + int 300) )
        end)
      guests
  in
  let pis =
    List.filter_map
      (fun (_, web) ->
        if web then None
        else Some (0.01 *. float_of_int (1 + int 60), 0.01 *. float_of_int (1 + int 40)))
      guests
  in
  let side wrap =
    let web_apps =
      List.map
        (fun (rate_schedule, timeout) -> Workloads.Web_app.create ~timeout ~rate_schedule ())
        webs
    in
    let pi_apps =
      List.map (fun (duty_cycle, work) -> Workloads.Pi_app.create ~duty_cycle ~work ()) pis
    in
    let guest name credit w = Domain.create ~name ~credit_pct:credit (wrap w) in
    let domains =
      Domain.create ~is_dom0:true ~name:"dom0" ~credit_pct:5.0 (Workload.idle ())
      :: (List.mapi
            (fun i app ->
              guest (Printf.sprintf "w%d" i) (float_of_int (3 + (7 * i mod 20)))
                (Workloads.Web_app.workload app))
            web_apps
         @ List.mapi
             (fun i app ->
               guest (Printf.sprintf "p%d" i) (float_of_int (2 + (5 * i mod 15)))
                 (Workloads.Pi_app.workload app))
             pi_apps
         @ [ guest "idle" 10.0 (Workload.idle ()) ])
    in
    let sim = Simulator.create () in
    let processor = Processor.create Cpu_model.Arch.optiplex_755 in
    let build () = Host.create ~sim ~processor ~scheduler:(Sched_credit.create domains) () in
    (sim, domains, web_apps, pi_apps, ref (build ()), build)
  in
  let ((sim_a, doms_a, webs_a, pis_a, host_a, build_a) as a) = side Fun.id in
  let ((_, _, webs_b, pis_b, host_b, build_b) as b) = side Every_tick.wrap in
  let observe (sim, domains, web_apps, pi_apps, host, _) =
    let now = Simulator.now sim in
    String.concat " "
      (List.map
         (fun d ->
           Printf.sprintf "%s:%d/%b" (Domain.name d) (Sim_time.to_us (Domain.cpu_time d))
             (Domain.runnable d))
         domains
      @ List.map
          (fun app ->
            Printf.sprintf "web:%d/%d/%d/%d/%h" (Workloads.Web_app.injected_requests app)
              (Workloads.Web_app.completed_requests app)
              (Workloads.Web_app.timed_out_requests app)
              (Workloads.Web_app.queue_length app)
              (Workloads.Web_app.current_rate app ~now))
          web_apps
      @ List.map
          (fun app ->
            Printf.sprintf "pi:%h/%b" (Workloads.Pi_app.remaining_work app)
              (Workloads.Pi_app.finished app))
          pi_apps
      @ [ string_of_int (Sim_time.to_us (Host.total_busy !host)) ])
  in
  let agree what =
    let x = observe a and y = observe b in
    if not (String.equal x y) then
      QCheck.Test.fail_reportf "seed %d at %d us, after %s:\n  deferring %s\n  every-tick %s" seed
        (Sim_time.to_us (Simulator.now sim_a)) what x y
  in
  for _ = 1 to 60 do
    let what =
      match int 10 with
      | 0 | 1 ->
          Host.stop !host_a;
          Host.stop !host_b;
          host_a := build_a ();
          host_b := build_b ();
          "rebuild"
      | 2 ->
          Host.Internal.dispatch_tick !host_a ();
          Host.Internal.dispatch_tick !host_b ();
          "repeated instant"
      | _ ->
          let d = if int 4 = 0 then Sim_time.of_us (1 + int 5_000) else ms (1 + int 200) in
          Host.run_for !host_a d;
          Host.run_for !host_b d;
          "run"
    in
    agree what
  done;
  Host.stop !host_a;
  Host.stop !host_b;
  List.iter (fun d -> Workload.flush (Domain.workload d)) doms_a;
  List.iter2
    (fun x y ->
      if Workloads.Web_app.carry x <> Workloads.Web_app.carry y then
        QCheck.Test.fail_reportf "seed %d: web carry %h vs %h" seed (Workloads.Web_app.carry x)
          (Workloads.Web_app.carry y))
    webs_a webs_b;
  List.iter2
    (fun x y ->
      if Workloads.Pi_app.tokens x <> Workloads.Pi_app.tokens y then
        QCheck.Test.fail_reportf "seed %d: pi tokens %d vs %d" seed
          (Sim_time.to_us (Workloads.Pi_app.tokens x))
          (Sim_time.to_us (Workloads.Pi_app.tokens y)))
    pis_a pis_b;
  true

let host_deferral =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~count:60 ~name:"host-side deferral matches every-tick hosts"
       QCheck.(int_bound 1_000_000)
       host_deferral_run)

let () =
  Alcotest.run "hypervisor"
    [
      ( "domain",
        [
          Alcotest.test_case "create" `Quick domain_create;
          Alcotest.test_case "uncapped" `Quick domain_uncapped;
          Alcotest.test_case "invalid" `Quick domain_invalid;
          Alcotest.test_case "charge/identity" `Quick domain_charge_and_identity;
        ] );
      ( "scheduler",
        [
          Alcotest.test_case "defaults" `Quick scheduler_defaults;
          Alcotest.test_case "excluded" `Quick scheduler_excluded;
          Alcotest.test_case "mask clear past growth" `Quick mask_clear_past_growth;
        ] );
      ( "host",
        [
          Alcotest.test_case "busy loop consumes" `Quick host_busy_loop_consumes_everything;
          Alcotest.test_case "idle" `Quick host_idle_when_no_work;
          Alcotest.test_case "cap enforced" `Quick host_cap_enforced;
          Alcotest.test_case "utilization probe" `Quick host_utilization_probe;
          Alcotest.test_case "series sampled" `Quick host_series_sampled;
          Alcotest.test_case "absolute load scales" `Quick host_absolute_load_scales;
          Alcotest.test_case "frame" `Quick host_frame_has_all_series;
          Alcotest.test_case "energy" `Quick host_energy_positive;
          Alcotest.test_case "governor driven" `Quick host_governor_driven;
          Alcotest.test_case "trace frequency changes" `Quick host_trace_records_frequency_changes;
          Alcotest.test_case "stop freezes" `Quick host_stop_freezes;
          Alcotest.test_case "domains accessor" `Quick host_domains_accessor;
          Alcotest.test_case "skips default advance" `Quick host_skips_default_advance;
          host_deferral;
        ] );
    ]
