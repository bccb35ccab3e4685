(* Tests for multi-core hosts: frequency domains of several cores, several
   frequency domains per host, the voltage-scaled power model, the
   busiest-core ondemand rule and PAS on a multi-core package. *)

module Processor = Cpu_model.Processor
module Power = Cpu_model.Power
module Host = Hypervisor.Host
module Domain = Hypervisor.Domain
module Workload = Workloads.Workload

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_float_eps eps = Alcotest.(check (float eps))
let sec = Sim_time.of_sec

let optiplex = Cpu_model.Arch.optiplex_755
let i7 = Cpu_model.Arch.elite_8300

(* The multi-core package model: leakage scales with voltage. *)
let processor ?init_freq ?(cores = 1) arch =
  Processor.create ?init_freq ~cores
    ~power:(Power.of_arch ~leakage:Power.Voltage_scaled arch)
    arch

let busy name = Domain.create ~vcpus:1 ~name ~credit_pct:0.0 (Workload.busy_loop ())

(* A host of [processors] (the first one and the extra frequency domains),
   each with [governor]'s governor, run for [duration]. *)
let run_host ?governor ~processors ~scheduler duration =
  let sim = Simulator.create () in
  let governor p = Option.map (fun g -> g p) governor in
  let first = List.hd processors in
  let host =
    Host.create ~sim ~processor:first ~scheduler ?governor:(governor first)
      ~domains:(List.map (fun p -> (p, governor p)) (List.tl processors))
      ()
  in
  Host.run_for host duration;
  host

let freq_columns host =
  List.filter
    (fun name -> String.starts_with ~prefix:"freq_mhz" name)
    (List.map Series.name (Series.Frame.series (Host.frame host)))

(* ------------------------------------------------------------------ *)
(* Frequency domains *)

let smp_domains_per_package () =
  (* One processor of four cores is one frequency domain: all four cores
     run, and one frequency column is recorded. *)
  let doms = List.init 4 (fun i -> busy (Printf.sprintf "d%d" i)) in
  let scheduler = Sched_credit.create ~host_capacity:4 doms in
  let host = run_host ~processors:[ processor ~cores:4 optiplex ] ~scheduler (sec 10) in
  check_float_eps 0.1 "four cores busy" 40.0 (Sim_time.to_sec (Host.total_busy host));
  Alcotest.(check (list string)) "one domain" [ "freq_mhz" ] (freq_columns host)

let smp_domains_per_core () =
  let processors = List.init 4 (fun _ -> processor optiplex) in
  let doms = List.init 4 (fun i -> busy (Printf.sprintf "d%d" i)) in
  let scheduler = Sched_credit.create ~host_capacity:4 doms in
  let host = run_host ~processors ~scheduler (sec 10) in
  check_float_eps 0.1 "four cores busy" 40.0 (Sim_time.to_sec (Host.total_busy host));
  Alcotest.(check (list string))
    "four domains"
    [ "freq_mhz"; "freq_mhz.1"; "freq_mhz.2"; "freq_mhz.3" ]
    (freq_columns host)

let smp_per_core_freq_independent () =
  let p0 = processor optiplex and p1 = processor optiplex in
  Processor.set_freq p0 ~now:Sim_time.zero 1600;
  check_int "core0 scaled" 1600 (Processor.current_freq p0);
  check_int "core1 untouched" 2667 (Processor.current_freq p1);
  (* Two busy cores: the absolute load converts at the cores' mean
     speed. *)
  let scheduler = Sched_credit.create ~host_capacity:2 [ busy "a"; busy "b" ] in
  let host = run_host ~processors:[ p0; p1 ] ~scheduler (sec 10) in
  check_float_eps 0.02 "capacity mixes speeds"
    (100.0 *. (1.0 +. (1600.0 /. 2667.0)) /. 2.0)
    (Series.mean (Host.series_absolute_load host))

let smp_package_freq_shared () =
  let p = processor ~cores:2 optiplex in
  Processor.set_freq p ~now:Sim_time.zero 1600;
  let a = busy "a" and b = busy "b" in
  let scheduler = Sched_credit.create ~host_capacity:2 [ a; b ] in
  let host = run_host ~processors:[ p ] ~scheduler (sec 10) in
  (* Both cores run at the package's 1600 MHz. *)
  check_float_eps 0.02 "both cores scaled" (100.0 *. 1600.0 /. 2667.0)
    (Series.mean (Host.series_absolute_load host));
  check_float_eps 0.02 "second core's domain too" (50.0 *. 1600.0 /. 2667.0)
    (Series.mean (Host.series_domain_absolute_load host b))

let smp_capacity () =
  (* Three cores at maximum frequency deliver three absolute units per
     second: 100 % absolute load of the whole host. *)
  let doms = List.init 3 (fun i -> busy (Printf.sprintf "d%d" i)) in
  let scheduler = Sched_credit.create ~host_capacity:3 doms in
  let host = run_host ~processors:[ processor ~cores:3 optiplex ] ~scheduler (sec 10) in
  check_float_eps 0.1 "max capacity" 30.0 (Sim_time.to_sec (Host.total_busy host));
  check_float_eps 0.02 "at max frequency" 100.0 (Series.mean (Host.series_absolute_load host))

let smp_invalid () =
  Alcotest.check_raises "cores" (Invalid_argument "Processor.create: cores must be >= 1")
    (fun () -> ignore (processor ~cores:0 optiplex));
  let p = processor ~cores:2 optiplex in
  let pas = Pas.Pas_sched.create ~processor:p [ busy "a" ] in
  Alcotest.check_raises "PAS sets one frequency"
    (Invalid_argument
       "Host.create: a scheduler that sets the frequency needs one frequency domain")
    (fun () ->
      ignore
        (Host.create ~sim:(Simulator.create ()) ~processor:p
           ~scheduler:(Pas.Pas_sched.scheduler pas)
           ~domains:[ (processor optiplex, None) ]
           ()))

let smp_power_accounting () =
  (* Both cores fully busy at max frequency for 10 s: package max power. *)
  let scheduler = Sched_credit.create ~host_capacity:2 [ busy "a"; busy "b" ] in
  let host = run_host ~processors:[ processor ~cores:2 optiplex ] ~scheduler (sec 10) in
  check_float_eps 1.0 "full power" (95.0 *. 10.0) (Host.energy_joules host);
  let idle = Domain.create ~name:"idle" ~credit_pct:0.0 (Workload.idle ()) in
  let scheduler = Sched_credit.create ~host_capacity:2 [ idle ] in
  let host = run_host ~processors:[ processor ~cores:2 optiplex ] ~scheduler (sec 10) in
  check_float_eps 1.0 "idle floor" (45.0 *. 10.0) (Host.energy_joules host)

let smp_per_core_saves_static () =
  (* One idle core clocked down must cost less than the same core at max. *)
  let energy ~idle_freq =
    let p1 = processor optiplex in
    Processor.set_freq p1 ~now:Sim_time.zero idle_freq;
    let scheduler = Sched_credit.create ~host_capacity:2 [ busy "a" ] in
    Host.energy_joules (run_host ~processors:[ processor optiplex; p1 ] ~scheduler (sec 10))
  in
  check_bool "leakage savings" true (energy ~idle_freq:1600 < energy ~idle_freq:2667)

let periodic_meter () =
  (* A 10 ms meter prices the busy time since its last reading at the
     frequency it reads, before the interval that starts there. *)
  let table = optiplex.Cpu_model.Arch.freq_table in
  let model = Power.of_arch ~reading_period:(Sim_time.of_ms 10) optiplex in
  let meter = Power.Meter.create model table in
  let ms = Sim_time.of_ms 1 in
  for _ = 1 to 9 do
    Power.Meter.record_busy meter ~dt:ms ~busy:ms ~freq:2667
  done;
  check_float_eps 0.0 "nothing read yet" 0.0 (Power.Meter.joules meter);
  Power.Meter.record_busy meter ~dt:ms ~busy:ms ~freq:1600;
  check_float_eps 1e-12 "read at the reading's frequency"
    (Power.watts model table ~freq:1600 ~util:0.9 *. 0.01)
    (Power.Meter.joules meter);
  check_int "read time" 10_000 (Sim_time.to_us (Power.Meter.elapsed meter))

(* ------------------------------------------------------------------ *)
(* Dispatch *)

let smp_host_parallelism () =
  (* Two busy 1-vCPU domains on two cores: both should run in parallel and
     each consume ~one core. *)
  let a = Domain.create ~vcpus:1 ~name:"a" ~credit_pct:50.0 (Workload.busy_loop ()) in
  let b = Domain.create ~vcpus:1 ~name:"b" ~credit_pct:50.0 (Workload.busy_loop ()) in
  let scheduler = Sched_credit.create ~host_capacity:2 [ a; b ] in
  let host = run_host ~processors:[ processor ~cores:2 optiplex ] ~scheduler (sec 10) in
  check_float_eps 0.1 "a one core" 10.0 (Sim_time.to_sec (Domain.cpu_time a));
  check_float_eps 0.1 "b one core" 10.0 (Sim_time.to_sec (Domain.cpu_time b));
  check_float_eps 0.1 "both cores busy" 20.0 (Sim_time.to_sec (Host.total_busy host))

let smp_host_sanitized () =
  (* Two busy cores grant twice a quantum per tick: the sanitizer's
     tick-utilization check must read it over both cores. *)
  Analysis.enable ~policy:Analysis.Fail_fast ();
  Fun.protect ~finally:Analysis.disable (fun () ->
      let scheduler = Sched_credit.create ~host_capacity:2 [ busy "a"; busy "b" ] in
      let host = run_host ~processors:[ processor ~cores:2 optiplex ] ~scheduler (sec 2) in
      check_float_eps 0.01 "both cores busy" 4.0 (Sim_time.to_sec (Host.total_busy host)))

let smp_host_vcpu_bound () =
  (* A single 1-vCPU domain cannot use more than one core's worth of time
     even with the whole host to itself. *)
  let a = busy "a" in
  let scheduler = Sched_credit.create ~host_capacity:2 [ a ] in
  ignore (run_host ~processors:[ processor ~cores:2 optiplex ] ~scheduler (sec 10));
  check_float_eps 0.1 "half the host" 10.0 (Sim_time.to_sec (Domain.cpu_time a))

let smp_host_two_vcpus () =
  let a = Domain.create ~vcpus:2 ~name:"a" ~credit_pct:0.0 (Workload.busy_loop ()) in
  let scheduler = Sched_credit.create ~host_capacity:2 [ a ] in
  ignore (run_host ~processors:[ processor ~cores:2 optiplex ] ~scheduler (sec 10));
  check_float_eps 0.1 "whole host" 20.0 (Sim_time.to_sec (Domain.cpu_time a))

let smp_host_credit_is_host_wide () =
  (* 20% credit of a 2-core host = 0.4 core-seconds per second. *)
  let a = Domain.create ~vcpus:1 ~name:"a" ~credit_pct:20.0 (Workload.busy_loop ()) in
  let scheduler = Sched_credit.create ~host_capacity:2 [ a ] in
  ignore (run_host ~processors:[ processor ~cores:2 optiplex ] ~scheduler (sec 10));
  check_float_eps 0.1 "40% of one core" 4.0 (Sim_time.to_sec (Domain.cpu_time a))

let smp_host_work_tracking () =
  let a = busy "a" in
  let scheduler = Sched_credit.create ~host_capacity:2 [ a ] in
  let host =
    run_host ~processors:[ processor ~init_freq:1600 ~cores:2 optiplex ] ~scheduler (sec 10)
  in
  (* One core at ratio 0.6 for 10 s: CPU time times the pinned speed, and
     the absolute series over the run. *)
  let speed = 1600.0 /. 2667.0 in
  check_float_eps 0.1 "frequency-weighted work" (10.0 *. speed)
    (Sim_time.to_sec (Domain.cpu_time a) *. speed);
  check_float_eps 0.01 "absolute series" (10.0 *. speed)
    (Series.mean (Host.series_domain_absolute_load host a) /. 100.0 *. 2.0 *. 10.0)

let smp_host_series () =
  let a = Domain.create ~vcpus:1 ~name:"a" ~credit_pct:40.0 (Workload.busy_loop ()) in
  let scheduler = Sched_credit.create ~host_capacity:2 [ a ] in
  let host = run_host ~processors:[ processor ~cores:2 optiplex ] ~scheduler (sec 10) in
  let load = Host.series_domain_load host a in
  (* 40% of the whole 2-core host = 0.8 core-seconds/s = 40% host time. *)
  check_float_eps 0.5 "host-time share" 40.0 (Series.mean load);
  check_float_eps 0.5 "absolute at max freq" 40.0
    (Series.mean (Host.series_domain_absolute_load host a));
  check_int "freq series sampled" 10 (Series.length (Host.series_frequency host))

(* ------------------------------------------------------------------ *)
(* Busiest-core ondemand and PAS *)

let ondemand p = Governors.Ondemand.create ~period:(Sim_time.of_ms 100) p

let max_core_rule_keeps_package_fast () =
  (* A work-conserving scheduler compacts the busy VM on one core; the
     busiest-core rule must keep the package at maximum frequency. *)
  let p = processor ~cores:2 i7 in
  let busy = Domain.create ~vcpus:1 ~name:"busy" ~credit_pct:20.0 (Workload.busy_loop ()) in
  let lazy_ = Domain.create ~vcpus:1 ~name:"lazy" ~credit_pct:70.0 (Workload.idle ()) in
  let scheduler = Sched_credit2.create [ busy; lazy_ ] in
  ignore (run_host ~governor:ondemand ~processors:[ p ] ~scheduler (sec 10));
  check_int "package stays at max" 3400 (Processor.current_freq p)

let max_core_rule_lowers_when_spread () =
  (* Under the fix-credit scheduler the same demand is capped thin: no core
     looks busy and the package clocks down. *)
  let p = processor ~cores:2 i7 in
  let busy = Domain.create ~vcpus:1 ~name:"busy" ~credit_pct:20.0 (Workload.busy_loop ()) in
  let lazy_ = Domain.create ~vcpus:1 ~name:"lazy" ~credit_pct:70.0 (Workload.idle ()) in
  let scheduler = Sched_credit.create ~host_capacity:2 [ busy; lazy_ ] in
  ignore (run_host ~governor:ondemand ~processors:[ p ] ~scheduler (sec 10));
  check_int "package clocked down" 1600 (Processor.current_freq p)

let pas_smp_compensates () =
  let p = processor ~cores:2 optiplex in
  let app = Workloads.Web_app.create ~rate_schedule:(Workloads.Phases.constant ~rate:1.0) () in
  let v20 =
    Domain.create ~vcpus:1 ~name:"V20" ~credit_pct:20.0 (Workloads.Web_app.workload app)
  in
  let v70 = Domain.create ~vcpus:1 ~name:"V70" ~credit_pct:70.0 (Workload.idle ()) in
  let pas = Pas.Pas_sched.create ~processor:p [ v20; v70 ] in
  let scheduler = Pas.Pas_sched.scheduler pas in
  ignore (run_host ~processors:[ p ] ~scheduler (sec 30));
  check_int "package slow" 1600 (Processor.current_freq p);
  check_bool "evaluations" true (Pas.Pas_sched.evaluations pas > 10);
  (* V20 must keep 20% of the host's maximum capacity: work rate 0.4 abs/s
     on a 2-core host. *)
  let expected = 0.2 *. 2.0 *. 30.0 in
  check_float_eps 1.0 "absolute capacity held" expected
    (Sim_time.to_sec (Domain.cpu_time v20) *. Processor.speed p);
  check_float_eps 0.2 "credit compensated" (20.0 *. 2667.0 /. 1600.0)
    (scheduler.Hypervisor.Scheduler.effective_credit v20)

(* Deferral on a multi-core host: random web and pi guests with one or two
   vCPUs on two cores, one package or one domain per core, run plainly
   and with every workload wrapped for every-tick advance
   ({!Every_tick.wrap}); every domain's CPU time and absolute load, the
   energy and the apps' counters must agree. *)
let smp_deferral_run seed =
  let rng = Random.State.make [| seed |] in
  let int n = Random.State.int rng n in
  let per_core = int 2 = 0 in
  let specs =
    List.init (2 + int 8) (fun i ->
        (i, float_of_int (5 + int 20), 1 + int 2, int 3, 0.01 *. float_of_int (1 + int 150), int 8))
  in
  let run wrap =
    let apps = ref [] in
    let domains =
      List.map
        (fun (i, credit, vcpus, kind, rate, from) ->
          let w =
            if kind = 0 then begin
              let app = Workloads.Pi_app.create ~duty_cycle:0.6 ~work:(rate *. 20.0) () in
              apps := `Pi app :: !apps;
              Workloads.Pi_app.workload app
            end
            else begin
              let app =
                Workloads.Web_app.create ~timeout:(Sim_time.of_ms 300)
                  ~rate_schedule:[ (sec from, rate); (sec (from + 3), rate /. 2.0) ]
                  ()
              in
              apps := `Web app :: !apps;
              Workloads.Web_app.workload app
            end
          in
          Domain.create ~vcpus ~name:(Printf.sprintf "d%d" i) ~credit_pct:credit (wrap w))
        specs
    in
    let scheduler = Sched_credit.create ~host_capacity:2 domains in
    let processors =
      if per_core then [ processor optiplex; processor optiplex ]
      else [ processor ~cores:2 optiplex ]
    in
    let host = run_host ~processors ~scheduler (sec 10) in
    let buf = Buffer.create 512 in
    Printf.bprintf buf "energy=%h\n" (Host.energy_joules host);
    List.iter
      (fun d ->
        Printf.bprintf buf "%s cpu=%d abs=%h\n" (Domain.name d)
          (Sim_time.to_us (Domain.cpu_time d))
          (Series.mean (Host.series_domain_absolute_load host d)))
      domains;
    List.iter
      (function
        | `Web app ->
            let module W = Workloads.Web_app in
            Printf.bprintf buf "web %d %d %d %h\n" (W.injected_requests app)
              (W.completed_requests app) (W.timed_out_requests app)
              (Stats.Running.mean (W.response_times app))
        | `Pi app -> Printf.bprintf buf "pi %h\n" (Workloads.Pi_app.remaining_work app))
      !apps;
    Buffer.contents buf
  in
  let plain = run Fun.id and reference = run Every_tick.wrap in
  if not (String.equal plain reference) then
    QCheck.Test.fail_reportf "seed %d: deferring SMP run differs\n%s\n%s" seed plain reference;
  true

let smp_deferral =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~count:15 ~name:"deferring smp host matches every-tick run"
       QCheck.(int_bound 1_000_000)
       smp_deferral_run)

let () =
  Alcotest.run "smp"
    [
      ( "model",
        [
          Alcotest.test_case "per-package domains" `Quick smp_domains_per_package;
          Alcotest.test_case "per-core domains" `Quick smp_domains_per_core;
          Alcotest.test_case "per-core independence" `Quick smp_per_core_freq_independent;
          Alcotest.test_case "package shared" `Quick smp_package_freq_shared;
          Alcotest.test_case "capacity" `Quick smp_capacity;
          Alcotest.test_case "invalid" `Quick smp_invalid;
          Alcotest.test_case "power accounting" `Quick smp_power_accounting;
          Alcotest.test_case "per-core leakage savings" `Quick smp_per_core_saves_static;
          Alcotest.test_case "periodic meter" `Quick periodic_meter;
        ] );
      ( "host",
        [
          Alcotest.test_case "parallel dispatch" `Quick smp_host_parallelism;
          Alcotest.test_case "sanitized tick utilization" `Quick smp_host_sanitized;
          Alcotest.test_case "vcpu bound" `Quick smp_host_vcpu_bound;
          Alcotest.test_case "two vcpus" `Quick smp_host_two_vcpus;
          Alcotest.test_case "host-wide credit" `Quick smp_host_credit_is_host_wide;
          Alcotest.test_case "work tracking" `Quick smp_host_work_tracking;
          Alcotest.test_case "series" `Quick smp_host_series;
        ] );
      ( "dvfs",
        [
          Alcotest.test_case "max-core keeps fast" `Quick max_core_rule_keeps_package_fast;
          Alcotest.test_case "max-core lowers when spread" `Quick max_core_rule_lowers_when_spread;
          Alcotest.test_case "pas-smp compensates" `Quick pas_smp_compensates;
          smp_deferral;
        ] );
    ]
