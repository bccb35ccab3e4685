(* Tests for the multi-core extension: the SMP processor model, the SMP
   host's parallel dispatch, the max-core ondemand rule and PAS-SMP. *)

module Smp = Cpu_model.Smp
module Smp_host = Hypervisor.Smp_host
module Domain = Hypervisor.Domain
module Workload = Workloads.Workload

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_float_eps eps = Alcotest.(check (float eps))
let sec = Sim_time.of_sec

let optiplex = Cpu_model.Arch.optiplex_755
let i7 = Cpu_model.Arch.elite_8300

(* ------------------------------------------------------------------ *)
(* Smp model *)

let smp_domains_per_package () =
  let smp = Smp.create ~cores:4 optiplex in
  check_int "one domain" 1 (Smp.domain_count smp);
  check_int "core 3 in domain 0" 0 (Smp.domain_of_core smp 3);
  check_int "all cores in domain" 4 (List.length (Smp.cores_of_domain smp 0))

let smp_domains_per_core () =
  let smp = Smp.create ~policy:Smp.Per_core ~cores:4 optiplex in
  check_int "four domains" 4 (Smp.domain_count smp);
  check_int "core 2 in domain 2" 2 (Smp.domain_of_core smp 2);
  Alcotest.(check (list int)) "singleton" [ 1 ] (Smp.cores_of_domain smp 1)

let smp_per_core_freq_independent () =
  let smp = Smp.create ~policy:Smp.Per_core ~cores:2 optiplex in
  Smp.set_freq smp ~now:Sim_time.zero ~domain:0 1600;
  check_int "core0 scaled" 1600 (Smp.freq_of_core smp 0);
  check_int "core1 untouched" 2667 (Smp.freq_of_core smp 1);
  check_float_eps 1e-6 "capacity mixes speeds" (1.0 +. (1600.0 /. 2667.0))
    (Smp.total_capacity smp)

let smp_package_freq_shared () =
  let smp = Smp.create ~cores:2 optiplex in
  Smp.set_freq smp ~now:Sim_time.zero ~domain:0 1600;
  check_int "both cores scaled" 1600 (Smp.freq_of_core smp 1)

let smp_capacity () =
  let smp = Smp.create ~cores:3 optiplex in
  check_float_eps 1e-9 "max capacity" 3.0 (Smp.max_capacity smp);
  check_float_eps 1e-9 "at max frequency" 3.0 (Smp.total_capacity smp)

let smp_invalid () =
  Alcotest.check_raises "cores" (Invalid_argument "Smp.create: cores must be >= 1") (fun () ->
      ignore (Smp.create ~cores:0 optiplex));
  let smp = Smp.create ~cores:2 optiplex in
  Alcotest.check_raises "core range" (Invalid_argument "Smp.domain_of_core: core out of range")
    (fun () -> ignore (Smp.domain_of_core smp 5));
  Alcotest.check_raises "power arity"
    (Invalid_argument "Smp.record_power: one utilization per core required") (fun () ->
      Smp.record_power smp ~dt:(sec 1) ~core_utils:[| 1.0 |])

let smp_power_accounting () =
  let smp = Smp.create ~cores:2 optiplex in
  (* Both cores fully busy at max frequency for 10 s: package max power. *)
  Smp.record_power smp ~dt:(sec 10) ~core_utils:[| 1.0; 1.0 |];
  check_float_eps 1.0 "full power" (95.0 *. 10.0) (Smp.energy_joules smp);
  let idle = Smp.create ~cores:2 optiplex in
  Smp.record_power idle ~dt:(sec 10) ~core_utils:[| 0.0; 0.0 |];
  check_float_eps 1.0 "idle floor" (45.0 *. 10.0) (Smp.energy_joules idle)

let smp_per_core_saves_static () =
  (* One idle core clocked down must cost less than the same core at max. *)
  let high = Smp.create ~policy:Smp.Per_core ~cores:2 optiplex in
  Smp.record_power high ~dt:(sec 10) ~core_utils:[| 1.0; 0.0 |];
  let low = Smp.create ~policy:Smp.Per_core ~cores:2 optiplex in
  Smp.set_freq low ~now:Sim_time.zero ~domain:1 1600;
  Smp.record_power low ~dt:(sec 10) ~core_utils:[| 1.0; 0.0 |];
  check_bool "leakage savings" true (Smp.energy_joules low < Smp.energy_joules high)

(* ------------------------------------------------------------------ *)
(* Smp_host dispatch *)

let smp_host_parallelism () =
  (* Two busy 1-vCPU domains on two cores: both should run in parallel and
     each consume ~one core. *)
  let sim = Simulator.create () in
  let smp = Smp.create ~cores:2 optiplex in
  let a = Domain.create ~vcpus:1 ~name:"a" ~credit_pct:50.0 (Workload.busy_loop ()) in
  let b = Domain.create ~vcpus:1 ~name:"b" ~credit_pct:50.0 (Workload.busy_loop ()) in
  let scheduler = Sched_credit.create ~host_capacity:2 [ a; b ] in
  let host = Smp_host.create ~sim ~smp ~scheduler () in
  Smp_host.run_for host (sec 10);
  check_float_eps 0.1 "a one core" 10.0 (Sim_time.to_sec (Domain.cpu_time a));
  check_float_eps 0.1 "b one core" 10.0 (Sim_time.to_sec (Domain.cpu_time b));
  check_float_eps 0.1 "both cores busy" 20.0 (Sim_time.to_sec (Smp_host.total_busy host))

let smp_host_vcpu_bound () =
  (* A single 1-vCPU domain cannot use more than one core's worth of time
     even with the whole host to itself. *)
  let sim = Simulator.create () in
  let smp = Smp.create ~cores:2 optiplex in
  let a = Domain.create ~vcpus:1 ~name:"a" ~credit_pct:0.0 (Workload.busy_loop ()) in
  let scheduler = Sched_credit.create ~host_capacity:2 [ a ] in
  let host = Smp_host.create ~sim ~smp ~scheduler () in
  Smp_host.run_for host (sec 10);
  check_float_eps 0.1 "half the host" 10.0 (Sim_time.to_sec (Domain.cpu_time a))

let smp_host_two_vcpus () =
  let sim = Simulator.create () in
  let smp = Smp.create ~cores:2 optiplex in
  let a = Domain.create ~vcpus:2 ~name:"a" ~credit_pct:0.0 (Workload.busy_loop ()) in
  let scheduler = Sched_credit.create ~host_capacity:2 [ a ] in
  let host = Smp_host.create ~sim ~smp ~scheduler () in
  Smp_host.run_for host (sec 10);
  check_float_eps 0.1 "whole host" 20.0 (Sim_time.to_sec (Domain.cpu_time a))

let smp_host_credit_is_host_wide () =
  (* 20% credit of a 2-core host = 0.4 core-seconds per second. *)
  let sim = Simulator.create () in
  let smp = Smp.create ~cores:2 optiplex in
  let a = Domain.create ~vcpus:1 ~name:"a" ~credit_pct:20.0 (Workload.busy_loop ()) in
  let scheduler = Sched_credit.create ~host_capacity:2 [ a ] in
  let host = Smp_host.create ~sim ~smp ~scheduler () in
  Smp_host.run_for host (sec 10);
  check_float_eps 0.1 "40% of one core" 4.0 (Sim_time.to_sec (Domain.cpu_time a))

let smp_host_work_tracking () =
  let sim = Simulator.create () in
  let smp = Smp.create ~init_freq:1600 ~cores:2 optiplex in
  let a = Domain.create ~vcpus:1 ~name:"a" ~credit_pct:0.0 (Workload.busy_loop ()) in
  let scheduler = Sched_credit.create ~host_capacity:2 [ a ] in
  let host = Smp_host.create ~sim ~smp ~scheduler () in
  Smp_host.run_for host (sec 10);
  (* One core at ratio 0.6 for 10 s. *)
  check_float_eps 0.1 "frequency-weighted work" (10.0 *. 1600.0 /. 2667.0)
    (Smp_host.domain_work host a)

(* ------------------------------------------------------------------ *)
(* Max-core ondemand and PAS-SMP *)

let smp_host_series () =
  let sim = Simulator.create () in
  let smp = Smp.create ~cores:2 optiplex in
  let a = Domain.create ~vcpus:1 ~name:"a" ~credit_pct:40.0 (Workload.busy_loop ()) in
  let scheduler = Sched_credit.create ~host_capacity:2 [ a ] in
  let host = Smp_host.create ~sim ~smp ~scheduler () in
  Smp_host.run_for host (sec 10);
  let load = Smp_host.series_domain_load host a in
  (* 40% of the whole 2-core host = 0.8 core-seconds/s = 40% host time. *)
  check_float_eps 0.5 "host-time share" 40.0 (Series.mean load);
  check_float_eps 0.5 "absolute at max freq" 40.0
    (Series.mean (Smp_host.series_domain_absolute_load host a));
  check_int "freq series sampled" 10 (Series.length (Smp_host.series_domain_frequency host ~domain:0));
  Alcotest.check_raises "bad domain"
    (Invalid_argument "Smp_host.series_domain_frequency: domain out of range") (fun () ->
      ignore (Smp_host.series_domain_frequency host ~domain:7))

let max_core_rule_keeps_package_fast () =
  (* A work-conserving scheduler compacts the busy VM on one core; the
     max-over-cores rule must keep the package at maximum frequency. *)
  let sim = Simulator.create () in
  let smp = Smp.create ~cores:2 i7 in
  let busy = Domain.create ~vcpus:1 ~name:"busy" ~credit_pct:20.0 (Workload.busy_loop ()) in
  let lazy_ = Domain.create ~vcpus:1 ~name:"lazy" ~credit_pct:70.0 (Workload.idle ()) in
  let scheduler = Sched_credit2.create [ busy; lazy_ ] in
  let dvfs = Smp_host.ondemand_max_core smp ~period:(Sim_time.of_ms 100) in
  let host = Smp_host.create ~sim ~smp ~scheduler ~dvfs () in
  Smp_host.run_for host (sec 10);
  check_int "package stays at max" 3400 (Smp.current_freq smp ~domain:0)

let max_core_rule_lowers_when_spread () =
  (* Under the fix-credit scheduler the same demand is capped thin: no core
     looks busy and the package clocks down. *)
  let sim = Simulator.create () in
  let smp = Smp.create ~cores:2 i7 in
  let busy = Domain.create ~vcpus:1 ~name:"busy" ~credit_pct:20.0 (Workload.busy_loop ()) in
  let lazy_ = Domain.create ~vcpus:1 ~name:"lazy" ~credit_pct:70.0 (Workload.idle ()) in
  let scheduler = Sched_credit.create ~host_capacity:2 [ busy; lazy_ ] in
  let dvfs = Smp_host.ondemand_max_core smp ~period:(Sim_time.of_ms 100) in
  let host = Smp_host.create ~sim ~smp ~scheduler ~dvfs () in
  Smp_host.run_for host (sec 10);
  check_int "package clocked down" 1600 (Smp.current_freq smp ~domain:0)

let pas_smp_compensates () =
  let sim = Simulator.create () in
  let smp = Smp.create ~cores:2 optiplex in
  let app = Workloads.Web_app.create ~rate_schedule:(Workloads.Phases.constant ~rate:1.0) () in
  let v20 =
    Domain.create ~vcpus:1 ~name:"V20" ~credit_pct:20.0 (Workloads.Web_app.workload app)
  in
  let v70 = Domain.create ~vcpus:1 ~name:"V70" ~credit_pct:70.0 (Workload.idle ()) in
  let domains = [ v20; v70 ] in
  let scheduler = Sched_credit.create ~host_capacity:2 domains in
  let pas = Pas.Pas_smp.create ~smp ~scheduler domains in
  let host = Smp_host.create ~sim ~smp ~scheduler ~dvfs:(Pas.Pas_smp.policy pas) () in
  Smp_host.run_for host (sec 30);
  check_int "package slow" 1600 (Smp.current_freq smp ~domain:0);
  check_bool "evaluations" true (Pas.Pas_smp.evaluations pas > 10);
  (* V20 must keep 20% of the host's maximum capacity: work rate 0.4 abs/s
     on a 2-core host. *)
  let expected = 0.2 *. 2.0 *. 30.0 in
  check_float_eps 1.0 "absolute capacity held" expected (Smp_host.domain_work host v20);
  check_float_eps 0.2 "credit compensated" (20.0 *. 2667.0 /. 1600.0)
    (scheduler.Hypervisor.Scheduler.effective_credit v20)

(* Deferral on the SMP host: random web and pi guests with one or two
   vCPUs on two cores, run plainly and with every workload wrapped for
   every-tick advance ({!Every_tick.wrap}); every domain's CPU time and
   work, the energy and the apps' counters must agree. *)
let smp_deferral_run seed =
  let rng = Random.State.make [| seed |] in
  let int n = Random.State.int rng n in
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
    let sim = Simulator.create () in
    let smp = Smp.create ~cores:2 optiplex in
    let scheduler = Sched_credit.create ~host_capacity:2 domains in
    let host = Smp_host.create ~sim ~smp ~scheduler () in
    Smp_host.run_for host (sec 10);
    let buf = Buffer.create 512 in
    Printf.bprintf buf "energy=%h\n" (Smp_host.energy_joules host);
    List.iter
      (fun d ->
        Printf.bprintf buf "%s cpu=%d work=%h\n" (Domain.name d)
          (Sim_time.to_us (Domain.cpu_time d)) (Smp_host.domain_work host d))
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
        ] );
      ( "host",
        [
          Alcotest.test_case "parallel dispatch" `Quick smp_host_parallelism;
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
