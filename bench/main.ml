(* Bechamel micro-benchmarks of the hot paths (one Test.make per
   component: event queue, dispatch tick, scheduler picks, governor steps,
   the PAS equations and evaluation).  The paper's tables and figures are
   regenerated by [experiments_main run-all]. *)

open Bechamel
open Toolkit

module Domain = Hypervisor.Domain
module Scheduler = Hypervisor.Scheduler
module Processor = Cpu_model.Processor
module Sim_time = Sim_engine.Sim_time
module Simulator = Sim_engine.Simulator
module Heap = Sim_engine.Heap
module Prng = Sim_engine.Prng

(* ------------------------------------------------------------------ *)
(* Micro-benchmark fixtures *)

let bench_heap =
  Test.make ~name:"engine/heap push+pop x100"
    (Staged.stage (fun () ->
         let h = Heap.create ~cmp:Int.compare in
         for i = 0 to 99 do
           Heap.push h ((i * 7919) mod 101)
         done;
         while not (Heap.is_empty h) do
           ignore (Heap.pop h)
         done))

let bench_simulator =
  Test.make ~name:"engine/simulator 1000 events"
    (Staged.stage (fun () ->
         let sim = Simulator.create () in
         for i = 1 to 1000 do
           ignore (Simulator.at sim (Sim_time.of_us i) (fun () -> ()))
         done;
         Simulator.run sim))

let bench_prng =
  Test.make ~name:"engine/prng poisson x100"
    (let rng = Prng.create ~seed:42 in
     Staged.stage (fun () ->
         for _ = 1 to 100 do
           ignore (Prng.poisson rng ~mean:5.0)
         done))

let contended_domains () =
  [
    Domain.create ~is_dom0:true ~name:"dom0" ~credit_pct:10.0 (Workloads.Workload.busy_loop ());
    Domain.create ~name:"a" ~credit_pct:20.0 (Workloads.Workload.busy_loop ());
    Domain.create ~name:"b" ~credit_pct:70.0 (Workloads.Workload.busy_loop ());
  ]

let bench_pick name make_sched =
  let sched = make_sched (contended_domains ()) in
  let exclude = Scheduler.Mask.create () in
  Test.make ~name
    (Staged.stage (fun () ->
         match
           sched.Scheduler.pick ~now:Sim_time.zero ~remaining:(Sim_time.of_ms 1) ~exclude
         with
         | Some { Scheduler.domain; _ } ->
             sched.Scheduler.charge ~domain ~now:Sim_time.zero ~used:(Sim_time.of_us 10)
         | None -> ()))

let bench_equations =
  let table = Cpu_model.Arch.optiplex_755.Cpu_model.Arch.freq_table in
  let cal = Cpu_model.Arch.optiplex_755.Cpu_model.Arch.calibration in
  Test.make ~name:"pas/compute_new_freq x100"
    (Staged.stage (fun () ->
         for load = 0 to 100 do
           ignore (Pas.Equations.compute_new_freq table cal ~absolute_load:(float_of_int load))
         done))

let bench_governor =
  let processor = Processor.create Cpu_model.Arch.optiplex_755 in
  let gov = Governors.Stable_ondemand.create processor in
  let now = ref Sim_time.zero in
  Test.make ~name:"governors/stable-ondemand observe"
    (Staged.stage (fun () ->
         now := Sim_time.add !now (Sim_time.of_ms 100);
         gov.Governors.Governor.observe ~now:!now ~busy_fraction:0.42))

let bench_web_app =
  let app =
    Workloads.Web_app.create ~rate_schedule:(Workloads.Phases.constant ~rate:0.5) ()
  in
  let w = Workloads.Web_app.workload app in
  let now = ref Sim_time.zero in
  Test.make ~name:"workloads/web-app advance+execute 1ms"
    (Staged.stage (fun () ->
         now := Sim_time.add !now (Sim_time.of_ms 1);
         Workloads.Workload.advance w ~now:!now ~dt:(Sim_time.of_ms 1);
         if Workloads.Workload.has_work w then
           ignore
             (Workloads.Workload.execute w ~now:!now ~cpu_time:(Sim_time.of_ms 1) ~speed:1.0)))

let bench_host_second =
  Test.make ~name:"hypervisor/host 1s simulated (credit, 3 domains)"
    (Staged.stage (fun () ->
         let sim = Simulator.create () in
         let processor = Processor.create Cpu_model.Arch.optiplex_755 in
         let scheduler = Sched_credit.create (contended_domains ()) in
         let host = Hypervisor.Host.create ~sim ~processor ~scheduler () in
         Hypervisor.Host.run_for host (Sim_time.of_sec 1)))

let bench_pas_second =
  Test.make ~name:"hypervisor/host 1s simulated (PAS, 3 domains)"
    (Staged.stage (fun () ->
         let sim = Simulator.create () in
         let processor = Processor.create Cpu_model.Arch.optiplex_755 in
         let pas = Pas.Pas_sched.create ~processor (contended_domains ()) in
         let host =
           Hypervisor.Host.create ~sim ~processor ~scheduler:(Pas.Pas_sched.scheduler pas) ()
         in
         Hypervisor.Host.run_for host (Sim_time.of_sec 1)))

let bench_smp_second =
  Test.make ~name:"hypervisor/smp-host 1s simulated (2 cores)"
    (Staged.stage (fun () ->
         let sim = Simulator.create () in
         let smp = Cpu_model.Smp.create ~cores:2 Cpu_model.Arch.optiplex_755 in
         let scheduler = Sched_credit.create ~host_capacity:2 (contended_domains ()) in
         let host = Hypervisor.Smp_host.create ~sim ~smp ~scheduler () in
         Hypervisor.Smp_host.run_for host (Sim_time.of_sec 1)))

let bench_placement =
  let items =
    List.init 64 (fun i ->
        { Cluster.Placement.id = i; memory_mb = 256 + (i * 37 mod 1800); cpu_pct = 5.0 })
  in
  Test.make ~name:"cluster/pack 64 VMs (FFD)"
    (Staged.stage (fun () ->
         ignore
           (Cluster.Placement.pack Cluster.Placement.First_fit_decreasing ~node_count:16
              ~memory_capacity_mb:8192 ~cpu_capacity_pct:90.0 items)))

let bench_domconfig =
  let text =
    "host scheduler=pas governor=none duration=10\n"
    ^ String.concat "\n"
        (List.init 16 (fun i ->
             Printf.sprintf "domain name=vm%d credit=5 workload=web rate=0.02" i))
  in
  Test.make ~name:"domconfig/parse 16-domain config"
    (Staged.stage (fun () -> ignore (Domconfig.parse text)))

let micro_tests =
  [
    bench_heap;
    bench_simulator;
    bench_prng;
    bench_pick "sched/credit pick+charge" (fun d -> Sched_credit.create d);
    bench_pick "sched/sedf pick+charge" (fun d -> Sched_sedf.create d);
    bench_pick "sched/credit2 pick+charge" (fun d -> Sched_credit2.create d);
    bench_equations;
    bench_governor;
    bench_web_app;
    bench_host_second;
    bench_pas_second;
    bench_smp_second;
    bench_placement;
    bench_domconfig;
  ]

let run_micro_benchmarks () =
  print_endline "== micro-benchmarks (Bechamel, OLS ns/run) ==";
  let ols = Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |] in
  let instances = Instance.[ monotonic_clock ] in
  let cfg = Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.5) ~kde:None () in
  let grouped = Test.make_grouped ~name:"dvfs" micro_tests in
  let raw = Benchmark.all cfg instances grouped in
  let results = Analyze.all ols Instance.monotonic_clock raw in
  let rows = Hashtbl.fold (fun name ols acc -> (name, ols) :: acc) results [] in
  let rows = List.sort (fun (a, _) (b, _) -> String.compare a b) rows in
  List.iter
    (fun (name, ols) ->
      let estimate =
        match Analyze.OLS.estimates ols with Some (e :: _) -> e | Some [] | None -> nan
      in
      let r2 = match Analyze.OLS.r_square ols with Some r -> r | None -> nan in
      Printf.printf "  %-52s %14.1f ns/run   r2=%.3f\n" name estimate r2)
    rows;
  print_newline ()

let () = run_micro_benchmarks ()
