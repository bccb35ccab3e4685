module Domain = Hypervisor.Domain
module Host = Hypervisor.Host
module Processor = Cpu_model.Processor

let pas_window_run ~seed:_ ~scale =
  let windows = [ 30; 100; 300; 1000 ] in
  let summary =
    Table.create
      ~columns:
        [
          ("PAS window (ms)", Table.Right);
          ("V20 deficit, 60 s after switch (pts)", Table.Right);
          ("steady deficit (pts)", Table.Right);
          ("PAS evaluations", Table.Right);
        ]
  in
  let t sec = Sim_time.of_sec_f (sec *. scale) in
  let switch = t 300.0 and duration = t 600.0 in
  List.iter
    (fun window_ms ->
      let pas_ref = ref None in
      let host, v20 =
        Scenario.run_switch ~switch ~duration ~build_host:(fun domains ->
            let sim = Simulator.create () in
            let processor = Processor.create Cpu_model.Arch.optiplex_755 in
            let pas =
              Pas.Pas_sched.create ~window:(Sim_time.of_ms window_ms) ~processor domains
            in
            pas_ref := Some pas;
            Host.create ~sim ~processor ~scheduler:(Pas.Pas_sched.scheduler pas) ())
      in
      let after = Sim_time.add switch (Sim_time.of_sec_f (60.0 *. scale)) in
      let steady_from = Sim_time.add switch (Sim_time.of_sec_f (120.0 *. scale)) in
      Table.add_row summary
        [
          string_of_int window_ms;
          Table.cell_f (Scenario.deficit_between host v20 switch after);
          Table.cell_f (Scenario.deficit_between host v20 steady_from duration);
          string_of_int
            (match !pas_ref with Some p -> Pas.Pas_sched.evaluations p | None -> 0);
        ])
    windows;
  {
    Experiment.id = "ablation-window";
    title = "PAS evaluation-window sweep";
    summary;
    plots = [];
    frames = [];
    notes =
      [
        "shorter windows compensate a frequency change faster (smaller transition";
        "deficit) at the cost of more evaluations - the in-hypervisor argument of 4.1";
      ];
  }

let governor_sampling_run ~seed:_ ~scale =
  let periods_ms = [ 2; 5; 20; 100; 200 ] in
  let summary =
    Table.create
      ~columns:
        [
          ("sampling window (ms)", Table.Right);
          ("freq transitions", Table.Right);
          ("V20 absolute load %", Table.Right);
          ("energy (kJ)", Table.Right);
        ]
  in
  List.iter
    (fun period_ms ->
      let t sec = Sim_time.of_sec_f (sec *. scale) in
      let duration = t 600.0 in
      let v20_app =
        Workloads.Web_app.create ~rate_schedule:(Workloads.Phases.constant ~rate:0.20) ()
      in
      let v20 =
        Domain.create ~name:"V20" ~credit_pct:20.0 (Workloads.Web_app.workload v20_app)
      in
      let v70 = Domain.create ~name:"V70" ~credit_pct:70.0 (Workloads.Workload.idle ()) in
      let dom0 =
        Domain.create ~is_dom0:true ~name:"Dom0" ~credit_pct:10.0 (Workloads.Workload.idle ())
      in
      let sim = Simulator.create () in
      let processor = Processor.create Cpu_model.Arch.optiplex_755 in
      let scheduler = Sched_credit.create [ dom0; v20; v70 ] in
      let governor = Governors.Ondemand.create ~period:(Sim_time.of_ms period_ms) processor in
      let host = Host.create ~sim ~processor ~scheduler ~governor () in
      Host.run_for host duration;
      let abs = Host.series_domain_absolute_load host v20 in
      Table.add_row summary
        [
          string_of_int period_ms;
          string_of_int (Cpu_model.Cpufreq.transitions (Processor.cpufreq processor));
          Table.cell_f (Series.mean_between abs (t 60.0) duration);
          Table.cell_f (Host.energy_joules host /. 1000.0);
        ])
    periods_ms;
  {
    Experiment.id = "ablation-sampling";
    title = "Stock-ondemand sampling-window sweep (the Fig. 3 oscillation knob)";
    summary;
    plots = [];
    frames = [];
    notes =
      [
        "sub-accounting-period windows (< 30 ms) see the capped VM's burst and flap";
        "between P-states (Fig. 3); longer windows average it away (Fig. 4's cure)";
        "but every fix-credit variant still under-delivers V20's 20% absolute";
      ];
  }

let pas_window =
  {
    Experiment.id = "ablation-window";
    title = "PAS evaluation-window sweep";
    paper_ref = "§4.1 (reactivity discussion)";
    run = pas_window_run;
  }

let governor_sampling =
  {
    Experiment.id = "ablation-sampling";
    title = "Stock-ondemand sampling-window sweep";
    paper_ref = "§5.4 (Fig. 3 vs Fig. 4)";
    run = governor_sampling_run;
  }

let all = [ pas_window; governor_sampling ]
