module Domain = Hypervisor.Domain
module Host = Hypervisor.Host
module Processor = Cpu_model.Processor

(* The reactivity scenario ([Scenario.run_switch]): once V70 goes idle at
   [switch] the frequency drops, and the PAS variant under test must
   promptly raise V20's credit. *)
let implementation_run ~seed:_ ~scale =
  let t sec = Sim_time.of_sec_f (sec *. scale) in
  let switch = t 600.0 and duration = t 1200.0 in
  let run_variant name build =
    let host, v20 =
      Scenario.run_switch ~switch ~duration ~build_host:(fun domains ->
          let sim = Simulator.create () in
          let processor = Processor.create Cpu_model.Arch.optiplex_755 in
          let scheduler, governor, arm_daemon = build sim processor domains in
          let host = Host.create ~sim ~processor ~scheduler ?governor () in
          arm_daemon host scheduler;
          host)
    in
    let transition = Scenario.deficit_between host v20 switch (t 660.0) in
    let steady = Scenario.deficit_between host v20 (t 660.0) (t 1150.0) in
    (name, transition, steady)
  in
  let variants =
    [
      run_variant "in-hypervisor (100 ms)" (fun _sim processor domains ->
          let pas = Pas.Pas_sched.create ~processor domains in
          (Pas.Pas_sched.scheduler pas, None, fun _ _ -> ()));
      run_variant "user-level credit-only (1 s)" (fun sim processor domains ->
          let scheduler = Sched_credit.create domains in
          let governor = Governors.Stable_ondemand.create processor in
          ( scheduler,
            Some governor,
            fun _host sched ->
              ignore (Pas.User_level.credit_manager ~sim ~processor ~scheduler:sched domains)
          ));
      run_variant "user-level credit+DVFS (500 ms)" (fun sim processor domains ->
          let scheduler = Sched_credit.create domains in
          let userspace = Governors.Userspace.create processor in
          let governor = Governors.Userspace.governor userspace in
          ( scheduler,
            Some governor,
            fun host sched ->
              ignore
                (Pas.User_level.full_manager ~sim ~processor ~scheduler:sched ~userspace
                   ~utilization:(Host.utilization_probe host) domains) ));
    ]
  in
  let summary =
    Table.create
      ~columns:
        [
          ("PAS implementation", Table.Left);
          ("V20 deficit, 60 s after switch (pts)", Table.Right);
          ("V20 deficit, steady state (pts)", Table.Right);
        ]
  in
  List.iter
    (fun (name, transition, steady) ->
      Table.add_row summary [ name; Table.cell_f transition; Table.cell_f steady ])
    variants;
  {
    Experiment.id = "ablation-impl";
    title = "Reactivity of the three PAS implementation levels (§4.1)";
    summary;
    plots = [];
    frames = [];
    notes =
      [
        "V70 goes idle mid-run; the frequency drops and V20's credit must be recomputed.";
        "expected: the in-hypervisor variant compensates fastest; user-level variants lag";
      ];
  }

let energy_run ~seed:_ ~scale =
  let configs =
    [
      ("credit + performance", Domconfig.Credit, Domconfig.Performance);
      ("credit + stock ondemand", Domconfig.Credit, Domconfig.Ondemand);
      ("credit + stable ondemand", Domconfig.Credit, Domconfig.Stable);
      ("credit2 + stable ondemand", Domconfig.Credit2, Domconfig.Stable);
      ("sedf + stable ondemand", Domconfig.Sedf, Domconfig.Stable);
      ("PAS", Domconfig.Pas_sched, Domconfig.No_governor);
    ]
  in
  let summary =
    Table.create
      ~columns:
        [
          ("configuration", Table.Left);
          ("energy (kJ)", Table.Right);
          ("mean power (W)", Table.Right);
          ("V20 deficit (pts)", Table.Right);
          ("V70 deficit (pts)", Table.Right);
        ]
  in
  List.iter
    (fun (name, sched, gov) ->
      let r = Scenario.run (Scenario.spec ~sched ~gov ~load:Scenario.Thrashing ~scale ()) in
      Table.add_row summary
        [
          name;
          Table.cell_f (Host.energy_joules (Scenario.host r) /. 1000.0);
          Table.cell_f (Host.mean_watts (Scenario.host r));
          Table.cell_f (Scenario.sla_deficit r (Scenario.v20 r));
          Table.cell_f (Scenario.sla_deficit r (Scenario.v70 r));
        ])
    configs;
  {
    Experiment.id = "ablation-energy";
    title = "Energy vs SLA compliance per scheduler/governor (thrashing profile)";
    summary;
    plots = [];
    frames = [];
    notes =
      [
        "expected: stock/stable ondemand save energy but starve V20 (fix credit);";
        "SEDF/credit2 honour demand but burn energy; PAS achieves both goals";
      ];
  }

let implementation =
  {
    Experiment.id = "ablation-impl";
    title = "Reactivity of the three PAS implementation levels (§4.1)";
    paper_ref = "§4.1";
    run = implementation_run;
  }

let energy =
  {
    Experiment.id = "ablation-energy";
    title = "Energy vs SLA compliance per scheduler/governor";
    paper_ref = "§3.2 (motivation)";
    run = energy_run;
  }

let all = [ implementation; energy ]
