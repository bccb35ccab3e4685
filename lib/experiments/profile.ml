type view = Global | Absolute

let phase_name = function Scenario.A -> "A (V20 alone)" | B -> "B (both)" | C -> "C (V70 alone)"

let make ~id ~title ~paper_ref ~sched ~gov ~load ~view ~expected =
  let run ~seed:_ ~scale =
    let r = Scenario.run (Scenario.spec ~sched ~gov ~load ~scale ()) in
    let columns =
      ("series", Table.Left)
      :: List.map (fun p -> (phase_name p, Table.Right)) [ Scenario.A; B; C ]
    in
    let table = Table.create ~columns in
    let row name series =
      Table.add_row table
        (name
        :: List.map
             (fun p -> Table.cell_f (Scenario.phase_mean r p series))
             [ Scenario.A; B; C ])
    in
    row "V20 global load %" (Scenario.v20_load r);
    row "V70 global load %" (Scenario.v70_load r);
    row "V20 absolute load %" (Scenario.v20_absolute r);
    row "V70 absolute load %" (Scenario.v70_absolute r);
    Table.add_rule table;
    row "frequency MHz" (Scenario.frequency r);
    let load_plot =
      let p = Plot.create ~y_min:0.0 ~y_max:100.0 ~title:(title ^ " — loads (%)") () in
      (match view with
      | Global ->
          Plot.add p (Scenario.v20_load r);
          Plot.add p (Scenario.v70_load r)
      | Absolute ->
          Plot.add p (Scenario.v20_absolute r);
          Plot.add p (Scenario.v70_absolute r));
      p
    in
    let freq_plot =
      let p = Plot.create ~y_min:0.0 ~y_max:2800.0 ~title:(title ^ " — frequency (MHz)") () in
      Plot.add p (Scenario.frequency r);
      p
    in
    let notes =
      expected
      @ [
          Printf.sprintf "V20 SLA deficit: %.2f points; energy: %.0f J; mean power: %.1f W"
            (Scenario.sla_deficit r (Scenario.v20 r))
            (Hypervisor.Host.energy_joules (Scenario.host r))
            (Hypervisor.Host.mean_watts (Scenario.host r));
        ]
      @
      match Scenario.pas r with
      | Some p ->
          [
            Printf.sprintf
              "PAS: %d evaluations, %d frequency decisions, V20 effective credit at end %.1f%%"
              (Pas.Pas_sched.evaluations p)
              (Pas.Pas_sched.frequency_decisions p)
              (Pas.Pas_sched.effective_credit p (Scenario.v20 r));
          ]
      | None -> []
    in
    {
      Experiment.id;
      title;
      summary = table;
      plots = [ load_plot; freq_plot ];
      frames = [ ("series", Hypervisor.Host.frame (Scenario.host r)) ];
      notes;
    }
  in
  { Experiment.id; title; paper_ref; run }

let fig2 =
  make ~id:"fig2" ~title:"Load profile at maximum frequency" ~paper_ref:"Fig. 2, §5.3"
    ~sched:Domconfig.Credit ~gov:Domconfig.Performance ~load:Scenario.Exact ~view:Global
    ~expected:
      [ "paper: V20 plateaus at 20%, V70 at 70%, frequency pinned at 2667 MHz" ]

let fig3 =
  make ~id:"fig3" ~title:"Credit scheduler under stock ondemand (oscillating)"
    ~paper_ref:"Fig. 3, §5.4" ~sched:Domconfig.Credit ~gov:Domconfig.Ondemand
    ~load:Scenario.Exact ~view:Global
    ~expected:
      [
        "paper: same plateaus as Fig. 2 but the frequency trace oscillates wildly";
        "check the frequency plot: the mean sits between P-states because of the flapping";
      ]

let fig4 =
  make ~id:"fig4" ~title:"Credit scheduler under the authors' stable governor"
    ~paper_ref:"Fig. 4, §5.4" ~sched:Domconfig.Credit ~gov:Domconfig.Stable
    ~load:Scenario.Exact ~view:Global
    ~expected:
      [ "paper: identical plateaus, stable staircase frequency (1600 MHz in phase A)" ]

let fig5 =
  make ~id:"fig5" ~title:"Absolute loads: fix credit penalises V20" ~paper_ref:"Fig. 5, §5.4"
    ~sched:Domconfig.Credit ~gov:Domconfig.Stable ~load:Scenario.Exact ~view:Absolute
    ~expected:
      [
        "paper: V20 absolute load ~10-12% in phase A (penalised by the low frequency),";
        "climbing to 20% in phase B once V70's activity raises the frequency";
      ]

let fig6 =
  make ~id:"fig6" ~title:"SEDF global loads under exact load" ~paper_ref:"Fig. 6, §5.5"
    ~sched:Domconfig.Sedf ~gov:Domconfig.Stable ~load:Scenario.Exact ~view:Global
    ~expected:
      [ "paper: V20 at ~35% in phase A (unused slices), back to 20% in phase B" ]

let fig7 =
  make ~id:"fig7" ~title:"SEDF absolute loads under exact load" ~paper_ref:"Fig. 7, §5.5"
    ~sched:Domconfig.Sedf ~gov:Domconfig.Stable ~load:Scenario.Exact ~view:Absolute
    ~expected:[ "paper: V20 holds 20% absolute during the entire experiment" ]

let fig8 =
  make ~id:"fig8" ~title:"SEDF under thrashing load: frequency stuck at max"
    ~paper_ref:"Fig. 8, §5.6" ~sched:Domconfig.Sedf ~gov:Domconfig.Stable
    ~load:Scenario.Thrashing ~view:Global
    ~expected:
      [
        "paper: V20 consumes ~85% in phase A, preventing any frequency reduction";
        "(global = absolute here since the frequency never leaves the maximum)";
      ]

let fig9 =
  make ~id:"fig9" ~title:"PAS global loads under thrashing load" ~paper_ref:"Fig. 9, §5.7"
    ~sched:Domconfig.Pas_sched ~gov:Domconfig.No_governor ~load:Scenario.Thrashing
    ~view:Global
    ~expected:
      [
        "paper: V20 granted 33% of credit at 1600 MHz in phase A, 20% at 2667 MHz in phase B";
      ]

let fig10 =
  make ~id:"fig10" ~title:"PAS absolute loads under thrashing load" ~paper_ref:"Fig. 10, §5.7"
    ~sched:Domconfig.Pas_sched ~gov:Domconfig.No_governor ~load:Scenario.Thrashing
    ~view:Absolute
    ~expected:
      [ "paper: V20 holds 20% absolute in every phase; frequency low while V70 is lazy" ]

let all = [ fig2; fig3; fig4; fig5; fig6; fig7; fig8; fig9; fig10 ]
