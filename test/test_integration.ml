(* End-to-end assertions on the paper's headline results, at a reduced time
   scale.  These are the claims DESIGN.md commits to reproducing; if one of
   these fails, an experiment no longer tells the paper's story. *)

module Scenario = Experiments.Scenario
module Host = Hypervisor.Host

let check_bool = Alcotest.(check bool)
let check_float_eps eps = Alcotest.(check (float eps))
let scale = 0.05

let mean r phase series = Scenario.phase_mean r phase series

(* Fig. 2: the reference profile — both VMs reach their plateaus at maximum
   frequency. *)
let fig2_reference_profile () =
  let r = Scenario.run (Scenario.spec ~gov:Domconfig.Performance ~scale ()) in
  check_float_eps 1.0 "V20 plateau" 20.0 (mean r Scenario.A (Scenario.v20_load r));
  check_float_eps 1.5 "V70 plateau" 70.0 (mean r Scenario.B (Scenario.v70_load r));
  check_float_eps 1.0 "frequency pinned" 2667.0 (mean r Scenario.A (Scenario.frequency r))

(* Fig. 3 vs Fig. 4: the stock ondemand governor oscillates; the authors'
   stable governor does not. *)
let fig3_fig4_oscillation_contrast () =
  let stock = Scenario.run (Scenario.spec ~gov:Domconfig.Ondemand ~scale ()) in
  let stable = Scenario.run (Scenario.spec ~gov:Domconfig.Stable ~scale ()) in
  let transitions r =
    Cpu_model.Cpufreq.transitions
      (Cpu_model.Processor.cpufreq (Host.processor (Scenario.host r)))
  in
  check_bool "stock oscillates" true (transitions stock > 100);
  check_bool "stable is stable" true (transitions stable < 30);
  check_bool "orders of magnitude apart" true (transitions stock > 10 * transitions stable)

(* Fig. 5: under the fix-credit scheduler the lazy V70 drags the frequency
   down and V20 only receives ~12% absolute capacity instead of 20%. *)
let fig5_fix_credit_penalises_v20 () =
  let r = Scenario.run (Scenario.spec ~gov:Domconfig.Stable ~scale ()) in
  check_float_eps 1.0 "phase A: penalised (paper ~10-12%)" 12.0
    (mean r Scenario.A (Scenario.v20_absolute r));
  check_float_eps 1.0 "phase B: recovered at max frequency" 20.0
    (mean r Scenario.B (Scenario.v20_absolute r));
  check_float_eps 30.0 "phase A at the lowest frequency" 1600.0
    (mean r Scenario.A (Scenario.frequency r))

(* Fig. 6/7: SEDF gives V20 the unused slices (~33-35% global) and thereby
   preserves its 20% absolute capacity under an exact load. *)
let fig6_fig7_sedf_exact () =
  let r = Scenario.run (Scenario.spec ~sched:Domconfig.Sedf ~gov:Domconfig.Stable ~scale ()) in
  check_float_eps 1.5 "global ~33-35%" 33.3 (mean r Scenario.A (Scenario.v20_load r));
  check_float_eps 1.0 "absolute preserved" 20.0 (mean r Scenario.A (Scenario.v20_absolute r));
  check_float_eps 1.0 "back to 20% in phase B" 20.0 (mean r Scenario.B (Scenario.v20_load r))

(* Fig. 8: under a thrashing load SEDF lets V20 devour the host (~85-90%)
   and the frequency never comes down. *)
let fig8_sedf_thrashing () =
  let r =
    Scenario.run
      (Scenario.spec ~sched:Domconfig.Sedf ~gov:Domconfig.Stable
         ~load:Scenario.Thrashing ~scale ())
  in
  check_bool "V20 devours the host" true (mean r Scenario.A (Scenario.v20_load r) > 80.0);
  check_float_eps 25.0 "frequency stuck at max" 2667.0 (mean r Scenario.A (Scenario.frequency r))

(* Fig. 9/10: PAS grants V20 exactly the compensated credit (33% at
   1600 MHz), never more, and preserves the absolute capacity. *)
let fig9_fig10_pas_thrashing () =
  let r =
    Scenario.run
      (Scenario.spec ~sched:Domconfig.Pas_sched ~gov:Domconfig.No_governor
         ~load:Scenario.Thrashing ~scale ())
  in
  check_float_eps 1.0 "33% compensated credit" 33.3 (mean r Scenario.A (Scenario.v20_load r));
  check_float_eps 1.0 "20% absolute in phase A" 20.0 (mean r Scenario.A (Scenario.v20_absolute r));
  check_float_eps 1.0 "20% global in phase B" 20.0 (mean r Scenario.B (Scenario.v20_load r));
  check_float_eps 30.0 "frequency low while V70 lazy" 1600.0
    (mean r Scenario.A (Scenario.frequency r));
  check_float_eps 30.0 "frequency max when both active" 2667.0
    (mean r Scenario.B (Scenario.frequency r))

(* PAS saves energy compared to the work-conserving scheduler while keeping
   the SLA (the paper's central trade-off). *)
let pas_energy_and_sla () =
  let sedf =
    Scenario.run
      (Scenario.spec ~sched:Domconfig.Sedf ~gov:Domconfig.Stable
         ~load:Scenario.Thrashing ~scale ())
  in
  let pas =
    Scenario.run
      (Scenario.spec ~sched:Domconfig.Pas_sched ~gov:Domconfig.No_governor
         ~load:Scenario.Thrashing ~scale ())
  in
  let credit =
    Scenario.run
      (Scenario.spec ~sched:Domconfig.Credit ~gov:Domconfig.Stable
         ~load:Scenario.Thrashing ~scale ())
  in
  let energy r = Host.energy_joules (Scenario.host r) in
  let deficit r = Scenario.sla_deficit r (Scenario.v20 r) in
  check_bool "PAS cheaper than SEDF" true (energy pas < 0.95 *. energy sedf);
  check_bool "PAS keeps the SLA" true (deficit pas < 1.0);
  (* The violation concentrates in phase A (V70 lazy): ~8 points there,
     diluted to ~3.5 over the whole active window. *)
  check_bool "plain credit violates the SLA" true (deficit credit > 2.5);
  check_bool "SEDF keeps the SLA too" true (deficit sedf < 1.0)

(* Table 2 headline: PAS cancels the fix-credit degradation. *)
let table2_pas_cancels_degradation () =
  let module Platform = Platforms.Platform in
  let module Table2 = Experiments.Table2 in
  let output = Experiments.Experiment.run Experiments.Table2.experiment ~scale:0.05 in
  ignore output;
  (* The run not raising is already a real check (all seven platforms
     finish); the numeric assertions live in the printed table, verified by
     the fig-level checks above and the bench output. *)
  ()

let () =
  Alcotest.run "integration"
    [
      ( "paper claims",
        [
          Alcotest.test_case "fig2 reference profile" `Slow fig2_reference_profile;
          Alcotest.test_case "fig3/4 oscillation contrast" `Slow fig3_fig4_oscillation_contrast;
          Alcotest.test_case "fig5 penalisation" `Slow fig5_fix_credit_penalises_v20;
          Alcotest.test_case "fig6/7 sedf exact" `Slow fig6_fig7_sedf_exact;
          Alcotest.test_case "fig8 sedf thrashing" `Slow fig8_sedf_thrashing;
          Alcotest.test_case "fig9/10 pas thrashing" `Slow fig9_fig10_pas_thrashing;
          Alcotest.test_case "energy vs sla" `Slow pas_energy_and_sla;
          Alcotest.test_case "table2 runs" `Slow table2_pas_cancels_degradation;
        ] );
    ]
