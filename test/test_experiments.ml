(* Tests for the experiment layer: rigs, scenario runner, registry and
   experiment output plumbing. *)

module Scenario = Experiments.Scenario
module Rig = Experiments.Rig
module Registry = Experiments.Registry
module Experiment = Experiments.Experiment

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_float_eps eps = Alcotest.(check (float eps))

(* ------------------------------------------------------------------ *)
(* Rig *)

let rig_pi_baseline () =
  (* Full credit at maximum frequency: execution time = work. *)
  check_float_eps 0.05 "T = W" 5.0 (Rig.run_pi ~work:5.0 ())

let rig_pi_frequency_scaling () =
  let t = Rig.run_pi ~freq:1600 ~work:5.0 () in
  check_float_eps 0.05 "T = W / ratio" (5.0 *. 2667.0 /. 1600.0) t

let rig_pi_credit_scaling () =
  let t = Rig.run_pi ~credit:25.0 ~work:5.0 () in
  check_float_eps 0.2 "T = W / credit" 20.0 t

let rig_pi_timeout () =
  Alcotest.check_raises "does not finish" (Failure "Rig.run_pi: job did not finish in time")
    (fun () ->
      ignore (Rig.run_pi ~max_sim_time:(Sim_time.of_sec 10) ~credit:10.0 ~work:50.0 ()))

let rig_measure_load () =
  let load = Rig.measure_load ~measure:(Sim_time.of_sec 30) ~rate:0.25 () in
  check_float_eps 0.01 "load = rate / speed at fmax" 0.25 load;
  let load_min = Rig.measure_load ~freq:1600 ~measure:(Sim_time.of_sec 30) ~rate:0.25 () in
  check_float_eps 0.01 "load scales with 1/speed" (0.25 *. 2667.0 /. 1600.0) load_min

let rig_measure_cf_ideal () =
  check_float_eps 0.01 "optiplex cf = 1" 1.0 (Rig.measure_cf 1600)

let rig_measure_cf_nonlinear () =
  let arch = Cpu_model.Arch.elite_8300 in
  check_float_eps 0.01 "i7 cf_min recovered" 0.86206 (Rig.measure_cf ~arch 1600)

(* ------------------------------------------------------------------ *)
(* Scenario *)

let scenario_phases () =
  let r = Scenario.run (Scenario.spec ~scale:0.02 ()) in
  let a_lo, a_hi = Scenario.phase_bounds r Scenario.A in
  check_bool "phase A non-empty" true (Sim_time.compare a_hi a_lo > 0);
  (* V20 active alone in phase A. *)
  check_float_eps 2.0 "V20 active in A" 20.0 (Scenario.phase_mean r Scenario.A (Scenario.v20_load r));
  check_float_eps 2.0 "V70 idle in A" 0.0 (Scenario.phase_mean r Scenario.A (Scenario.v70_load r));
  check_float_eps 3.0 "V70 active in C" 70.0 (Scenario.phase_mean r Scenario.C (Scenario.v70_load r));
  check_bool "deficit non-negative" true (Scenario.sla_deficit r (Scenario.v20 r) >= 0.0)

let scenario_pas_exposed () =
  let r =
    Scenario.run
      (Scenario.spec ~sched:Domconfig.Pas_sched ~gov:Domconfig.No_governor ~scale:0.01 ())
  in
  check_bool "pas instance" true (Scenario.pas r <> None)

let scenario_invalid_scale () =
  Alcotest.check_raises "scale" (Invalid_argument "Scenario.spec: scale must be positive")
    (fun () -> ignore (Scenario.spec ~scale:0.0 ()))

(* The profile subcommand runs the figures' code: under fig4's
   configuration it prints fig4's phase table and measured notes. *)
let cli_profile_matches_fig4 () =
  let exe =
    Filename.concat (Filename.dirname Sys.executable_name) "../bin/experiments_main.exe"
  in
  let output args =
    let out = Filename.temp_file "experiments" ".txt" in
    let code = Sys.command (Filename.quote_command exe args ~stdout:out) in
    check_int (String.concat " " args) 0 code;
    let text = In_channel.with_open_text out In_channel.input_all in
    Sys.remove out;
    String.split_on_char '\n' text
  in
  (* the summary table runs from below the title line to the first blank *)
  let rec upto_blank = function "" :: _ | [] -> [] | l :: rest -> l :: upto_blank rest in
  let table lines = upto_blank (List.tl lines) in
  let notes lines = List.filter (String.starts_with ~prefix:"note: ") lines in
  let fig4 = output [ "run"; "fig4"; "--scale"; "0.1" ] in
  let profile =
    output [ "profile"; "-s"; "credit"; "-g"; "stable"; "-l"; "exact"; "--scale"; "0.1" ]
  in
  check_bool "a phase table" true (List.length (table profile) > 5);
  Alcotest.(check (list string)) "same phase table" (table fig4) (table profile);
  (* fig4's notes are its paper expectations, then the measured ones *)
  let measured = notes profile in
  let skip = List.length (notes fig4) - List.length measured in
  check_bool "measured notes" true (measured <> [] && skip > 0);
  Alcotest.(check (list string))
    "same measured notes" measured
    (List.filteri (fun i _ -> i >= skip) (notes fig4))

(* ------------------------------------------------------------------ *)
(* Registry and outputs *)

let registry_ids_unique () =
  let ids = Registry.ids () in
  check_int "21 experiments" 21 (List.length ids);
  check_int "unique" (List.length ids) (List.length (List.sort_uniq String.compare ids))

let registry_find () =
  check_bool "fig5" true (Registry.find "fig5" <> None);
  check_bool "table2" true (Registry.find "table2" <> None);
  check_bool "missing" true (Registry.find "fig99" = None)

let registry_covers_paper () =
  let ids = Registry.ids () in
  List.iter
    (fun id -> check_bool (id ^ " present") true (List.mem id ids))
    [
      "validation"; "fig1"; "fig2"; "fig3"; "fig4"; "fig5"; "fig6"; "fig7"; "fig8"; "fig9";
      "fig10"; "table1"; "table2"; "ablation-impl"; "ablation-energy"; "ablation-smp";
      "ablation-cluster"; "ablation-window"; "ablation-sampling";
    ]

let experiment_output_and_csv () =
  match Registry.find "fig2" with
  | None -> Alcotest.fail "fig2 missing"
  | Some e ->
      let output = Experiment.run e ~scale:0.01 in
      check_bool "has plots" true (List.length output.Experiment.plots > 0);
      check_bool "has frames" true (List.length output.Experiment.frames > 0);
      let dir = Filename.concat (Filename.get_temp_dir_name ()) "dvfs-test-csv" in
      let written = Experiment.save_csvs output ~dir in
      List.iter
        (fun path ->
          check_bool (path ^ " exists") true (Sys.file_exists path);
          Sys.remove path)
        written

(* [save_csvs] file-system behaviour: path shape, nested-directory
   creation ([mkdir -p] — the seed's single-level [Sys.mkdir] failed on a
   missing parent), re-entrancy on an existing directory, and the
   exists-but-not-a-directory error. *)
let experiment_save_csvs_fs () =
  let rec rm_rf path =
    if Sys.file_exists path then
      if Sys.is_directory path then begin
        Array.iter (fun e -> rm_rf (Filename.concat path e)) (Sys.readdir path);
        Sys.rmdir path
      end
      else Sys.remove path
  in
  let root = Filename.concat (Filename.get_temp_dir_name ()) "dvfs-test-save-csvs" in
  rm_rf root;
  match Registry.find "fig2" with
  | None -> Alcotest.fail "fig2 missing"
  | Some e ->
      let output = Experiment.run e ~scale:0.01 in
      let nested = Filename.concat (Filename.concat root "a") "b" in
      let written = Experiment.save_csvs output ~dir:nested in
      check_bool "nested dir created" true (Sys.is_directory nested);
      check_int "one frame" 1 (List.length written);
      List.iter
        (fun path ->
          check_bool "path under dir" true (Filename.dirname path = nested);
          check_bool "path shape id-stem.csv" true
            (Filename.basename path = "fig2-series.csv");
          check_bool "file exists" true (Sys.file_exists path))
        written;
      (* Re-entrant: same directory again overwrites in place. *)
      let again = Experiment.save_csvs output ~dir:nested in
      check_bool "same paths on rerun" true (again = written);
      (* A plain file where the directory should be is a clear error, not a
         cascade of Sys_errors. *)
      let clash = Filename.concat root "clash" in
      let oc = open_out clash in
      output_string oc "not a directory";
      close_out oc;
      Alcotest.check_raises "dir is a file"
        (Invalid_argument
           (Printf.sprintf "Experiment.save_csvs: %s exists and is not a directory" clash))
        (fun () -> ignore (Experiment.save_csvs output ~dir:clash));
      rm_rf root

let experiment_default_seed () =
  check_int "pure function of id"
    (Experiment.default_seed ~id:"fig2")
    (Experiment.default_seed ~id:"fig2");
  check_bool "distinct per id" true
    (Experiment.default_seed ~id:"fig2" <> Experiment.default_seed ~id:"fig3");
  check_int "namespaced derivation"
    (Prng.derive_seed ~key:"experiment/fig2")
    (Experiment.default_seed ~id:"fig2")

let experiment_print_smoke () =
  match Registry.find "fig2" with
  | None -> Alcotest.fail "fig2 missing"
  | Some e ->
      let output = Experiment.run e ~scale:0.01 in
      let buf = Buffer.create 1024 in
      let ppf = Format.formatter_of_buffer buf in
      Experiment.print ppf output;
      Format.pp_print_flush ppf ();
      check_bool "mentions id" true (String.length (Buffer.contents buf) > 100)

let extension_experiments_run () =
  List.iter
    (fun id ->
      match Registry.find id with
      | None -> Alcotest.failf "%s missing" id
      | Some e ->
          let output = Experiment.run e ~scale:0.05 in
          check_bool (id ^ " produced a summary") true
            (String.length (Table.render output.Experiment.summary) > 40))
    [ "ablation-smp"; "ablation-window"; "ablation-sampling" ]

let () =
  Alcotest.run "experiments"
    [
      ( "rig",
        [
          Alcotest.test_case "pi baseline" `Quick rig_pi_baseline;
          Alcotest.test_case "pi frequency scaling" `Quick rig_pi_frequency_scaling;
          Alcotest.test_case "pi credit scaling" `Quick rig_pi_credit_scaling;
          Alcotest.test_case "pi timeout" `Quick rig_pi_timeout;
          Alcotest.test_case "measure load" `Quick rig_measure_load;
          Alcotest.test_case "measure cf (ideal)" `Quick rig_measure_cf_ideal;
          Alcotest.test_case "measure cf (i7)" `Quick rig_measure_cf_nonlinear;
        ] );
      ( "scenario",
        [
          Alcotest.test_case "phases" `Quick scenario_phases;
          Alcotest.test_case "pas exposed" `Quick scenario_pas_exposed;
          Alcotest.test_case "invalid scale" `Quick scenario_invalid_scale;
          Alcotest.test_case "profile command matches fig4" `Quick cli_profile_matches_fig4;
        ] );
      ( "registry",
        [
          Alcotest.test_case "ids unique" `Quick registry_ids_unique;
          Alcotest.test_case "find" `Quick registry_find;
          Alcotest.test_case "covers the paper" `Quick registry_covers_paper;
        ] );
      ( "output",
        [
          Alcotest.test_case "csv save" `Quick experiment_output_and_csv;
          Alcotest.test_case "csv save file-system behaviour" `Quick experiment_save_csvs_fs;
          Alcotest.test_case "default seed" `Quick experiment_default_seed;
          Alcotest.test_case "print" `Quick experiment_print_smoke;
          Alcotest.test_case "extension experiments" `Slow extension_experiments_run;
        ] );
    ]
