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

(* ------------------------------------------------------------------ *)
(* The experiments_main CLI *)

(* Runs experiments_main with [args]: its exit code, stdout lines and
   stderr text. *)
let experiments_main args =
  let exe =
    Filename.concat (Filename.dirname Sys.executable_name) "../bin/experiments_main.exe"
  in
  let out = Filename.temp_file "experiments" ".txt" in
  let err = Filename.temp_file "experiments" ".err" in
  let code = Sys.command (Filename.quote_command exe args ~stdout:out ~stderr:err) in
  let read path =
    let text = In_channel.with_open_text path In_channel.input_all in
    Sys.remove path;
    text
  in
  let stdout = read out in
  (code, String.split_on_char '\n' stdout, read err)

(* the lines from below the first one to the first blank *)
let rec upto_blank = function "" :: _ | [] -> [] | l :: rest -> l :: upto_blank rest

(* The profile subcommand runs the figures' code: under fig4's
   configuration it prints fig4's phase table and measured notes. *)
let cli_profile_matches_fig4 () =
  let output args =
    let code, lines, _ = experiments_main args in
    check_int (String.concat " " args) 0 code;
    lines
  in
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

(* xl replays each shipped scenario, and the configuration it prints
   parses back to the file's own. *)
let cli_xl_scenarios () =
  List.iter
    (fun name ->
      let path = Filename.concat "../scenarios" name in
      let code, lines, _ = experiments_main [ "xl"; path ] in
      check_int path 0 code;
      check_bool "a final-frequency note" true
        (List.exists (String.starts_with ~prefix:"note: final frequency: ") lines);
      let printed = String.concat "\n" (upto_blank (List.tl lines)) in
      match (Domconfig.parse printed, Domconfig.parse_file path) with
      | Ok again, Ok config -> check_bool (path ^ " round-trips") true (again = config)
      | Error msg, _ | _, Error msg -> Alcotest.fail msg)
    [ "v20_v70_credit.cfg"; "v20_v70_pas.cfg" ]

let cli_xl_errors () =
  let path = Filename.temp_file "bad" ".cfg" in
  Out_channel.with_open_text path (fun oc ->
      output_string oc "host duration=10\ndomain name=V20 credit=20 workload=web rate=-1\n");
  let code, _, err = experiments_main [ "xl"; path ] in
  Sys.remove path;
  check_int "out-of-range value" 1 code;
  check_bool ("located: " ^ err) true (String.starts_with ~prefix:(path ^ ": line 2:") err);
  let code, _, _ = experiments_main [ "xl"; path ] in
  check_int "missing file" 1 code

let cli_validate () =
  let code, _, _ = experiments_main [ "validate"; "--quiet"; "--horizon"; "30"; "--warmup"; "5" ] in
  check_int "quick sweep agrees" 0 code;
  let code, _, err = experiments_main [ "validate"; "--horizon=-1" ] in
  check_int ("invalid horizon: " ^ err) 2 code

(* ------------------------------------------------------------------ *)
(* The domain pool *)

(* Domain ids are handed out in sequence, so the gap between two fresh
   ids counts the domains spawned in between. *)
let fresh_domain_id () = (Domain.join (Domain.spawn Domain.self) :> int)

let spawned_by f =
  let before = fresh_domain_id () in
  let result = f () in
  (result, fresh_domain_id () - before - 1)

let pool_map_order () =
  let items = List.init 10 Fun.id in
  (* earlier items work longer, so they finish out of order *)
  let f i =
    for _ = 1 to (10 - i) * 1000 do
      Domain.cpu_relax ()
    done;
    i * i
  in
  List.iter
    (fun jobs ->
      let squares, spawned = spawned_by (fun () -> Pool.map ~jobs f items) in
      Alcotest.(check (list int)) (Printf.sprintf "input order, %d jobs" jobs)
        (List.map (fun i -> i * i) items) squares;
      check_int "workers" (jobs - 1) spawned)
    [ 1; 2; 4 ];
  let _, spawned = spawned_by (fun () -> Pool.map ~jobs:4 f [ 1; 2 ]) in
  check_int "no more workers than items" 1 spawned;
  let none, spawned = spawned_by (fun () -> Pool.map ~jobs:4 f []) in
  check_int "no items" 0 (List.length none);
  check_int "no spawn for no items" 0 spawned;
  Alcotest.check_raises "jobs" (Invalid_argument "Pool.map: jobs must be positive") (fun () ->
      ignore (Pool.map ~jobs:0 f items))

let pool_map_reraises_after_join () =
  (* Item 1 outlives item 0's failure, whichever worker runs which; the
     failure must surface only once item 1 is done. *)
  for _ = 1 to 20 do
    let started = Atomic.make false and raised = Atomic.make false in
    let finished = Atomic.make false in
    let f = function
      | 0 ->
          while not (Atomic.get started) do
            Domain.cpu_relax ()
          done;
          Atomic.set raised true;
          failwith "item 0"
      | _ ->
          Atomic.set started true;
          while not (Atomic.get raised) do
            Domain.cpu_relax ()
          done;
          for _ = 1 to 10_000 do
            Domain.cpu_relax ()
          done;
          Atomic.set finished true
    in
    Alcotest.check_raises "item 0's failure" (Failure "item 0") (fun () ->
        ignore (Pool.map ~jobs:2 f [ 0; 1 ]));
    check_bool "the other worker finished first" true (Atomic.get finished)
  done;
  Alcotest.check_raises "the first failure in input order" (Failure "3") (fun () ->
      ignore
        (Pool.map ~jobs:4
           (fun i -> if i = 3 || i = 5 then failwith (string_of_int i))
           (List.init 8 Fun.id)))

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
      ( "cli",
        [
          Alcotest.test_case "xl replays the scenarios" `Quick cli_xl_scenarios;
          Alcotest.test_case "xl errors" `Quick cli_xl_errors;
          Alcotest.test_case "validate" `Quick cli_validate;
        ] );
      ( "pool",
        [
          Alcotest.test_case "input order and worker count" `Quick pool_map_order;
          Alcotest.test_case "re-raise after join" `Quick pool_map_reraises_after_join;
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
