(* CLI runner for the paper's experiments: list them, run a selection or
   all, optionally dumping the figure series as CSV, profile the §5.3
   scenario under any scheduler, governor and load, replay an xl.cfg-style
   scenario file, or check the simulator against the M/M/c closed forms. *)

open Cmdliner

let scale =
  let positive s =
    match float_of_string_opt s with
    | Some f when Float.is_finite f && f > 0.0 -> Ok f
    | Some _ | None -> Error (Printf.sprintf "%S is not a positive number" s)
  in
  Arg.(
    value
    & opt (conv' (positive, Format.pp_print_float)) 1.0
    & info [ "scale" ] ~docv:"S"
        ~doc:"Time compression: 1.0 reproduces paper-length runs, 0.1 is a quick pass.")

let outdir =
  Arg.(
    value
    & opt (some string) None
    & info [ "o"; "outdir" ] ~docv:"DIR" ~doc:"Also write each figure's series as CSV.")

(* Shared by run-all and validate. *)

let jobs =
  Arg.(
    value
    & opt (some int) None
    & info [ "j"; "jobs" ] ~docv:"N"
        ~doc:"Worker pool size (default: \\$DVFS_JOBS, else the recommended domain count).")

let pool_size = function Some j -> j | None -> Domconfig.default_jobs ()

(* Each command says what it suppresses; run-all also takes -q. *)
let quiet names doc = Arg.(value & flag & info names ~doc)

let list_cmd =
  let doc = "List every reproduced experiment." in
  let run () =
    List.iter
      (fun e ->
        Printf.printf "%-16s %-12s %s\n" e.Experiments.Experiment.id
          ("[" ^ e.Experiments.Experiment.paper_ref ^ "]")
          e.Experiments.Experiment.title)
      Experiments.Registry.all
  in
  Cmd.v (Cmd.info "list" ~doc) Term.(const run $ const ())

let run_one outdir scale e =
  let output = Experiments.Experiment.run e ~scale in
  Experiments.Experiment.print Format.std_formatter output;
  match outdir with
  | Some dir ->
      List.iter
        (fun path -> Printf.printf "wrote %s\n" path)
        (Experiments.Experiment.save_csvs output ~dir)
  | None -> ()

let run_experiments ids scale outdir =
  let selected =
    match ids with
    | [] -> Experiments.Registry.all
    | ids ->
        List.map
          (fun id ->
            match Experiments.Registry.find id with
            | Some e -> e
            | None ->
                Printf.eprintf "unknown experiment %S; try the list command\n" id;
                exit 2)
          ids
  in
  List.iter (run_one outdir scale) selected

let run_cmd =
  let doc = "Run experiments (all when none are named)." in
  let ids =
    Arg.(value & pos_all string [] & info [] ~docv:"ID" ~doc:"Experiment ids (see list).")
  in
  Cmd.v (Cmd.info "run" ~doc) Term.(const run_experiments $ ids $ scale $ outdir)

(* profile: the Figs 2-10 scenario under a free choice of scheduler,
   governor and load. *)

let loads = [ ("exact", Experiments.Scenario.Exact); ("thrashing", Experiments.Scenario.Thrashing) ]

let profile sched gov load scale outdir =
  let name_of table v = fst (List.find (fun (_, x) -> x = v) table) in
  let title =
    Printf.sprintf "%s scheduler, %s governor, %s load" (name_of Domconfig.schedulers sched)
      (name_of Domconfig.governors gov) (name_of loads load)
  in
  run_one outdir scale
    (Experiments.Profile.make ~id:"profile" ~title ~paper_ref:"§5.3" ~sched ~gov ~load
       ~view:Global ~expected:[])

let profile_cmd =
  let doc =
    "Run the V20/V70 three-phase scenario of Figs 2-10 under one scheduler, governor and load."
  in
  let choice table default names docv what =
    Arg.(
      value & opt (enum table) default
      & info names ~docv ~doc:(what ^ ", " ^ doc_alts_enum table ^ "."))
  in
  let sched =
    choice Domconfig.schedulers Domconfig.Credit [ "s"; "scheduler" ] "SCHED" "Scheduler"
  in
  let gov = choice Domconfig.governors Domconfig.Stable [ "g"; "governor" ] "GOV" "Governor" in
  let load = choice loads Experiments.Scenario.Exact [ "l"; "load" ] "LOAD" "Active load" in
  Cmd.v (Cmd.info "profile" ~doc) Term.(const profile $ sched $ gov $ load $ scale $ outdir)

(* run-all: the whole registry on a domain pool, with a JSON manifest. *)

let run_all jobs scale manifest analyze_timing quiet =
  let jobs = pool_size jobs in
  let analyze_seconds =
    Option.map
      (fun path ->
        try Runner.Manifest.read_analyze_timing path
        with Runner.Manifest.Parse_error msg | Sys_error msg ->
          Printf.eprintf "cannot read analyze timing %s: %s\n" path msg;
          exit 2)
      analyze_timing
  in
  let report =
    try Runner.run_all ~pool_size:jobs ~scale ()
    with Invalid_argument msg ->
      Printf.eprintf "%s\n" msg;
      exit 2
  in
  if not quiet then Runner.print_outputs Format.std_formatter report;
  Runner.pp_summary Format.std_formatter report;
  (match manifest with
  | Some path ->
      Runner.save_manifest ?analyze_seconds report ~path;
      Printf.printf "wrote manifest %s\n" path
  | None -> ());
  match Runner.failures report with
  | [] -> ()
  | failures ->
      List.iter (fun (id, msg) -> Printf.eprintf "FAILED %s: %s\n" id msg) failures;
      exit 1

let run_all_cmd =
  let doc =
    "Run every experiment, sharded across a pool of domains.  Deterministic: outputs are \
     bit-identical for any $(b,--jobs) value (per-experiment seeds are derived from the \
     experiment id, and outputs print in registry order)."
  in
  let manifest =
    Arg.(
      value
      & opt (some string) None
      & info [ "manifest" ] ~docv:"PATH"
          ~doc:"Write a JSON results manifest (id, status, seconds, rows per experiment).")
  in
  let analyze_timing =
    Arg.(
      value
      & opt (some string) None
      & info [ "analyze-timing" ] ~docv:"PATH"
          ~doc:
            "Read an analyzer timing side-file (written by analyze_main --timing) and \
             record its analyze_seconds in the manifest, so the perf gate also catches \
             static-analysis wall-time regressions.")
  in
  let quiet =
    quiet [ "q"; "quiet" ] "Suppress experiment outputs; print only the timing summary."
  in
  Cmd.v (Cmd.info "run-all" ~doc)
    Term.(const run_all $ jobs $ scale $ manifest $ analyze_timing $ quiet)

(* xl: replay an xl.cfg-style scenario file (see Domconfig) and report
   per domain, the "xl create && xl top" of the simulator. *)

let xl_output path (built : Domconfig.built) =
  let module Host = Hypervisor.Host in
  let module Domain = Hypervisor.Domain in
  let host = built.host and duration = built.duration in
  let lo = Sim_time.of_us (Sim_time.to_us duration / 10) in
  let summary =
    Table.create
      ~columns:
        [
          ("domain", Table.Left);
          ("credit %", Table.Right);
          ("mean load %", Table.Right);
          ("mean absolute %", Table.Right);
          ("cpu time (s)", Table.Right);
          ("pi exec time (s)", Table.Right);
        ]
  in
  List.iter
    (fun (_, domain, app) ->
      let pi_time =
        match app with
        | Domconfig.App_pi pi -> (
            match Workloads.Pi_app.execution_time pi with
            | Some t -> Table.cell_f (Sim_time.to_sec t)
            | None -> "unfinished")
        | Domconfig.App_web _ | Domconfig.App_none -> "-"
      in
      Table.add_row summary
        [
          Domain.name domain;
          Table.cell_f1 (Domain.initial_credit domain);
          Table.cell_f (Series.mean_between (Host.series_domain_load host domain) lo duration);
          Table.cell_f
            (Series.mean_between (Host.series_domain_absolute_load host domain) lo duration);
          Table.cell_f (Sim_time.to_sec (Domain.cpu_time domain));
          pi_time;
        ])
    built.domains;
  let loads = Plot.create ~y_min:0.0 ~y_max:100.0 ~title:"domain loads (%)" () in
  List.iter
    (fun ((spec : Domconfig.domain_spec), domain, _) ->
      if not spec.dom0 then Plot.add loads (Host.series_domain_load host domain))
    built.domains;
  let frequency = Plot.create ~title:"frequency (MHz)" () in
  Plot.add frequency (Host.series_frequency host);
  {
    Experiments.Experiment.id = "xl";
    title = path;
    summary;
    plots = [ loads; frequency ];
    frames = [];
    notes =
      [
        Printf.sprintf "final frequency: %d MHz   energy: %.1f kJ   mean power: %.1f W"
          (Cpu_model.Processor.current_freq (Host.processor host))
          (Host.energy_joules host /. 1000.0)
          (Host.mean_watts host);
      ];
  }

let xl path =
  match Domconfig.parse_file path with
  | Error msg ->
      Printf.eprintf "%s: %s\n" path msg;
      exit 1
  | Ok config ->
      Format.printf "parsed configuration:@.%a@." Domconfig.pp_spec config;
      let built = Domconfig.build config in
      Hypervisor.Host.run_for built.host built.duration;
      Experiments.Experiment.print Format.std_formatter (xl_output path built)

let xl_cmd =
  let doc = "Replay an xl.cfg-style scenario file and report per domain, with plots." in
  let file =
    Arg.(required & pos 0 (some string) None & info [] ~docv:"FILE" ~doc:"Scenario file.")
  in
  Cmd.v (Cmd.info "xl" ~doc) Term.(const xl $ file)

(* validate: the measured-vs-analytic M/M/c sweep.  Exit status 1 when
   any point disagrees, so `dune build @validate` fails loudly. *)

let validate full jobs horizon warmup csv quiet =
  let jobs = pool_size jobs in
  let points = if full then Validate.Sweep.default_grid else Validate.Sweep.quick_grid in
  let results =
    try Validate.Sweep.run_grid ~jobs ?horizon ?warmup points
    with Invalid_argument msg ->
      Printf.eprintf "%s\n" msg;
      exit 2
  in
  if not quiet then begin
    print_string (Table.render (Validate.Sweep.table results));
    Printf.printf
      "%d points, %d jobs; starred columns are the analytic targets; a point\n\
       agrees when each metric is within 3x its batch-means 95%% CI + 5%%\n\
       relative + a dispatch-tick floor of the closed form.\n"
      (List.length points) jobs
  end;
  (match csv with
  | Some path ->
      Out_channel.with_open_text path (fun out ->
          output_string out (Validate.Sweep.to_csv results));
      if not quiet then Printf.printf "wrote %s\n" path
  | None -> ());
  match Validate.Sweep.failures results with
  | [] -> ()
  | bad ->
      List.iter
        (fun r -> Printf.eprintf "DISAGREES %s\n" (Validate.Sweep.point_key r.Validate.Sweep.point))
        bad;
      exit 1

let validate_cmd =
  let doc =
    "Validate the simulator against M/M/1 / M/M/c closed forms.  Runs an open-loop \
     Poisson workload through the real host (credit scheduler + pinned DVFS governor) \
     and compares measured utilization, sojourn time, and queue length with the \
     analytic oracle, whose service rate uses the $(b,ratio*cf) effective capacity.  \
     Deterministic: per-point seeds derive from the point parameters, so output is \
     bit-identical for any $(b,--jobs) value."
  in
  let full =
    Arg.(
      value & flag
      & info [ "full" ] ~doc:"Run the full 36-point grid instead of the quick 3-point sweep.")
  in
  let horizon =
    Arg.(
      value
      & opt (some float) None
      & info [ "horizon" ] ~docv:"SECONDS"
          ~doc:"Measured simulated seconds per point (default 300).")
  in
  let warmup =
    Arg.(
      value
      & opt (some float) None
      & info [ "warmup" ] ~docv:"SECONDS"
          ~doc:"Discarded simulated seconds per point before measuring (default 30).")
  in
  let csv =
    Arg.(
      value
      & opt (some string) None
      & info [ "csv" ] ~docv:"PATH" ~doc:"Also write every point's metrics as CSV.")
  in
  let quiet = quiet [ "quiet" ] "Suppress the table; only set the exit status." in
  Cmd.v (Cmd.info "validate" ~doc)
    Term.(const validate $ full $ jobs $ horizon $ warmup $ csv $ quiet)

let () =
  let doc = "Reproduction experiments for 'DVFS Aware CPU Credit Enforcement'" in
  let info = Cmd.info "dvfs-experiments" ~doc in
  exit (Cmd.eval (Cmd.group info [ list_cmd; run_cmd; profile_cmd; run_all_cmd; xl_cmd; validate_cmd ]))
