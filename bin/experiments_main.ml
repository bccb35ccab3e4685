(* CLI runner for the paper's experiments: list them, run a selection or
   all, optionally dumping the figure series as CSV, or profile the
   §5.3 scenario under any scheduler, governor and load. *)

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
  let jobs = match jobs with Some j -> j | None -> Runner.default_pool_size () in
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
  let jobs =
    Arg.(
      value
      & opt (some int) None
      & info [ "j"; "jobs" ] ~docv:"N"
          ~doc:"Worker pool size (default: \\$DVFS_JOBS, else the recommended domain count).")
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
    Arg.(
      value & flag
      & info [ "q"; "quiet" ] ~doc:"Suppress experiment outputs; print only the timing summary.")
  in
  Cmd.v (Cmd.info "run-all" ~doc)
    Term.(const run_all $ jobs $ scale $ manifest $ analyze_timing $ quiet)

let () =
  let doc = "Reproduction experiments for 'DVFS Aware CPU Credit Enforcement'" in
  let info = Cmd.info "dvfs-experiments" ~doc in
  exit (Cmd.eval (Cmd.group info [ list_cmd; run_cmd; profile_cmd; run_all_cmd ]))
