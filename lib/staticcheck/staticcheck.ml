module Units = Units
module Unit_check = Unit_check
module Domain_check = Domain_check
module Ast_util = Ast_util
module Callgraph = Callgraph
module Fixpoint = Fixpoint
module Effect_check = Effect_check
module Lock_check = Lock_check
module Alloc_check = Alloc_check
module Fold_check = Fold_check
module Explain = Explain
module Sarif = Sarif
module Source_check = Source_check
module Report = Report

let parse_with parser ~file content =
  let lexbuf = Lexing.from_string content in
  Lexing.set_filename lexbuf file;
  parser lexbuf

let parse_error_issue ~file exn =
  let line =
    match Location.error_of_exn exn with
    | Some (`Ok report) ->
        report.Location.main.Location.loc.Location.loc_start.Lexing.pos_lnum
    | Some `Already_displayed | None -> 1
  in
  {
    Report.file;
    line;
    rule = "parse-error";
    message = Printf.sprintf "not parseable as OCaml: %s" (Printexc.to_string exn);
  }

let module_name_of file =
  String.capitalize_ascii (Filename.remove_extension (Filename.basename file))

(* Every pass over a set of sources: per-file source, unit-of-measure,
   domain-safety and float-reduction checks, then the interprocedural
   effect, lock-discipline and allocation-effect passes over the call
   graph of all units together.  Waivers are applied per file — line
   waivers for everything, plus file-scoped symbol waivers ([lint:ignore
   RULE @Path]) with the spellings the lock pass supplies.

   [jobs > 1] runs the three interprocedural passes on their own
   domains (parsing stays serial: the compiler-libs lexer/parser keep
   global state).  The passes are pure over the immutable graph and are
   joined in a fixed order, so the issue list — and any SARIF rendered
   from it — is byte-identical for every [jobs] value.  [clock] (the
   driver passes [Unix.gettimeofday]; this library does not link unix)
   enables the per-pass wall-time figures in the second component. *)
let run_passes_timed ?(jobs = 1) ?clock ~registry sources =
  let now () = match clock with Some f -> f () | None -> 0.0 in
  let timed name f =
    let t0 = now () in
    let r = f () in
    (r, (name, now () -. t0))
  in
  let (parsed, errors, g), t_parse =
    timed "parse" (fun () ->
        let parsed, errors =
          List.fold_left
            (fun (parsed, errors) (file, content) ->
              match parse_with Parse.implementation ~file content with
              | exception exn -> (parsed, parse_error_issue ~file exn :: errors)
              | str -> ((file, content, str) :: parsed, errors))
            ([], []) sources
        in
        let parsed = List.rev parsed in
        let g = Callgraph.build (List.map (fun (f, _, str) -> (f, str)) parsed) in
        (parsed, errors, g))
  in
  let srcs = List.map (fun (f, c, _) -> (f, c)) parsed in
  let run3 f1 f2 f3 =
    if jobs > 1 then begin
      let d2 = Domain.spawn f2 and d3 = Domain.spawn f3 in
      let r1 = f1 () in
      (r1, Domain.join d2, Domain.join d3)
    end
    else (f1 (), f2 (), f3 ())
  in
  let (effect_issues, t_eff), ((lock_issues, lock_symbols), t_lock), (alloc_issues, t_alloc)
      =
    run3
      (fun () -> timed "effect" (fun () -> Effect_check.check g))
      (fun () -> timed "lock" (fun () -> Lock_check.check g))
      (fun () -> timed "alloc" (fun () -> Alloc_check.check ~sources:srcs g))
  in
  let global = effect_issues @ lock_issues @ alloc_issues in
  let issues, t_perfile =
    timed "perfile" (fun () ->
        List.concat_map
          (fun (file, content, str) ->
            let lines = Array.of_list (String.split_on_char '\n' content) in
            let per_file =
              Source_check.check ~file ~lines str
              @ Unit_check.check ~registry ~file str
              @ Domain_check.check ~file str
              @ Fold_check.check ~file str
            in
            let of_this_file = List.filter (fun i -> i.Report.file = file) global in
            Report.drop_waived ~symbols:lock_symbols ~source:content
              (per_file @ of_this_file))
          parsed)
  in
  (Report.sort (errors @ issues), [ t_parse; t_eff; t_lock; t_alloc; t_perfile ])

let run_passes ~registry sources = fst (run_passes_timed ~registry sources)

(* An interface's [mutable-doc] findings, waivers applied, and its
   signature ([None] if it does not parse: its implementation's analysis
   reports parse errors). *)
let check_interface ~file content =
  match parse_with Parse.interface ~file content with
  | exception _ -> ([], None)
  | sg ->
      let lines = Array.of_list (String.split_on_char '\n' content) in
      ( Report.drop_waived ~source:content (Source_check.check_interface ~file ~lines sg),
        Some sg )

let analyze_source ?(registry = Units.builtin) ~file content =
  if Filename.check_suffix file ".mli" then fst (check_interface ~file content)
  else run_passes ~registry [ (file, content) ]

(* Every interface among [files], each parsed once: the registry its
   declarations extend, and the interface findings. *)
let interfaces files =
  List.fold_left
    (fun (registry, issues) file ->
      if not (Filename.check_suffix file ".mli") then (registry, issues)
      else
        match check_interface ~file (Report.read_file file) with
        | found, None -> (registry, found @ issues)
        | found, Some sg ->
            ( List.fold_left Units.add registry
                (Units.of_interface ~module_name:(module_name_of file) sg),
              found @ issues ))
    (Units.builtin, []) files

let sources_of_files files =
  List.filter_map
    (fun file ->
      if Filename.check_suffix file ".ml" then Some (file, Report.read_file file)
      else None)
    files

let analyze_paths_timed ?jobs ?clock roots =
  let files = Report.collect_sources roots in
  let registry, iface_issues = interfaces files in
  let issues, times = run_passes_timed ?jobs ?clock ~registry (sources_of_files files) in
  (Report.sort (iface_issues @ Source_check.missing_mli files @ issues), times)

let analyze_paths roots = fst (analyze_paths_timed roots)

(* The static half of the static/dynamic zero-alloc consistency
   contract: every [(* alloc: none *)] root key under the given roots. *)
let alloc_roots_of_paths roots =
  let parsed =
    List.filter_map
      (fun (file, content) ->
        match parse_with Parse.implementation ~file content with
        | exception _ -> None
        | str -> Some ((file, str), (file, content)))
      (sources_of_files (Report.collect_sources roots))
  in
  Alloc_check.annotated_keys ~sources:(List.map snd parsed)
    (Callgraph.build (List.map fst parsed))
