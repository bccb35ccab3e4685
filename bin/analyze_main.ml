(* Driver for the AST analysis passes (dune build @analyze): parses every
   compilation unit under the given roots with compiler-libs and runs the
   per-file source, unit-of-measure, domain-safety and float-reduction
   checks plus the whole-program determinism-effect, lock-discipline and
   allocation-effect passes (see lib/staticcheck).
   Exits nonzero if any rule fires.

   --sarif FILE            write the issues as SARIF 2.1.0 (written even
                           when clean, so CI can always upload it)
   --sarif-baseline FILE   compare against a committed SARIF baseline:
                           only findings absent from the baseline fail
                           the build; matching is by (file, rule,
                           message), line-insensitive
   --timing FILE           write {"analyze_seconds": …} plus per-pass
                           wall times so the bench manifest can gate
                           analyzer wall-time
   --jobs N                N > 1 runs the interprocedural passes on
                           their own domains; output is byte-identical
                           for every N
   --alloc-roots           print the (* alloc: none *) hot-root keys,
                           one per line, and exit — the static half of
                           the zero-alloc consistency contract
   --explain RULE          print what RULE means, how to fix and how to
                           waive it, then exit *)

let default_roots = [ "lib"; "bin"; "bench"; "examples" ]

let usage () =
  Format.eprintf
    "usage: analyze_main [--sarif FILE] [--sarif-baseline FILE] [--timing FILE] \
     [--jobs N] [--alloc-roots] [--explain RULE] [root ...]@.";
  exit 2

let write_timing ~path seconds passes =
  let seconds_key (name, s) = (name ^ "_seconds", Json.fixed 3 s) in
  let doc =
    Json.Obj
      (("schema", Json.Str "dvfs-analyze-timing/1")
      :: List.map seconds_key (("analyze", seconds) :: passes))
  in
  Out_channel.with_open_text path (fun oc -> output_string oc (Json.to_string doc ^ "\n"))

let () =
  let sarif = ref None in
  let baseline = ref None in
  let timing = ref None in
  let jobs = ref 1 in
  let alloc_roots = ref false in
  let roots = ref [] in
  let rec parse_args = function
    | [] -> ()
    | "--explain" :: rule :: _ -> exit (Staticcheck.Explain.explain rule)
    | "--sarif" :: path :: rest ->
        sarif := Some path;
        parse_args rest
    | "--sarif-baseline" :: path :: rest ->
        baseline := Some path;
        parse_args rest
    | "--timing" :: path :: rest ->
        timing := Some path;
        parse_args rest
    | "--jobs" :: n :: rest -> (
        match int_of_string_opt n with
        | Some n when n >= 1 ->
            jobs := n;
            parse_args rest
        | _ -> usage ())
    | "--alloc-roots" :: rest ->
        alloc_roots := true;
        parse_args rest
    | [ ("--sarif" | "--sarif-baseline" | "--timing" | "--jobs" | "--explain") ] ->
        usage ()
    | arg :: _ when String.length arg > 2 && String.sub arg 0 2 = "--" -> usage ()
    | root :: rest ->
        roots := root :: !roots;
        parse_args rest
  in
  parse_args (List.tl (Array.to_list Sys.argv));
  let roots =
    match List.rev !roots with
    | [] -> List.filter Sys.file_exists default_roots
    | roots ->
        Staticcheck.Report.check_roots ~tool:"analyze" roots;
        roots
  in
  if !alloc_roots then begin
    List.iter print_endline (Staticcheck.alloc_roots_of_paths roots);
    exit 0
  end;
  let t0 = Unix.gettimeofday () in
  let issues, passes =
    Staticcheck.analyze_paths_timed ~jobs:!jobs ~clock:Unix.gettimeofday roots
  in
  let seconds = Unix.gettimeofday () -. t0 in
  Option.iter (fun path -> write_timing ~path seconds passes) !timing;
  Option.iter (fun path -> Staticcheck.Sarif.save ~tool:"staticcheck" issues ~path) !sarif;
  match !baseline with
  | None -> exit (Staticcheck.Report.report ~tool:"analyze" issues)
  | Some path ->
      let base =
        match Staticcheck.Sarif.load path with
        | base -> base
        | exception (Sys_error msg | Failure msg) ->
            Format.eprintf "analyze: cannot read baseline %s: %s@." path msg;
            exit 2
      in
      let d = Staticcheck.Sarif.diff_baseline ~baseline:base ~current:issues in
      if d.Staticcheck.Sarif.suppressed > 0 || d.Staticcheck.Sarif.stale > 0 then
        Format.eprintf
          "analyze: baseline %s: %d finding(s) suppressed, %d stale entr(y/ies)@."
          path d.Staticcheck.Sarif.suppressed d.Staticcheck.Sarif.stale;
      exit (Staticcheck.Report.report ~tool:"analyze" d.Staticcheck.Sarif.fresh)
