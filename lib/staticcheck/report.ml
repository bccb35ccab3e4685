type issue = { file : string; line : int; rule : string; message : string }

let waiver = "lint:ignore"

let pp_issue ppf i =
  Format.fprintf ppf "%s:%d: [%s] %s" i.file i.line i.rule i.message

let compare_issue a b =
  let c = String.compare a.file b.file in
  if c <> 0 then c
  else
    let c = Int.compare a.line b.line in
    if c <> 0 then c else String.compare a.rule b.rule

let sort issues = List.sort compare_issue issues

let find_sub line sub =
  let n = String.length line and m = String.length sub in
  let rec loop i =
    if i + m > n then None
    else if String.sub line i m = sub then Some i
    else loop (i + 1)
  in
  if m = 0 then None else loop 0

let contains_sub line sub = find_sub line sub <> None

(* File-scoped symbol waivers: [lint:ignore RULE @Path] anywhere in the
   file waives RULE for that symbol, under whatever spelling the checker
   supplies (canonical key or module-alias path).  The interprocedural
   passes report at declaration sites possibly far from where the author
   decided the state is fine, so a line waiver is not always placeable. *)
let symbol_waivers source =
  let strip_token t =
    let stop = ref (String.length t) in
    (try
       String.iteri
         (fun i c ->
           match c with
           | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' | '.' | '\'' | '-' -> ()
           | _ ->
               stop := i;
               raise Exit)
         t
     with Exit -> ());
    String.sub t 0 !stop
  in
  List.concat_map
    (fun line ->
      match find_sub line waiver with
      | None -> []
      | Some i -> (
          let rest =
            String.sub line
              (i + String.length waiver)
              (String.length line - i - String.length waiver)
          in
          let tokens =
            String.split_on_char ' ' rest |> List.filter (fun t -> t <> "")
          in
          match tokens with
          | rule :: sym :: _ when String.length sym > 1 && sym.[0] = '@' ->
              let rule = strip_token rule in
              let sym =
                strip_token (String.sub sym 1 (String.length sym - 1))
              in
              if rule = "" || sym = "" then [] else [ (rule, sym) ]
          | _ -> []))
    (String.split_on_char '\n' source)

let drop_waived ?(symbols = fun _ -> []) ~source issues =
  let lines = Array.of_list (String.split_on_char '\n' source) in
  let sym_waivers = symbol_waivers source in
  List.filter
    (fun i ->
      let raw =
        if i.line >= 1 && i.line - 1 < Array.length lines then lines.(i.line - 1) else ""
      in
      let line_waived = contains_sub raw waiver in
      let symbol_waived =
        sym_waivers <> []
        && List.exists
             (fun s -> List.mem (i.rule, s) sym_waivers)
             (symbols i)
      in
      not (line_waived || symbol_waived))
    issues

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> really_input_string ic (in_channel_length ic))

(* The skip applies to entries met while walking, never to a root the
   caller named, so a root of [.] or [dir/.] is analyzed. *)
let rec collect path acc =
  if Sys.is_directory path then
    Array.fold_left
      (fun acc entry ->
        if entry = "_build" || entry.[0] = '.' then acc
        else collect (Filename.concat path entry) acc)
      acc (Sys.readdir path)
  else if Filename.check_suffix path ".ml" || Filename.check_suffix path ".mli" then
    path :: acc
  else acc

let collect_sources roots =
  List.fold_left
    (fun acc root -> if Sys.file_exists root then collect root acc else acc)
    [] roots

let check_roots ~tool roots =
  List.iter
    (fun root ->
      if not (Sys.file_exists root) then begin
        Format.eprintf "%s: no such file or directory: %s@." tool root;
        exit 2
      end)
    roots

let report ~tool issues =
  List.iter (fun i -> Format.printf "%a@." pp_issue i) issues;
  match issues with
  | [] -> 0
  | _ :: _ ->
      Format.eprintf "%s: %d issue(s) found@." tool (List.length issues);
      1
