let to_string ~tool issues =
  let str s = Json.Str s in
  let rules = List.sort_uniq String.compare (List.map (fun i -> i.Report.rule) issues) in
  let result (i : Report.issue) =
    let region = Json.Obj [ ("startLine", Json.Num (float_of_int i.line)) ] in
    let physical =
      Json.Obj [ ("artifactLocation", Json.Obj [ ("uri", str i.file) ]); ("region", region) ]
    in
    Json.Obj
      [
        ("ruleId", str i.rule);
        ("level", str "error");
        ("message", Json.Obj [ ("text", str i.message) ]);
        ("locations", Json.Arr [ Json.Obj [ ("physicalLocation", physical) ] ]);
      ]
  in
  let driver =
    Json.Obj
      [
        ("name", str tool);
        ("rules", Json.Arr (List.map (fun r -> Json.Obj [ ("id", str r) ]) rules));
      ]
  in
  Json.to_string
    (Json.Obj
       [
         ("$schema", str "https://json.schemastore.org/sarif-2.1.0.json");
         ("version", str "2.1.0");
         ( "runs",
           Json.Arr
             [
               Json.Obj
                 [
                   ("tool", Json.Obj [ ("driver", driver) ]);
                   ("results", Json.Arr (List.map result issues));
                 ];
             ] );
       ])
  ^ "\n"

let save ~tool issues ~path =
  Out_channel.with_open_text path (fun oc -> output_string oc (to_string ~tool issues))

(* ------------------------------------------------------------------ *)
(* Reading SARIF back, and a baseline differ for CI. *)

let member = Json.member

let issue_of_result r =
  let str = function Some (Json.Str s) -> Some s | _ -> None in
  let rule = str (member "ruleId" r) in
  let message = str (Option.bind (member "message" r) (member "text")) in
  let location =
    match member "locations" r with Some (Json.Arr (l :: _)) -> Some l | _ -> None
  in
  let physical = Option.bind location (member "physicalLocation") in
  let file = str (Option.bind physical (member "artifactLocation") |> fun a -> Option.bind a (member "uri")) in
  let line =
    match Option.bind physical (member "region") |> fun r -> Option.bind r (member "startLine") with
    | Some (Json.Num f) -> int_of_float f
    | _ -> 1
  in
  match (rule, message, file) with
  | Some rule, Some message, Some file -> Some { Report.file; line; rule; message }
  | _ -> None

let of_string text =
  let doc =
    match Json.parse text with
    | Ok doc -> doc
    | Error e -> failwith ("SARIF: " ^ Json.error_to_string e)
  in
  match member "runs" doc with
  | Some (Json.Arr runs) ->
      List.concat_map
        (fun run ->
          match member "results" run with
          | Some (Json.Arr results) -> List.filter_map issue_of_result results
          | _ -> [])
        runs
  | _ -> failwith "SARIF: no runs array"

let load path = of_string (Report.read_file path)

(* Baseline comparison for CI: an issue is "the same finding" when file,
   rule and message all match — the line is deliberately ignored so that
   unrelated edits shifting a legacy finding do not break the build. *)
type diff = { fresh : Report.issue list; suppressed : int; stale : int }

let diff_baseline ~baseline ~current =
  let key i = (i.Report.file, i.Report.rule, i.Report.message) in
  let bkeys = List.map key baseline in
  let ckeys = List.map key current in
  {
    fresh = List.filter (fun i -> not (List.mem (key i) bkeys)) current;
    suppressed = List.length (List.filter (fun i -> List.mem (key i) bkeys) current);
    stale = List.length (List.filter (fun k -> not (List.mem k ckeys)) bkeys);
  }
