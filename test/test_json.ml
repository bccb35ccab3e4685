(* Tests for the one JSON reader and printer: RFC 8259 texts with known
   parses, located errors, the printed layout, the committed manifests and
   SARIF baseline read as before, and properties over arbitrary, cut and
   mutated input and over printed values. *)

module Manifest = Runner.Manifest
module Sarif = Staticcheck.Sarif

let check_int = Alcotest.(check int)
let check_string = Alcotest.(check string)
let json = Alcotest.testable (fun ppf v -> Format.pp_print_string ppf (Json.to_string v)) ( = )

let rfc_texts () =
  List.iter
    (fun (text, expected) ->
      match Json.parse text with
      | Ok v -> Alcotest.check json (String.escaped text) expected v
      | Error e -> Alcotest.failf "%S: %s" text (Json.error_to_string e))
    Json.
      [
        ( {| {"Image": {"Width": 800, "IDs": [116, 943], "Animated" : false, "T": null}} |},
          Obj [ ("Image", Obj [ ("Width", Num 800.); ("IDs", Arr [ Num 116.; Num 943. ]);
                                ("Animated", Bool false); ("T", Null) ]) ] );
        ( "[-0.5, 1e3, 2E-2, 0, -12.25e+1, 1.5E400, [], {}, true]",
          Arr [ Num (-0.5); Num 1000.; Num 0.02; Num 0.; Num (-122.5); Num infinity; Arr []; Obj [];
                Bool true ] );
        (* é, a surrogate pair (U+1D11E), a lone surrogate (U+FFFD), the
           solidus and the short escapes *)
        ( {|"\u00e9\uD834\uDD1E\ud800x\/\b\f\n\r\t\"\\"|},
          Str "\xc3\xa9\xf0\x9d\x84\x9e\xef\xbf\xbdx/\b\012\n\r\t\"\\" );
        (* raw non-ASCII bytes pass through; duplicate keys are kept *)
        ("{\"k\": \"\xe2\x86\x92\", \"k\": 2}", Obj [ ("k", Str "\xe2\x86\x92"); ("k", Num 2.) ]);
      ]

let located_errors () =
  List.iter
    (fun (text, offset) ->
      match Json.parse text with
      | Ok v -> Alcotest.failf "%S parsed as %s" text (Json.to_string v)
      | Error e -> check_int (Printf.sprintf "%S: %s" text e.Json.message) offset e.Json.offset)
    [
      ("", 0); ("[1,]", 3); ("01", 1); ("1.", 2); ("-", 1); ("+1", 0); (".5", 0); ("tru", 0);
      ("[", 1); ("[1 2]", 3); ("{\"a\" 1}", 5); ("{\"a\": 1,}", 8); ("{1: 2}", 1);
      ("\"a\001\"", 2); ("\"\\uZZZZ\"", 3); ("\"\\u12\"", 3); ("\"\\x\"", 2); ("\"abc", 4);
      ("{} {}", 3); (String.make 600 '[', 513);
    ];
  check_string "the message names the offset" "trailing input after the value at offset 3"
    (match Json.parse "{} {}" with Ok _ -> "" | Error e -> Json.error_to_string e)

let printer () =
  check_string "root and containers of containers one member per line, others inline"
    "{\n  \"a\": [\n    {\"x\": 1, \"y\": 0.1},\n    [true, null]\n  ],\n  \"b\": {},\n\
    \  \"e\": [\"q\\\" b\\\\ n\\n t\\t r\\r \\u0001 \xc3\xa9\", null, null]\n}"
    Json.(
      to_string
        (Obj
           [
             ("a", Arr [ Obj [ ("x", Num 1.); ("y", Num 0.1) ]; Arr [ Bool true; Null ] ]);
             ("b", Obj []);
             ("e", Arr [ Str "q\" b\\ n\n t\t r\r \001 \xc3\xa9"; Num nan; Num infinity ]);
           ]));
  List.iter
    (fun (f, s) -> check_string s s (Json.float_to_string f))
    [ (1.0, "1"); (9.492, "9.492"); (1e21, "1e+21"); (0.1 +. 0.2, "0.30000000000000004") ];
  List.iter
    (fun (d, x, s) -> check_string s s (Json.to_string (Json.fixed d x)))
    [ (3, 9.49213, "9.492"); (3, 0.0, "0"); (1, 120.25, "120.2"); (0, 109406586.4, "109406586") ]

let repo_file name =
  let dir = Filename.concat (Filename.dirname Sys.executable_name) ".." in
  In_channel.with_open_bin (Filename.concat dir name) In_channel.input_all

let manifests =
  [ "BENCH_PR2.json"; "BENCH_PR4.json"; "BENCH_PR6.json"; "BENCH_PR8.json"; "BENCH_PR27.json" ]

(* What the hand-written reader that preceded Json read from these files. *)
let committed_files () =
  let check_float = Alcotest.(check (float 1e-9)) in
  List.iter2
    (fun name (schema, count, total, analyze, alloc) ->
      let m = Manifest.of_string (repo_file name) in
      check_string (name ^ " schema") schema m.Manifest.schema;
      check_int (name ^ " experiments") count (List.length m.Manifest.experiments);
      check_float (name ^ " total_seconds") total m.Manifest.total_seconds;
      check_float (name ^ " analyze_seconds") analyze m.Manifest.analyze_seconds;
      check_float (name ^ " alloc_mb sum") alloc (Manifest.total_alloc_mb m))
    manifests
    [
      ("dvfs-bench-manifest/1", 20, 31.997, 0.0, 23880.9);
      ("dvfs-bench-manifest/2", 20, 9.484, 0.0, 2480.4);
      ("dvfs-bench-manifest/2", 20, 9.876, 0.163, 2479.7);
      ("dvfs-bench-manifest/2", 21, 9.492, 0.206, 2481.2);
      ("dvfs-bench-manifest/2", 21, 0.851, 0.387, 20.0);
    ];
  let baseline = repo_file "analysis-baseline.sarif" in
  check_int "analysis-baseline.sarif has no results" 0 (List.length (Sarif.of_string baseline));
  check_string "an empty report prints as the committed baseline" baseline
    (Sarif.to_string ~tool:"staticcheck" [])

(* Ok, or an Error inside the input; the two format readers raise only
   their documented exception. *)
let contained text =
  (match Manifest.of_string text with _ -> () | exception Manifest.Parse_error _ -> ());
  (match Sarif.of_string text with _ -> () | exception Failure _ -> ());
  match Json.parse text with
  | Ok _ -> true
  | Error e -> 0 <= e.Json.offset && e.Json.offset <= String.length text

(* A committed manifest or a SARIF report, maybe cut short, with up to four
   bytes replaced (by JSON punctuation half of the time). *)
let mutant =
  let open QCheck.Gen in
  let issue line message = { Staticcheck.Report.file = "lib/a.ml"; line; rule = "r"; message } in
  (* every control byte, so the text carries \u escapes to corrupt *)
  let findings =
    [ issue 3 "Runner.run_all \xe2\x86\x92 now \"q\" \\"; issue 9 (String.init 32 Char.chr) ]
  in
  let corpus =
    Sarif.to_string ~tool:"staticcheck" findings
    :: List.map repo_file ("analysis-baseline.sarif" :: manifests)
  in
  let byte = oneof [ char; oneofl [ '"'; '\\'; '{'; '}'; '['; ']'; ','; ':'; '0'; 'e'; 'u' ] ] in
  let edits n = list_size (int_bound 4) (pair (int_bound (n - 1)) byte) in
  QCheck.make ~print:String.escaped
    ( oneofl corpus >>= fun text ->
      let n = String.length text in
      pair (oneof [ return n; int_bound n ]) (edits n) >|= fun (cut, edits) ->
      let b = Bytes.of_string text in
      List.iter (fun (i, c) -> Bytes.set b i c) edits;
      Bytes.sub_string b 0 cut )

(* Values with finite numbers, nested a few levels deep. *)
let value =
  let open QCheck.Gen in
  let str = string_size ~gen:char (int_bound 8) in
  let num = map (fun f -> Json.Num (if Float.is_finite f then f else 0.5)) float in
  let scalar = oneof Json.[ return Null; map (fun b -> Bool b) bool; num; map (fun s -> Str s) str ] in
  let list self n = list_size (int_bound 4) (self (n / 3)) in
  let node self n =
    if n <= 0 then scalar
    else
      frequency
        [
          (2, scalar);
          (1, map (fun l -> Json.Arr l) (list self n));
          (1, map (fun l -> Json.Obj l) (list (fun n -> pair str (self n)) n));
        ]
  in
  QCheck.make ~print:Json.to_string (sized (fix node))

let () =
  let qtest ~count name arb prop =
    QCheck_alcotest.to_alcotest (QCheck.Test.make ~count ~name arb prop)
  in
  Alcotest.run "json"
    [
      ( "json",
        [
          Alcotest.test_case "rfc 8259 texts" `Quick rfc_texts;
          Alcotest.test_case "located errors" `Quick located_errors;
          Alcotest.test_case "printer layout" `Quick printer;
          Alcotest.test_case "committed files parse as before" `Quick committed_files;
          qtest ~count:1000 "arbitrary bytes give Ok or a located Error"
            QCheck.(string_of_size Gen.(int_bound 64))
            contained;
          qtest ~count:1000 "cut and mutated committed files give Ok or a located Error" mutant
            contained;
          qtest ~count:300 "parse (to_string v) = Ok v" value (fun v ->
              Json.parse (Json.to_string v) = Ok v);
        ] );
    ]
