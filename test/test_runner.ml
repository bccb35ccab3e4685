(* Tests for the parallel experiment runner: differential determinism
   (serial vs pools of 1/2/4 domains), failure isolation, manifest shape,
   and argument validation.

   The determinism tests run the full registry several times, so they use a
   small scale; the byte-identity assertions do not depend on it. *)

module Experiment = Experiments.Experiment
module Registry = Experiments.Registry

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_string = Alcotest.(check string)

let diff_scale = 0.02

(* The pre-runner serial reference: plain [Experiment.run] over the
   registry in order, no pool involved. *)
let serial_reference () =
  List.map (fun e -> Experiment.print_to_string (Experiment.run e ~scale:diff_scale)) Registry.all

let differential_determinism () =
  let reference = serial_reference () in
  let reports =
    List.map (fun pool_size -> Runner.run_all ~pool_size ~scale:diff_scale ()) [ 1; 2; 4 ]
  in
  List.iter
    (fun report ->
      check_int
        (Printf.sprintf "pool %d ran everything" report.Runner.pool_size)
        (List.length Registry.all)
        (List.length report.Runner.jobs);
      check_bool
        (Printf.sprintf "pool %d has no failures" report.Runner.pool_size)
        true
        (Runner.failures report = []);
      List.iter2
        (fun expected j ->
          check_string
            (Printf.sprintf "%s byte-identical on pool %d" j.Runner.id report.Runner.pool_size)
            expected j.Runner.rendered)
        reference report.Runner.jobs)
    reports;
  (* Manifests agree too, once timings are stripped. *)
  match List.map (fun r -> Runner.manifest_json ~strip_timings:true r) reports with
  | [ m1; m2; m4 ] ->
      (* jobs count differs by design; normalize it before comparing. *)
      let norm m =
        List.filter
          (fun line -> not (String.length line > 10 && String.sub line 2 8 = "\"jobs\": "))
          (String.split_on_char '\n' m)
      in
      check_bool "manifest 1 = manifest 2" true (norm m1 = norm m2);
      check_bool "manifest 2 = manifest 4" true (norm m2 = norm m4)
  (* unreachable: three pools were mapped above. *)
  | _ -> assert false

(* Failure isolation: one experiment raising must not kill the run; its
   error is reported and the others complete. *)
let failing_experiment id =
  {
    Experiment.id;
    title = "always raises";
    paper_ref = "n/a";
    run = (fun ~seed:_ ~scale:_ -> failwith (id ^ " exploded"));
  }

let ok_experiment id =
  {
    Experiment.id;
    title = "trivial";
    paper_ref = "n/a";
    run =
      (fun ~seed:_ ~scale:_ ->
        let summary = Table.create ~columns:[ ("k", Table.Left); ("v", Table.Right) ] in
        Table.add_row summary [ "answer"; "42" ];
        { Experiment.id; title = "trivial"; summary; plots = []; frames = []; notes = [] });
  }

(* A job that allocates [refs] two-word blocks on the minor heap and one
   [array_words]-word array straight on the major heap. *)
let allocating_experiment id ~refs ~array_words =
  let run ~seed:_ ~scale:_ =
    for i = 1 to refs do
      ignore (Sys.opaque_identity (ref i))
    done;
    ignore (Sys.opaque_identity (Array.make array_words 0));
    (ok_experiment id).Experiment.run ~seed:0 ~scale:1.0
  in
  { (ok_experiment id) with Experiment.run }

(* Each job's word counts are its own, whichever domain of the pool ran
   it: at least what it is known to allocate, and not another job's. *)
let per_job_gc_words () =
  let small = (100_000, 20_000) and large = (300_000, 60_000) in
  let experiments =
    List.map
      (fun (id, (refs, array_words)) -> allocating_experiment id ~refs ~array_words)
      [ ("small", small); ("large", large) ]
  in
  let report = Runner.run_all ~pool_size:2 ~scale:1.0 ~experiments () in
  check_int "two domains" 2 report.Runner.pool_size;
  let words id =
    match List.find_opt (fun j -> j.Runner.id = id) report.Runner.jobs with
    | Some j -> (j.Runner.minor_words, j.Runner.major_words)
    | None -> Alcotest.failf "job %s missing" id
  in
  let at_least label known got =
    if not (got >= float_of_int known) then
      Alcotest.failf "%s: %.0f words, expected at least %d" label got known
  in
  List.iter
    (fun (id, (refs, array_words)) ->
      let minor, major = words id in
      at_least (id ^ " minor") (2 * refs) minor;
      at_least (id ^ " major") array_words major)
    [ ("small", small); ("large", large) ];
  let small_minor, small_major = words "small" and large_minor, large_major = words "large" in
  check_bool "minor words differ" true (small_minor <> large_minor);
  check_bool "major words differ" true (small_major <> large_major)

let failure_isolation () =
  let experiments =
    [ ok_experiment "ok-a"; failing_experiment "boom"; ok_experiment "ok-b" ]
  in
  let report = Runner.run_all ~pool_size:2 ~scale:1.0 ~experiments () in
  check_int "all jobs reported" 3 (List.length report.Runner.jobs);
  (match Runner.failures report with
  | [ (id, msg) ] ->
      check_string "failed id" "boom" id;
      check_bool "carries the exception" true
        (String.length msg > 0
        && String.length msg >= String.length "boom exploded"
        &&
        let rec contains i =
          i + 13 <= String.length msg && (String.sub msg i 13 = "boom exploded" || contains (i + 1))
        in
        contains 0)
  | l -> Alcotest.failf "expected exactly one failure, got %d" (List.length l));
  List.iter
    (fun j ->
      match (j.Runner.id, j.Runner.status) with
      | "boom", Runner.Failed _ -> check_string "failed job has no output" "" j.Runner.rendered
      | "boom", Runner.Done -> Alcotest.fail "boom should have failed"
      | _, Runner.Done ->
          check_int "ok job counted its rows" 1 j.Runner.rows;
          check_bool "ok job rendered" true (String.length j.Runner.rendered > 0)
      | id, Runner.Failed msg -> Alcotest.failf "%s unexpectedly failed: %s" id msg)
    report.Runner.jobs

let manifest_shape () =
  let report =
    Runner.run_all ~pool_size:1 ~scale:1.0
      ~experiments:[ ok_experiment "alpha"; failing_experiment "beta \"quoted\"" ]
      ()
  in
  let manifest = Runner.manifest_json report in
  let has sub =
    let n = String.length manifest and m = String.length sub in
    let rec loop i = i + m <= n && (String.sub manifest i m = sub || loop (i + 1)) in
    loop 0
  in
  check_bool "schema tag" true (has "\"schema\": \"dvfs-bench-manifest/2\"");
  check_bool "word counters recorded" true (has "\"minor_words\": ");
  check_bool "ok entry" true (has "{\"id\": \"alpha\", \"status\": \"ok\"");
  check_bool "failed entry with escaped id" true
    (has "{\"id\": \"beta \\\"quoted\\\"\", \"status\": \"failed\"");
  check_bool "error recorded" true (has "\"error\": ");
  check_bool "rows recorded" true (has "\"rows\": 1");
  check_bool "no per-job cpu time" false (has "cpu_seconds")

(* --------------------------------------------------------------- *)
(* Manifest reader / regression differ *)

module Manifest = Runner.Manifest

(* The writer and reader are two halves of one loop: a freshly written
   manifest must load back with the same shape. *)
let manifest_roundtrip () =
  let report =
    Runner.run_all ~pool_size:1 ~scale:1.0
      ~experiments:[ ok_experiment "alpha"; failing_experiment "beta" ]
      ()
  in
  let m = Manifest.of_string (Runner.manifest_json report) in
  check_string "schema" "dvfs-bench-manifest/2" m.Manifest.schema;
  check_int "jobs" 1 m.Manifest.jobs;
  check_int "experiments" 2 (List.length m.Manifest.experiments);
  (match m.Manifest.experiments with
  | [ a; b ] ->
      check_string "first id" "alpha" a.Manifest.id;
      check_string "first status" "ok" a.Manifest.status;
      check_int "first rows" 1 a.Manifest.rows;
      check_bool "word counters present" true (a.Manifest.minor_words >= 0.0);
      check_string "second status" "failed" b.Manifest.status
  | _ -> Alcotest.fail "unexpected experiment list");
  check_bool "alloc total finite" true (Float.is_finite (Manifest.total_alloc_mb m))

let v1_manifest =
  {|{
  "schema": "dvfs-bench-manifest/1",
  "scale": 0.1,
  "jobs": 4,
  "host_domains": 2,
  "total_seconds": 12.5,
  "experiments": [
    {"id": "fig3", "status": "ok", "seconds": 4.0, "cpu_seconds": 3.9, "alloc_mb": 120.0, "rows": 64},
    {"id": "fig4", "status": "failed", "seconds": 0.1, "cpu_seconds": 0.1, "alloc_mb": 1.5, "rows": 0, "error": "boom"}
  ]
}|}

let manifest_v1_compat () =
  let m = Manifest.of_string v1_manifest in
  check_string "schema" "dvfs-bench-manifest/1" m.Manifest.schema;
  check_int "jobs" 4 m.Manifest.jobs;
  check_int "host_domains" 2 m.Manifest.host_domains;
  Alcotest.(check (float 1e-9)) "total_seconds" 12.5 m.Manifest.total_seconds;
  Alcotest.(check (float 1e-9)) "alloc sums both entries" 121.5 (Manifest.total_alloc_mb m);
  List.iter
    (fun e ->
      Alcotest.(check (float 0.0))
        (e.Manifest.id ^ " minor_words defaults") 0.0 e.Manifest.minor_words;
      Alcotest.(check (float 0.0))
        (e.Manifest.id ^ " major_words defaults") 0.0 e.Manifest.major_words)
    m.Manifest.experiments;
  (* Schema /2 files written before the runner dropped "cpu_seconds" still
     carry it, as the /1 fixture does. *)
  let v2 =
    Manifest.of_string
      {|{"schema": "dvfs-bench-manifest/2", "experiments": [
          {"id": "fig3", "status": "ok", "seconds": 4.0, "cpu_seconds": 3.9, "alloc_mb": 120.0,
           "minor_words": 5.0, "major_words": 1.0, "rows": 64},
          {"id": "fig4", "status": "ok", "seconds": 1.0, "cpu_seconds": 0.9, "alloc_mb": 2.0,
           "minor_words": 5.0, "major_words": 1.0, "rows": 3}]}|}
  in
  check_int "v2 with cpu_seconds loads" 2 (List.length v2.Manifest.experiments)

let manifest_rejects () =
  let rejects label s =
    match Manifest.of_string s with
    | exception Manifest.Parse_error _ -> ()
    | _ -> Alcotest.failf "%s: expected Parse_error" label
  in
  rejects "malformed json" "{\"schema\": ";
  rejects "trailing garbage" "{} {}";
  rejects "unsupported schema"
    {|{"schema": "dvfs-bench-manifest/99", "experiments": []}|};
  rejects "missing experiments" {|{"schema": "dvfs-bench-manifest/2"}|};
  rejects "mistyped field"
    {|{"schema": "dvfs-bench-manifest/2", "experiments": [{"id": 3}]}|}

let mexp ?(status = "ok") id ~seconds ~alloc_mb =
  {
    Manifest.id;
    status;
    seconds;
    alloc_mb;
    minor_words = 0.0;
    major_words = 0.0;
    rows = 1;
  }

let mt ?(analyze = 0.0) ~total experiments =
  {
    Manifest.schema = "dvfs-bench-manifest/2";
    scale = 1.0;
    jobs = 1;
    host_domains = 1;
    total_seconds = total;
    analyze_seconds = analyze;
    experiments;
  }

let manifest_diff () =
  let baseline =
    mt ~total:10.0
      [
        mexp "steady" ~seconds:2.0 ~alloc_mb:100.0;
        mexp "tiny" ~seconds:0.01 ~alloc_mb:0.2;
        mexp "broken" ~status:"failed" ~seconds:0.1 ~alloc_mb:1.0;
      ]
  in
  let current =
    mt ~total:11.0
      [
        (* 2x the baseline seconds: beyond the default 1.5x tolerance. *)
        mexp "steady" ~seconds:4.0 ~alloc_mb:110.0;
        (* Huge ratio but the baseline sits under the noise floor. *)
        mexp "tiny" ~seconds:1.0 ~alloc_mb:0.9;
        (* Failed experiments are not compared. *)
        mexp "broken" ~status:"failed" ~seconds:5.0 ~alloc_mb:50.0;
        (* Present only on one side: registry growth, not a regression. *)
        mexp "new-exp" ~seconds:9.0 ~alloc_mb:900.0;
      ]
  in
  (match Manifest.diff ~baseline ~current () with
  | [ r ] ->
      check_string "regressed id" "steady" r.Manifest.exp_id;
      check_string "regressed metric" "seconds" r.Manifest.metric;
      Alcotest.(check (float 1e-9)) "ratio" 2.0 r.Manifest.ratio
  | l -> Alcotest.failf "expected one regression, got %d" (List.length l));
  check_bool "generous tolerance passes" true
    (Manifest.diff ~tolerance:3.0 ~baseline ~current () = []);
  (* The run-wide total is gated too. *)
  let slow = mt ~total:30.0 baseline.Manifest.experiments in
  (match Manifest.diff ~baseline ~current:slow () with
  | [ r ] ->
      check_string "total id" "(total)" r.Manifest.exp_id;
      check_string "total metric" "total_seconds" r.Manifest.metric
  | l -> Alcotest.failf "expected one total regression, got %d" (List.length l));
  Alcotest.check_raises "tolerance below 1"
    (Invalid_argument "Manifest.diff: tolerance must be >= 1.0")
    (fun () -> ignore (Manifest.diff ~tolerance:0.5 ~baseline ~current ()))

(* analyze_seconds: the analyzer wall-time key added for the @analyze
   perf gate.  Optional in the writer — manifests written without it are
   byte-identical to before — and defaulting to 0 in the reader, so old
   trajectory baselines keep loading. *)
let manifest_analyze_seconds () =
  let contains s sub =
    let n = String.length s and m = String.length sub in
    let rec loop i = i + m <= n && (String.sub s i m = sub || loop (i + 1)) in
    loop 0
  in
  let report = Runner.run_all ~pool_size:1 ~scale:1.0 ~experiments:[ ok_experiment "alpha" ] () in
  let without = Runner.manifest_json report in
  check_bool "no key unless supplied" false (contains without "analyze_seconds");
  Alcotest.(check (float 0.0)) "absent key loads as 0" 0.0
    (Manifest.of_string without).Manifest.analyze_seconds;
  Alcotest.(check (float 0.0)) "schema /1 loads as 0" 0.0
    (Manifest.of_string v1_manifest).Manifest.analyze_seconds;
  let with_timing = Runner.manifest_json ~analyze_seconds:1.25 report in
  check_bool "key present when supplied" true
    (contains with_timing "\"analyze_seconds\": 1.25,");
  Alcotest.(check (float 1e-9)) "round-trips through the reader" 1.25
    (Manifest.of_string with_timing).Manifest.analyze_seconds;
  check_bool "strip_timings zeroes it" true
    (contains
       (Runner.manifest_json ~strip_timings:true ~analyze_seconds:1.25 report)
       "\"analyze_seconds\": 0,")

let manifest_analyze_gate () =
  let exps = [ mexp "steady" ~seconds:2.0 ~alloc_mb:100.0 ] in
  let baseline = mt ~analyze:0.2 ~total:10.0 exps in
  let current = mt ~analyze:0.5 ~total:10.0 exps in
  (match Manifest.diff ~baseline ~current () with
  | [ r ] ->
      check_string "gated as a run-wide metric" "(total)" r.Manifest.exp_id;
      check_string "metric name" "analyze_seconds" r.Manifest.metric;
      Alcotest.(check (float 1e-9)) "ratio" 2.5 r.Manifest.ratio
  | l -> Alcotest.failf "expected one analyze regression, got %d" (List.length l));
  (* a side without timing (0.) sits under the noise floor: skipped, so
     pre-analyzer baselines never trip the gate *)
  check_bool "timing-less baseline is skipped" true
    (Manifest.diff ~baseline:(mt ~total:10.0 exps) ~current () = []);
  check_bool "timing-less current is skipped" true
    (Manifest.diff ~baseline ~current:(mt ~total:10.0 exps) () = [])

let analyze_timing_sidefile () =
  let path = Filename.temp_file "dvfs_timing" ".json" in
  let write s =
    let oc = open_out path in
    output_string oc s;
    close_out oc
  in
  write "{\n  \"schema\": \"dvfs-analyze-timing/1\",\n  \"analyze_seconds\": 0.163\n}\n";
  Alcotest.(check (float 1e-9)) "reads the side-file" 0.163 (Manifest.read_analyze_timing path);
  write "{\"schema\": \"bogus/9\", \"analyze_seconds\": 1.0}";
  (match Manifest.read_analyze_timing path with
  | exception Manifest.Parse_error _ -> ()
  | _ -> Alcotest.fail "expected Parse_error on a foreign schema");
  write "{\"schema\": \"dvfs-analyze-timing/1\"}";
  (match Manifest.read_analyze_timing path with
  | exception Manifest.Parse_error _ -> ()
  | _ -> Alcotest.fail "expected Parse_error on a missing field");
  Sys.remove path

let validation () =
  Alcotest.check_raises "pool_size 0" (Invalid_argument "Runner.run_all: pool_size must be positive")
    (fun () -> ignore (Runner.run_all ~pool_size:0 ~scale:1.0 ~experiments:[] ()));
  Alcotest.check_raises "scale 0" (Invalid_argument "Runner.run_all: scale must be positive")
    (fun () -> ignore (Runner.run_all ~pool_size:1 ~scale:0.0 ~experiments:[] ()));
  (* A pool far larger than the job list is clamped, not an error. *)
  let report = Runner.run_all ~pool_size:64 ~scale:1.0 ~experiments:[ ok_experiment "one" ] () in
  check_int "pool clamped to job count" 1 report.Runner.pool_size

let () =
  Alcotest.run "runner"
    [
      ( "determinism",
        [ Alcotest.test_case "serial vs jobs 1/2/4 byte-identical" `Slow differential_determinism ]
      );
      ( "mechanics",
        [
          Alcotest.test_case "failure isolation" `Quick failure_isolation;
          Alcotest.test_case "per-job GC words on a pool" `Quick per_job_gc_words;
          Alcotest.test_case "manifest shape" `Quick manifest_shape;
          Alcotest.test_case "validation" `Quick validation;
        ] );
      ( "manifest",
        [
          Alcotest.test_case "writer/reader roundtrip" `Quick manifest_roundtrip;
          Alcotest.test_case "schema /1 compatibility" `Quick manifest_v1_compat;
          Alcotest.test_case "rejects malformed input" `Quick manifest_rejects;
          Alcotest.test_case "regression diff" `Quick manifest_diff;
          Alcotest.test_case "analyze_seconds back-compat" `Quick manifest_analyze_seconds;
          Alcotest.test_case "analyze_seconds gate" `Quick manifest_analyze_gate;
          Alcotest.test_case "timing side-file" `Quick analyze_timing_sidefile;
        ] );
    ]
