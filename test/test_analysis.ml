(* The invariant sanitizer (lib/analysis), its hooks in the simulator, and
   the analyzer's source rules (lib/staticcheck).

   Covers: registry idempotence and counters; the three violation
   policies; the NaN tripwire on measurement sinks; the live [pending]
   count of the event queue under heavy cancellation; an injected
   credit-conservation violation caught through the public
   [Pas_sched.check_invariants]; and the source rules, including the
   planted-violation exit code of the standalone driver. *)

module Domain = Hypervisor.Domain
module Equations = Pas.Equations
module Processor = Cpu_model.Processor
module Workload = Workloads.Workload

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

(* Every test that enables the sanitizer runs inside this wrapper so a
   failure can never leak an enabled sanitizer into the other suites. *)
let with_sanitizer ?policy f () =
  Analysis.clear ();
  Analysis.enable ?policy ();
  Fun.protect ~finally:(fun () ->
      Analysis.disable ();
      Analysis.clear ())
    f

(* ----- registry ----- *)

let test_registry_idempotent () =
  let a = Analysis.Invariant.register "test.idem" ~equation:"Eq. 0" ~doc:"first" in
  let before = List.length (Analysis.Invariant.all ()) in
  let b = Analysis.Invariant.register "test.idem" ~doc:"second" in
  check_int "no duplicate entry" before (List.length (Analysis.Invariant.all ()));
  check_bool "same entry" true (a == b);
  check_bool "first doc wins" true (Analysis.Invariant.doc b = Some "first");
  check_bool "found by name" true
    (match Analysis.Invariant.find "test.idem" with Some i -> i == a | None -> false)

let test_registry_counters =
  with_sanitizer ~policy:Analysis.Collect (fun () ->
      let inv = Analysis.Invariant.register "test.counters" in
      Analysis.Invariant.reset_counters ();
      Analysis.Check.run inv true;
      Analysis.Check.run inv true;
      Analysis.Check.run inv false;
      check_int "checks" 3 (Analysis.Invariant.checks inv);
      check_int "violations" 1 (Analysis.Invariant.violations inv);
      Analysis.Invariant.reset_counters ();
      check_int "reset" 0 (Analysis.Invariant.checks inv))

(* ----- policies ----- *)

let test_disabled_is_noop () =
  Analysis.clear ();
  let inv = Analysis.Invariant.register "test.noop" in
  check_bool "off by default" false (Analysis.enabled ());
  Analysis.Check.run inv false;
  check_int "nothing recorded" 0 (List.length (Analysis.violations ()))

let test_fail_fast =
  with_sanitizer (fun () ->
      let inv = Analysis.Invariant.register "test.fail-fast" in
      check_bool "raises on violation" true
        (match
           Analysis.Check.run inv ~time_s:1.5 ~component:"unit"
             ~detail:(fun () -> "boom") false
         with
        | () -> false
        | exception Analysis.Violation.Error v ->
            v.Analysis.Violation.invariant = "test.fail-fast"
            && v.Analysis.Violation.component = "unit"
            && v.Analysis.Violation.time_s = 1.5
            && v.Analysis.Violation.detail = "boom"))

let test_collect =
  with_sanitizer ~policy:Analysis.Collect (fun () ->
      let inv = Analysis.Invariant.register "test.collect" in
      Analysis.Check.run inv ~detail:(fun () -> "first") false;
      Analysis.Check.run inv true;
      Analysis.Check.run inv ~detail:(fun () -> "second") false;
      match Analysis.violations () with
      | [ a; b ] ->
          check_bool "oldest first" true
            (a.Analysis.Violation.detail = "first" && b.Analysis.Violation.detail = "second")
      | l -> Alcotest.failf "expected 2 violations, got %d" (List.length l))

let test_warn_continues =
  with_sanitizer ~policy:Analysis.Warn (fun () ->
      let inv = Analysis.Invariant.register "test.warn" in
      Analysis.Check.run inv false;
      Analysis.Check.run inv false;
      check_int "recorded but not raised" 2 (List.length (Analysis.violations ())))

let test_check_helpers =
  with_sanitizer ~policy:Analysis.Collect (fun () ->
      let inv = Analysis.Invariant.register "test.helpers" in
      Analysis.Check.finite inv 1.0;
      Analysis.Check.finite inv Float.nan;
      Analysis.Check.finite inv Float.infinity;
      Analysis.Check.within inv ~lo:0.0 ~hi:1.0 0.5;
      Analysis.Check.within inv ~lo:0.0 ~hi:1.0 1.2;
      check_int "nan, inf and out-of-range caught" 3
        (List.length (Analysis.violations ())))

let test_report =
  with_sanitizer ~policy:Analysis.Collect (fun () ->
      let inv = Analysis.Invariant.register "test.report" in
      Analysis.Check.run inv ~component:"unit" false;
      let text = Format.asprintf "%a" Analysis.report () in
      check_bool "report names the invariant" true
        (List.exists
           (fun line ->
             String.length line > 0
             && String.length "test.report" <= String.length line
             &&
             let re = "test.report" in
             let rec find i =
               i + String.length re <= String.length line
               && (String.sub line i (String.length re) = re || find (i + 1))
             in
             find 0)
           (String.split_on_char '\n' text)))

(* ----- sink tripwires ----- *)

let test_series_nan =
  with_sanitizer (fun () ->
      let s = Series.create ~name:"unit" in
      Series.add s (Sim_time.of_ms 1) 1.0;
      check_bool "nan sample is fatal" true
        (match Series.add s (Sim_time.of_ms 2) Float.nan with
        | () -> false
        | exception Analysis.Violation.Error v ->
            v.Analysis.Violation.invariant = "series.finite-sample"))

let test_stats_nan =
  with_sanitizer (fun () ->
      let r = Stats.Running.create () in
      Stats.Running.add r 2.0;
      check_bool "nan accumulation is fatal" true
        (match Stats.Running.add r Float.nan with
        | () -> false
        | exception Analysis.Violation.Error v ->
            v.Analysis.Violation.invariant = "stats.finite-sample"))

(* ----- simulator: live pending count under cancellation ----- *)

let test_pending_counts_live () =
  let sim = Simulator.create () in
  let ran = ref 0 in
  let handles =
    List.init 10 (fun i -> Simulator.after sim (Sim_time.of_ms (i + 1)) (fun () -> incr ran))
  in
  check_int "all queued" 10 (Simulator.pending sim);
  List.iteri (fun i h -> if i mod 2 = 0 then Simulator.cancel sim h) handles;
  check_int "cancelled events excluded" 5 (Simulator.pending sim);
  (* double-cancel is a no-op *)
  Simulator.cancel sim (List.hd handles);
  check_int "double cancel" 5 (Simulator.pending sim);
  Simulator.run sim;
  check_int "only live events ran" 5 !ran;
  check_int "drained" 0 (Simulator.pending sim)

let test_pending_after_compaction () =
  (* enough cancellations to trigger heap compaction (threshold 64) *)
  let sim = Simulator.create () in
  let ran = ref 0 in
  let handles =
    List.init 500 (fun i -> Simulator.after sim (Sim_time.of_ms (i + 1)) (fun () -> incr ran))
  in
  List.iteri (fun i h -> if i mod 5 <> 0 then Simulator.cancel sim h) handles;
  check_int "live count survives compaction" 100 (Simulator.pending sim);
  Simulator.run sim;
  check_int "exactly the live events ran" 100 !ran

let test_pending_periodic () =
  let sim = Simulator.create () in
  let ticks = ref 0 in
  let h = Simulator.every sim (Sim_time.of_ms 10) (fun () -> incr ticks) in
  check_int "periodic counts once" 1 (Simulator.pending sim);
  Simulator.run_until sim (Sim_time.of_ms 35);
  check_int "still one pending after re-arms" 1 (Simulator.pending sim);
  Simulator.cancel sim h;
  check_int "cancelled cycle" 0 (Simulator.pending sim);
  Simulator.run_until sim (Sim_time.of_ms 100);
  check_int "no further ticks" 3 !ticks

let test_monotonic_under_sanitizer =
  with_sanitizer (fun () ->
      (* a normal run must not trip the monotonic-time invariant *)
      let sim = Simulator.create () in
      let n = ref 0 in
      ignore (Simulator.every sim (Sim_time.of_ms 7) (fun () -> incr n));
      Simulator.run_until sim (Sim_time.of_sec 1);
      check_bool "clean run" true (!n > 100))

(* ----- equations: explicit rejection of non-positive speed ----- *)

let test_invalid_speed () =
  Alcotest.check_raises "zero ratio"
    (Equations.Invalid_speed { ratio = 0.0; cf = 1.0 })
    (fun () -> ignore (Equations.compensated_credit ~initial:10.0 ~ratio:0.0 ~cf:1.0));
  Alcotest.check_raises "negative cf"
    (Equations.Invalid_speed { ratio = 0.5; cf = -1.0 })
    (fun () -> ignore (Equations.compensated_credit ~initial:10.0 ~ratio:0.5 ~cf:(-1.0)))

(* ----- injected credit-conservation violation ----- *)

let test_injected_conservation_violation =
  with_sanitizer (fun () ->
      let processor = Processor.create Cpu_model.Arch.optiplex_755 in
      let a = Domain.create ~name:"a" ~credit_pct:20.0 (Workload.busy_loop ()) in
      let b = Domain.create ~name:"b" ~credit_pct:30.0 (Workload.busy_loop ()) in
      let pas = Pas.Pas_sched.create ~processor [ a; b ] in
      let now = Sim_time.of_ms 10 in
      (* clean state passes *)
      Pas.Pas_sched.check_invariants pas ~now;
      (* corrupt one effective credit behind PAS's back: conservation breaks *)
      let sched = Pas.Pas_sched.scheduler pas in
      sched.Hypervisor.Scheduler.set_effective_credit a
        (Pas.Pas_sched.effective_credit pas a +. 7.0);
      check_bool "corruption detected" true
        (match Pas.Pas_sched.check_invariants pas ~now with
        | () -> false
        | exception Analysis.Violation.Error v ->
            v.Analysis.Violation.invariant = "pas.credit-conservation"))

(* ----- source rules ----- *)

let issues_of ?(file = "lib/fake/fake.ml") src = Staticcheck.analyze_source ~file src
let rules issues = List.map (fun i -> i.Staticcheck.Report.rule) issues

let test_lint_float_eq () =
  check_bool "planted float equality flagged" true
    (rules (issues_of "let bad x = x = 1.0\n") = [ "float-eq" ]);
  check_bool "<> flagged" true
    (rules (issues_of "let bad x = x <> 0.5\n") = [ "float-eq" ]);
  check_bool "<= is fine" true (issues_of "let ok x = x <= 1.0\n" = []);
  check_bool "optional-arg default is fine" true
    (issues_of "let ok ?(x = 1.0) () = x\n" = []);
  check_bool "record field is fine" true
    (issues_of "let ok = { mean = 0.0; count = 0 }\n" = []);
  check_bool "comments are blanked" true (issues_of "(* x = 1.0 *)\nlet ok = 3\n" = []);
  check_bool "strings are blanked" true (issues_of "let ok = \"x = 1.0\"\n" = [])

let test_lint_waiver () =
  check_bool "waived line is exempt" true
    (issues_of "let ok x = x = 1.0 (* lint:ignore float-eq: sentinel *)\n" = [])

let test_lint_random () =
  check_bool "global Random flagged" true
    (rules (issues_of "let x = Random.int 3\n") = [ "random" ]);
  check_bool "Prng is fine" true (issues_of "let x = Prng.int rng 3\n" = [])

let test_lint_assert_false () =
  check_bool "bare assert false flagged" true
    (rules (issues_of "let f = function Some x -> x | None -> assert false\n")
    = [ "assert-false" ]);
  check_bool "documented unreachable is fine" true
    (issues_of
       "(* unreachable: always Some here *)\n\
        let f = function Some x -> x | None -> assert false\n"
    = [])

let test_lint_mutable_doc () =
  let src = "type t = {\n  mutable count : int;\n}\n" in
  check_bool "undocumented mutable field in mli flagged" true
    (rules (issues_of ~file:"lib/fake/fake.mli" src) = [ "mutable-doc" ]);
  let documented = "type t = {\n  mutable count : int;  (** grows monotonically *)\n}\n" in
  check_bool "documented mutable field is fine" true
    (issues_of ~file:"lib/fake/fake.mli" documented = []);
  check_bool "doc comment three lines above is fine" true
    (issues_of ~file:"lib/fake/fake.mli"
       "(** counters *)\ntype t = {\n  x : int;\n  mutable count : int;\n}\n"
    = []);
  check_bool "waiver applies" true
    (issues_of ~file:"lib/fake/fake.mli"
       "type t = {\n  mutable count : int; (* lint:ignore mutable-doc: scratch *)\n}\n"
    = []);
  check_bool "mutable in ml is fine" true (issues_of src = [])

(* Hash tables iterate in hash order, which varies run to run — every
   [Hashtbl.create] must say why that cannot leak into simulation output
   (a nearby "deterministic"/"hash-order" comment), or be waived. *)
let test_lint_hashtbl_create () =
  check_bool "bare Hashtbl.create flagged" true
    (rules (issues_of "let t = Hashtbl.create 8\n") = [ "hashtbl-create" ]);
  check_bool "same-line deterministic comment is fine" true
    (issues_of "let t = Hashtbl.create 8 (* deterministic: lookup only *)\n" = []);
  check_bool "comment up to two lines above is fine" true
    (issues_of "(* Deterministic: keyed lookups, never iterated *)\nlet t = Hashtbl.create 8\n"
    = []);
  check_bool "hash-order comment is fine" true
    (issues_of "(* hash-order: rows sorted before printing *)\n\nlet t = Hashtbl.create 8\n" = []);
  check_bool "comment three lines up is too far" true
    (rules (issues_of "(* deterministic *)\n\n\nlet t = Hashtbl.create 8\n")
    = [ "hashtbl-create" ]);
  check_bool "string occurrence is blanked" true
    (issues_of "let s = \"Hashtbl.create\"\n" = []);
  check_bool "longer module name does not match" true
    (issues_of "let t = XHashtbl.create 8\n" = []);
  check_bool "waiver applies" true
    (issues_of "let t = Hashtbl.create 8 (* lint:ignore hashtbl-create: scratch *)\n" = [])

(* Formatted printing in a file with an allocation-free hot path is the
   allocation prover's business, not a file-wide rule: printing reached
   from an (* alloc: none *) root is flagged, printing elsewhere in the
   same file is not. *)
let test_lint_hot_path_printf () =
  let hot = "(* alloc: none *)\nlet hot x = x + 1\n" in
  check_bool "printing off the hot path is free" true
    (issues_of (hot ^ "let dump x = Printf.printf \"%d\" x\n") = []);
  check_bool "printing reached from a hot root is flagged" true
    (rules (issues_of "(* alloc: none *)\nlet hot x = Format.printf \"%d\" x\n")
    = [ "alloc-in-hot-path" ]);
  check_bool "console output reached from a hot root is flagged" true
    (rules (issues_of "(* alloc: none *)\nlet hot x = print_endline x\n")
    = [ "alloc-in-hot-path" ]);
  check_bool "a cold helper may print" true
    (issues_of
       "(* alloc: cold *)\n\
        let dump x = print_endline x\n\
        (* alloc: none *)\n\
        let hot x = if x = \"\" then dump x\n"
    = [])

(* Rule bait inside quoted string literals, including bodies that
   contain comment openers and quotes, is never code: the parser sees a
   string constant. *)
let test_lint_quoted_string () =
  check_bool "quoted string is blanked" true
    (issues_of "let ok = {|Random.int \" (* x = 1.0 *)|}\n" = []);
  check_bool "delimited quoted string is blanked" true
    (issues_of "let ok = {foo|Random.int \" x = 1.0 |} |foo}\n" = []);
  check_bool "an unterminated quoted string is a parse error, not bait" true
    (rules (issues_of "let ok = {|x = 1.0\n") = [ "parse-error" ]);
  check_bool "code after the literal is still checked" true
    (rules (issues_of "let s = {|quiet|}\nlet x = Random.int 3\n") = [ "random" ]);
  check_bool "brace without a delimiter is not a literal" true
    (rules (issues_of "let f r = { r with x = 1 }\nlet y = Random.int 3\n")
    = [ "random" ])

(* The acceptance check: the standalone driver (what [dune build @lint]
   and [@analyze] run) exits nonzero on a tree with a planted violation
   and zero on a clean one. *)
(* Every library module ships an interface: a [.ml] under a [lib/]
   directory without its [.mli] is flagged; modules outside [lib/] are
   exempt. *)
let test_lint_missing_mli () =
  let dir = Filename.temp_file "mlicheck" "" in
  Sys.remove dir;
  Sys.mkdir dir 0o755;
  let lib = Filename.concat dir "lib" in
  Sys.mkdir lib 0o755;
  let write name content =
    let oc = open_out name in
    output_string oc content;
    close_out oc
  in
  let found () =
    List.map
      (fun i -> (Filename.basename i.Staticcheck.Report.file, i.Staticcheck.Report.rule))
      (Staticcheck.analyze_paths [ dir ])
  in
  write (Filename.concat dir "tool.ml") "let ok = 1\n";
  write (Filename.concat lib "bare.ml") "let ok = 1\n";
  check_bool "library module without an interface flagged" true
    (found () = [ ("bare.ml", "missing-mli") ]);
  write (Filename.concat lib "bare.mli") "val ok : int\n";
  check_bool "with its interface it is fine" true (found () = []);
  List.iter Sys.remove
    (List.map (Filename.concat lib) [ "bare.ml"; "bare.mli" ]
    @ [ Filename.concat dir "tool.ml" ]);
  Sys.rmdir lib;
  Sys.rmdir dir

let test_lint_driver_exit_code () =
  (* the driver sits next to this test in the build tree, whatever the cwd *)
  let exe =
    Filename.concat (Filename.dirname Sys.executable_name) "../bin/analyze_main.exe"
  in
  let dir = Filename.temp_file "lintcheck" "" in
  Sys.remove dir;
  Sys.mkdir dir 0o755;
  let write name content =
    let oc = open_out (Filename.concat dir name) in
    output_string oc content;
    close_out oc
  in
  let run () =
    Sys.command
      (Filename.quote_command exe [ dir ] ~stdout:Filename.null ~stderr:Filename.null)
  in
  write "clean.ml" "let ok x = x + 1\n";
  check_int "clean tree exits 0" 0 (run ());
  write "planted.ml" "let bad x = x = 1.0\n";
  check_bool "planted float-eq exits nonzero" true (run () <> 0);
  Array.iter (fun f -> Sys.remove (Filename.concat dir f)) (Sys.readdir dir);
  Sys.rmdir dir

let () =
  Alcotest.run "analysis"
    [
      ( "registry",
        [
          Alcotest.test_case "idempotent" `Quick test_registry_idempotent;
          Alcotest.test_case "counters" `Quick test_registry_counters;
        ] );
      ( "policies",
        [
          Alcotest.test_case "disabled is a no-op" `Quick test_disabled_is_noop;
          Alcotest.test_case "fail-fast raises" `Quick test_fail_fast;
          Alcotest.test_case "collect accumulates" `Quick test_collect;
          Alcotest.test_case "warn continues" `Quick test_warn_continues;
          Alcotest.test_case "finite/within helpers" `Quick test_check_helpers;
          Alcotest.test_case "report" `Quick test_report;
        ] );
      ( "tripwires",
        [
          Alcotest.test_case "series rejects nan" `Quick test_series_nan;
          Alcotest.test_case "stats rejects nan" `Quick test_stats_nan;
          Alcotest.test_case "invalid speed" `Quick test_invalid_speed;
          Alcotest.test_case "injected conservation violation" `Quick
            test_injected_conservation_violation;
        ] );
      ( "simulator",
        [
          Alcotest.test_case "pending counts live events" `Quick test_pending_counts_live;
          Alcotest.test_case "pending after compaction" `Quick test_pending_after_compaction;
          Alcotest.test_case "periodic events" `Quick test_pending_periodic;
          Alcotest.test_case "monotonic clock under sanitizer" `Quick
            test_monotonic_under_sanitizer;
        ] );
      ( "lint",
        [
          Alcotest.test_case "float equality" `Quick test_lint_float_eq;
          Alcotest.test_case "waiver" `Quick test_lint_waiver;
          Alcotest.test_case "unseeded random" `Quick test_lint_random;
          Alcotest.test_case "assert false" `Quick test_lint_assert_false;
          Alcotest.test_case "mutable without doc" `Quick test_lint_mutable_doc;
          Alcotest.test_case "quoted strings" `Quick test_lint_quoted_string;
          Alcotest.test_case "hashtbl create" `Quick test_lint_hashtbl_create;
          Alcotest.test_case "hot-path printf" `Quick test_lint_hot_path_printf;
          Alcotest.test_case "missing interface" `Quick test_lint_missing_mli;
          Alcotest.test_case "driver exit code" `Quick test_lint_driver_exit_code;
        ] );
    ]
