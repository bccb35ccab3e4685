(* The AST analysis passes (lib/staticcheck): the unit-of-measure checker,
   the domain-safety pass, the SARIF serializer and the standalone driver
   behind [dune build @analyze].

   Fixtures are in-memory snippets, one per rule, positive and negative —
   each intentionally-broken fixture must trigger exactly its rule and
   nothing else.  The SARIF output is parsed back with a minimal JSON
   reader (no JSON library in the tree) to check it is well-formed and
   round-trips the issue count. *)

module Report = Staticcheck.Report

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let analyze ?(file = "lib/fake/fake.ml") src = Staticcheck.analyze_source ~file src
let rules issues = List.sort_uniq compare (List.map (fun i -> i.Report.rule) issues)

let check_rules msg expected src = Alcotest.(check (list string)) msg expected (rules (analyze src))

(* ----- unit-of-measure checker ----- *)

let test_unit_arith () =
  check_rules "cross-unit add flagged" [ "unit-arith" ]
    "let f freq_mhz time_s = freq_mhz + time_s\n";
  check_rules "cross-unit subtract flagged" [ "unit-arith" ]
    "let g energy_joules idle_watts = energy_joules -. idle_watts\n";
  check_rules "cross-unit comparison flagged" [ "unit-arith" ]
    "let too_hot load_pct time_s = load_pct > time_s\n";
  check_rules "same unit is fine" [] "let f a_mhz b_mhz = a_mhz + b_mhz\n";
  check_rules "credits and percent mix freely" []
    "let f credit_pct extra_credits = credit_pct +. extra_credits\n";
  check_rules "scaling by a fraction preserves the unit" []
    "let f ratio time_s = time_s *. ratio +. time_s\n";
  check_rules "quotient of same unit is a fraction" []
    "let share_frac time_s total_seconds = time_s /. total_seconds\n";
  check_rules "unknown operands stay silent" [] "let f a b = a + b\n"

let test_unit_call () =
  check_rules "seconds into ~initial:credits flagged" [ "unit-call" ]
    "let f ~ratio ~cf t_max_s =\n\
    \  Pas.Equations.compensated_credit ~initial:t_max_s ~ratio ~cf\n";
  check_rules "percent into ~initial:credits is fine" []
    "let f ~ratio ~cf credit_pct =\n\
    \  Pas.Equations.compensated_credit ~initial:credit_pct ~ratio ~cf\n";
  check_rules "seconds into Cpufreq.set's MHz argument flagged" [ "unit-call" ]
    "let f cpu time_s = Cpufreq.set cpu time_s\n";
  check_rules "MHz into Cpufreq.set is fine" []
    "let f cpu new_freq = Cpufreq.set cpu new_freq\n";
  check_rules "label suffix checks calls outside the registry" [ "unit-call" ]
    "let f time_s = Totally.unknown ~freq_mhz:time_s ()\n";
  check_rules "bare set does not match the Cpufreq.set entry" []
    "let f cpu time_s = set cpu time_s\n"

let test_unit_binding () =
  check_rules "joules suffix on a seconds value flagged" [ "unit-binding" ]
    "let t_j = Sim_time.to_sec now\n";
  check_rules "seconds suffix on a seconds value is fine" []
    "let t_s = Sim_time.to_sec now\n";
  check_rules "registry result propagates to the binding" [ "unit-binding" ]
    "let best_mhz = Rig.run_pi ~arch ~work ()\n";
  check_rules "suffixless binding is fine" [] "let best = Rig.run_pi ~arch ~work ()\n"

let test_unit_waiver () =
  check_rules "waived line is exempt" []
    "let t_j = Sim_time.to_sec now (* lint:ignore unit-binding: axis abuse *)\n"

let test_parse_error () =
  check_rules "unparseable file yields exactly parse-error" [ "parse-error" ]
    "let = in\n"

(* ----- domain-safety pass ----- *)

let test_domain_capture () =
  check_rules "spawned closure reaching a top-level ref flagged" [ "domain-capture" ]
    "let counter = ref 0\nlet go () = Domain.spawn (fun () -> incr counter)\n";
  check_rules "Thread.create counts as a spawn" [ "domain-capture" ]
    "let hits = Hashtbl.create 8 (* hash-order: test rig *)\n\
     let go () = Thread.create (fun () -> Hashtbl.clear hits) ()\n";
  check_rules "reachability through a named local worker" [ "domain-capture" ]
    "let hits = Hashtbl.create 8 (* hash-order: test rig *)\n\
     let go () =\n\
    \  let worker () = Hashtbl.clear hits in\n\
    \  Domain.spawn worker\n";
  check_rules "atomic state is fine" []
    "let counter = Atomic.make 0\nlet go () = Domain.spawn (fun () -> Atomic.incr counter)\n";
  check_rules "array of atomics is fine" []
    "let cells = Array.init 4 (fun _ -> Atomic.make 0)\n\
     let go () = Domain.spawn (fun () -> Atomic.incr cells.(0))\n";
  check_rules "capture under Mutex.protect is fine" []
    "let m = Mutex.create ()\n\
     let counter = ref 0\n\
     let go () = Domain.spawn (fun () -> Mutex.protect m (fun () -> incr counter))\n";
  check_rules "state created inside the closure is fine" []
    "let go () = Domain.spawn (fun () -> let acc = ref 0 in incr acc; !acc)\n";
  check_rules "mutable state without a spawn is fine" []
    "let counter = ref 0\nlet bump () = incr counter\n";
  check_rules "waiver on the spawn line applies" []
    "let counter = ref 0\n\
     let go () = Domain.spawn (fun () -> incr counter) (* lint:ignore domain-capture: test rig *)\n"

let test_domain_capture_module_alias () =
  check_rules "capture through a module alias is resolved" [ "domain-capture" ]
    "module State = struct\n\
    \  let n = ref 0\n\
     end\n\
     module S = State\n\
     let go () = Domain.spawn (fun () -> incr S.n)\n"

(* The acceptance fixture for subsuming the old text rule: mutable state
   declared inside a nested module and reached through a module alias.
   The retired text scan only matched column-zero [let … = ref …] lines,
   so this exact source was invisible to it — the AST pass must flag it,
   once, as experiment-state and nothing else. *)
let test_experiment_state_alias () =
  let src =
    "module State = struct\n\
    \  let cache = ref []\n\
     end\n\
     module S = State\n\
     let lookup () = !S.cache\n"
  in
  Alcotest.(check (list string)) "nested mutable global flagged under experiments/"
    [ "experiment-state" ]
    (rules (analyze ~file:"lib/experiments/fake.ml" src));
  check_int "reported once, at the declaration" 1
    (List.length (analyze ~file:"lib/experiments/fake.ml" src));
  check_rules "same source outside experiments/ is fine" [] src

let test_experiment_state () =
  let exp ~file src = rules (Staticcheck.analyze_source ~file src) in
  check_bool "top-level ref flagged" true
    (exp ~file:"lib/experiments/fake.ml" "let cache = ref []\n" = [ "experiment-state" ]);
  check_bool "mutable record field flagged" true
    (exp ~file:"lib/experiments/fake.ml" "type t = {\n  mutable hits : int;\n}\n"
    = [ "experiment-state" ]);
  check_bool "atomic is fine" true
    (exp ~file:"lib/experiments/fake.ml" "let seq = Atomic.make 0\n" = []);
  check_bool "ref local to a function is fine" true
    (exp ~file:"lib/experiments/fake.ml"
       "let f xs =\n  let sum = ref 0.0 in\n  List.iter (fun x -> sum := !sum +. x) xs\n"
    = []);
  check_bool "waiver applies" true
    (exp ~file:"lib/experiments/fake.ml"
       "let cache = ref [] (* lint:ignore experiment-state: build-time only *)\n"
    = [])

(* ----- interprocedural determinism effect pass -----

   Fixtures are single units, but the whole-program passes run on them
   through [analyze_source], so an entry-bearing file name (a unit called
   [Runner] with a [run_all], or a [run] under an [experiments]
   directory) exercises the call graph, the effect fixpoint and the
   chain reconstruction end to end. *)

let contains s sub =
  let n = String.length s and m = String.length sub in
  let rec loop i = i + m <= n && (String.sub s i m = sub || loop (i + 1)) in
  loop 0

let test_effect_nondet_chain () =
  let src =
    "let stamp () = Unix.gettimeofday ()\n\
     let helper () = stamp ()\n\
     let run_all () = helper ()\n"
  in
  let issues = analyze ~file:"lib/fake/runner.ml" src in
  Alcotest.(check (list string)) "wall clock reachable from the entry"
    [ "effect-nondet" ] (rules issues);
  (match issues with
  | [ i ] ->
      check_int "reported at the primitive use site" 1 i.Report.line;
      check_bool "chain starts at the entry" true (contains i.Report.message "Runner.run_all");
      check_bool "chain walks through the helper" true
        (contains i.Report.message "Runner.run_all → Runner.helper → Runner.stamp")
  | _ -> Alcotest.fail "expected exactly one issue");
  (* the same primitive in a function no entry reaches is not reported *)
  check_rules "unreachable nondet stays silent" []
    "let stamp () = Unix.gettimeofday ()\nlet unrelated x = x + 1\n"

let test_effect_hash_order () =
  let src =
    "let table = Hashtbl.create 8 (* hash-order: test rig *)\n\
     let sum () = Hashtbl.fold (fun _ v acc -> acc + v) table 0\n\
     let run_all () = sum ()\n"
  in
  let issues = analyze ~file:"lib/fake/runner.ml" src in
  Alcotest.(check (list string)) "hash-order iteration is nondet"
    [ "effect-nondet" ] (rules issues);
  match issues with
  | [ i ] -> check_int "located at the fold" 2 i.Report.line
  | _ -> Alcotest.fail "expected exactly one issue"

(* The [random] source rule is not subsumed by effect-nondet: the effect
   pass reports only what a simulation entry point reaches, so a global
   [Random] use in a driver that no entry point reaches is the source
   rule's alone. *)
let test_random_unreached () =
  let issues =
    analyze ~file:"bin/tool.ml" "let () = Random.self_init ()\nlet roll () = Random.int 6\n"
  in
  Alcotest.(check (list string)) "flagged by the source rule only" [ "random" ] (rules issues);
  check_int "one finding per use" 2 (List.length issues);
  Alcotest.(check (list string)) "reached from an entry point, both rules fire"
    [ "effect-nondet"; "random" ]
    (rules
       (analyze ~file:"lib/runner/runner.ml"
          "let roll () = Random.int 6\nlet run_all () = roll ()\n"))

let test_effect_ambient () =
  Alcotest.(check (list string)) "environment read from an entry"
    [ "effect-ambient" ]
    (rules (analyze ~file:"lib/fake/runner.ml" "let run_all () = Sys.getenv_opt \"HOME\"\n"));
  (* a top-level [run] under experiments/ is an entry point too *)
  Alcotest.(check (list string)) "experiments run is an entry"
    [ "effect-ambient" ]
    (rules (analyze ~file:"lib/experiments/fake.ml" "let run () = Sys.readdir \".\"\n"))

let test_effect_seeded_clean () =
  Alcotest.(check (list string)) "derived Prng draws are seeded, not flagged" []
    (rules
       (analyze ~file:"lib/fake/runner.ml"
          "let draw rng = Prng.float rng 1.0\nlet run_all () = draw (Prng.create 42)\n"))

let test_effect_waiver () =
  Alcotest.(check (list string)) "line waiver on the use site applies" []
    (rules
       (analyze ~file:"lib/fake/runner.ml"
          "let stamp () = Unix.gettimeofday () (* lint:ignore effect-nondet: timing only *)\n\
           let run_all () = stamp ()\n"))

(* ----- interprocedural lock-discipline pass ----- *)

let test_lock_mixed () =
  let src =
    "let m = Mutex.create ()\n\
     let counter = ref 0\n\
     let bump () = Mutex.protect m (fun () -> incr counter)\n\
     let run_all () = bump (); incr counter\n"
  in
  let issues = analyze ~file:"lib/fake/runner.ml" src in
  Alcotest.(check (list string)) "mixed guarded/bare access" [ "lock-discipline" ] (rules issues);
  match issues with
  | [ i ] ->
      check_int "reported at the root declaration" 2 i.Report.line;
      check_bool "message says mixed" true (contains i.Report.message "mixed locking")
  | _ -> Alcotest.fail "expected exactly one issue"

let test_lock_two_mutexes () =
  let src =
    "let m1 = Mutex.create ()\n\
     let m2 = Mutex.create ()\n\
     let counter = ref 0\n\
     let a () = Mutex.protect m1 (fun () -> incr counter)\n\
     let b () = Mutex.protect m2 (fun () -> incr counter)\n\
     let run_all () = a (); b ()\n"
  in
  let issues = analyze ~file:"lib/fake/runner.ml" src in
  Alcotest.(check (list string)) "two different mutexes" [ "lock-discipline" ] (rules issues);
  match issues with
  | [ i ] -> check_bool "message counts the mutexes" true (contains i.Report.message "2 different mutexes")
  | _ -> Alcotest.fail "expected exactly one issue"

let test_lock_clean_disciplines () =
  Alcotest.(check (list string)) "one mutex for every access is clean" []
    (rules
       (analyze ~file:"lib/fake/runner.ml"
          "let m = Mutex.create ()\n\
           let counter = ref 0\n\
           let bump () = Mutex.protect m (fun () -> incr counter)\n\
           let run_all () = bump ()\n"));
  Alcotest.(check (list string)) "atomic state is clean" []
    (rules
       (analyze ~file:"lib/fake/runner.ml"
          "let counter = Atomic.make 0\nlet run_all () = Atomic.incr counter\n"));
  Alcotest.(check (list string)) "read-only table is exempt" []
    (rules
       (analyze ~file:"lib/fake/runner.ml"
          "let names = [| \"a\"; \"b\" |]\nlet run_all () = names.(0)\n"))

let test_lock_unguarded () =
  let src = "let counter = ref 0\nlet run_all () = incr counter\n" in
  let issues = analyze ~file:"lib/fake/runner.ml" src in
  Alcotest.(check (list string)) "unguarded shared write" [ "lock-discipline" ] (rules issues);
  (match issues with
  | [ i ] ->
      check_bool "message says no discipline" true
        (contains i.Report.message "no guarding discipline")
  | _ -> Alcotest.fail "expected exactly one issue");
  (* a root the per-file domain-capture rule already reports surfaces
     under that one rule only, never twice *)
  check_rules "spawn-captured root reports once, as domain-capture"
    [ "domain-capture" ]
    "let counter = ref 0\nlet go () = Domain.spawn (fun () -> incr counter)\n"

(* Symbol waivers: [lint:ignore lock-discipline @Path] anywhere in the
   file, matching any source spelling of the root — the canonical
   [Unit.path] key, the in-unit path, or an alias-qualified use. *)
let test_lock_symbol_waiver () =
  let body =
    "module Config = struct\n\
    \  let collected = ref []\n\
     end\n\
     module C = Config\n\
     let run_all () = C.collected := [ 1 ]\n"
  in
  Alcotest.(check (list string)) "unwaived aliased root is flagged"
    [ "lock-discipline" ]
    (rules (analyze ~file:"lib/fake/runner.ml" body));
  List.iter
    (fun spelling ->
      Alcotest.(check (list string))
        (Printf.sprintf "waiver spelled %s applies" spelling) []
        (rules
           (analyze ~file:"lib/fake/runner.ml"
              (Printf.sprintf "(* lint:ignore lock-discipline @%s: test rig *)\n%s" spelling body))))
    [ "Runner.Config.collected"; "Config.collected"; "C.collected" ];
  (* a waiver for a different rule or root does not leak *)
  Alcotest.(check (list string)) "other-rule waiver does not apply"
    [ "lock-discipline" ]
    (rules
       (analyze ~file:"lib/fake/runner.ml"
          ("(* lint:ignore effect-nondet @C.collected *)\n" ^ body)));
  Alcotest.(check (list string)) "other-root waiver does not apply"
    [ "lock-discipline" ]
    (rules
       (analyze ~file:"lib/fake/runner.ml"
          ("(* lint:ignore lock-discipline @Other.path *)\n" ^ body)))

let test_symbol_waiver_report_level () =
  let issue = { Report.file = "f.ml"; line = 5; rule = "lock-discipline"; message = "m" } in
  let source = "let x = 1\n(* lint:ignore lock-discipline @Analysis.Config.collected *)\n" in
  let symbols _ = [ "Config.collected"; "Analysis.Config.collected" ] in
  check_int "alias spelling waives the canonical issue" 0
    (List.length (Report.drop_waived ~symbols ~source [ issue ]));
  check_int "no symbols listed keeps the issue" 1
    (List.length (Report.drop_waived ~symbols:(fun _ -> []) ~source [ issue ]));
  check_int "plain drop_waived ignores symbol waivers" 1
    (List.length (Report.drop_waived ~source [ issue ]))

(* ----- interprocedural allocation-effect pass -----

   Roots are [(* alloc: none *)] annotations in the fixture source (the
   marker line sits directly above the binding); the pass runs through
   [analyze_source] like the effect fixtures, so annotation scraping,
   the call graph, the lattice solve and the chain reconstruction are
   exercised end to end. *)

let test_alloc_chain () =
  let src =
    "let build x = Some x\n\
     let helper x = build x\n\
     (* alloc: none *)\n\
     let hot x = helper x\n"
  in
  let issues = analyze src in
  Alcotest.(check (list string)) "allocation reachable from the root"
    [ "alloc-in-hot-path" ] (rules issues);
  (match issues with
  | [ i ] ->
      check_int "reported at the allocating expression" 1 i.Report.line;
      check_bool "chain walks root → helper → site" true
        (contains i.Report.message "Fake.hot → Fake.helper → Fake.build");
      check_bool "witness names the construct" true
        (contains i.Report.message "constructor Some application")
  | _ -> Alcotest.fail "expected exactly one issue");
  check_rules "the same allocation with no root stays silent" []
    "let build x = Some x\nlet helper x = build x\nlet hot x = helper x\n";
  (* several witnesses across several lines arrive sorted *)
  let many =
    analyze "let a x = Some x\nlet b x = [ x ]\n(* alloc: none *)\nlet hot x = b (a x)\n"
  in
  check_bool "fixture yields several issues" true (List.length many > 1);
  check_bool "issues arrive sorted by (file, line, rule)" true (many = Report.sort many)

let test_alloc_unknown_callee () =
  let issues = analyze "(* alloc: none *)\nlet hot x = Mystery.frob x\n" in
  Alcotest.(check (list string)) "unresolved cross-unit callee"
    [ "alloc-unknown-callee" ] (rules issues);
  (match issues with
  | [ i ] ->
      check_int "at the call site" 2 i.Report.line;
      check_bool "names the callee" true (contains i.Report.message "Mystery.frob")
  | _ -> Alcotest.fail "expected exactly one issue");
  (* an unresolved bare name is a builtin, free only when listed *)
  let issues =
    analyze
      "let hot2 s = float_of_string s\n(* alloc: none *)\nlet hot3 s = hot2 s +. 1.0\n"
  in
  Alcotest.(check (list string)) "unlisted builtin reached through a helper"
    [ "alloc-unknown-callee" ] (rules issues);
  (match issues with
  | [ i ] ->
      check_int "at the builtin's call" 1 i.Report.line;
      check_bool "chain walks hot3 → hot2" true (contains i.Report.message "Fake.hot3 → Fake.hot2");
      check_bool "names the builtin" true (contains i.Report.message "float_of_string")
  | _ -> Alcotest.fail "expected exactly one issue");
  check_rules "dispatch through a contract field is allowed" []
    "(* alloc: none *)\nlet hot t = t.charge 1\n";
  check_rules "dispatch through a non-contract field is unknown"
    [ "alloc-unknown-callee" ]
    "(* alloc: none *)\nlet hot t = t.callback 1\n"

let test_alloc_clean_idioms () =
  check_rules "eliminable ref compiles to a mutable local" []
    "(* alloc: none *)\n\
     let hot n =\n\
    \  let acc = ref 0 in\n\
    \  for i = 0 to n do acc := !acc + i done;\n\
    \  !acc\n";
  check_rules "a cold callee is excluded from the traversal" []
    "(* amortized growth *)\n\
     (* alloc: cold *)\n\
     let slow x = Some x\n\
     (* alloc: none *)\n\
     let hot x = match slow x with Some y -> y | None -> 0\n";
  check_rules "failure paths are exempt, formatted guard included" []
    "(* alloc: none *)\n\
     let hot x = if x < 0 then invalid_arg (Printf.sprintf \"%d\" x) else x + 1\n";
  check_rules "whitelisted primitives are free" []
    "(* alloc: none *)\nlet hot a i = Array.unsafe_set a i (sqrt (Array.unsafe_get a i))\n"

let test_alloc_violating_idioms () =
  check_rules "closure passed to a free iterator still allocates"
    [ "alloc-in-hot-path" ]
    "(* alloc: none *)\nlet hot l = List.iter (fun y -> ignore y) l\n";
  check_rules "partial application allocates" [ "alloc-in-hot-path" ]
    "let add a b = a + b\n(* alloc: none *)\nlet hot x = add x\n";
  check_rules "formatted printing allocates" [ "alloc-in-hot-path" ]
    "(* alloc: none *)\nlet hot x = Printf.printf \"%d\" x\n"

(* Local bindings shadow same-named top-level ones: a parameter, a
   [let]-rebound ref or an applied closure parameter is a local, never a
   reference to the top-level binding of that name. *)
let test_alloc_local_scope () =
  check_rules "a parameter is not the same-named top-level binding" []
    "let levels t = Array.copy t\n\
     let rec sum_from levels i =\n\
    \  if i >= Array.length levels then 0 else levels.(i) + sum_from levels (i + 1)\n\
     (* alloc: none *)\n\
     let hot lv = sum_from lv 0\n";
  check_rules "a let rebinding ends the ref's scope" []
    "(* alloc: none *)\n\
     let hot n =\n\
    \  let level = ref 0 in\n\
    \  for i = 0 to n do level := !level + i done;\n\
    \  let level = !level in\n\
    \  level + 1\n";
  check_rules "an applied parameter is not the top-level function" []
    "let step x = Some x\n(* alloc: none *)\nlet hot step x = step x\n";
  check_rules "the top-level binding is still reached when not shadowed"
    [ "alloc-in-hot-path" ]
    "let levels t = Array.copy t\n(* alloc: none *)\nlet hot lv = Array.length (levels lv)\n";
  check_rules "a bare name inside a nested module reaches its sibling"
    [ "alloc-in-hot-path" ]
    "module M = struct\n\
    \  let build x = Some x\n\
    \  (* alloc: none *)\n\
    \  let hot x = build x\n\
     end\n";
  check_rules "an enclosing module's binding is reached from a nested one"
    [ "alloc-in-hot-path" ]
    "let build x = Some x\n\
     module M = struct\n\
    \  (* alloc: none *)\n\
    \  let hot x = build x\n\
     end\n"

let test_alloc_waiver () =
  check_rules "waiver on the allocating line applies" []
    "(* alloc: none *)\nlet hot x = Some x (* lint:ignore alloc-in-hot-path: test rig *)\n";
  check_rules "waiver on the unknown call site applies" []
    "(* alloc: none *)\n\
     let hot x = Mystery.frob x (* lint:ignore alloc-unknown-callee: proven free *)\n"

(* The Bounded tier: a freshly computed float returned across a
   compilation-unit boundary boxes under -opaque, so cross-unit calls to
   the tree's known float-returning functions are flagged; the same call
   inside one unit stays free. *)
let test_alloc_crossbox () =
  let dir = Filename.temp_file "allocbox" "" in
  Sys.remove dir;
  Sys.mkdir dir 0o755;
  let write name content =
    let oc = open_out (Filename.concat dir name) in
    output_string oc content;
    close_out oc
  in
  write "sim_time.ml" "let to_sec t = float_of_int t /. 1e6\n";
  write "caller.ml" "(* alloc: none *)\nlet hot t = Sim_time.to_sec t\n";
  let issues = Staticcheck.analyze_paths [ dir ] in
  Alcotest.(check (list string)) "boxed cross-unit float return"
    [ "alloc-in-hot-path" ] (rules issues);
  (match issues with
  | [ i ] ->
      check_bool "advice names the local-copy fix" true
        (contains i.Report.message "[@inline always]")
  | _ -> Alcotest.fail "expected exactly one issue");
  Array.iter (fun f -> Sys.remove (Filename.concat dir f)) (Sys.readdir dir);
  Sys.rmdir dir;
  check_rules "the same call within one unit does not box" []
    "let to_sec t = float_of_int t /. 1e6\n(* alloc: none *)\nlet hot t = to_sec t\n"

(* The static/dynamic contract ([Alloc_check.consistency]): the
   annotated roots and the microbench 0-words/op targets must name the
   same functions, and each mismatch direction yields its own message. *)
let test_alloc_consistency () =
  let consistency = Staticcheck.Alloc_check.consistency in
  check_int "agreeing views are clean" 0
    (List.length (consistency ~annotated:[ "B.g"; "A.f" ] ~benched:[ "A.f"; "B.g" ]));
  (match consistency ~annotated:[ "A.f"; "C.h" ] ~benched:[ "A.f" ] with
  | [ m ] ->
      check_bool "annotated root without a bench entry" true
        (contains m "C.h" && contains m "microbench")
  | _ -> Alcotest.fail "expected exactly one message");
  (match consistency ~annotated:[ "A.f" ] ~benched:[ "A.f"; "D.k" ] with
  | [ m ] ->
      check_bool "bench target without an annotation" true
        (contains m "D.k" && contains m "annotation")
  | _ -> Alcotest.fail "expected exactly one message");
  check_int "both directions fail together" 2
    (List.length (consistency ~annotated:[ "A.f" ] ~benched:[ "B.g" ]))

(* ----- the shared lattice solver and chain search (Fixpoint) -----

   The solver is generic; each property runs on the lattices the passes
   instantiate it with: the effect classes and the allocation classes.
   Monotonicity and the fixpoint property sit in each pass's group, one
   lattice apiece; leastness and the chain search run on both here. *)

module Fixpoint = Staticcheck.Fixpoint

let edges_gen = QCheck.(small_list (pair (int_range 0 7) (int_range 0 7)))
let solve_input = QCheck.(quad (int_range 1 8) (small_list (int_range 0 3)) edges_gen edges_gen)
let clamp n = List.filter (fun (a, b) -> a < n && b < n)

type lattice_prop = {
  prop : 'a. rank:('a -> int) -> 'a array -> (int * int) list -> (int * int) list -> bool;
}

let on_lattice classes rank { prop } (n, codes, e1, e2) =
  let base =
    Array.init n (fun i ->
        let c = match List.nth_opt codes i with Some c -> c | None -> i in
        classes.(c mod Array.length classes))
  in
  prop ~rank base (clamp n e1) (clamp n e2)

let on_effects =
  on_lattice Staticcheck.Effect_check.[| Pure; Seeded; Ambient; Nondet |]
    Staticcheck.Effect_check.rank

let on_alloc =
  on_lattice Staticcheck.Alloc_check.[| NoAlloc; Bounded; Alloc |] Staticcheck.Alloc_check.rank

let on_both_lattices prop input = on_effects prop input && on_alloc prop input

let lattice_test ?(on = on_both_lattices) name prop =
  QCheck_alcotest.to_alcotest (QCheck.Test.make ~count:300 ~name solve_input (on prop))

let monotone =
  {
    prop =
      (fun ~rank base e1 e2 ->
        let s1 = Fixpoint.solve ~rank ~base ~edges:e1 in
        let s2 = Fixpoint.solve ~rank ~base ~edges:(e1 @ e2) in
        Array.for_all2 (Fixpoint.leq ~rank) s1 s2);
  }

let fixpoint_above_base =
  {
    prop =
      (fun ~rank base e1 _ ->
        let s = Fixpoint.solve ~rank ~base ~edges:e1 in
        Array.for_all2 (Fixpoint.leq ~rank) base s
        && List.for_all (fun (caller, callee) -> Fixpoint.leq ~rank s.(callee) s.(caller)) e1);
  }

let test_effect_solve_monotone =
  lattice_test ~on:on_effects "solve is monotone under edge addition" monotone

let test_effect_solve_fixpoint =
  lattice_test ~on:on_effects "solve is a fixpoint above base" fixpoint_above_base

let test_alloc_solve_monotone =
  lattice_test ~on:on_alloc "alloc solve is monotone under edge addition" monotone

let test_alloc_solve_fixpoint =
  lattice_test ~on:on_alloc "alloc solve is a fixpoint above base" fixpoint_above_base

(* Nodes reachable from [i] (itself included), by a plain DFS. *)
let reachable ~n edges i =
  let seen = Array.make n false in
  let rec dfs j =
    if not seen.(j) then begin
      seen.(j) <- true;
      List.iter (fun (a, b) -> if a = j then dfs b) edges
    end
  in
  dfs i;
  seen

(* Least, not merely a fixpoint: a solver that lifted every node to the
   top class would pass the two properties above. *)
let test_solve_least =
  lattice_test "solve is the least fixpoint"
    {
      prop =
        (fun ~rank base e1 _ ->
          let n = Array.length base in
          let s = Fixpoint.solve ~rank ~base ~edges:e1 in
          List.for_all
            (fun i ->
              let seen = reachable ~n e1 i in
              let highest = ref 0 in
              Array.iteri (fun j r -> if r then highest := max !highest (rank base.(j))) seen;
              rank s.(i) = !highest)
            (List.init n Fun.id));
    }

(* BFS distances from the sources by plain relaxation, [max_int] when
   unreached. *)
let distances ~n edges sources =
  let d = Array.make n max_int in
  List.iter (fun i -> d.(i) <- 0) sources;
  for _ = 1 to n do
    List.iter (fun (a, b) -> if d.(a) < max_int && d.(a) + 1 < d.(b) then d.(b) <- d.(a) + 1) edges
  done;
  d

let test_bfs_chain =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~count:300 ~name:"bfs chain is shortest and stable"
       QCheck.(triple (int_range 1 8) (small_list (int_range 0 7)) edges_gen)
       (fun (n, sources, edges) ->
         let sources = List.filter (fun i -> i < n) sources in
         let edges = clamp n edges in
         let keys = Array.init n string_of_int in
         let parent = Fixpoint.bfs ~n ~edges ~sources in
         let rerun = Fixpoint.bfs ~n ~edges:(List.rev edges) ~sources in
         let d = distances ~n edges sources in
         List.for_all
           (fun i ->
             if d.(i) = max_int then parent.(i) = -2
             else
               let chain = List.map int_of_string (Fixpoint.chain ~keys ~parent i) in
               let rec linked = function
                 | a :: (b :: _ as rest) -> List.mem (a, b) edges && linked rest
                 | _ -> true
               in
               parent.(i) >= -1
               && List.length chain = d.(i) + 1
               && List.mem (List.hd chain) sources
               && List.nth chain d.(i) = i
               && linked chain
               && Fixpoint.chain ~keys ~parent:rerun i = Fixpoint.chain ~keys ~parent i)
           (List.init n Fun.id)))

(* Writes [files] under a fresh temp directory, runs [f] on it, then
   removes the tree. *)
let with_tmp_tree files f =
  let dir = Filename.temp_file "staticcheck" "" in
  Sys.remove dir;
  Sys.mkdir dir 0o755;
  let created = ref [] in
  List.iter
    (fun (rel, content) ->
      let path = Filename.concat dir rel in
      let parent = Filename.dirname path in
      if not (Sys.file_exists parent) then begin
        Sys.mkdir parent 0o755;
        created := parent :: !created
      end;
      let oc = open_out path in
      output_string oc content;
      close_out oc;
      created := path :: !created)
    files;
  Fun.protect
    ~finally:(fun () ->
      List.iter
        (fun p -> if Sys.is_directory p then Sys.rmdir p else Sys.remove p)
        !created;
      Sys.rmdir dir)
    (fun () -> f dir)

(* ----- callgraph resolution edge cases ----- *)

let test_callgraph_include () =
  (* [include Impl] re-exports [Impl.stamp] at the top level; the entry's
     bare [stamp ()] call must land on it (and carry the nondet effect). *)
  let issues =
    analyze ~file:"lib/fake/runner.ml"
      "module Impl = struct\n\
      \  let stamp () = Unix.gettimeofday ()\n\
       end\n\
       include Impl\n\
       let run_all () = stamp ()\n"
  in
  Alcotest.(check (list string)) "call through include resolves" [ "effect-nondet" ]
    (rules issues);
  (match issues with
  | [ i ] ->
      check_bool "chain lands on the included binding" true
        (contains i.Report.message "Runner.run_all → Runner.Impl.stamp")
  | _ -> Alcotest.fail "expected exactly one issue");
  (* the same shape one module level down *)
  Alcotest.(check (list string)) "nested include resolves" [ "effect-nondet" ]
    (rules
       (analyze ~file:"lib/fake/runner.ml"
          "module Defaults = struct\n\
          \  let stamp () = Unix.gettimeofday ()\n\
           end\n\
           module M = struct\n\
          \  include Defaults\n\
           end\n\
           let run_all () = M.stamp ()\n"))

let test_callgraph_nested_scope () =
  (* a bare call inside a nested module resolves against that module
     first: [run]'s [now] is [M.now], whose [Sys.time] is nondeterministic *)
  Alcotest.(check (list string)) "nested binding resolves in its module" [ "effect-nondet" ]
    (rules
       (analyze ~file:"lib/fake/runner.ml"
          "module M = struct let now () = Sys.time () let run () = now () end
           let run_all () = M.run ()
"))

let test_callgraph_functor () =
  (* functor applications are opaque: paths through [F (X)] stay
     External, with no finding and no crash *)
  Alcotest.(check (list string)) "functor application is opaque" []
    (rules
       (analyze ~file:"lib/fake/runner.ml"
          "module F (X : sig val v : int end) = struct\n\
          \  let get () = X.v\n\
           end\n\
           module M = F (struct let v = 1 end)\n\
           let run_all () = M.get ()\n"))

let test_callgraph_reexport () =
  (* alias chase + cross-unit fall-through + nested module path: the
     spawn in [b.ml] reaches [A.Inner.gauge] through [module A2 = A] *)
  with_tmp_tree
    [
      ("a.ml", "module Inner = struct\n  let gauge = ref 0\nend\n");
      ("b.ml", "module A2 = A\nlet go () = Domain.spawn (fun () -> A2.Inner.gauge := 1)\n");
    ]
    (fun dir ->
      let issues = Staticcheck.analyze_paths [ dir ] in
      check_bool "nested re-exported root is reached" true
        (List.exists
           (fun i ->
             i.Report.rule = "lock-discipline" && contains i.Report.file "a.ml")
           issues))

(* ----- float-fold-order ----- *)

let test_fold_order () =
  check_rules "hashtbl fold accumulating floats" [ "float-fold-order" ]
    "let total h = Hashtbl.fold (fun _ v acc -> acc +. v) h 0.0\n";
  check_rules "hashtbl iter accumulating floats" [ "float-fold-order" ]
    "let total h = let s = ref 0.0 in Hashtbl.iter (fun _ v -> s := !s +. v) h; !s\n";
  check_rules "seq fold over a hash-ordered sequence" [ "float-fold-order" ]
    "let total h = Seq.fold_left ( +. ) 0.0 (Hashtbl.to_seq_values h)\n";
  check_rules "fold over parallel job results" [ "float-fold-order" ]
    "let total r = List.fold_left (fun acc j -> acc +. j) 0.0 r.jobs\n";
  check_rules "integer fold over a hashtbl is fine" []
    "let count h = Hashtbl.fold (fun _ _ acc -> acc + 1) h 0\n";
  check_rules "float fold over a plain list is fine" []
    "let total l = List.fold_left ( +. ) 0.0 l\n";
  check_rules "waived deliberate reduction" []
    "let total h = Hashtbl.fold (fun _ v acc -> acc +. v) h 0.0 (* lint:ignore \
     float-fold-order: audited *)\n"

(* ----- SARIF: written and read back through Json ----- *)

let json_of s =
  match Json.parse s with Ok v -> v | Error e -> Alcotest.fail (Json.error_to_string e)

let member key v =
  match Json.member key v with Some v -> v | None -> Alcotest.failf "no JSON member %S" key

let as_list = function Json.Arr l -> l | _ -> Alcotest.fail "expected a JSON array"
let as_str = function Json.Str s -> s | _ -> Alcotest.fail "expected a JSON string"

let sarif_results doc = as_list (member "results" (List.hd (as_list (member "runs" doc))))

let test_sarif_roundtrip () =
  (* three issues across two rules: results must round-trip 1:1, the rule
     table must deduplicate *)
  let issues =
    analyze
      "let f freq_mhz time_s = freq_mhz + time_s\n\
       let g load_pct dur_s = load_pct -. dur_s\n\
       let t_j = Sim_time.to_sec now\n"
  in
  check_int "fixture yields three issues" 3 (List.length issues);
  let doc = json_of (Staticcheck.Sarif.to_string ~tool:"staticcheck" issues) in
  check_bool "sarif version" true (as_str (member "version" doc) = "2.1.0");
  let run = List.hd (as_list (member "runs" doc)) in
  let driver = member "driver" (member "tool" run) in
  check_bool "tool name" true (as_str (member "name" driver) = "staticcheck");
  let results = sarif_results doc in
  check_int "one result per issue" (List.length issues) (List.length results);
  let rule_ids = List.sort_uniq compare (List.map (fun r -> as_str (member "ruleId" r)) results) in
  Alcotest.(check (list string)) "rule ids survive" [ "unit-arith"; "unit-binding" ] rule_ids;
  check_int "rule table deduplicated" 2 (List.length (as_list (member "rules" driver)));
  List.iter
    (fun r ->
      let loc = List.hd (as_list (member "locations" r)) in
      let phys = member "physicalLocation" loc in
      check_bool "artifact is the analyzed file" true
        (as_str (member "uri" (member "artifactLocation" phys)) = "lib/fake/fake.ml");
      check_bool "region has a line" true
        (match member "startLine" (member "region" phys) with
        | Json.Num l -> l >= 1.0
        | _ -> false))
    results

let test_sarif_clean () =
  let doc = json_of (Staticcheck.Sarif.to_string ~tool:"staticcheck" []) in
  check_int "clean report still parses, with zero results" 0
    (List.length (sarif_results doc))

let test_sarif_escaping () =
  (* messages reach SARIF through the JSON escaper; quotes, backslashes and
     newlines must survive the round trip *)
  let issue =
    { Report.file = "lib/fake/fake.ml"; line = 3; rule = "unit-arith";
      message = "tricky \"quoted\" \\ and\nnewline" }
  in
  let doc = json_of (Staticcheck.Sarif.to_string ~tool:"staticcheck" [ issue ]) in
  let msg = as_str (member "text" (member "message" (List.hd (sarif_results doc)))) in
  check_bool "message round-trips" true (msg = issue.Report.message)

(* The analyzer's own SARIF reader ([Sarif.of_string]) closes the
   baseline loop: what [to_string] writes must load back 1:1, multi-byte
   UTF-8 (the → in chain messages) and escapes included. *)
let test_sarif_parse_roundtrip () =
  let issues =
    [
      { Report.file = "lib/a/a.ml"; line = 3; rule = "effect-nondet";
        message = "Unix.gettimeofday (wall clock) reached via Runner.run_all → Runner.now: fix" };
      { Report.file = "lib/b/b.ml"; line = 9; rule = "lock-discipline";
        message = "tricky \"quoted\" \\ and\nnewline" };
    ]
  in
  let back = Staticcheck.Sarif.of_string (Staticcheck.Sarif.to_string ~tool:"t" issues) in
  check_bool "issues load back byte-identical" true (back = issues);
  check_bool "malformed input raises" true
    (match Staticcheck.Sarif.of_string "{\"runs\": " with
    | exception Failure _ -> true
    | _ -> false)

let test_sarif_baseline_diff () =
  let mk file line rule message = { Report.file; line; rule; message } in
  let baseline = [ mk "a.ml" 10 "r1" "m1"; mk "gone.ml" 5 "r2" "m2" ] in
  let current = [ mk "a.ml" 42 "r1" "m1"; mk "new.ml" 7 "r3" "m3" ] in
  let d = Staticcheck.Sarif.diff_baseline ~baseline ~current in
  check_bool "line drift still suppresses" true
    (d.Staticcheck.Sarif.fresh = [ mk "new.ml" 7 "r3" "m3" ]);
  check_int "one finding suppressed" 1 d.Staticcheck.Sarif.suppressed;
  check_int "one baseline entry stale" 1 d.Staticcheck.Sarif.stale;
  let empty = Staticcheck.Sarif.diff_baseline ~baseline:[] ~current in
  check_int "empty baseline suppresses nothing" 2
    (List.length empty.Staticcheck.Sarif.fresh)

(* Every rule the analyzer can emit has an --explain entry. *)
let test_explain_coverage () =
  List.iter
    (fun rule ->
      check_bool (rule ^ " is documented") true (Staticcheck.Explain.find rule <> None))
    [
      "parse-error"; "unit-arith"; "unit-call"; "unit-binding"; "domain-capture";
      "experiment-state"; "effect-nondet"; "effect-ambient"; "lock-discipline";
      "alloc-in-hot-path"; "alloc-unknown-callee"; "float-eq"; "random";
      "assert-false"; "mutable-doc"; "missing-mli"; "hashtbl-create";
      "float-fold-order";
    ];
  check_bool "unknown rule has no entry" true (Staticcheck.Explain.find "no-such-rule" = None)

(* The acceptance check: the standalone driver
   (what [dune build @analyze] runs) exits 0 on a clean tree, nonzero on a
   planted violation, and always leaves a parseable SARIF file behind. *)
let test_driver_exit_code () =
  let exe =
    Filename.concat (Filename.dirname Sys.executable_name) "../bin/analyze_main.exe"
  in
  let dir = Filename.temp_file "analyzecheck" "" in
  Sys.remove dir;
  Sys.mkdir dir 0o755;
  let write name content =
    let oc = open_out (Filename.concat dir name) in
    output_string oc content;
    close_out oc
  in
  let sarif_path = Filename.concat dir "out.sarif" in
  let run args =
    Sys.command
      (Filename.quote_command exe args ~stdout:Filename.null ~stderr:Filename.null)
  in
  write "clean.ml" "let ok x = x + 1\n";
  check_int "clean tree exits 0" 0 (run [ dir ]);
  write "planted.ml" "let f freq_mhz time_s = freq_mhz + time_s\n";
  check_bool "planted unit-arith exits nonzero" true (run [ "--sarif"; sarif_path; dir ] <> 0);
  let doc = json_of (Report.read_file sarif_path) in
  check_int "driver sarif round-trips the issue count" 1 (List.length (sarif_results doc));
  check_bool "usage error exits 2" true (run [ "--bogus"; dir ] = 2);
  check_int "--explain known rule exits 0" 0 (run [ "--explain"; "lock-discipline" ]);
  check_int "--explain unknown rule exits 2" 2 (run [ "--explain"; "no-such-rule" ]);
  (* baseline mode: the SARIF just written is the planted finding, so
     replaying it as the baseline makes the same tree clean; a second
     planted finding is fresh and fails again *)
  check_int "identical baseline suppresses the finding" 0
    (run [ "--sarif-baseline"; sarif_path; dir ]);
  write "planted2.ml" "let t_j = Sim_time.to_sec now\n";
  check_bool "fresh finding beyond the baseline exits nonzero" true
    (run [ "--sarif-baseline"; sarif_path; dir ] <> 0);
  check_int "missing baseline file exits 2" 2
    (run [ "--sarif-baseline"; Filename.concat dir "nope.sarif"; dir ]);
  (* a baseline that is not JSON also exits 2, and the message locates the
     fault: the first non-hex byte of its \u escape, at offset 3 *)
  write "bad.sarif" "\"\\uZZZZ\"";
  let err = Filename.concat dir "err.txt" in
  check_int "unreadable baseline exits 2" 2
    (Sys.command
       (Filename.quote_command exe
          [ "--sarif-baseline"; Filename.concat dir "bad.sarif"; dir ]
          ~stdout:Filename.null ~stderr:err));
  check_bool "its message names the byte offset" true
    (contains (Report.read_file err) "at offset 3");
  Array.iter (fun f -> Sys.remove (Filename.concat dir f)) (Sys.readdir dir);
  Sys.rmdir dir

(* A root is analyzed whatever its name: [.] (and [dir/.]) walk the tree,
   while dot-directories met inside it are still skipped. *)
let test_driver_dot_root () =
  let exe =
    Filename.concat (Filename.dirname Sys.executable_name) "../bin/analyze_main.exe"
  in
  let dir = Filename.temp_file "dotroot" "" in
  Sys.remove dir;
  Sys.mkdir dir 0o755;
  let hidden = Filename.concat dir ".hidden" and sub = Filename.concat dir "pe" in
  Sys.mkdir hidden 0o755;
  Sys.mkdir sub 0o755;
  let write path content = Out_channel.with_open_text path (fun oc -> output_string oc content) in
  let run root =
    Sys.command (Filename.quote_command exe [ root ] ~stdout:Filename.null ~stderr:Filename.null)
  in
  write (Filename.concat hidden "bad.ml") "let bad x = x = 1.0\n";
  check_int "a dot-directory inside the root is skipped" 0 (run (Filename.concat dir "."));
  write (Filename.concat sub "bad.ml") "let bad x = x = 1.0\n";
  check_int "the subdirectory root finds the planted file" 1 (run sub);
  check_int "the dot root finds it too" 1 (run (Filename.concat dir "."));
  let cwd = Sys.getcwd () in
  Sys.chdir dir;
  let files = Report.collect_sources [ "." ] in
  Sys.chdir cwd;
  Alcotest.(check (list string)) "[.] collects the tree, not the dot-directory"
    [ Filename.concat (Filename.concat "." "pe") "bad.ml" ] files;
  List.iter
    (fun d ->
      Sys.remove (Filename.concat d "bad.ml");
      Sys.rmdir d)
    [ hidden; sub ];
  Sys.rmdir dir

(* The zero-alloc prover end to end through the driver: a planted
   hot-path allocation fails the build with the chain in the SARIF
   message, the report is byte-identical across repeated runs and every
   --jobs value, --alloc-roots prints the annotated keys, the per-pass
   timing names exactly the passes that run, and every new rule has an
   --explain entry. *)
let test_driver_alloc_determinism () =
  let exe =
    Filename.concat (Filename.dirname Sys.executable_name) "../bin/analyze_main.exe"
  in
  let dir = Filename.temp_file "alloccheck" "" in
  Sys.remove dir;
  Sys.mkdir dir 0o755;
  let write name content =
    let oc = open_out (Filename.concat dir name) in
    output_string oc content;
    close_out oc
  in
  let run ?stdout args =
    Sys.command
      (Filename.quote_command exe args
         ~stdout:(Option.value stdout ~default:Filename.null)
         ~stderr:Filename.null)
  in
  write "hot.ml"
    "let build x = Some x\n\
     (* alloc: none *)\n\
     let hot x = build x\n\
     (* alloc: none *)\n\
     let sample t = t + 1\n";
  write "units.ml" "let f freq_mhz time_s = freq_mhz + time_s\n";
  let sarif_of name args =
    let path = Filename.concat dir name in
    check_bool "planted allocation exits nonzero" true
      (run ([ "--sarif"; path ] @ args @ [ dir ]) <> 0);
    Report.read_file path
  in
  let s1 = sarif_of "r1.sarif" [] in
  let s2 = sarif_of "r2.sarif" [] in
  check_bool "repeated runs are byte-identical" true (String.equal s1 s2);
  List.iter
    (fun jobs ->
      let s = sarif_of ("j" ^ jobs ^ ".sarif") [ "--jobs"; jobs ] in
      check_bool ("--jobs " ^ jobs ^ " is byte-identical") true (String.equal s1 s))
    [ "1"; "2"; "4" ];
  check_bool "chain message reaches the SARIF report" true
    (contains s1 "Hot.hot → Hot.build");
  let roots_path = Filename.concat dir "roots.txt" in
  check_int "--alloc-roots exits 0" 0 (run ~stdout:roots_path [ "--alloc-roots"; dir ]);
  check_bool "both annotated keys print sorted" true
    (String.equal (Report.read_file roots_path) "Hot.hot\nHot.sample\n");
  let timing_path = Filename.concat dir "t.json" in
  ignore (run [ "--timing"; timing_path; dir ]);
  (match json_of (Report.read_file timing_path) with
  | Json.Obj fields ->
      Alcotest.(check (list string))
        "timing file carries the total and exactly the per-pass keys"
        [
          "schema"; "analyze_seconds"; "parse_seconds"; "effect_seconds"; "lock_seconds";
          "alloc_seconds"; "perfile_seconds";
        ]
        (List.map fst fields);
      Alcotest.(check string) "timing schema" "dvfs-analyze-timing/1"
        (as_str (member "schema" (Json.Obj fields)))
  | _ -> Alcotest.fail "timing file is not a JSON object");
  List.iter
    (fun rule ->
      check_int ("--explain " ^ rule ^ " exits 0") 0 (run [ "--explain"; rule ]))
    [ "alloc-in-hot-path"; "alloc-unknown-callee" ];
  check_int "--explain of the retired hot-path-printf exits 2" 2
    (run [ "--explain"; "hot-path-printf" ]);
  Array.iter (fun f -> Sys.remove (Filename.concat dir f)) (Sys.readdir dir);
  Sys.rmdir dir

(* The committed SARIF baseline must be
   empty — every legacy finding has been fixed or carries an in-source
   waiver, so a fresh finding can never hide behind the baseline. *)
let test_baseline_is_empty () =
  let path =
    Filename.concat (Filename.dirname Sys.executable_name) "../analysis-baseline.sarif"
  in
  check_int "committed analysis baseline carries no findings" 0
    (List.length (Staticcheck.Sarif.load path))

let () =
  Alcotest.run "staticcheck"
    [
      ( "units",
        [
          Alcotest.test_case "cross-unit arithmetic" `Quick test_unit_arith;
          Alcotest.test_case "mismatched calls" `Quick test_unit_call;
          Alcotest.test_case "contradicting bindings" `Quick test_unit_binding;
          Alcotest.test_case "waiver" `Quick test_unit_waiver;
          Alcotest.test_case "parse error" `Quick test_parse_error;
        ] );
      ( "domains",
        [
          Alcotest.test_case "spawn captures" `Quick test_domain_capture;
          Alcotest.test_case "module aliases" `Quick test_domain_capture_module_alias;
          Alcotest.test_case "experiment state" `Quick test_experiment_state;
          Alcotest.test_case "aliased experiment state" `Quick test_experiment_state_alias;
        ] );
      ( "effects",
        [
          Alcotest.test_case "nondet call chain" `Quick test_effect_nondet_chain;
          Alcotest.test_case "hash-order iteration" `Quick test_effect_hash_order;
          Alcotest.test_case "ambient reads" `Quick test_effect_ambient;
          Alcotest.test_case "random outside simulation reach" `Quick test_random_unreached;
          Alcotest.test_case "seeded draws are clean" `Quick test_effect_seeded_clean;
          Alcotest.test_case "use-site waiver" `Quick test_effect_waiver;
          test_effect_solve_monotone;
          test_effect_solve_fixpoint;
        ] );
      ("fixpoint", [ test_solve_least; test_bfs_chain ]);
      ( "locks",
        [
          Alcotest.test_case "mixed guarded/bare" `Quick test_lock_mixed;
          Alcotest.test_case "two mutexes" `Quick test_lock_two_mutexes;
          Alcotest.test_case "clean disciplines" `Quick test_lock_clean_disciplines;
          Alcotest.test_case "unguarded shared write" `Quick test_lock_unguarded;
          Alcotest.test_case "symbol waivers" `Quick test_lock_symbol_waiver;
          Alcotest.test_case "symbol waiver matching" `Quick test_symbol_waiver_report_level;
        ] );
      ( "alloc",
        [
          Alcotest.test_case "hot-path chain" `Quick test_alloc_chain;
          Alcotest.test_case "unknown callee" `Quick test_alloc_unknown_callee;
          Alcotest.test_case "clean idioms" `Quick test_alloc_clean_idioms;
          Alcotest.test_case "violating idioms" `Quick test_alloc_violating_idioms;
          Alcotest.test_case "waivers" `Quick test_alloc_waiver;
          Alcotest.test_case "local scope" `Quick test_alloc_local_scope;
          Alcotest.test_case "cross-unit float boxing" `Quick test_alloc_crossbox;
          Alcotest.test_case "static/dynamic consistency" `Quick test_alloc_consistency;
          Alcotest.test_case "driver determinism" `Quick test_driver_alloc_determinism;
          test_alloc_solve_monotone;
          test_alloc_solve_fixpoint;
        ] );
      ( "callgraph",
        [
          Alcotest.test_case "include re-export" `Quick test_callgraph_include;
          Alcotest.test_case "nested module scope" `Quick test_callgraph_nested_scope;
          Alcotest.test_case "functor opacity" `Quick test_callgraph_functor;
          Alcotest.test_case "nested re-export" `Quick test_callgraph_reexport;
        ] );
      ( "folds", [ Alcotest.test_case "float fold order" `Quick test_fold_order ] );
      ( "sarif",
        [
          Alcotest.test_case "round trip" `Quick test_sarif_roundtrip;
          Alcotest.test_case "clean report" `Quick test_sarif_clean;
          Alcotest.test_case "escaping" `Quick test_sarif_escaping;
          Alcotest.test_case "reader round trip" `Quick test_sarif_parse_roundtrip;
          Alcotest.test_case "baseline diff" `Quick test_sarif_baseline_diff;
          Alcotest.test_case "explain coverage" `Quick test_explain_coverage;
          Alcotest.test_case "driver exit code" `Quick test_driver_exit_code;
          Alcotest.test_case "driver dot root" `Quick test_driver_dot_root;
          Alcotest.test_case "committed baseline is empty" `Quick test_baseline_is_empty;
        ] );
    ]
