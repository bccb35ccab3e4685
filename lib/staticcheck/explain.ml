(* Rule documentation behind [analyze_main --explain RULE].  One entry
   per rule the analyzer can emit, so the CI log's rule id is always one
   command away from its rationale and its waiver spelling. *)

let rules =
  [
    ( "parse-error",
      "The file is not parseable as OCaml, so no AST pass ran on it.\n\
       Fix the syntax error; the analyzer reports the parser's location." );
    ( "unit-arith",
      "Arithmetic or comparison mixes two different units of measure\n\
       (for example seconds + joules), inferred from the _s/_j/_pct/_mhz…\n\
       suffix vocabulary and the .mli registry.\n\
       Fix: convert explicitly, or rename a misleading binding.\n\
       Waive: (* lint:ignore unit-arith: reason *) on the flagged line." );
    ( "unit-call",
      "An argument's inferred unit contradicts the unit the callee's\n\
       signature (Equations, Pas_sched, Cpufreq, …) declares for that\n\
       position.  Fix the value or the name; waive with\n\
       (* lint:ignore unit-call: reason *)." );
    ( "unit-binding",
      "A binding's name suffix contradicts the unit of its right-hand\n\
       side (let power_j = …_watts).  Rename one side, or waive with\n\
       (* lint:ignore unit-binding: reason *)." );
    ( "domain-capture",
      "A closure passed to Domain.spawn/Thread.create reaches\n\
       unsynchronized mutable state declared outside it (directly,\n\
       through aliases, or through same-unit helper calls).  Two domains\n\
       mutating that state race.\n\
       Fix: share it through Atomic/Mutex, or keep it closure-local.\n\
       References under Mutex.protect are already exempt." );
    ( "experiment-state",
      "A module under experiments/ declares structure-level mutable\n\
       state or a mutable record field.  Experiment run closures execute\n\
       on arbitrary runner domains in arbitrary order; module-level\n\
       state makes runs order-dependent.\n\
       Fix: move the state inside the run closure." );
    ( "effect-nondet",
      "Code reachable from a simulation entry point (Runner.run_job,\n\
       Registry.all, Experiment.run, experiments/*) uses a primitive\n\
       whose result varies run to run: wall clock (Unix.gettimeofday,\n\
       Sys.time), global Random, hash-order iteration (Hashtbl.iter/\n\
       fold/to_seq), Domain.self, or GC counters.  Simulated results\n\
       must be a pure function of (seed, scale) or shard outputs can\n\
       never be compared.\n\
       The message shows the full entry → … → use call chain.\n\
       Fix: derive randomness with Prng.derive, sort before iterating,\n\
       hoist timing into the driver; waive a deliberate use with\n\
       (* lint:ignore effect-nondet: reason *) on the use site." );
    ( "effect-ambient",
      "Code reachable from a simulation entry point reads the host\n\
       environment: env vars (Sys.getenv), the filesystem (open_in,\n\
       Sys.readdir, …) or machine topology\n\
       (Domain.recommended_domain_count) outside the blessed config\n\
       loaders.  Same-seed runs on two hosts may then diverge.\n\
       Fix: read the host once in the driver and pass values in; waive\n\
       with (* lint:ignore effect-ambient: reason *) on the use site." );
    ( "lock-discipline",
      "A structure-level mutable root shared with parallel code has no\n\
       consistent guarding discipline: accesses mix Mutex.protect and\n\
       bare use, use two different mutexes, or are entirely unguarded\n\
       (and not Atomic, not read-only, not already reported by\n\
       domain-capture).  Reported at the declaration line.\n\
       Fix: guard every access with one mutex or switch to Atomic.\n\
       Waive for one root, file-scoped, under any of its spellings:\n\
       (* lint:ignore lock-discipline @Config.collected *)." );
    ( "float-eq",
      "Floating-point = or <> comparison; simulator quantities are\n\
       accumulated floats, exact comparison is order-dependent.\n\
       Fix: compare against a tolerance.\n\
       Waive: (* lint:ignore float-eq: reason *)." );
    ( "random",
      "Any use of the global Random module, whether or not a simulation\n\
       entry point reaches it (effect-nondet covers only reached code);\n\
       the parallel runner requires experiment-keyed determinism.\n\
       Fix: use Prng.derive / Prng.derive_seed." );
    ( "assert-false",
      "assert false without an adjacent (* unreachable: … *) comment\n\
       explaining why the branch cannot happen." );
    ( "mutable-doc",
      "A mutable record field in an interface has no (** … *) doc\n\
       comment from three lines above to one line below; exposed\n\
       mutability is an API contract and must be documented." );
    ( "missing-mli",
      "A library module has no interface file; every lib/ module ships\n\
       a .mli so the public surface is deliberate." );
    ( "alloc-in-hot-path",
      "An allocating construct (closure, tuple/record/array/list\n\
       construction, partial application, Printf/Format, ref, string\n\
       concatenation, boxed int64 arithmetic, or a freshly computed\n\
       float returned across a compilation-unit boundary) is reachable\n\
       from a hot-path root annotated (* alloc: none *).  The message\n\
       shows the full root → … → site call chain; the zero-alloc\n\
       invariant is also enforced dynamically by bench/micro --check.\n\
       Fix: reuse a preallocated cell (Series.add_cell idiom), add a\n\
       local [@inline always] copy of a cross-unit float helper, or\n\
       hoist cold work behind an [@inline never] helper marked\n\
       (* alloc: cold *).\n\
       Waive: (* lint:ignore alloc-in-hot-path: reason *) on the line." );
    ( "alloc-unknown-callee",
      "A call reachable from an (* alloc: none *) hot root cannot be\n\
       proven allocation-free: the callee does not resolve to a scanned\n\
       binding or a known primitive, or the call is indirect through a\n\
       record field outside the dispatch contract (scheduler\n\
       pick/charge, workload advance/has_work/execute, queue key/cmp,\n\
       …).  Unknown callees default to allocating — the proof must\n\
       cover every call.\n\
       Fix: qualify the call so it resolves, extend the known-free\n\
       primitive table if it provably does not allocate, route dispatch\n\
       through a contract field, or mark the callee (* alloc: cold *).\n\
       Waive: (* lint:ignore alloc-unknown-callee: reason *)." );
    ( "float-fold-order",
      "Non-associative float accumulation (+. or *.) over an iteration\n\
       whose order is not fixed: a Hashtbl.fold/iter closure, a fold\n\
       over Hashtbl.to_seq*, or a fold over the parallel runner's jobs.\n\
       Hash order is salted per run and completion order is\n\
       scheduling-dependent, so the sum differs between runs.\n\
       Fix: fold a sorted snapshot, or accumulate in a fixed order\n\
       (the runner's jobs list is registry-ordered — say so).\n\
       Waive: (* lint:ignore float-fold-order: reason *) on the line." );
    ( "hashtbl-create",
      "A new Hashtbl.create without a nearby comment (same line or the\n\
       two lines above) containing \"deterministic\" or \"hash-order\"\n\
       acknowledging iteration-order discipline.  Hashtbl iteration\n\
       order depends on hash seeding and insertion history, which the\n\
       effect pass flags when simulation-reachable (effect-nondet);\n\
       lookup-only tables are fine — say so in the comment.\n\
       Fix: add e.g. (* deterministic: lookup-only, never iterated *),\n\
       or use an assoc list / Map for iterated collections." );
  ]

let find rule = List.assoc_opt rule rules

let explain rule =
  match find rule with
  | Some text ->
      Printf.printf "%s\n\n%s\n" rule text;
      0
  | None ->
      Printf.eprintf "unknown rule %S; known rules:\n" rule;
      List.iter (fun (r, _) -> Printf.eprintf "  %s\n" r) rules;
      2
